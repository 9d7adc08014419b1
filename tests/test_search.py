import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import matrices, modular, search
from kuniform.fileio import append_registry, read_registry
from kuniform.matrices import (
    _rank_certificate,
    check_certificate,
    check_certificate_general,
    state_from_matrix,
    upper_triangle_to_matrix,
)
from kuniform.search import (
    _HASH_BLOCK,
    SearchBudget,
    _digits_batch,
    _level2_words,
    _row_words,
    _screen_level2,
    _stream,
    _stream_base,
    _survivors,
    search_witness,
    splitmix64,
    table_scan,
)
from kuniform.states import verify_uniform


def test_trivial_exhaustive_witness():
    w = search_witness(2, 2, 1, SearchBudget(4, 0, "exhaustive"))
    assert w.H.tolist() == [[0, 1], [1, 0]]
    assert w.provenance.index == 1
    assert w.provenance.method == "exhaustive"


def test_exhaustive_negative_cells():
    assert search_witness(4, 2, 2, SearchBudget(64, 0, "exhaustive")) is None
    assert search_witness(4, 4, 2, SearchBudget(4**6, 0, "exhaustive")) is None


def test_exhaustive_budget_invariant():
    with pytest.raises(ValueError):
        search_witness(6, 2, 3, SearchBudget(100, 0, "exhaustive"))
    with pytest.raises(ValueError):
        SearchBudget(0, 0, "random")
    with pytest.raises(ValueError):
        SearchBudget(10, 0, "sideways")
    for n, d, k in ((4, 2, 0), (4, 2, 3), (5, 2, -1)):
        with pytest.raises(ValueError, match="out of range"):
            search_witness(n, d, k, SearchBudget(10, 0))
    for d in (1, 0):
        with pytest.raises(ValueError, match="invalid level"):
            search_witness(4, d, 1, SearchBudget(10, 0))


@pytest.mark.parametrize("kwargs,name", [
    ({"max_candidates": 1000.5}, "max_candidates"),
    ({"max_candidates": True}, "max_candidates"),
    ({"max_candidates": "10"}, "max_candidates"),
    ({"max_candidates": 10, "seed": 1.5}, "seed"),
    ({"max_candidates": 10, "seed": False}, "seed"),
])
def test_budget_refuses_what_is_not_an_integer(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SearchBudget(**kwargs)


def test_budget_takes_numpy_integers():
    budget = SearchBudget(np.int64(10**4), np.int64(7))
    assert (type(budget.max_candidates), type(budget.seed)) == (int, int)
    w = search_witness(5, 2, 2, budget)
    assert w.provenance == search_witness(5, 2, 2, SearchBudget(10**4, 7)).provenance


def test_random_stream_is_stable():
    # pin the documented candidate-digit scheme against accidental change
    base = _stream_base(7, 6, 2, 3)
    digits = _digits_batch(base, 0, 3, 15, 2, "random")
    again = _digits_batch(base, 0, 3, 15, 2, "random")
    assert (digits == again).all()
    one = _digits_batch(base, 2, 1, 15, 2, "random")
    assert (one[:, 0] == digits[:, 2]).all()
    assert splitmix64(0) == 0xE220A8397B1DCDAF  # published splitmix64 vector


def test_random_stream_matches_scalar_splitmix64():
    # digit t of candidate i is splitmix64((base + i*T + t) mod 2^64) mod d,
    # also where the uint64 sum wraps, where start*T alone passes 2^64, and
    # across a hash block boundary
    block = _HASH_BLOCK // 64
    for base, start, count, T, d in ((_stream_base(7, 6, 2, 3), 0, 4, 6, 2), (12345, 1000, 4, 6, 5),
                                     (2**64 - 9, 0, 4, 6, 3), (2**64 - 1, 3, 4, 6, 7), (99, 2**61 + 5, 4, 6, 2),
                                     (2**64 - 3, 2**58 - 1, block + 2, 64, 2), (7, 11, block + 2, 64, 3),
                                     (12345, 1000, 4, 6, 6), (2**64 - 9, 0, 4, 6, 9), (7, 11, block + 2, 64, 10),
                                     (2**64 - 1, 3, 4, 6, 2**63 - 25)):
        table = _digits_batch(base, start, count, T, d, "random")
        want = [[splitmix64((base + i * T + t) % 2**64) % d for t in range(T)] for i in range(start, start + count)]
        assert table.T.tolist() == want
    # the stream itself: digits t0 .. t0 + L - 1 of gathered, unordered candidates,
    # across a hash block (L = 66 hashes 992 candidates a block) and where the sum wraps
    gathered = np.random.default_rng(1).choice(10**6, 1000, replace=False)
    for d in (2, 3, 4, 6, 2**63 - 25):
        for base, start, offs, T, t0, L in ((2**64 - 40, 3, gathered, 66, 0, 66),
                                            (2**64 - 1, 2**60, gathered[:9], 15, 7, 5),
                                            (12345, 0, np.array([7, 0, 7, 2]), 2016, 1000, 63)):
            got = _stream(base, start, offs, T, t0, L, d)
            want = [[splitmix64((base + (start + o) * T + t) % 2**64) % d for o in offs.tolist()]
                    for t in range(t0, t0 + L)]
            assert got.dtype == np.min_scalar_type(d - 1) and got.tolist() == want, (d, T, t0)


def test_exhaustive_order_is_lexicographic():
    digits = _digits_batch(0, 0, 9, 2, 3, "exhaustive")
    assert digits.T.tolist() == [
        [0, 0],
        [0, 1],
        [0, 2],
        [1, 0],
        [1, 1],
        [1, 2],
        [2, 0],
        [2, 1],
        [2, 2],
    ]
    # the shared digits helper, at other bases and widths and from a nonzero start
    for base, width, start in ((2, 5, 0), (5, 3, 0), (7, 1, 0), (3, 4, 17), (4, 0, 0)):
        want = list(itertools.product(range(base), repeat=width))[start:]
        count = len(want)
        rows = modular.digits(np.arange(start, start + count), base, width)
        assert rows.tolist() == [list(t) for t in want]
        assert (_digits_batch(0, start, count, width, base, "exhaustive").T == rows).all()
        assert modular.from_digits(rows, base).tolist() == list(range(start, start + count))
    assert modular.from_digits(np.ones((1, 63), dtype=np.int64), 2).tolist() == [2**63 - 1]
    with pytest.raises(OverflowError):
        modular.from_digits(np.zeros((1, 64), dtype=np.int64), 2)


@pytest.mark.parametrize("n,d,k,mode,budget", [
    (6, 2, 3, "exhaustive", 2**15),
    (6, 2, 3, "random", 10**5),
    (5, 3, 2, "random", 10**5),
    (6, 4, 3, "random", 10**6),
])
def test_worker_count_determinism(n, d, k, mode, budget):
    results = []
    for workers in (1, 2, 3):
        w = search_witness(n, d, k, SearchBudget(budget, seed=5, mode=mode), workers=workers)
        assert w is not None
        results.append((w.provenance.index, w.H.tolist()))
    assert results[0] == results[1] == results[2]


def test_seed_replays_identically():
    a = search_witness(6, 3, 3, SearchBudget(10**6, seed=9, mode="random"))
    b = search_witness(6, 3, 3, SearchBudget(10**6, seed=9, mode="random"))
    assert a.provenance.index == b.provenance.index
    assert (a.H == b.H).all()
    # pinned indices: no screen or chunk schedule may move the first hit
    for (n, d, k), budget, index in [
        ((6, 3, 3), SearchBudget(10**6, seed=9, mode="random"), 182),
        ((6, 5, 3), SearchBudget(10**6, seed=0, mode="random"), 13),
        ((4, 3, 2), SearchBudget(3**6, seed=0, mode="exhaustive"), 123),
        ((5, 6, 2), SearchBudget(10**5, seed=0, mode="random"), 46),
        ((6, 10, 3), SearchBudget(2 * 10**4, seed=0, mode="random"), 2418),
        ((12, 2, 4), SearchBudget(10**7, seed=0, mode="random"), 1047),
        ((12, 2, 4), SearchBudget(10**7, seed=7777, mode="random"), 861),
        ((6, 4, 3), SearchBudget(10**6, seed=0, mode="random"), 144),
        ((5, 8, 2), SearchBudget(10**6, seed=0, mode="random"), 9),
        ((6, 9, 3), SearchBudget(10**6, seed=0, mode="random"), 20),
        ((6, 12, 2), SearchBudget(10**5, seed=0, mode="random"), 6),
    ]:
        assert search_witness(n, d, k, budget).provenance.index == index, (n, d, k)
    # the first mixed-level witness is one the paper's invertible-block
    # certificate rejects, and the oracle confirms its 7,776-ket state
    w = search_witness(5, 6, 2, SearchBudget(10**5, seed=0, mode="random"))
    assert not check_certificate_general(w.H, 6, 2)
    assert verify_uniform(state_from_matrix(w), 2).uniform


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_early_hit_draws_only_the_chunks_it_scans(monkeypatch, workers):
    # a budget of 10^10 is about 3*10^5 chunks; the hit at 182 lies in the first one
    real_chunks = search._chunks

    def one_chunk_then_fail(total):
        for i, chunk in enumerate(real_chunks(total)):
            if i == 1:
                raise AssertionError("chunk schedule drawn past the first hit")
            yield chunk

    monkeypatch.setattr(search, "_chunks", one_chunk_then_fail)
    w = search_witness(6, 3, 3, SearchBudget(10**10, seed=9, mode="random"), workers=workers)
    assert w.provenance.index == 182


def test_a_search_factors_the_level_once(monkeypatch):
    # a random (8,3,4) miss scans four chunks; every chunk's screen gets the
    # primes that search_witness found before the first one
    calls, chunks = [], []
    spy = lambda d: calls.append(d) or modular.prime_factors(d)
    monkeypatch.setattr(search, "prime_factors", spy)
    monkeypatch.setattr(matrices, "prime_factors", spy)
    real_chunks = search._chunks
    monkeypatch.setattr(search, "_chunks", lambda total: (chunks.append(c) or c for c in real_chunks(total)))
    assert search_witness(8, 3, 4, SearchBudget(3 * 10**4, seed=0)) is None
    assert len(chunks) >= 3 and calls == [3]


def test_each_hit_is_certified_once(monkeypatch):
    # the screen is exact at every level, so SymWitness's check is the only
    # certificate, also at a prime whose residues the kernel keeps as Python ints
    calls, real = [], matrices.check_certificate
    spy = lambda H, d, k: calls.append(d) or real(H, d, k)
    monkeypatch.setattr(matrices, "check_certificate", spy)
    monkeypatch.setattr(search, "check_certificate", spy)
    for (n, d, k), seed in (((12, 2, 4), 0), ((6, 3, 3), 9), ((5, 6, 2), 0), ((2, 2 * (2**61 - 1), 1), 0)):
        calls.clear()
        assert search_witness(n, d, k, SearchBudget(10**7, seed)) is not None
        assert calls == [d], (n, d, k)


def test_a_search_at_a_huge_prime_hits_its_first_candidate():
    # (p - 1)^2 >= 2^63 at p = 3,037,000,507: the rank kernel works on Python
    # ints there, and its first 1,024-candidate chunk is ranked whole
    w = search_witness(6, 3_037_000_507, 3, SearchBudget(10**4, 0))
    assert (w.provenance.method, w.provenance.seed, w.provenance.index) == ("random", 0, 0)


def _assert_screen_agrees(n, d, k, base, start, count, mode):
    """The scan's screen on a chunk against the determinant certificate mod
    each prime of d: equal at every level."""
    table = _digits_batch(base, start, count, n * (n - 1) // 2, d, mode)
    offs = _survivors(start, count, n, d, k, base, mode, modular.prime_factors(d))
    mask = np.zeros(count, dtype=bool)
    mask[offs] = True
    mats = [upper_triangle_to_matrix(r, n, d) for r in table.T]
    want = np.array([all(check_certificate_general(H, p, k) for p in modular.prime_factors(d)) for H in mats])
    assert (mask == want).all()
    return want


@pytest.mark.parametrize("n,d,k", [(5, 2, 2), (4, 3, 2), (4, 4, 1), (3, 6, 1), (2, 9, 1), (3, 8, 1), (3, 10, 1)])
def test_screen_is_exact_on_whole_small_spaces(n, d, k):
    T = n * (n - 1) // 2
    assert _assert_screen_agrees(n, d, k, 0, 0, d**T, "exhaustive").any()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(4, 3, 2), (5, 3, 2), (6, 3, 3), (4, 4, 2), (5, 4, 2), (4, 5, 2), (6, 5, 3),
                     (4, 9, 2), (6, 2, 3), (8, 2, 4), (10, 2, 5), (5, 6, 2), (5, 10, 2)]),
    st.integers(0, 2**32),
    st.integers(0, 10**4),
)
def test_screen_matches_the_determinant_certificate(case, seed, start):
    n, d, k = case
    _assert_screen_agrees(n, d, k, _stream_base(seed, n, d, k), start, 48, "random")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(4, 1), (5, 2), (6, 3), (7, 3), (8, 4)]), st.integers(0, 2**32))
def test_bit_screen_agrees_with_batched_screen(case, seed):
    n, k = case
    T, base = n * (n - 1) // 2, _stream_base(seed, n, 2, k)
    table = _digits_batch(base, 0, 512, T, 2, "random")
    assert (_screen_level2(table, n, k) == _rank_certificate(table, n, k, [2])).all()


def test_digit_table_matches_the_scalar_references():
    # the (T, count) table in the narrowest dtype that holds d - 1.  Random
    # mode against splitmix64(...) % d: both sides of a hash block boundary
    # (column count - 3) and a uint64 sum that wraps (base 2^64 - 5).
    # Exhaustive mode against the integer digits and modular.digits, at d = 2
    # also for indices whose leading digits lie above bit 63
    for d in (2, 3, 4, 6, 8, 256, 257, 2**32, 2**63):
        for T in (1, 6, 28, 66):
            count = _HASH_BLOCK // T + 3
            for base, start in ((_stream_base(3, 8, d, 4), 0), (2**64 - 5, 12345)):
                table = _digits_batch(base, start, count, T, d, "random")
                assert table.dtype == np.min_scalar_type(d - 1) and table.shape == (T, count)
                for i in (0, 1, count - 4, count - 3, count - 1):
                    want = [splitmix64((base + (start + i) * T + t) % 2**64) % d for t in range(T)]
                    assert table[:, i].tolist() == want, (d, T, start, i)
        cases = [(1, 0, 500), (3, 12345, 700)]
        if d == 2:
            cases += [(6, 0, 64), (21, 2**21 - 700, 700), (28, 98765, 3000), (64, 0, 500), (66, 0, 500),
                      (66, 2**62 + 9, 77)]
        for T, start, count in cases:
            table = _digits_batch(0, start, count, T, d, "exhaustive")
            assert table.dtype == np.min_scalar_type(d - 1) and table.shape == (T, count)
            want = [[i // d ** (T - 1 - t) % d for t in range(T)] for i in range(start, start + count)]
            assert table.T.tolist() == want, (d, T, start)
            assert (table.T == modular.digits(np.arange(start, start + count), d, T)).all()


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 2), (8, 3), (9, 3), (10, 3), (11, 3), (12, 4),
                                 (16, 3), (17, 2), (33, 2), (64, 1)])
def test_bit_screen_matches_rank_screen_at_every_word_width(n, k):
    # random chunks pass almost everywhere at large n and exhaustive chunks
    # fail almost everywhere, so sparse random bits (about 4 per row) add mixed cases
    T = n * (n - 1) // 2
    chunks = [_digits_batch(_stream_base(0, n, 2, k), 1000, 256, T, 2, "random"),
              _digits_batch(0, min(2**T, 2**62) - 300, 256, T, 2, "exhaustive"),
              _digits_batch(0, 12345, 256, T, 2, "exhaustive"),
              (np.random.default_rng(n).random((T, 256)) < 4 / n).astype(np.uint8)]
    passed = 0
    for bits in chunks:
        mask = _screen_level2(bits, n, k)
        assert (mask == _rank_certificate(bits, n, k, [2])).all()
        passed += mask.sum()
    assert 0 < passed < 4 * 256


# (n, k) cells whose rank reference gathers at most 2^22 entries per candidate
_WORK = 1 << 22
_SCREEN_CELLS = [(n, k) for n in [*range(2, 21), 33, 64] for k in range(1, min(n // 2, 6) + 1)
                 if math.comb(n, k) * k * (n - k) <= _WORK]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_SCREEN_CELLS), st.floats(0.05, 0.95), st.integers(0, 2**32))
def test_bit_screen_equals_the_rank_certificate(cell, density, seed):
    n, k = cell
    T, count = n * (n - 1) // 2, min(256, _WORK // (math.comb(n, k) * k * (n - k)))
    bits = (np.random.default_rng(seed).random((T, count)) < density).astype(np.uint8)
    assert (_screen_level2(bits, n, k) == _rank_certificate(bits, n, k, [2])).all()


def test_bit_screen_is_exact_on_the_whole_6_2_3_space():
    bits = _digits_batch(0, 0, 2**15, 15, 2, "exhaustive")
    mask = _screen_level2(bits, 6, 3)
    assert (mask == _rank_certificate(bits, 6, 3, [2])).all()
    assert np.flatnonzero(mask)[0] == 7915


# the level-2 stream against the digit table: whole spaces with T < 15, the
# whole (6,2,3) space, exhaustive chunks across a 2^15 boundary (the table of
# low words holds 2^15 candidates) and random chunks at every word width
_STREAM_CASES = (
    [(n, k, "exhaustive", 0, 0, 2 ** (n * (n - 1) // 2)) for n in range(2, 6) for k in range(1, n // 2 + 1)]
    + [(6, 3, "exhaustive", 0, 0, 2**15)]
    + [(n, k, "exhaustive", 0, start, 3000) for n, k in [(7, 2), (7, 3), (8, 3), (12, 4)]
       for start in (2**15 - 7, 3 * 2**15 + 11)]
    + [(n, k, "random", seed, start, 1500)
       for n, k in [(5, 2), (8, 3), (8, 4), (12, 4), (20, 5), (33, 3), (64, 2), (64, 32)]
       for seed in (0, 7777) for start in (0, 2**20 + 5)]
)


@pytest.mark.parametrize("n,k,mode,seed,start,count", _STREAM_CASES)
def test_level2_stream_matches_the_digit_table(n, k, mode, seed, start, count):
    base = _stream_base(seed, n, 2, k)
    table = _digits_batch(base, start, count, n * (n - 1) // 2, 2, mode)
    ref = _row_words(table, n)
    offs, words = _level2_words(base, start, count, n, k, mode)
    assert offs.tolist() == np.flatnonzero((np.bitwise_count(ref) >= k).all(axis=0)).tolist()
    assert words.dtype == ref.dtype and (words == ref[:, offs]).all()
    offs = _survivors(start, count, n, 2, k, base, mode, [2])
    assert offs.tolist() == np.flatnonzero(_screen_level2(table, n, k)).tolist()


@pytest.mark.parametrize("n,k", [(8, 4), (12, 5)])
@pytest.mark.parametrize("seed", [0, 7777])
def test_chunked_level2_screen_matches_the_whole_digit_table(n, k, seed):
    # the first 2^17 random candidates in the scan's chunks (2^10, 2^12, 2^14,
    # then 2^15 and a partial one) cross every chunk size and many hash blocks
    base, total = _stream_base(seed, n, 2, k), 2**17
    sizes = [count for _, count in search._chunks(total)]
    assert sizes[:4] == [2**10, 2**12, 2**14, 2**15] and sizes[-1] < 2**15
    got = np.concatenate([start + _survivors(start, count, n, 2, k, base, "random", [2])
                          for start, count in search._chunks(total)])
    table = _digits_batch(base, 0, total, n * (n - 1) // 2, 2, "random")
    assert got.tolist() == np.flatnonzero(_screen_level2(table, n, k)).tolist()


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2**32 - 1), max_size=64))
def test_the_parity_is_bit_31_of_one_product(ys):
    # z = y*M mod 2^32; y*M*(1 + 2^31) = z + (z << 31) mod 2^32 keeps bits 0..30
    # of z and takes no carry into bit 31, so bit 31 is z_31 ^ z_0
    M = 0x94D049BB133111EB
    C = M * (1 + 2**31) % 2**32
    y = np.array(ys + [0, 1, 2**31, 2**32 - 1], dtype=np.uint32)
    z = y * np.uint32(M % 2**32)
    assert ((y * np.uint32(C)) >> np.uint32(31)).tolist() == ((z ^ (z >> np.uint32(31))) & np.uint32(1)).tolist()
    for v in y.tolist():
        w = v * M % 2**32
        assert v * C % 2**32 >> 31 == (w >> 31) ^ (w & 1)


def _passers_reference(start, count, n, d, k, base, mode):
    """Offsets of the chunk's certificate passers, by the rank kernel over the whole digit table."""
    table = _digits_batch(base, start, count, n * (n - 1) // 2, d, mode)
    return np.flatnonzero(_rank_certificate(table, n, k, modular.prime_factors(d))).tolist()


@pytest.mark.parametrize("n,k,mode,seed,start,count", [
    (5, 2, "exhaustive", 0, 0, 1024),
    (6, 3, "exhaustive", 0, 7000, 2000),
    (7, 2, "exhaustive", 0, 103000, 2000),
    (7, 3, "exhaustive", 0, 2**21 - 3000, 3000),
    (7, 3, "exhaustive", 0, 3 * 2**15 - 500, 1000),
    (8, 3, "random", 0, 0, 1024),
    (8, 4, "random", 7777, 5000, 2000),
    (9, 4, "random", 3, 0, 1024),
    (12, 4, "random", 0, 1000, 100),
])
def test_first_pass_matches_rank_screen_and_recheck(n, k, mode, seed, start, count):
    base = _stream_base(seed, n, 2, k)
    want = _passers_reference(start, count, n, 2, k, base, mode)
    assert _survivors(start, count, n, 2, k, base, mode, [2]).tolist() == want


@pytest.mark.parametrize("n,k,seed,start,count", [
    (10, 5, 0, 0, 2048),
    (10, 5, 7777, 2**20, 1024),
    (12, 6, 0, 0, 1024),
    (12, 6, 3, 5000, 512),
])
def test_first_pass_matches_the_reference_past_k_4(n, k, seed, start, count):
    base = _stream_base(seed, n, 2, k)
    want = _passers_reference(start, count, n, 2, k, base, "random")
    assert _survivors(start, count, n, 2, k, base, "random", [2]).tolist() == want


def test_bit_screen_keeps_passers_wider_than_a_word(monkeypatch):
    # n = 66, k = 1: the perfect matching {0-65, 1-2, 3-4, ..., 63-64}; row 0's
    # only entry sits in column 65, past any 64-bit word
    n = 66
    H = np.zeros((n, n), dtype=np.int64)
    for i, j in [(0, 65)] + [(v, v + 1) for v in range(1, 65, 2)]:
        H[i, j] = H[j, i] = 1
    assert check_certificate(H, 2, 1)
    row = H[np.triu_indices(n, 1)]
    assert _rank_certificate(row[:, None], n, 1, [2]).all()
    monkeypatch.setattr(search, "_digits_batch", lambda *args: row[:, None].copy())
    assert _survivors(0, 1, n, 2, 1, 0, "exhaustive", [2]).tolist() == [0]


def test_level2_table_replays_are_pinned():
    # the criterion-4 row at the benchmark's budget: exhaustive cells up to
    # n = 7 and the random n = 8 cells, whose k = 4 miss is a budget miss
    for seed, n8 in ((0, 230), (7777, 6)):
        cells = table_scan(2, range(2, 9), max_candidates=2**21, seed=seed)
        got = {n: (c.best_k, c.witness.provenance.method, c.witness.provenance.index) for n, c in cells.items()}
        assert got[5] == (2, "exhaustive", 236)
        assert got[6] == (3, "exhaustive", 7915)
        assert got[7] == (2, "exhaustive", 103864)
        assert got[8] == (3, "random", n8)
        assert cells[7].misses == [(3, "exhausted")]
        assert cells[8].misses == [(4, "budget")]


def test_level4_table_replays_are_pinned():
    # the d = 4 row of the qudit benchmark: exhaustive cells up to n = 5, the
    # random n = 6 cell, and the random (7,4,3) miss
    for seed, n6 in ((0, 144), (7777, 42)):
        cells = table_scan(4, range(2, 7), max_candidates=10**7, seed=seed)
        got = {n: (c.best_k, c.witness.provenance.method, c.witness.provenance.index) for n, c in cells.items()}
        assert got == {2: (1, "exhaustive", 1), 3: (1, "exhaustive", 5), 4: (1, "exhaustive", 69),
                       5: (2, "exhaustive", 21584), 6: (3, "random", n6)}
        assert cells[4].misses == [(2, "exhausted")]
        assert search_witness(7, 4, 3, SearchBudget(3 * 10**4, seed)) is None


@pytest.mark.parametrize("n,d,k,mode,start,count", [
    (4, 4, 2, "exhaustive", 0, 4**6), (6, 4, 3, "random", 0, 4096), (5, 8, 2, "random", 100, 2048),
    (5, 16, 2, "exhaustive", 12345, 2048), (4, 6, 2, "exhaustive", 0, 6**6), (5, 6, 2, "random", 0, 4096),
    (8, 6, 4, "random", 7, 4096), (5, 12, 2, "exhaustive", 5000, 2048), (6, 10, 3, "random", 0, 2048),
])
def test_even_levels_screen_the_prime_2_by_popcount(monkeypatch, n, d, k, mode, start, count):
    # the rank kernel never sees p = 2 at an even level with n <= 64; an odd
    # prime p sees exactly the candidates that pass the parity screen and
    # have >= k entries nonzero mod p in every row, as residues mod p
    calls = []

    def spy(table, n, k, primes):
        calls.append((np.array(table), list(primes)))
        return _rank_certificate(table, n, k, primes)

    monkeypatch.setattr(search, "_rank_certificate", spy)
    base = _stream_base(0, n, d, k)
    offs = _survivors(start, count, n, d, k, base, mode, modular.prime_factors(d))
    table = _digits_batch(base, start, count, n * (n - 1) // 2, d, mode)
    popcount = np.flatnonzero(_screen_level2(table & 1, n, k))
    odd = [p for p in modular.prime_factors(d) if p != 2]
    assert [primes for _, primes in calls] == [odd] * bool(odd and popcount.size)
    if calls:
        mats = [upper_triangle_to_matrix(table[:, i], n, d) for i in popcount]
        want = [i for i, H in zip(popcount, mats) if ((H % odd[0] != 0).sum(axis=1) >= k).all()]
        assert calls[0][0].shape[1] == len(want) > 0 and (calls[0][0] == table[:, want] % odd[0]).all()
    assert set(offs.tolist()) <= set(popcount.tolist())


def test_found_witnesses_pass_recheck_and_oracle():
    for n, d, k, budget in [(5, 2, 2, 10**4), (6, 3, 3, 10**6), (5, 4, 2, 10**5)]:
        w = search_witness(n, d, k, SearchBudget(budget, seed=0, mode="random"))
        assert w is not None
        assert check_certificate(w.H, d, k)
        assert verify_uniform(state_from_matrix(w), k).uniform


def test_registry_roundtrip(tmp_path):
    path = tmp_path / "registry.txt"
    w1 = search_witness(5, 2, 2, SearchBudget(10**4, seed=0, mode="random"))
    w2 = search_witness(4, 3, 2, SearchBudget(3**6, seed=0, mode="exhaustive"))
    append_registry(path, w1)
    append_registry(path, w2)
    loaded = read_registry(path)
    assert len(loaded) == 2
    assert (loaded[0].H == w1.H).all()
    assert loaded[0].provenance == w1.provenance
    assert (loaded[1].H == w2.H).all()
    assert loaded[1].k == 2


def test_table_scan_small(tmp_path):
    registry = tmp_path / "reg.txt"
    cells = table_scan(2, range(2, 7), max_candidates=2**15, seed=0, registry_path=registry)
    assert [cells[n].best_k for n in range(2, 7)] == [1, 1, 1, 2, 3]
    assert cells[4].misses == [(2, "exhausted")]
    assert cells[2].witness.provenance.index == 1
    stored = read_registry(registry)
    assert [w.n for w in stored] == [2, 3, 4, 5, 6]
    # sizes below 2 are refused before any cell is scanned or stored
    for n_values in ([1], range(-3, 3), [4, 0]):
        with pytest.raises(ValueError):
            table_scan(2, n_values, max_candidates=2**6, registry_path=tmp_path / "refused.txt")
    assert not (tmp_path / "refused.txt").exists()
