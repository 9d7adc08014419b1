import itertools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import matrices
from kuniform.fileio import read_state, read_witness
from kuniform.fixtures import fixture_path
from kuniform.modular import digits, is_prime, prime_factors, rank_mod_p, reduce_mod
from kuniform.matrices import (
    _STACK_CAP,
    Provenance,
    _rank_certificate,
    SymWitness,
    all_phases,
    cauchy_witness,
    check_certificate,
    check_certificate_general,
    check_certificate_prime,
    quadratic_phase,
    state_from_matrix,
    upper_triangle_to_matrix,
)
from kuniform.search import SearchBudget, search_witness
from kuniform.states import PureState, TooLargeError, verify_uniform

FLIP = [[0, 1], [1, 0]]


def test_quadratic_phase_examples():
    assert quadratic_phase(FLIP, (1, 1), 4) == 1
    assert quadratic_phase(FLIP, (5, 5), 6) == 1
    assert quadratic_phase(FLIP, (0, 0), 4) == 0
    with pytest.raises(ValueError):
        quadratic_phase(FLIP, (1, 1, 1), 4)
    # c is read exactly: 1.7 would truncate to 1 and give phase 1
    with pytest.raises(ValueError, match="not an integer"):
        quadratic_phase(FLIP, (1.7, 1), 2)
    assert quadratic_phase(FLIP, (1.0, 1.0), 4) == 1
    # and so is H in the vectorized form: 1.5 would truncate to 1
    with pytest.raises(ValueError, match="not an integer"):
        all_phases([[0, 1.5], [1.5, 0]], 2, 3)
    assert all_phases([[0, 4.0], [4.0, 0]], 2, 3)[1].tolist() == [0, 0, 0, 0, 1, 2, 0, 2, 1]


def test_certificate_prime_examples():
    for p in (2, 3, 5, 7):
        assert check_certificate_prime(FLIP, p, 1)
    six = read_witness(fixture_path("witness_6x6_d2.txt"))
    assert check_certificate_prime(six.H, 2, 3)
    assert not check_certificate_prime(np.zeros((4, 4), dtype=int), 3, 1)


def test_certificate_general_examples():
    assert check_certificate_general(FLIP, 4, 1)
    assert check_certificate_general(FLIP, 6, 1)
    assert not check_certificate_general([[0, 2], [2, 0]], 4, 1)


def test_certificate_malformed():
    with pytest.raises(ValueError):
        check_certificate_prime([[0, 1], [0, 0]], 2, 1)  # not symmetric
    with pytest.raises(ValueError):
        check_certificate_prime([[1, 1], [1, 0]], 2, 1)  # nonzero diagonal
    with pytest.raises(ValueError, match=r"modulus 4 is composite; use check_certificate, which is exact"):
        check_certificate_prime(FLIP, 4, 1)  # composite modulus on prime path
    with pytest.raises(ValueError):
        check_certificate_prime(FLIP, 2, 2)  # k > n/2
    with pytest.raises(ValueError, match="must be square"):
        check_certificate([[0, 1, 0], [1, 0, 0]], 2, 1)
    for k in (0, 2):
        with pytest.raises(ValueError, match="out of range"):
            check_certificate_general(FLIP, 6, k)


def test_prime_checkers_agree():
    rng = random.Random(12)
    for n, p in [(5, 2), (5, 3), (6, 2)]:
        for _ in range(300):
            tri = [rng.randrange(p) for _ in range(n * (n - 1) // 2)]
            H = upper_triangle_to_matrix(tri, n, p)
            k = rng.choice([1, 2])
            assert check_certificate_prime(H, p, k) == check_certificate_general(H, p, k)
    # prime powers and mixed levels against an independent reference, the
    # determinant certificate mod each prime of d: random rows, a found
    # witness and its one-entry changes, and the whole batch through the
    # kernel at once
    for n, d, k in [(5, 4, 2), (6, 4, 3), (5, 8, 2), (5, 9, 2), (6, 9, 3), (5, 25, 2),
                    (5, 6, 2), (6, 6, 3), (5, 10, 2), (6, 10, 3), (5, 12, 2), (6, 12, 3)]:
        T = n * (n - 1) // 2
        w = list(search_witness(n, d, k, SearchBudget(10**5, seed=0)).upper_triangle())
        tris = [[rng.randrange(d) for _ in range(T)] for _ in range(100)]
        tris += [w] + [w[:t] + [(w[t] + rng.randrange(1, d)) % d] + w[t + 1:] for t in range(T)]
        mats = [upper_triangle_to_matrix(t, n, d) for t in tris]
        want = [all(check_certificate_general(H, p, k) for p in prime_factors(d)) for H in mats]
        assert 0 < sum(want) < len(want), (n, d, k)
        assert [check_certificate(H, d, k) for H in mats] == want, (n, d, k)
        assert _rank_certificate(np.array(tris).T, n, k, prime_factors(d)).tolist() == want, (n, d, k)
    # one matrix whose subsets span more than one stacked block: rows 14 and
    # 15 agree mod 2 off columns 12 and 13, so only the last subset
    # {12, 13, 14, 15} has a singular H[A x complement] mod 2
    n, d, k = 16, 4, 4
    assert comb(n, k) * k * (n - k) > _STACK_CAP
    H = np.zeros((n, n), dtype=np.int64)
    while not check_certificate(H, d, k):  # about one random matrix in 30 passes
        H = upper_triangle_to_matrix([rng.randrange(d) for _ in range(n * (n - 1) // 2)], n, d)
    assert check_certificate_general(H, d, k)
    H[15, :12] = H[:12, 15] = (H[14, :12] + 2) % d
    H[15, 12:14] = H[12:14, 15] = (H[14, 12:14] + 1) % d
    assert not check_certificate(H, d, k) and not check_certificate_general(H, d, k)
    blocks = [H[np.ix_(A, [j for j in range(n) if j not in A])] for A in itertools.combinations(range(n), k)]
    assert np.flatnonzero(rank_mod_p(np.array(blocks), 2) < k).tolist() == [comb(n, k) - 1]


def test_rank_kernel_decides_a_huge_prime(monkeypatch):
    # (p - 1)^2 >= 2^63 for p = 2^61 - 1: the kernel keeps its residues as
    # Python ints, and no minor is taken
    monkeypatch.setattr(matrices, "invertible_mod_d", lambda *args: pytest.fail("a minor was taken"))
    p = 2**61 - 1
    table = np.array([[1, 2, p]])
    assert _rank_certificate(table, 2, 1, prime_factors(2 * p)).tolist() == [True, False, False]
    assert _rank_certificate(table, 2, 1, prime_factors(p)).tolist() == [True, True, False]
    for d, want in ((2 * p, [True, False, False]), (p, [True, True, False])):
        assert [check_certificate([[0, h], [h, 0]], d, 1) for h in (1, 2, p)] == want, d
        assert search_witness(2, d, 1, SearchBudget(10, seed=0)) is not None
    # n = 4, k = 2: H[{0, 1} x {2, 3}] = [[1, 2], [3, 6 + p]] has determinant p,
    # singular mod p and not mod 5
    H = np.array([[0, 5, 1, 2], [5, 0, 3, 6 + p], [1, 3, 0, 7], [2, 6 + p, 7, 0]], dtype=object)
    assert not check_certificate(H, p, 2) and check_certificate(H, 5, 2)
    H[1, 3] = H[3, 1] = 7
    assert check_certificate(H, p, 2)
    assert rank_mod_p([[1, 2], [3, 6 + p]], p) == 1 and rank_mod_p([[1, 2], [3, 7]], p) == 2


@pytest.mark.parametrize("q", [3_037_000_507, 2**61 - 1])
def test_certificate_agrees_with_the_minors_at_huge_primes(q):
    # the invertible-minor certificate is exact at a prime and shares no code
    # with the rank kernel; half the matrices get one block of rank below k:
    # a row of H[A x complement] set to c times another (zero at k = 1)
    rng = random.Random(q)
    verdicts = set()
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            for planted in (False, False, True, True):
                H = upper_triangle_to_matrix([rng.randrange(q) for _ in range(n * (n - 1) // 2)], n, q)
                if planted:
                    A = rng.sample(range(n), k)
                    rest = [j for j in range(n) if j not in A]
                    c = rng.randrange(q)
                    for j in rest:
                        H[A[0], j] = H[j, A[0]] = c * int(H[A[-1], j]) % q if k > 1 else 0
                got = check_certificate(H, q, k)
                assert got == check_certificate_general(H, q, k), (n, k, H.tolist())
                assert not (planted and got), (n, k)
                verdicts.add(got)
    assert verdicts == {True, False}


def _primes_from(lo, count):
    return list(itertools.islice((p for p in itertools.count(lo) if is_prime(p)), count))


@pytest.mark.parametrize("n", range(2, 15))
def test_cauchy_witness_is_ame_at_the_first_two_primes(n):
    for p in _primes_from(2 * n - 1, 2):
        w = cauchy_witness(n, p)
        assert (w.n, w.d, w.k, w.provenance) == (n, p, n // 2, Provenance("cauchy"))
        i, j = np.triu_indices(n, 1)
        assert (w.H[i, j] * (i + j) % p == 1).all()
        assert check_certificate_general(w.H, p, n // 2)


@st.composite
def _cauchy_points(draw):
    """(n, p, xs): n points mod a prime p >= 2n - 1, no two equal and no two summing to 0."""
    n = draw(st.integers(2, 9))
    p = draw(st.sampled_from(_primes_from(2 * n - 1, 6)))
    classes = draw(st.lists(st.integers(0, (p - 1) // 2), min_size=n, max_size=n, unique=True))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    lifts = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return n, p, [s * c + t * p for c, s, t in zip(classes, signs, lifts)]


@settings(max_examples=60, deadline=None)
@given(_cauchy_points())
def test_cauchy_witness_is_ame_for_any_valid_points(case):
    n, p, xs = case
    w = cauchy_witness(n, p, xs)
    assert w.k == n // 2 and check_certificate_general(w.H, p, n // 2)


def test_cauchy_witness_refusals():
    with pytest.raises(ValueError, match="prime"):
        cauchy_witness(3, 9)
    with pytest.raises(ValueError, match="need 3 points, got an array of shape \\(2,\\)"):
        cauchy_witness(3, 7, [0, 1])
    with pytest.raises(ValueError, match="shape"):
        cauchy_witness(2, 7, [[0, 1]])
    with pytest.raises(ValueError, match="repeat"):
        cauchy_witness(3, 7, [1, 2, 8])
    with pytest.raises(ValueError, match="sum to 0"):
        cauchy_witness(3, 7, [0, 3, 4])
    # below 2n - 1 the default points 0..n-1 have a pair summing to 0 mod p
    for n in range(3, 9):
        for p in (q for q in range(2, 2 * n - 1) if is_prime(q)):
            with pytest.raises(ValueError):
                cauchy_witness(n, p)


@pytest.mark.parametrize("n,p", [(3, 5), (4, 7), (5, 11)])
def test_the_oracle_verifies_cauchy_states(n, p):
    state = state_from_matrix(cauchy_witness(n, p))
    assert len(state) == p**n
    assert verify_uniform(state, n // 2).uniform


def test_certificate_factors_the_level_once(monkeypatch):
    calls = []
    monkeypatch.setattr(matrices, "prime_factors", lambda d: calls.append(d) or prime_factors(d))
    for d in (6, 2**61 - 1, (2**31 - 1) * (2**31 + 11)):
        calls.clear()
        assert check_certificate(FLIP, d, 1)
        assert calls == [d]


def _phase_state(H, n, d):
    """The matrix state of any zero-diagonal symmetric H, whether it certifies or not."""
    strings, phases = all_phases(H, n, d)
    return PureState._from_arrays(n, d, strings, exponents=phases)


@pytest.mark.parametrize("n,d,k,count", [
    (3, 6, 1, None), (3, 10, 1, None), (3, 12, 1, None), (3, 4, 1, None), (3, 9, 1, None),
    (4, 6, 1, 1000), (5, 6, 2, 1000),
])
def test_certificate_equals_the_oracle(n, d, k, count):
    # whole spaces (count None) or seeded samples: the certificate is exact
    # at mixed levels and prime powers alike
    T = n * (n - 1) // 2
    if count is None:
        rows = digits(np.arange(d**T), d, T)
    else:
        rows = np.random.default_rng(17).integers(0, d, size=(count, T))
    got, want = [], []
    for row in rows:
        H = upper_triangle_to_matrix(row, n, d)
        got.append(check_certificate(H, d, k))
        want.append(verify_uniform(_phase_state(H, n, d), k).uniform)
    assert 0 < sum(want) < len(want)
    assert got == want


def test_general_certificate_implies_the_rank_certificate():
    # the paper's invertible-block certificate is sufficient at mixed levels
    # and misses witnesses whose nonzero minors mod each prime sit in
    # different blocks
    rng = np.random.default_rng(18)
    for d in (6, 10, 12):
        for n, k in [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3)]:
            mats = [upper_triangle_to_matrix(r, n, d) for r in rng.integers(0, d, size=(200, n * (n - 1) // 2))]
            general = np.array([check_certificate_general(H, d, k) for H in mats])
            rank = np.array([check_certificate(H, d, k) for H in mats])
            assert (rank >= general).all(), (n, d, k)
            if k == 1:
                assert rank.sum() > general.sum(), (n, d, k)


def test_rank_certificate_reads_every_digit_table_form_alike():
    # prime, prime-power and mixed levels; the int64 table also with entries
    # shifted by multiples of d, which reduce to the same candidates
    rng = np.random.default_rng(15)
    for n, d, k in [(5, 2, 2), (5, 3, 2), (6, 4, 3), (5, 9, 2), (5, 6, 2), (4, 251, 2)]:
        rows = rng.integers(0, d, size=(300, n * (n - 1) // 2))
        want = _rank_certificate(rows.T, n, k, prime_factors(d))
        assert 0 < want.sum() < len(want), (n, d, k)
        shifted = rows + d * rng.integers(-3, 4, size=rows.shape)
        for table in (rows.T.astype(np.uint8), rows.T.tolist(), shifted.T):
            assert _rank_certificate(table, n, k, prime_factors(d)).tolist() == want.tolist(), (n, d, k)


def test_levels_past_int64_are_refused_not_wrapped():
    # residues mod 2^63 + 29 reach past int64: reduce_mod refuses the level
    # rather than cast 2^63 + 1, already in range, to -2^63 + 1
    big = 2**63 + 29
    with pytest.raises(OverflowError, match="do not fit"):
        reduce_mod(np.array([2**63 + 1], dtype=np.uint64), big)
    with pytest.raises(OverflowError):
        reduce_mod([0], 2**8 + 1, np.uint8)
    for refused in (lambda: upper_triangle_to_matrix(np.array([2**63 + 1], dtype=np.uint64), 2, big),
                    lambda: check_certificate(FLIP, big, 1),
                    lambda: SymWitness(n=2, d=big, H=np.array(FLIP), k=1)):
        with pytest.raises(OverflowError):
            refused()
    # 2^63 itself still holds every residue
    top = 2**63
    assert reduce_mod(np.array([2**63 + 1, 2**63 - 1], dtype=np.uint64), top).tolist() == [1, 2**63 - 1]
    H = upper_triangle_to_matrix(np.array([2**63 - 1], dtype=np.uint64), 2, top)
    assert H.tolist() == [[0, 2**63 - 1], [2**63 - 1, 0]]
    assert check_certificate(H, top, 1) and not check_certificate([[0, 2], [2, 0]], top, 1)
    assert SymWitness(n=2, d=top, H=H, k=1).upper_triangle() == (2**63 - 1,)
    w = search_witness(2, top, 1, SearchBudget(10, seed=0))
    assert w is not None and w.H.dtype == np.int64 and (w.H >= 0).all()


def test_certificate_reads_wide_and_fractional_entries_exactly():
    # 2^64 - 1 = 0 mod 3: the matrix is zero there, not the flip it reads as in int64
    H = np.array([[0, 2**64 - 1], [2**64 - 1, 0]], dtype=np.uint64)
    assert not check_certificate(H, 3, 1) and not check_certificate_general(H, 3, 1)
    assert check_certificate(H, 2, 1)
    with pytest.raises(ValueError, match="not an integer"):
        check_certificate([[0, 1.5], [1.5, 0]], 3, 1)
    assert check_certificate([[0.0, 1.0], [1.0, 0.0]], 3, 1)
    assert upper_triangle_to_matrix(np.array([2**64 - 1], dtype=np.uint64), 2, 3).tolist() == [[0, 0], [0, 0]]
    with pytest.raises(ValueError, match="not an integer"):
        upper_triangle_to_matrix([1.5], 2, 3)


def test_certificate_permutation_invariance():
    six = read_witness(fixture_path("witness_6x6_d2.txt"))
    rng = random.Random(13)
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        P = six.H[np.ix_(perm, perm)]
        assert check_certificate_prime(P, 2, 3)


def test_witness_validation():
    with pytest.raises(ValueError):
        SymWitness(n=4, d=2, H=np.zeros((4, 4), dtype=int), k=1)
    with pytest.raises(ValueError, match="matrix size 2 != n=3"):
        SymWitness(n=3, d=2, H=np.array(FLIP), k=1)
    for entries in ((1,), (1, 0, 1, 1)):
        with pytest.raises(ValueError, match="need 3 entries"):
            upper_triangle_to_matrix(entries, 3, 2)
    w = SymWitness(n=2, d=6, H=np.array(FLIP), k=1, provenance=Provenance("fixture"))
    assert w.upper_triangle() == (1,)


def test_state_from_matrix_fixture_states(data_dir):
    cases = [
        ("witness_2x2_d4.txt", "expected_2x2_d4.txt", 1),
        ("witness_2x2_d6.txt", "expected_2x2_d6.txt", 1),
        ("witness_6x6_d2.txt", "expected_6x6_d2.txt", 3),
        ("witness_8x8_d2.txt", "expected_8x8_d2.txt", 3),
    ]
    for wname, ename, k in cases:
        w = read_witness(fixture_path(wname))
        state = state_from_matrix(w)
        assert len(state) == w.d**w.n
        expected = read_state(data_dir / ename)
        assert state.phase_map() == expected.phase_map(), wname
        assert verify_uniform(state, k).uniform, wname


def test_state_size_guard():
    w = read_witness(fixture_path("witness_8x8_d2.txt"))
    with pytest.raises(TooLargeError):
        state_from_matrix(w, max_kets=100)


def test_diagonal_marginals_of_matrix_states():
    from kuniform.states import marginal_sum

    w = read_witness(fixture_path("witness_6x6_d2.txt"))
    s = state_from_matrix(w)
    # diagonal overlap sums are d^(n-k) for full-support phase states
    for A in [(0, 1, 2), (1, 3, 5)]:
        for ca in [(0, 0, 0), (1, 0, 1)]:
            assert marginal_sum(s, A, ca, ca).integer_value() == 2**3


def test_certificate_implies_uniform_on_random_witnesses():
    # sampled witnesses for a few small shapes; every accepted matrix must
    # produce a state the oracle confirms (deeper sweep in the acceptance suite)
    rng = random.Random(14)
    for n, d, k in [(4, 2, 1), (5, 2, 2), (4, 3, 2), (6, 3, 2)]:
        found = 0
        for seed in range(40):
            w = search_witness(n, d, k, SearchBudget(20000, seed=seed, mode="random"))
            if w is None:
                continue
            found += 1
            state = state_from_matrix(w)
            assert verify_uniform(state, k).uniform, (n, d, k, seed)
            if found >= 8:
                break
        assert found >= 3, (n, d, k)


def test_worker_state_generation_matches():
    w = read_witness(fixture_path("witness_6x6_d2.txt"))
    a = state_from_matrix(w)
    b = state_from_matrix(w, workers=3)
    assert a.phase_map() == b.phase_map()
