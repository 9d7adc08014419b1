import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kuniform.codes import (
    HypothesisError,
    LinearCode,
    _macwilliams,
    _weight_distribution,
    certified_k,
    codewords,
    dual_code,
    expand_code,
    is_self_dual,
    min_distance,
    puncture_last,
    reed_solomon,
    same_code,
    shorten_last,
    state_from_code,
)
from kuniform.fields import TraceOrthBasis, find_trace_orthogonal_basis, get_field
from kuniform.fileio import read_code
from kuniform.fixtures import fixture_path
from kuniform.modular import digits, row_reduce
from kuniform.states import TooLargeError, verify_uniform

F2 = get_field(2)
F3 = get_field(3)
F5 = get_field(5)


@pytest.fixture(scope="module")
def selfdual8():
    return read_code(fixture_path("code_8_4_4_binary.txt"))


def _repetition(field, n):
    return LinearCode(field, np.ones((1, n), dtype=np.int64))


def _random_code(field, n, m, rng):
    while True:
        g = np.array(
            [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)], dtype=np.int64
        )
        try:
            return LinearCode(field, g)
        except ValueError:
            continue


def test_dual_examples(selfdual8):
    rep2 = _repetition(F2, 2)
    assert same_code(dual_code(rep2), rep2)
    assert is_self_dual(rep2)
    assert same_code(dual_code(selfdual8), selfdual8)
    assert is_self_dual(selfdual8)
    rep3 = _repetition(F3, 3)
    dual = dual_code(rep3)
    parity = LinearCode(F3, np.array([[1, 0, 2], [0, 1, 2]]))
    assert same_code(dual, parity)
    # the dual of the zero code is the whole space
    zero = LinearCode(F3, np.zeros((0, 4), dtype=np.int64))
    assert same_code(dual_code(zero), LinearCode(F3, np.eye(4, dtype=np.int64)))


@pytest.mark.parametrize("rows", [[[1.5, 2.7]], [["3", 1]], [[2**64, 1]], [[-1, 1]], [[5, 1]], [[float("nan"), 1]]])
def test_generator_entries_must_be_field_elements(rows):
    # read exactly: a fractional entry is never truncated to a field element
    with pytest.raises(ValueError, match="not an integer|must be field elements"):
        LinearCode(F5, rows)


def test_integral_generator_entries_are_accepted():
    for rows in ([[2.0, 1.0]], np.array([[2, 1]], dtype=np.uint64), np.array([[2, 1]], dtype=object)):
        g = LinearCode(F5, rows).generator
        assert g.dtype == np.int64 and g.tolist() == [[2, 1]]


def test_min_distance_examples(selfdual8):
    assert min_distance(selfdual8) == 4
    assert min_distance(_repetition(F2, 5)) == 5
    rs = reed_solomon(F5, 5, 2)
    assert min_distance(rs) == 4
    # oracle: direct enumeration of the 25 codewords
    weights = [int(np.count_nonzero(w)) for w in codewords(rs)]
    assert sorted(set(weights)) == [0, 4, 5]


def test_min_distance_budget():
    rs = reed_solomon(F5, 5, 3)
    with pytest.raises(TooLargeError):
        min_distance(rs, max_codewords=100)


def test_state_from_code_examples(selfdual8):
    s = state_from_code(selfdual8, 3)
    assert len(s) == 16
    assert verify_uniform(s, 3).uniform

    bell = state_from_code(_repetition(F2, 2), 1)
    assert set(bell.amps) == {(0, 0), (1, 1)}

    rs25 = reed_solomon(get_field(5, 2), 5, 2)
    with pytest.raises(ValueError):
        state_from_code(rs25, 1)
    with pytest.raises(ValueError, match="negative"):
        state_from_code(selfdual8, -1)


def test_state_from_code_hypothesis_failure():
    rep4 = _repetition(F2, 4)  # distance 4 but dual distance 2
    with pytest.raises(HypothesisError) as exc:
        state_from_code(rep4, 2)
    assert exc.value.side == "dual"
    assert exc.value.have == 2

    low = LinearCode(F2, np.array([[1, 1, 0, 0], [0, 0, 1, 1]]))
    with pytest.raises(HypothesisError) as exc:
        state_from_code(low, 2)
    assert exc.value.side == "code"


def test_shorten_last_examples(selfdual8):
    c2 = shorten_last(selfdual8)
    assert (c2.n, c2.m) == (7, 3)
    assert min_distance(c2) >= 4
    assert min_distance(dual_code(c2)) >= 3
    s = state_from_code(c2, 2)
    assert verify_uniform(s, 2).uniform

    trivial = shorten_last(_repetition(F2, 2))
    assert (trivial.n, trivial.m) == (1, 0)

    parity3 = LinearCode(F2, np.array([[1, 1, 0], [0, 1, 1]]))
    shortened = shorten_last(parity3)
    assert same_code(shortened, _repetition(F2, 2))

    stuck = LinearCode(F2, np.array([[1, 1, 0]]))
    with pytest.raises(ValueError):
        shorten_last(stuck)


def test_shorten_dual_equals_punctured_dual():
    rng = random.Random(15)
    checked = 0
    while checked < 50:
        p = rng.choice([2, 3, 5])
        field = get_field(p)
        n = rng.choice([4, 6, 8])
        c = _random_code(field, n, n // 2, rng)
        if not c.generator[:, -1].any():
            continue  # all codewords end in zero; shortening precondition fails
        lhs = dual_code(shorten_last(c))
        rhs = puncture_last(dual_code(c))
        assert same_code(lhs, rhs), (p, n, c.generator.tolist())
        checked += 1


def test_puncture_a_length_one_code():
    # the last coordinate is the only one: puncturing leaves no columns, as shortening does
    rs = reed_solomon(F5, 1, 1)
    for op in (puncture_last, shorten_last):
        out = op(rs)
        assert (out.n, out.m) == (0, 0)


def _trace_orthogonal_bases(field):
    """Every unordered trace-orthogonal basis, by brute force over r-subsets of nonzero elements."""
    t = field.trace
    heavy = [a for a in range(1, field.q) if t(field.mul(a, a))]
    return [
        s
        for s in itertools.combinations(heavy, field.r)
        if all(t(field.mul(a, b)) == 0 for a, b in itertools.combinations(s, 2))
    ]


def _expansion_by_inverse_matrix(code, basis, which):
    """Digit rows of b_a g_i times the inverse basis matrix mod p, times the weights for "dual"."""
    f, p, r = code.field, code.p, code.r
    bmat = digits(np.array(basis.basis), p, r).T
    red, rank = row_reduce(np.concatenate([bmat, np.eye(r, dtype=np.int64)], axis=1), p)
    assert rank == r and (red[:, :r] == np.eye(r)).all()
    products = [[[f.mul(b, int(x)) for x in row] for b in basis.basis] for row in code.generator]
    coords = digits(np.array(products, dtype=np.int64), p, r) @ red[:, r:].T % p
    if which == "dual":
        coords = coords * np.array(basis.weights) % p
    return coords.reshape(r * code.m, r * code.n)


@pytest.mark.parametrize("p,r,count", [(2, 2, 1), (2, 3, 1), (3, 2, 4), (2, 4, 2), (5, 2, 48), (3, 3, 32)])
def test_expansion_over_every_trace_orthogonal_basis_matches_the_inverse_matrix(p, r, count):
    field = get_field(p, r)
    bases = _trace_orthogonal_bases(field)
    assert len(bases) == count
    rs = reed_solomon(field, min(field.q, 5), 2)
    dual = dual_code(rs)
    for elems in bases:
        for order in (elems, elems[::-1]):
            weights = tuple(field.trace(field.mul(a, a)) for a in order)
            basis = TraceOrthBasis(field, order, weights)
            assert basis.verify()
            primal = expand_code(rs, basis, "primal")
            assert (primal.generator == _expansion_by_inverse_matrix(rs, basis, "primal")).all()
            dualw = expand_code(dual, basis, "dual")
            assert (dualw.generator == _expansion_by_inverse_matrix(dual, basis, "dual")).all()
            assert not (primal.generator @ dualw.generator.T % p).any(), order


def test_expand_code_refuses_a_basis_that_is_not_trace_orthogonal():
    f8 = get_field(2, 3)
    basis = TraceOrthBasis(f8, (1, 3, 5), (1, 1, 1))
    assert not basis.verify()
    with pytest.raises(ValueError, match="not a trace-orthogonal basis"):
        expand_code(reed_solomon(f8, 4, 2), basis, "dual")


def test_expand_code_refuses_a_foreign_basis_and_an_unknown_side():
    rs = reed_solomon(get_field(3, 2), 4, 2)
    with pytest.raises(ValueError, match="basis is over"):
        expand_code(rs, find_trace_orthogonal_basis(2, 2))
    with pytest.raises(ValueError, match="unknown expansion"):
        expand_code(rs, find_trace_orthogonal_basis(3, 2), "both")


def test_expand_repetition_gf4():
    f4 = get_field(2, 2)
    basis = find_trace_orthogonal_basis(2, 2)
    rep = _repetition(f4, 2)
    expanded = expand_code(rep, basis, "primal")
    assert (expanded.n, expanded.m) == (4, 2)
    expected = LinearCode(F2, np.array([[1, 0, 1, 0], [0, 1, 0, 1]]))
    assert same_code(expanded, expected)


def test_expand_zero_code():
    f4 = get_field(2, 2)
    basis = find_trace_orthogonal_basis(2, 2)
    zero = LinearCode(f4, np.zeros((0, 3), dtype=np.int64))
    out = expand_code(zero, basis, "primal")
    assert (out.n, out.m) == (6, 0)


def test_expand_rs_over_gf25():
    f25 = get_field(5, 2)
    basis = find_trace_orthogonal_basis(5, 2)
    rs = reed_solomon(f25, 5, 2)
    out = expand_code(rs, basis, "primal")
    assert (out.n, out.m, out.p) == (10, 4, 5)
    assert min_distance(out) >= 4


def test_expansion_duality_invariant():
    # weighted expansion of the dual is the F_p-dual of the plain expansion
    rng = random.Random(16)
    cases = 0
    while cases < 100:
        p = rng.choice([2, 3, 5])
        field = get_field(p, 2)
        basis = find_trace_orthogonal_basis(p, 2, seed=cases)
        n = rng.randrange(2, 5)
        m = rng.randrange(1, n + 1)
        c = _random_code(field, n, m, rng)
        primal = expand_code(c, basis, "primal")
        dualw = expand_code(dual_code(c), basis, "dual")
        assert primal.m + dualw.m == 2 * n
        if dualw.m:
            prod = (primal.generator @ dualw.generator.T) % p
            assert not prod.any()
        cases += 1


def test_expansion_weight_inheritance():
    rng = random.Random(17)
    for _ in range(30):
        p = rng.choice([2, 3])
        field = get_field(p, 2)
        basis = find_trace_orthogonal_basis(p, 2)
        n = rng.randrange(2, 5)
        m = rng.randrange(1, min(n, 3) + 1)
        c = _random_code(field, n, m, rng)
        expanded = expand_code(c, basis, "primal")
        assert min_distance(expanded) >= min_distance(c)


def test_reed_solomon_shapes():
    assert min_distance(reed_solomon(F5, 5, 2)) == 4
    assert min_distance(reed_solomon(get_field(2, 2), 4, 2)) == 3
    full = reed_solomon(F5, 4, 4)
    assert min_distance(full) == 1
    with pytest.raises(ValueError):
        reed_solomon(F5, 6, 2)
    for m in (-1, 6):
        with pytest.raises(ValueError, match="dimension"):
            reed_solomon(F5, 5, m)
    # duals of evaluation codes are MDS too
    for m in (1, 2, 3):
        dual = dual_code(reed_solomon(F5, 5, m))
        assert min_distance(dual) == m + 1


def test_reed_solomon_deterministic():
    a = reed_solomon(get_field(3, 2), 6, 3)
    b = reed_solomon(get_field(3, 2), 6, 3)
    assert (a.generator == b.generator).all()


def test_code_state_soundness_random():
    # whenever the distance hypotheses hold, the oracle must agree
    rng = random.Random(18)
    built = 0
    for _ in range(200):
        p = rng.choice([2, 3])
        field = get_field(p)
        n = rng.randrange(2, 7)
        m = rng.randrange(1, n)
        c = _random_code(field, n, m, rng)
        k, dist, ddist = certified_k(c)
        if k < 1:
            continue
        s = state_from_code(c, k)
        assert verify_uniform(s, k).uniform, (p, c.generator.tolist(), k)
        built += 1
    assert built >= 10


def test_selfdual_special_case(selfdual8):
    # a self-dual [n, n/2, d] code gives a (d-1)-uniform state
    pairs = [(selfdual8, 3), (_repetition(F2, 2), 1)]
    four = LinearCode(F2, np.array([[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert is_self_dual(four)
    pairs.append((four, 1))
    for code, k in pairs:
        assert min_distance(code) == k + 1
        s = state_from_code(code, k)
        assert verify_uniform(s, k).uniform


@st.composite
def _small_code(draw):
    field = get_field(*draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])))
    m = draw(st.integers(1, 3))
    assume(field.q**m <= 4096)
    n = draw(st.integers(m, 6))
    g = draw(st.lists(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n), min_size=m, max_size=m))
    try:
        return LinearCode(field, np.array(g, dtype=np.int64))
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(_small_code())
def test_codewords_match_scalar_field_arithmetic(code):
    f = code.field
    want = []
    for msg in itertools.product(range(f.q), repeat=code.m):
        word = [0] * code.n
        for c, row in zip(msg, code.generator.tolist()):
            word = [f.add(w, f.mul(c, x)) for w, x in zip(word, row)]
        want.append(word)
    assert [w.tolist() for w in codewords(code)] == want
    assert min_distance(code) == min(sum(x != 0 for x in w) for w in want if any(w))


@st.composite
def _code_pair_sides(draw):
    """A random [n, m] code with 1 <= m < n and at most 2^14 words on either side."""
    field = get_field(*draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])))
    n = draw(st.integers(2, 16))
    m = draw(st.integers(1, n - 1))
    assume(field.q ** max(m, n - m) <= 2**14)
    # systematic rows [I | A] with shuffled columns: full rank by construction
    tail = draw(st.lists(st.integers(0, field.q - 1), min_size=m * (n - m), max_size=m * (n - m)))
    g = np.concatenate([np.eye(m, dtype=np.int64), np.array(tail, dtype=np.int64).reshape(m, n - m)], axis=1)
    return LinearCode(field, g[:, draw(st.permutations(range(n)))])


@settings(max_examples=80, deadline=None)
@given(_code_pair_sides())
def test_macwilliams_matches_enumerated_dual(code):
    dual = dual_code(code)
    enumerated = np.bincount([np.count_nonzero(w) for w in codewords(dual)], minlength=code.n + 1).tolist()
    weights = _weight_distribution([np.array(list(codewords(code)))], code.n)
    assert _macwilliams(weights, code.field.q, code.m) == enumerated
    dist, ddist = min_distance(code), min_distance(dual)
    assert certified_k(code) == (min(dist, ddist) - 1, dist, ddist)
    for side, got in ((code, dist), (dual, ddist)):  # the brute-force minimum, word by word
        assert got == min(np.count_nonzero(w) for w in codewords(side) if w.any())


def test_macwilliams_long_repetition_code_is_fast():
    # two nonzero weights, so the recurrence runs 2 x 201 steps, not n^3
    start = time.perf_counter()
    assert certified_k(_repetition(F2, 200)) == (1, 200, 2)
    assert time.perf_counter() - start < 1.0


def test_certified_k_edges_and_enumerated_side():
    for m in (0, 4):  # the zero code, and the full code whose dual is the zero code
        with pytest.raises(ValueError, match="the zero code has no minimum distance"):
            certified_k(LinearCode(F5, np.eye(4, dtype=np.int64)[:m]))
    # RS[5,3] over GF(5): 125 words, 25 dual words; max_codewords bounds the side enumerated
    rs = reed_solomon(F5, 5, 3)
    assert certified_k(rs, max_codewords=100) == (2, 3, 4)
    with pytest.raises(TooLargeError):
        state_from_code(rs, 2, max_codewords=100)  # the state itself has 125 kets
