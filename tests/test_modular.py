import itertools
import random
from math import prod

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform.fields import get_field, null_space_over_field, rref_over_field
from kuniform.modular import (
    _NARROW,
    _arithmetic,
    _barrett,
    count_linear_solutions,
    det_mod_d,
    digits,
    from_digits,
    invertible_mod_d,
    is_prime,
    null_space_mod_p,
    prime_factors,
    rank_mod_p,
    row_reduce,
    rref_mod_p,
)

SIX = [
    [0, 1, 1, 1, 0, 0],
    [1, 0, 0, 1, 0, 1],
    [1, 0, 0, 1, 1, 0],
    [1, 1, 1, 0, 1, 1],
    [0, 0, 1, 1, 0, 1],
    [0, 1, 0, 1, 1, 0],
]


def _span_rank(mat, p):
    """Independent oracle: rank = log_p of the row-span size."""
    rows = [tuple(int(x) % p for x in row) for row in np.atleast_2d(mat)]
    span = {tuple([0] * len(rows[0]))}
    for row in rows:
        new = set()
        for v in span:
            for c in range(1, p):
                new.add(tuple((a + c * b) % p for a, b in zip(v, row)))
        span |= new
    size = len(span)
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size
    return r


def test_prime_factors_match_a_divisor_scan():
    for n in range(1, 400):
        assert prime_factors(n) == [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]


def test_is_prime_matches_sympy():
    rng = random.Random(12)
    samples = list(range(-3, 3000))
    for bits in (16, 32, 48, 64, 80):
        samples += [rng.getrandbits(bits) | 1 for _ in range(300)]
    # strong pseudoprimes to the smallest bases, and Carmichael numbers
    samples += [3215031751, 3825123056546413051, 318665857834031151167461]
    samples += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801]
    samples += [2**31 - 1, 2**61 - 1, (2**61 - 1) * (2**19 - 1)]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_sizes_it_cannot_decide():
    with pytest.raises(ValueError, match="not decided"):
        is_prime(2**127 - 1)
    assert not is_prime(2**127)  # a small factor still decides


def test_prime_factors_stop_at_a_prime_cofactor():
    assert prime_factors(2**61 - 1) == [2**61 - 1]
    assert prime_factors(12 * (2**61 - 1)) == [2, 3, 2**61 - 1]


def test_prime_factors_split_two_large_primes():
    # no small factor and no prime cofactor to stop at: the rho step splits them
    rng = random.Random(31)
    for _ in range(40):
        a, b = (sympy.nextprime(rng.getrandbits(rng.randint(25, 31))) for _ in range(2))
        for n in (a * b, a * a, 6 * a * b, 1031**2 * a * b):
            assert prime_factors(n) == sorted(sympy.factorint(n)), n
    assert prime_factors((2**31 - 1) ** 2) == [2**31 - 1]
    assert prime_factors(2147483647 * 2147483659) == [2147483647, 2147483659]


def test_digits_match_integer_divmod():
    # powers of two take digits by shift and mask, other bases by divmod; both
    # against Python integers, with widths past the 63 index bits
    rng = random.Random(11)
    top = 2**63 - 1
    for base in [2**b for b in range(1, 64)] + [3, 5, 6, 9, 10, 257, 2**32 + 15]:
        idx = {0, 1, base - 1, top} | {rng.randrange(top) for _ in range(6)}
        if base < 2**63:
            idx.add(base)
        idx = sorted(idx)
        full = next(w for w in itertools.count(1) if base**w > top)
        for width in (1, 2, full, full + 1):
            got = digits(np.array(idx, dtype=np.int64), base, width)
            want = [[i // base ** (width - 1 - t) % base for t in range(width)] for i in idx]
            assert got.shape == (len(idx), width) and got.tolist() == want, (base, width)
            if base**width <= 2**63:
                small = [i for i in idx if i < base**width]
                assert from_digits(digits(small, base, width), base).tolist() == small, (base, width)


def test_rank_examples():
    assert rank_mod_p([[0, 1], [1, 0]], 2) == 2
    assert rank_mod_p(np.zeros((3, 3), dtype=int), 5) == 0
    sub = np.array(SIX)[np.ix_([0, 1, 2], [3, 4, 5])]
    assert rank_mod_p(sub, 2) == 3
    assert _span_rank(sub, 2) == 3
    with pytest.raises(ValueError):
        rank_mod_p([[1]], 4)


def test_rank_matches_span_oracle():
    rng = random.Random(3)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod_p(m, p) == _span_rank(m, p)


def test_rank_transpose():
    rng = random.Random(4)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        m = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(3)])
        assert rank_mod_p(m, p) == rank_mod_p(m.T, p)


def test_det_examples():
    assert det_mod_d([[0, 1], [1, 0]], 4) == 3
    assert det_mod_d([[2, 0], [0, 2]], 4) == 0
    assert det_mod_d([[1, 2], [3, 4]], 6) == 4
    with pytest.raises(ValueError):
        det_mod_d([[1, 2, 3], [4, 5, 6]], 5)
    for mat, d in (([[1]], 0), ([[2]], -3), ([[1]], 1)):  # moduli below 2
        with pytest.raises(ValueError, match="invalid modulus"):
            det_mod_d(mat, d)


def test_det_matches_permanent_style_expansion():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randrange(2, 10)
        n = rng.randrange(1, 5)
        m = [[rng.randrange(d) for _ in range(n)] for _ in range(n)]
        # Leibniz expansion as the oracle
        det = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= m[i][perm[i]]
            det += term
        assert det_mod_d(m, d) == det % d


def test_invertible_examples():
    assert invertible_mod_d([[0, 1], [1, 0]], 6)
    assert not invertible_mod_d([[2, 1], [1, 2]], 3)
    assert not invertible_mod_d([[3, 1], [1, 3]], 6)
    with pytest.raises(ValueError, match="invalid modulus"):
        invertible_mod_d([[0]], 1)


def test_invertible_matches_exhaustive_inverse_search():
    # all square matrices with at most 2 rows, d <= 6
    for d in range(2, 7):
        for a in range(d):
            has_inv = any((a * g) % d == 1 for g in range(d))
            assert invertible_mod_d([[a]], d) == has_inv
    for d in range(2, 7):
        mats = list(itertools.product(range(d), repeat=4))
        arr = np.array(mats, dtype=np.int64).reshape(len(mats), 2, 2)
        eye = np.eye(2, dtype=np.int64)
        products = np.einsum("aij,bjk->abik", arr, arr) % d
        has_inverse = (products == eye).all(axis=(2, 3)).any(axis=1)
        for mat, expect in zip(mats, has_inverse):
            m = [[mat[0], mat[1]], [mat[2], mat[3]]]
            assert invertible_mod_d(m, d) == bool(expect), (d, m)


def test_count_linear_solutions_examples():
    assert count_linear_solutions([2], 4, 0) == 2
    assert count_linear_solutions([1, 1], 3, 2) == 3
    assert count_linear_solutions([2], 4, 1) == 0
    with pytest.raises(ValueError):
        count_linear_solutions([], 4, 0)
    # coefficients are read exactly: 1.5 would truncate to 1 and count 6 solutions
    with pytest.raises(ValueError, match="not an integer"):
        count_linear_solutions([1.5, 2], 6)
    assert count_linear_solutions([2.0, 4.0], 6) == 12


def test_count_linear_solutions_vs_enumeration():
    # closed form against direct counting, >= 10^4 random cases
    rng = random.Random(6)
    cache = {}
    for _ in range(10**4):
        d = rng.randrange(2, 9)
        m = rng.randrange(1, 5)
        coeffs = tuple(rng.randrange(d) for _ in range(m))
        target = rng.randrange(d)
        if (d, m) not in cache:
            pts = np.array(list(itertools.product(range(d), repeat=m)), dtype=np.int64)
            cache[(d, m)] = pts
        pts = cache[(d, m)]
        vals = (pts @ np.array(coeffs, dtype=np.int64)) % d
        expect = int((vals == target).sum())
        assert count_linear_solutions(coeffs, d, target) == expect, (coeffs, d, target)


def test_null_space_examples():
    assert null_space_mod_p(np.eye(2, dtype=int), 2).shape == (0, 2)
    basis = null_space_mod_p([[1, 1]], 2)
    assert basis.tolist() == [[1, 1]]
    basis = null_space_mod_p([[1, 0, 1], [0, 1, 1]], 3)
    assert basis.shape == (1, 3)
    # up to scaling: must be a multiple of (2, 2, 1)
    v = basis[0]
    assert ((2 * v[2]) % 3, (2 * v[2]) % 3, v[2] % 3) == (v[0], v[1], v[2])


def test_matrices_with_no_columns():
    f9 = get_field(3, 2)
    for rows in (1, 3):
        empty = np.zeros((rows, 0), dtype=np.int64)
        assert null_space_mod_p(empty, 5).shape == (0, 0)
        assert null_space_over_field(f9, empty) == []
        assert rref_over_field(f9, empty) == ([[]] * rows, [])


def test_null_space_property():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 6)
        g = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        ns = null_space_mod_p(g, p)
        assert ns.shape[0] == cols - rank_mod_p(g, p)
        if ns.size:
            assert not ((g @ ns.T) % p).any()


def _rank_two(p, rng):
    """A 3 x 3 matrix of rank 2 mod p: the third row is the sum of the first two."""
    a = [rng.randrange(p) for _ in range(3)]
    b = [rng.randrange(p) for _ in range(3)]
    return [a, b, [(x + y) % p for x, y in zip(a, b)]]


def test_elimination_answers_at_every_prime_up_to_2_63():
    # (p-1)^2 >= 2^63 from 3,037,000,507 on: the kernel keeps those residues
    # as Python ints, and each answer is checked in Python ints here
    rng = random.Random(8)
    for p in (3_037_000_493, 3_037_000_507, 4_294_967_311, 2**61 - 1, 2**63 - 25):
        for _ in range(20):
            m = _rank_two(p, rng)
            assert rank_mod_p(m, p) == 2
            (x,) = null_space_mod_p(m, p).tolist()
            assert any(x) and all(0 <= v < p for v in x)
            assert all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in m)
        assert rank_mod_p([[1, 2], [3, 7]], p) == 2 and rank_mod_p([[1, 2], [3, 6 + p]], p) == 1
    # past 2^63 the residues do not fit the int64 output
    for call in (rank_mod_p, null_space_mod_p):
        with pytest.raises(OverflowError, match="above 2\\^63"):
            call([[1, 2], [3, 4]], 2**64 - 59)


def test_a_field_of_another_characteristic_is_refused():
    # GF(4) mod 5 would index past its tables, and GF(9) mod 2 would negate
    # by p - 1 = 1; rank_mod_p takes no field and reaches the same row_reduce
    for p, f in ((5, get_field(2, 2)), (2, get_field(3, 2)), (3, get_field(2, 1))):
        for call in (row_reduce, rref_mod_p, null_space_mod_p):
            with pytest.raises(ValueError, match="characteristic"):
                call([[1, 2, 3]], p, f)
        assert rank_mod_p([[1, 2, 3]], p) == 1


def test_rank_of_a_stack_is_the_rank_of_each_matrix():
    rng = np.random.default_rng(9)
    for p in (2, 3, 7):
        stack = rng.integers(0, p, size=(4, 5, 3, 4))
        ranks = rank_mod_p(stack, p)
        assert ranks.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            assert ranks[idx] == rank_mod_p(stack[idx], p) == _span_rank(stack[idx], p)
    red, rank = row_reduce(np.zeros((0, 2, 3), dtype=np.int64), 5)
    assert red.shape == (0, 2, 3) and rank.shape == (0,)


def _field_span_size(f, rows):
    """Size of the row span, by scalar GF.add / GF.mul over every coefficient vector."""
    span = set()
    for coeffs in itertools.product(range(f.q), repeat=len(rows)):
        v = [0] * len(rows[0])
        for c, row in zip(coeffs, rows):
            v = [f.add(x, f.mul(c, y)) for x, y in zip(v, row)]
        span.add(tuple(v))
    return len(span)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_over_extension_fields(data):
    f = get_field(*data.draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])))
    rows = data.draw(st.integers(1, 3 if f.q < 25 else 2))
    cols = data.draw(st.integers(1, 4))
    mat = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    red, pivots = rref_over_field(f, mat)
    rank = len(pivots)
    assert f.q**rank == _field_span_size(f, mat)
    assert _field_span_size(f, red) == _field_span_size(f, mat)
    basis = null_space_over_field(f, mat)
    assert len(basis) == cols - rank
    for x in basis:
        for row in mat:
            total = 0
            for a, b in zip(row, x):
                total = f.add(total, f.mul(a, b))
            assert total == 0


def _rank_by_minors(mat, p):
    """Largest k with a nonzero k x k minor mod p, through the Bareiss determinant."""
    m = np.array(mat)
    rows, cols = m.shape
    for k in range(min(rows, cols), 0, -1):
        for R in itertools.combinations(range(rows), k):
            for C in itertools.combinations(range(cols), k):
                if det_mod_d(m[np.ix_(R, C)], p):
                    return k
    return 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_over_a_prime_above_two_to_the_twenty(data):
    p = 1_048_583
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    entry = st.sampled_from([0, 1, 2, p - 1]) | st.integers(0, p - 1)
    mat = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows > 1 and data.draw(st.booleans()):
        mat[-1] = [(a + 3 * b) % p for a, b in zip(mat[0], mat[1])]  # force a dependency
    rank = rank_mod_p(mat, p)
    assert rank == _rank_by_minors(mat, p)
    basis = null_space_mod_p(mat, p).tolist()
    assert len(basis) == cols - rank
    for x in basis:
        assert all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in mat)


def _gauss_jordan(mat, f):
    """Reference RREF and rank of one matrix of Python ints, by scalar field arithmetic."""
    m = [[x % f.q for x in row] for row in mat]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        scale = f.inv(m[rank][c])
        m[rank] = [f.mul(scale, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                m[r] = [f.sub(x, f.mul(m[r][c], y)) for x, y in zip(m[r], m[rank])]
        rank += 1
    return m, rank


class _PrimeField:
    """GF(p) by Python ints: the reference for primes beyond get_field's table size."""

    def __init__(self, p):
        self.p = self.q = p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


_KERNEL_FIELDS = [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 251, 65521, 3_037_000_493)] + [(2, 2), (3, 2)]
_KERNEL_FIELDS += [(p, 1) for p in (3_037_000_507, 2**61 - 1, 2**63 - 25)]  # residues kept as Python ints
_INPUT_RANGES = {  # entry range of each input form; "list" goes past every fixed width
    "int8": (-(1 << 7), (1 << 7) - 1),
    "int32": (-(1 << 31), (1 << 31) - 1),
    "uint8": (0, (1 << 8) - 1),
    "uint64": (0, (1 << 64) - 1),
    "bool": (0, 1),
    "list": (-(1 << 70), 1 << 70),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_reduce_matches_a_scalar_gauss_jordan(data):
    p, r = data.draw(st.sampled_from(_KERNEL_FIELDS))
    f = get_field(p, r) if r > 1 or p < 1 << 20 else _PrimeField(p)
    form = data.draw(st.sampled_from(sorted(_INPUT_RANGES)))
    lo, hi = _INPUT_RANGES[form]
    lead = data.draw(st.sampled_from([(), (0,), (1,), (3,), (2, 2)]))
    R, C = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 5))
    near = [v for v in (0, 1, -1, f.q - 1, f.q, f.q + 1, -f.q, 2 * f.q) if lo <= v <= hi]
    entry = st.sampled_from(near) | st.integers(lo, hi)
    stack = data.draw(st.lists(entry, min_size=prod(lead) * R * C, max_size=prod(lead) * R * C))
    stack = np.array(stack, dtype=object).reshape(*lead, R, C)
    if R > 1 and data.draw(st.booleans()):
        stack[..., -1, :] = stack[..., 0, :]  # a dependent row
    if C > 0 and data.draw(st.booleans()):
        stack[..., data.draw(st.integers(0, C - 1))] = data.draw(st.sampled_from([v for v in near if v % f.q == 0]))
    if form != "list":
        given_ = stack.astype(np.dtype(form))
    else:  # a nested list carries no shape with a zero-length axis: pass the object array then
        given_ = stack.tolist() if np.shape(stack.tolist()) == stack.shape else stack
    red, rank = row_reduce(given_, p, f if r > 1 else None)
    assert red.dtype == np.int64 and red.shape == stack.shape and rank.shape == lead
    for idx in np.ndindex(*lead):
        want, want_rank = _gauss_jordan(stack[idx].tolist(), f)
        assert red[idx].tolist() == want and rank[idx] == want_rank, (idx, stack[idx].tolist())


@pytest.mark.parametrize("p", [p for p in range(2, _NARROW) if is_prime(p)])
def test_narrow_arithmetic_is_exact_for_every_residue(p):
    wide, s, M = _barrett(p)
    x = np.arange(p * p, dtype=wide)  # every value the kernel reduces
    u = x * M
    u >>= s
    assert (u == x // wide(p)).all()
    q, dtype, mul, eliminate, inv = _arithmetic(p, None)
    assert (q, dtype) == (p, np.uint8)
    a, b = (v.astype(np.uint8) for v in np.divmod(np.arange(p * p), p))
    assert (mul(a, b) == a.astype(np.int64) * b % p).all()
    for w0 in (0, p - 1):  # the extremes of the row entry under w + f (p - t)
        w = np.full(p * p, w0, dtype=np.uint8)
        eliminate(w, a, b)
        assert (w == (w0 - a.astype(np.int64) * b) % p).all()
    nonzero = np.arange(1, p, dtype=np.uint8)
    assert (nonzero.astype(np.int64) * inv(nonzero) % p == 1).all()


def _fermat_inverse(x, p):
    """x^(p-2) mod p by square and multiply."""
    out, e = 1, p - 2
    while e:
        if e & 1:
            out = out * x % p
        x, e = x * x % p, e >> 1
    return out


@pytest.mark.parametrize("p", [3_037_000_507, 2**61 - 1])
def test_object_arithmetic_inverts_entry_by_entry(p):
    # (p - 1)^2 >= 2^63: residues are Python ints, inverted one by one with
    # pow(x, -1, p); the pivots may reach it as int64 or Python ints
    q, dtype, mul, eliminate, inv = _arithmetic(p, None)
    assert (q, dtype) == (p, object)
    rng = random.Random(p)
    a = [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(300)]
    want = [_fermat_inverse(x, p) for x in a]
    for given_ in (np.array(a, dtype=object), np.array(a, dtype=np.int64)):
        got = inv(given_)
        assert got.dtype == object and got.tolist() == want
    assert all(x * y % p == 1 for x, y in zip(a, want))


def test_wide_unsigned_entries_are_reduced_exactly():
    # 2^64 - 1 = 0 mod 3, and as an int64 it would read -1
    assert rank_mod_p(np.full((2, 2), 2**64 - 1, dtype=np.uint64), 3) == 0
    assert null_space_mod_p(np.array([[2**64 - 1, 1]], dtype=np.uint64), 3).tolist() == [[1, 0]]
    assert rank_mod_p(np.array([[2**63 + 1, 2**64 - 2]], dtype=np.uint64), 5) == 1
    assert rank_mod_p([[2**70, 2**71]], 2) == 0
    # numpy reads this list as float64, where 2^63 + 1 rounds to the even 2^63
    assert rank_mod_p([[0, 2**63 + 1]], 2) == 1
    assert null_space_mod_p([[2**63 + 1, 1]], 2).tolist() == [[1, 1]]
    assert det_mod_d([[0, 2**63 + 1], [1, 0]], 5) == -(2**63 + 1) % 5


def test_fractional_entries_are_refused():
    for mat in ([[1.5]], [[0.0, float("nan")]], [[float("inf")]], np.array([[1, 2.5]], dtype=object)):
        with pytest.raises(ValueError, match="not an integer"):
            rank_mod_p(mat, 5)
        with pytest.raises(ValueError, match="not an integer"):
            det_mod_d(mat, 5)
    # integral floats keep working, exactly even past 2^63
    assert rank_mod_p([[2.0, 4.0], [1.0, 2.0]], 5) == 1
    assert rank_mod_p([[1e300]], 5) == 0 and rank_mod_p([[1e300]], 7) == 1
    assert det_mod_d([[2.0, 0.0], [0.0, 3.0]], 7) == 6
