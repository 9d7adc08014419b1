"""Exact linear algebra over Z_d, prime fields F_p and GF(p^r).

Matrices are plain numpy arrays together with an explicit modulus
argument.  One input step, read_ints, reads entries as exact integers and
refuses entries that are not integer values; the public entry points read
their integer input through it.  reduce_mod, built on it, brings entries into
[0, modulus) exactly, whatever their integer width (uint64 entries of 2^63
and more included).

Index spaces are unranked by one mixed-radix helper, digits, exact at every
base up to 2^63 (shift and mask at a power of two, divmod at other bases).

Every elimination in the package runs through one Gauss-Jordan kernel,
row_reduce, which reduces a whole stack of matrices (..., R, C) at once and
reports each one's rank.  It works on one contiguous (R, C, N) array, the
N matrices on the last axis, so every step is a whole-stack array operation
and none gathers from the stack.  The residues live in the narrowest form
that is exact, picked from (p, field) by _arithmetic: uint8 for p < 2^8,
with products reduced by a Barrett shift-multiply proved exact below p^2
(_barrett); int64 with % while (p-1)^2 < 2^63, and Python ints in an object
array above that, where products of residues would wrap in int64; and
over GF(p^r), r > 1, the field's int64 encodings and its array forms
(mul_array, sub_array, inv_array) -- this module holds no extension-field
arithmetic and does not import fields.  So the kernel decides every prime
up to 2^63, whose residues its int64 output holds.  rank_mod_p, rref_mod_p,
null_space_mod_p and their field-level forms are thin layers over it.

Over composite moduli the one determinant, det_mod_d, uses fraction-free
(Bareiss) elimination on integer lifts -- Z_d has zero divisors, so modular
inverses are never used on that path.  It is also the independent reference
the rank path is tested against.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

import numpy as np


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # no strong pseudoprime to all of _MR_BASES below this


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin over the first 13 prime bases.

    Exact below _MR_LIMIT (Sorenson and Webster, 2015); larger n raise
    ValueError rather than return an unproved answer.
    """
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided at this size")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        # a witness: x^(2^j) != -1 for every j < s, and x itself is not 1
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending.

    Trial division by the numbers below 2^10, then Pollard-Brent rho on the
    cofactor; is_prime decides every factor.
    """
    out, f = set(), 2
    while f < 1 << 10 and f * f <= n:
        if n % f == 0:
            out.add(f)
            while n % f == 0:
                n //= f
        f += 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out.add(m)
        else:
            f = _rho(m)
            rest += [f, m // f]
    return sorted(out)


def _rho(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 2^10.

    Pollard's rho with Brent's cycle detection and batched gcds, over the
    maps x -> x^2 + c for c = 1, 2, ... until one splits n, so the factor
    returned is the same on every run.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for s in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - s)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: step again one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def digits(idx, base: int, width: int) -> np.ndarray:
    """Base-`base` digits of each index, most significant first, shape (len(idx), width).

    The package's one mixed-radix unranking: row i of
    digits(np.arange(base**width), base, width) is the i-th tuple of
    itertools.product(range(base), repeat=width).  Exact at every base up
    to 2^63; at a power of two divmod is a shift and a mask.  The result is
    the transpose of a C-ordered (width, len(idx)) array, one row per digit.
    """
    rest = np.array(idx, dtype=np.int64).reshape(-1)
    out = np.empty((width, rest.size), dtype=np.int64)
    pow2, shift = not base & (base - 1), int(base).bit_length() - 1
    for t in range(width - 1, -1, -1):
        rest, out[t] = (rest >> shift, rest & (base - 1)) if pow2 else np.divmod(rest, base)
    return out.T


def from_digits(rows, base: int) -> np.ndarray:
    """Inverse of digits along the last axis: the index of each digit row.

    Raises OverflowError when base**width exceeds 2^63, where an int64
    index could wrap, instead of returning a wrong index.
    """
    rows = np.asarray(rows, dtype=np.int64)
    width = rows.shape[-1]
    if base**width > 1 << 63:
        raise OverflowError(f"{width} base-{base} digits do not fit in an int64 index")
    return rows @ np.array([base**e for e in range(width - 1, -1, -1)], dtype=np.int64)


_NARROW = 1 << 8  # the kernel keeps residues of the primes below this in uint8


def _as_int(x) -> int:
    """x as a Python int, or ValueError when it is not an integer value (1.5, nan, "3")."""
    try:
        v = int(x)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"entry {x!r} is not an integer") from err
    if v != x:
        raise ValueError(f"entry {x!r} is not an integer")
    return v


def _read(a) -> np.ndarray:
    """a as an array; a list that numpy would read as float64 (ints past 2^63 mixed with others) stays exact."""
    arr = np.asarray(a)
    if arr.dtype.kind == "f" and not isinstance(a, np.ndarray):
        return np.array(a, dtype=object)
    return arr


def read_ints(a) -> np.ndarray:
    """The entries of a as exact integer values, without reducing them.

    An integer array is returned as it is and bool reads as uint8, so
    neither costs any per-entry work.  Anything else is read entry by entry
    into an object array of Python ints: an integer value such as 2.0 is
    accepted, and an entry that is not one (1.5, nan, "3") raises ValueError.
    """
    a = _read(a)
    if a.dtype.kind == "b":
        return a.view(np.uint8)
    if a.dtype.kind in "iu":
        return a
    return np.array([_as_int(x) for x in a.ravel().tolist()], dtype=object).reshape(a.shape)


def reduce_mod(a, q: int, dtype=np.int64) -> np.ndarray:
    """The entries of a reduced exactly into [0, q), as an array of dtype.

    Every integer width is reduced exactly, uint64 entries of 2^63 and more
    included, and bool reads as 0 and 1.  A float or object entry must be an
    integer value; one with a fractional part, or not finite, raises
    ValueError.  Integer input that already lies in [0, q) is only cast, and
    other nonnegative input is reduced in the narrowest unsigned dtype that
    holds it.  A modulus whose residues dtype cannot hold, q - 1 above its
    maximum, raises OverflowError instead of wrapping; dtype object holds
    Python ints and so every modulus.
    """
    if dtype is not object and q - 1 > np.iinfo(dtype).max:
        raise OverflowError(f"residues mod {q} do not fit in {np.dtype(dtype)}")
    a = read_ints(a)
    if a.dtype == object:
        return np.array([x % q for x in a.ravel().tolist()], dtype=dtype).reshape(a.shape)
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    if lo < 0:
        a = a.astype(np.int64) % q
    elif hi >= q:  # in the narrowest unsigned dtype that holds the entries, where % is cheapest
        a = a.astype(np.min_scalar_type(hi), copy=False)
        a = a % a.dtype.type(q)
    return a.astype(dtype, copy=False)


def _barrett(p: int):
    """(wide, s, M) for reducing any 0 <= x < p^2 mod p by floor(x / p) = (x * M) >> s.

    Take s = bitlength(p^3 - 1), so p^3 <= 2^s, and M = ceil(2^s / p), so
    e = M p - 2^s lies in [0, p).  Write x = u p + v with 0 <= v < p.  Then
    x M / 2^s = u + (v + x e / 2^s) / p, and x e < p^2 * p <= 2^s, so the
    bracket lies below v + 1 <= p and the floor is exactly u.  The product
    x M < p^2 (2^s / p + 1) = p 2^s + p^2 is computed in wide, the smaller
    of uint16 and uint32 that holds it: uint16 for p <= 13, uint32 for every
    p < 2^8 (255 * 2^24 + 255^2 < 2^32).
    """
    s = (p**3 - 1).bit_length()
    M = -(-(1 << s) // p)
    wide = np.uint16 if p * (1 << s) + p * p <= 1 << 16 else np.uint32
    return wide, wide(s), wide(M)


def _arithmetic(p: int, field):
    """(q, dtype, mul, eliminate, inv) of the kernel over GF(p), or over a field GF(p^r), r > 1.

    Residues live in dtype.  mul(a, b) is the product, broadcast;
    eliminate(w, f, t) sets w to w - f * t in place; inv(a) is the inverse
    of each nonzero entry.  Three forms: p < 2^8 keeps residues in uint8,
    forms w - f t as w + f (p - t) < p^2 in a wider dtype and reduces it by
    one Barrett step (_barrett), and inverts by a p-entry table; larger p
    uses %, in int64 while (p - 1)^2 < 2^63, inverting by square and
    multiply, and on Python ints in an object array above that, inverting
    entry by entry with pow(x, -1, p) (mul lifts its operands, which may be
    int64); GF(p^r) calls the field's array forms on its int64 encodings.
    """
    if field is not None and field.r > 1:
        def eliminate(w, f, t):
            w[...] = field.sub_array(w, field.mul_array(f, t))

        return field.q, np.int64, field.mul_array, eliminate, field.inv_array
    if p < _NARROW:
        wide, s, M = _barrett(p)
        P = wide(p)

        def reduce(x, out):  # x < p^2 in wide, to x mod p in out
            u = x * M
            u >>= s
            u *= P
            return np.subtract(x, u, out=out, casting="unsafe")

        def mul(a, b):
            x = np.multiply(a, b, dtype=wide, casting="unsafe")
            return reduce(x, np.empty(x.shape, np.uint8))

        def eliminate(w, f, t):
            x = f * (P - t)  # uint8 times wide is wide
            x += w
            reduce(x, w)

        table = np.array([pow(a, p - 2, p) if a else 0 for a in range(p)], dtype=np.uint8)
        return p, np.uint8, mul, eliminate, table.__getitem__

    def eliminate(w, f, t):
        np.remainder(w - f * t, p, out=w)

    def inv(a):  # a^(p-2) by square and multiply
        out, e = np.ones_like(a), p - 2
        while e:
            if e & 1:
                out = out * a % p
            a, e = a * a % p, e >> 1
        return out

    if (p - 1) ** 2 < 1 << 63:
        return p, np.int64, lambda a, b: a * b % p, eliminate, inv
    inv_object = np.frompyfunc(lambda x: pow(int(x), -1, p), 1, 1)
    return p, object, lambda a, b: np.asarray(a, dtype=object) * b % p, eliminate, inv_object


def row_reduce(stack, p: int, field=None) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan reduction of every matrix of a stack of shape (..., R, C).

    Returns the reduced row echelon forms, as int64 in the input's shape,
    and the rank of each matrix, in shape (...).  Over GF(p) (field None, or
    of degree 1) p must be at most 2^63, whose residues the int64 output
    holds, or OverflowError is raised; over a field GF(p^r), r > 1, entries
    are its integer-encoded elements, and a field whose characteristic is
    not p raises ValueError.  Entries are reduced by reduce_mod, so
    non-integral ones raise ValueError.

    The stack is worked on as one contiguous (R, C, N) array, the N matrices
    on the last axis, in the dtype _arithmetic picks.  Column c takes the
    first row at or below each matrix's rank with a nonzero entry, found by
    an R-step scan over masks; it swaps that row with the rank row, scales
    it and clears column c from every other row.  The swap and the pivot
    row's write-back are XOR blends under full-width row masks, so no step
    gathers from the stack, and columns left of c are not touched: they are
    zero below the rank.
    """
    if field is not None and field.p != p:
        raise ValueError(f"field {field} has characteristic {field.p}, not {p}")
    if p > 1 << 63:
        raise OverflowError(f"modulus {p} is above 2^63: its residues do not fit the int64 output")
    if not is_prime(p):
        raise ValueError(f"elimination needs a prime modulus, got {p}; use the determinant path")
    q, dtype, mul, eliminate, inv = _arithmetic(p, field)
    a = reduce_mod(stack, q, dtype)
    shape = a.shape
    R, C = shape[-2:]
    N = prod(shape[:-2])
    m = np.array(a.reshape(N, R, C).transpose(1, 2, 0), order="C")
    rank = np.zeros(N, dtype=np.int64)
    rows = np.arange(R)[:, None]
    for c in range(C):
        lo = int(rank.min(initial=R))  # rows above every matrix's rank hold no pivot
        if lo == R:
            break
        first = m[lo:, c] != 0
        first &= rows[lo:] >= rank
        free = ~first[0]  # no pivot yet among the rows scanned
        for r in range(1, R - lo):  # keep only each matrix's first open row
            if not free.any():
                first[r:] = False
                break
            first[r] &= free
            free ^= first[r]
        done = ~free
        if not done.any():
            continue
        w, v = m[:, c:], m[lo:, c:]
        at = np.negative((rows[lo:] == rank) & done, dtype=dtype)[:, None]  # the rank row, all bits set
        sel = np.negative(first, dtype=dtype)[:, None]
        top = np.bitwise_or.reduce(v & sel, axis=0)
        swap = v ^ np.bitwise_or.reduce(v & at, axis=0)  # the rank row goes where the pivot was
        swap &= sel
        v ^= swap
        top = mul(top, inv(top[0] | free))  # a matrix without a pivot has top 0: any inverse will do
        eliminate(w, w[:, :1], top)
        back = v ^ top
        back &= at
        v ^= back
        rank += done
    return m.transpose(2, 0, 1).astype(np.int64).reshape(shape), rank.reshape(shape[:-2])


def rank_mod_p(mat, p: int):
    """Rank over F_p of a matrix, or an array of ranks for a stack (..., R, C).  Requires prime p."""
    m = _read(mat)
    _, rank = row_reduce(np.atleast_2d(m), p)
    return int(rank) if m.ndim <= 2 else rank


def rref_mod_p(mat, p: int, field=None) -> tuple[np.ndarray, np.ndarray]:
    """One matrix's reduced row echelon form, as row_reduce, and its pivot columns.

    A nonzero row's pivot is its count of leading zeros, which, unlike an
    argmax, is defined when the matrix has no columns and so no pivots.
    """
    red, rank = row_reduce(np.atleast_2d(_read(mat)), p, field)
    return red, (~np.logical_or.accumulate(red[:rank] != 0, axis=1)).sum(axis=1)


def null_space_mod_p(mat, p: int, field=None) -> np.ndarray:
    """Basis rows of the right null space {x : mat @ x = 0}, over GF(p) or GF(p^r) as in row_reduce."""
    red, pivots = rref_mod_p(mat, p, field)
    red = red[: pivots.size]
    free = np.setdiff1d(np.arange(red.shape[1]), pivots)
    basis = np.zeros((free.size, red.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    _, _, mul, _, _ = _arithmetic(p, field)
    basis[:, pivots] = mul(red[:, free].T, p - 1)  # -x: p - 1 is -1 in GF(p) and in GF(p^r)
    return basis


def det_mod_d(mat, d: int) -> int:
    """Determinant of the integer lift mod d, by Bareiss elimination.

    Division-free with exact intermediate divisions, so valid for any modulus
    d >= 2; a modulus below 2 raises ValueError.  Returns a value in [0, d).
    """
    if d < 2:
        raise ValueError(f"invalid modulus {d}")
    a = [[x % d for x in row] for row in np.atleast_2d(read_ints(mat)).tolist()]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return (sign * a[n - 1][n - 1]) % d


def invertible_mod_d(mat, d: int) -> bool:
    """True iff mat is invertible over Z_d, i.e. gcd(det, d) = 1; d must be at least 2."""
    return gcd(det_mod_d(mat, d), d) == 1


def count_linear_solutions(coeffs, d: int, target: int = 0) -> int:
    """Number of x in Z_d^m with sum(coeffs[i] * x[i]) = target (mod d).

    Closed form: with e = gcd of all coefficients and d, the count is
    e * d^(m-1) when e divides target and 0 otherwise.
    """
    coeffs = read_ints(coeffs).tolist()
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if d < 2:
        raise ValueError(f"invalid modulus {d}")
    e = gcd(d, *coeffs)
    return e * d ** (len(coeffs) - 1) if target % e == 0 else 0
