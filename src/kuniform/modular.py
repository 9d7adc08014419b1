"""Exact linear algebra over Z_d, prime fields F_p and GF(p^r).

Matrices are plain numpy integer arrays together with an explicit modulus
argument; entries are reduced into [0, modulus) on input.

Every elimination in the package runs through one Gauss-Jordan kernel,
row_reduce, which reduces a whole stack of matrices (..., R, C) at once and
reports each one's rank.  Over F_p it uses plain mod-p int64 arithmetic, so
it refuses with OverflowError any p with (p-1)^2 >= 2^63, where a product of
two residues could wrap.  Over GF(p^r), r > 1, it takes the field itself
and calls its array forms (mul_array, sub_array, inv_array); this module
holds no extension-field arithmetic and does not import fields.
rank_mod_p, null_space_mod_p and the field-level row reduction and null
space are thin layers over it.

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
    itertools.product(range(base), repeat=width).
    """
    rest = np.array(idx, dtype=np.int64).reshape(-1)
    out = np.empty((rest.size, width), dtype=np.int64)
    for t in range(width - 1, -1, -1):
        rest, out[:, t] = np.divmod(rest, base)
    return out


def from_digits(rows, base: int) -> np.ndarray:
    """Inverse of digits along the last axis: the index of each digit row.

    Raises OverflowError when base**width exceeds 2^63, where an int64
    index could wrap, instead of returning a wrong index.
    """
    rows = np.asarray(rows, dtype=np.int64)
    width = rows.shape[-1]
    if base**width > 1 << 63:
        raise OverflowError(f"{width} base-{base} digits do not fit in an int64 index")
    return rows @ base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _arithmetic(p: int, field):
    """(q, mul, sub, inv) on int64 arrays: plain mod p, or the array forms of a GF(p^r) field."""
    if field is not None and field.r > 1:
        return field.q, field.mul_array, field.sub_array, field.inv_array

    def inv(a):  # a^(p-2) by square and multiply
        out, e = np.ones_like(a), p - 2
        while e:
            if e & 1:
                out = out * a % p
            a, e = a * a % p, e >> 1
        return out

    return p, lambda a, b: a * b % p, lambda a, b: (a - b) % p, inv


def row_reduce(stack, p: int, field=None) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan reduction of every matrix of a stack of shape (..., R, C).

    Returns the reduced row echelon forms, in the input's shape, and the rank
    of each matrix, in shape (...).  Over GF(p) (field None, or of degree 1)
    the arithmetic is plain mod p, so p must satisfy (p-1)^2 < 2^63 or
    OverflowError is raised.  Over a field GF(p^r), r > 1, entries are its
    integer-encoded elements and the field's array forms do the arithmetic.
    """
    if (p - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"modulus {p} is too large: products of residues would wrap in int64")
    if not is_prime(p):
        raise ValueError(f"elimination needs a prime modulus, got {p}; use the determinant path")
    q, mul, sub, inv = _arithmetic(p, field)
    m = np.array(stack, dtype=np.int64) % q
    shape = m.shape
    R, C = shape[-2:]
    m = m.reshape(prod(shape[:-2]), R, C)
    rank = np.zeros(m.shape[0], dtype=np.int64)
    rows = np.arange(R)
    for c in range(C):
        open_rows = (m[:, :, c] != 0) & (rows >= rank[:, None])
        b = np.flatnonzero(open_rows.any(axis=1))
        if not b.size:
            continue
        r = rank[b]
        pivot = open_rows[b].argmax(axis=1)
        top = m[b, pivot]
        m[b, pivot] = m[b, r]
        top = mul(top, inv(top[:, c])[:, None])
        m[b] = sub(m[b], mul(m[b, :, c, None], top[:, None, :]))
        m[b, r] = top  # row r was stale since the swap
        rank[b] += 1
    return m.reshape(shape), rank.reshape(shape[:-2])


def rank_mod_p(mat, p: int):
    """Rank over F_p of a matrix, or an array of ranks for a stack (..., R, C).  Requires prime p."""
    m = np.asarray(mat, dtype=np.int64)
    _, rank = row_reduce(np.atleast_2d(m), p)
    return int(rank) if m.ndim <= 2 else rank


def null_space_mod_p(mat, p: int, field=None) -> np.ndarray:
    """Basis rows of the right null space {x : mat @ x = 0}, over GF(p) or GF(p^r) as in row_reduce."""
    red, rank = row_reduce(np.atleast_2d(mat), p, field)
    red = red[:rank]
    pivots = (red != 0).argmax(axis=1)
    free = np.setdiff1d(np.arange(red.shape[1]), pivots)
    basis = np.zeros((free.size, red.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    _, _, sub, _ = _arithmetic(p, field)
    basis[:, pivots] = sub(0, red[:, free].T)
    return basis


def det_mod_d(mat, d: int) -> int:
    """Determinant of the integer lift mod d, by Bareiss elimination.

    Division-free with exact intermediate divisions, so valid for any modulus
    d >= 2.  Returns a value in [0, d).
    """
    a = [[int(x) % d for x in row] for row in np.atleast_2d(np.asarray(mat))]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1 % d
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
    """True iff mat is invertible over Z_d, i.e. gcd(det, d) = 1."""
    return gcd(det_mod_d(mat, d), d) == 1


def count_linear_solutions(coeffs, d: int, target: int = 0) -> int:
    """Number of x in Z_d^m with sum(coeffs[i] * x[i]) = target (mod d).

    Closed form: with e = gcd of all coefficients and d, the count is
    e * d^(m-1) when e divides target and 0 otherwise.
    """
    coeffs = [int(c) for c in coeffs]
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if d < 2:
        raise ValueError(f"invalid modulus {d}")
    e = gcd(d, *coeffs)
    return e * d ** (len(coeffs) - 1) if target % e == 0 else 0
