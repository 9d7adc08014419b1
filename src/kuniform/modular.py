"""Exact linear algebra over Z_d, prime fields F_p and GF(p^r).

Matrices are plain numpy integer arrays together with an explicit modulus
argument; entries are reduced into [0, modulus) on input.

Every elimination in the package runs through one Gauss-Jordan kernel,
row_reduce, which reduces a whole stack of matrices (..., R, C) at once and
reports each one's rank.  Over F_p it uses plain mod-p int64 arithmetic, so
it refuses with OverflowError any p with (p-1)^2 >= 2^63, where a product of
two residues could wrap.  Over GF(p^r), r > 1, it takes the field's log/exp
tables (passed in: this module does not import fields) and adds elements
digit by digit mod p.  rank_mod_p, null_space_mod_p and the field-level
row reduction and null space are thin layers over it.

Over composite moduli the one determinant, det_mod_d, uses fraction-free
(Bareiss) elimination on integer lifts -- Z_d has zero divisors, so modular
inverses are never used on that path.  It is also the independent reference
the rank path is tested against.
"""

from __future__ import annotations

from math import gcd, prod

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


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


def gf_mul(a, b, tables) -> np.ndarray:
    """Elementwise product of integer-encoded GF(p^r) elements, broadcast.

    tables = (exp, log) are the field's discrete exp and log tables as int64
    arrays; a product with a zero factor is zero.
    """
    exp, log = tables
    a, b = np.asarray(a), np.asarray(b)
    return np.where((a == 0) | (b == 0), 0, exp[(log[a] + log[b]) % exp.size])


def _arithmetic(p: int, tables):
    """(q, mul, sub, inv) on int64 arrays over GF(p), or over GF(p^r) given its tables."""
    if tables is None:

        def inv(a):  # a^(p-2) by square and multiply
            out, e = np.ones_like(a), p - 2
            while e:
                if e & 1:
                    out = out * a % p
                a, e = a * a % p, e >> 1
            return out

        return p, lambda a, b: a * b % p, lambda a, b: (a - b) % p, inv
    exp, log = tables
    q, r = log.size, len(np.base_repr(log.size - 1, p))

    def sub(a, b):  # digit-wise mod p
        a, b = np.broadcast_arrays(a, b)
        return from_digits((digits(a, p, r) - digits(b, p, r)) % p, p).reshape(a.shape)

    return q, lambda a, b: gf_mul(a, b, tables), sub, lambda a: exp[-log[a] % (q - 1)]


def row_reduce(stack, p: int, tables=None) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan reduction of every matrix of a stack of shape (..., R, C).

    Returns the reduced row echelon forms, in the input's shape, and the rank
    of each matrix, in shape (...).  Over GF(p) (tables None) the arithmetic
    is plain mod p, so p must satisfy (p-1)^2 < 2^63 or OverflowError is
    raised.  Over GF(p^r), r > 1, entries are integer-encoded field elements
    and tables = (exp, log) are the field's tables.
    """
    if (p - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"modulus {p} is too large: products of residues would wrap in int64")
    if not is_prime(p):
        raise ValueError(f"elimination needs a prime modulus, got {p}; use the determinant path")
    q, mul, sub, inv = _arithmetic(p, tables)
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


def null_space_rows(mat, p: int, tables=None) -> np.ndarray:
    """Basis rows of the right null space {x : mat @ x = 0}, over GF(p) or GF(p^r) as in row_reduce."""
    red, rank = row_reduce(np.atleast_2d(mat), p, tables)
    red = red[:rank]
    pivots = (red != 0).argmax(axis=1)
    free = np.setdiff1d(np.arange(red.shape[1]), pivots)
    basis = np.zeros((free.size, red.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    _, _, sub, _ = _arithmetic(p, tables)
    basis[:, pivots] = sub(0, red[:, free].T)
    return basis


def null_space_mod_p(mat, p: int) -> np.ndarray:
    """Basis (as rows) of the right null space {x : mat @ x = 0} over F_p."""
    return null_space_rows(mat, p)


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
            swap = None
            for i in range(k + 1, n):
                if a[i][k]:
                    swap = i
                    break
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
    e = d
    for c in coeffs:
        e = gcd(e, c)
    m = len(coeffs)
    return e * d ** (m - 1) if target % e == 0 else 0
