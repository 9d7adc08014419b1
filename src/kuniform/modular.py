"""Exact linear algebra over Z_d and prime fields F_p.

Matrices are plain numpy integer arrays together with an explicit modulus
argument; entries are reduced into [0, modulus) on input.  Over composite
moduli the determinant is computed by fraction-free (Bareiss) elimination on
integer lifts -- Z_d has zero divisors, so modular inverses are never used on
that path.
"""

from __future__ import annotations

from math import gcd

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


def _as_mod_array(mat, modulus: int) -> np.ndarray:
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % modulus
    return a


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


def rank_mod_p(mat, p: int) -> int:
    """Rank over F_p by Gaussian elimination.  Requires prime p."""
    if not is_prime(p):
        raise ValueError(f"rank needs a prime modulus, got {p}; use the determinant path")
    m = _as_mod_array(mat, p).copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if m[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
    return r


def rref_mod_p(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p and the list of pivot columns."""
    if not is_prime(p):
        raise ValueError(f"rref needs a prime modulus, got {p}")
    m = _as_mod_array(mat, p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if m[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def null_space_mod_p(mat, p: int) -> np.ndarray:
    """Basis (as rows) of the right null space {x : mat @ x = 0} over F_p."""
    if not is_prime(p):
        raise ValueError(f"null space over a composite modulus is unsupported (got {p})")
    m, pivots = rref_mod_p(mat, p)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for b, f in enumerate(free):
        basis[b, f] = 1
        for r, c in enumerate(pivots):
            basis[b, c] = (-int(m[r, f])) % p
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
