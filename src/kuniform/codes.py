"""Linear codes, exact distance data, and the code-to-state construction.

A code over GF(p^r) is held as a full-row-rank generator matrix of
integer-encoded field elements.  The uniform superposition over the
codewords of a p-ary code is k-uniform as soon as both the minimum distance
and the dual minimum distance exceed k; both distances are always recomputed
by codeword enumeration before a state is issued -- externally supplied
distances are never trusted for certificates.

Every enumeration (codewords, min_distance, state_from_code) runs through
one block generator in a single thread, for GF(p) and GF(p^r) alike; there
is no thread pool, and the workers arguments are accepted but have no
effect.

Extension-field codes enter through concatenation: a trace-orthogonal basis
turns each GF(p^r) symbol into r p-ary symbols (plain expansion for the
code, weight-scaled expansion for its dual), and the two expansions are dual
to each other over F_p.

Field arithmetic on code entries -- the evaluation powers of reed_solomon,
the products of an expansion, the sums of the codeword enumerator -- runs on
whole arrays through the field's tables (GF.mul_array, GF.pow_array) and
modular.digits, never one element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import GF, TraceOrthBasis, get_field, null_space_over_field, rref_over_field
from .modular import digits, from_digits, row_reduce
from .states import PureState, TooLargeError

DEFAULT_MAX_CODEWORDS = 2**24


class HypothesisError(ValueError):
    """A distance hypothesis failed; records which side fell short."""

    def __init__(self, side: str, have: int, need: int):
        super().__init__(f"{side} distance {have} is below the required {need}")
        self.side = side
        self.have = have
        self.need = need


@dataclass(eq=False)
class LinearCode:
    """A linear [n, m] code over GF(p^r), given by a generator matrix."""

    field: GF
    generator: np.ndarray

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.generator, dtype=np.int64))
        if g.size == 0:
            g = g.reshape(0, g.shape[1] if g.ndim == 2 and g.shape[1] else 0)
        if ((g < 0) | (g >= self.field.q)).any():
            raise ValueError("generator entries must be field elements")
        self.generator = g
        if g.shape[0]:
            _, pivots = rref_over_field(self.field, g)
            if len(pivots) != g.shape[0]:
                raise ValueError("generator rows are not independent")

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def m(self) -> int:
        return self.generator.shape[0]

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def r(self) -> int:
        return self.field.r

    def canonical_rows(self) -> tuple:
        rows, _ = rref_over_field(self.field, self.generator) if self.m else ([], [])
        return tuple(tuple(row) for row in rows)

    def __repr__(self):
        return f"LinearCode([{self.n}, {self.m}] over {self.field})"


def _word_blocks(code: LinearCode, max_codewords: int):
    """All q^m codewords as int64 blocks of rows, first message symbol most significant.

    Over GF(p) a block is msgs @ G mod p.  Over GF(p^r), r > 1, products go
    through the field's log/exp tables and sums add the r base-p digits of
    each element mod p.
    """
    f, g = code.field, code.generator
    total = f.q**code.m
    if total > max_codewords:
        raise TooLargeError(
            f"{total} codewords exceed the enumeration budget {max_codewords}",
            estimate=total,
            ceiling=max_codewords,
        )
    chunk = max(1, (1 << 18) // max(1, code.n * f.r))  # bounds each block's memory
    for s in range(0, total, chunk):
        msgs = digits(np.arange(s, min(s + chunk, total)), f.q, code.m)
        if f.r == 1:
            yield (msgs @ g) % f.p
            continue
        acc = np.zeros((msgs.shape[0], code.n, f.r), dtype=np.int64)
        for c, row in zip(msgs.T, g):
            acc += digits(f.mul_array(c[:, None], row), f.p, f.r).reshape(acc.shape)
        yield from_digits(acc % f.p, f.p)


def codewords(code: LinearCode, max_codewords: int = DEFAULT_MAX_CODEWORDS):
    """Iterate all q^m codewords as integer-encoded numpy rows."""
    for block in _word_blocks(code, max_codewords):
        yield from block


def min_distance(
    code: LinearCode, max_codewords: int = DEFAULT_MAX_CODEWORDS, workers: int = 1
) -> int:
    """Minimum Hamming weight over nonzero codewords, by full enumeration.

    Stops early only when a weight-1 codeword appears (no weight can be
    lower).  workers is accepted and has no effect: one vectorized pass over
    the codeword blocks measured faster than a thread pool over index
    ranges.  Raises on the zero code, which has no nonzero codeword.
    """
    if code.m == 0:
        raise ValueError("the zero code has no minimum distance")
    best = None
    for block in _word_blocks(code, max_codewords):
        weights = np.count_nonzero(block, axis=1)
        if weights.any():
            low = int(weights[weights > 0].min())
            best = low if best is None else min(best, low)
            if best == 1:
                break
    return best


def dual_code(code: LinearCode) -> LinearCode:
    """Euclidean dual: null space of the generator under sum(u_i v_i)."""
    f = code.field
    if code.m == 0:
        return LinearCode(f, np.eye(code.n, dtype=np.int64))
    basis = null_space_over_field(f, code.generator)
    g = np.array(basis, dtype=np.int64).reshape(len(basis), code.n)
    return LinearCode(f, g)


def is_self_dual(code: LinearCode) -> bool:
    return 2 * code.m == code.n and code.canonical_rows() == dual_code(code).canonical_rows()


def same_code(a: LinearCode, b: LinearCode) -> bool:
    return a.field == b.field and a.canonical_rows() == b.canonical_rows()


def shorten_last(code: LinearCode) -> LinearCode:
    """Restrict to codewords ending in 0 and delete that coordinate."""
    if not code.generator[:, -1].any():
        raise ValueError("all codewords already end in 0")
    # reduced with the last coordinate first, only row 0 is nonzero there
    red, _ = row_reduce(code.generator[:, ::-1], code.p, code.field.tables)
    return LinearCode(code.field, red[1:, :0:-1])


def puncture_last(code: LinearCode) -> LinearCode:
    """Delete the last coordinate of every codeword."""
    f = code.field
    g = code.generator[:, :-1]
    rows, pivots = rref_over_field(f, g) if code.m else ([], [])
    kept = [rows[i] for i in range(len(pivots))]
    g2 = np.array(kept, dtype=np.int64).reshape(len(kept), code.n - 1)
    return LinearCode(f, g2)


def expand_code(code: LinearCode, basis: TraceOrthBasis, which: str = "primal") -> LinearCode:
    """Rewrite a GF(p^r) code as a p-ary [rn, rm] code via the basis.

    which="primal" writes each symbol's coordinate vector (b_1, ..., b_r)
    over the basis; which="dual" scales coordinate i by the basis weight
    Tr(basis_i^2).  The dual-weighted expansion of the dual code is the
    F_p-dual of the plain expansion of the code.
    """
    f = code.field
    if basis.field != f:
        raise ValueError(f"basis is over {basis.field}, code over {f}")
    if which not in ("primal", "dual"):
        raise ValueError(f"unknown expansion {which!r}")
    p, r = f.p, f.r
    # change of basis: digit rows -> basis coordinates
    bmat = digits(basis.basis, p, r).T
    red, _ = row_reduce(np.concatenate([bmat, np.eye(r, dtype=np.int64)], axis=1), p)
    if (red[:, :r] != np.eye(r)).any():
        raise ValueError("basis is not a basis: its coordinate matrix is singular mod p")
    binv = red[:, r:]
    # row (i, a) is alpha_a times generator row i; symbol j becomes coordinates (j, 0..r-1)
    products = f.mul_array(np.array(basis.basis)[:, None], code.generator[:, None, :])
    coords = digits(products, p, r) @ binv.T % p
    if which == "dual":
        coords = coords * np.array(basis.weights) % p
    return LinearCode(get_field(p), coords.reshape(r * code.m, r * code.n))


def reed_solomon(field: GF, n: int, m: int) -> LinearCode:
    """Evaluation code of polynomials of degree < m at n fixed field points.

    Points follow the field's deterministic enumeration (0, 1, then
    generator powers), so the generator matrix is identical across runs.
    The code is MDS with distance n - m + 1; its dual is MDS as well.
    """
    if n > field.q:
        raise ValueError(f"length {n} exceeds field size {field.q}")
    if not 0 <= m <= n:
        raise ValueError(f"dimension {m} out of range")
    points = np.array(field.eval_point_order()[:n], dtype=np.int64)
    return LinearCode(field, field.pow_array(points, np.arange(m)[:, None]))


def certified_k(
    code: LinearCode, max_codewords: int = DEFAULT_MAX_CODEWORDS, workers: int = 1
) -> tuple[int, int, int]:
    """(k, distance, dual distance) with k = min of both distances minus 1."""
    dist = min_distance(code, max_codewords, workers=workers)
    ddist = min_distance(dual_code(code), max_codewords, workers=workers)
    return min(dist, ddist) - 1, dist, ddist


def state_from_code(
    code: LinearCode, k: int, max_codewords: int = DEFAULT_MAX_CODEWORDS, workers: int = 1
) -> PureState:
    """Uniform superposition over the codewords of a p-ary code.

    Requires (and recomputes) distance >= k+1 on both the code and its dual;
    the state is unnormalized with amplitude 1 on each codeword.
    """
    if code.r != 1:
        raise ValueError("state construction needs a prime-field code; expand it first")
    if code.m == 0:
        raise ValueError("the zero code gives a product state, not accepted here")
    if k < 0:
        raise ValueError(f"k={k} is negative")
    dist = min_distance(code, max_codewords, workers=workers)
    if dist < k + 1:
        raise HypothesisError("code", dist, k + 1)
    ddist = min_distance(dual_code(code), max_codewords, workers=workers)
    if ddist < k + 1:
        raise HypothesisError("dual", ddist, k + 1)
    words = np.concatenate(list(_word_blocks(code, max_codewords)))
    return PureState._from_arrays(code.n, code.p, words, exponents=np.zeros(len(words), dtype=np.int64))
