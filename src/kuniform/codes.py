"""Linear codes, exact distance data, and the code-to-state construction.

A code over GF(p^r) is held as a full-row-rank generator matrix of
integer-encoded field elements.  The uniform superposition over the
codewords of a p-ary code is k-uniform as soon as both the minimum distance
and the dual minimum distance exceed k; both distances are always recomputed
before a state is issued -- externally supplied distances are never trusted
for certificates.  One side is enumerated; the other side's weight
distribution follows exactly from the MacWilliams identity.

Every enumeration (codewords, min_distance, the weight distributions of
certified_k and state_from_code) runs through one block generator, with one
code path for GF(p) and GF(p^r) alike, in a single thread; there is no
thread pool, and the workers arguments are accepted but have no effect.
min_distance reads its distance from the same weight count
(_weight_distribution, then _min_weight) as certified_k and state_from_code.

Extension-field codes enter through concatenation: a trace-orthogonal basis
b_t turns each GF(p^r) symbol x into r p-ary symbols, read by trace with no
change-of-basis matrix: its coordinates Tr(x b_t) / Tr(b_t^2) for the code,
the weighted Tr(x b_t) for its dual; the two expansions are dual over F_p.
Field arithmetic on code entries belongs to GF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import GF, TraceOrthBasis, get_field, null_space_over_field, rref_over_field
from .modular import digits, from_digits, read_ints, row_reduce
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
        g = np.atleast_2d(read_ints(self.generator))
        if g.size == 0:
            g = g.reshape(0, g.shape[1] if g.ndim == 2 and g.shape[1] else 0)
        if ((g < 0) | (g >= self.field.q)).any():
            raise ValueError("generator entries must be field elements")
        self.generator = g = g.astype(np.int64, copy=False)
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

    A block is the base-p digits of the message indices times the F_p image
    whose row (i, t) holds x^(r-1-t) g_i: r base-p digits of an index are
    one q-ary digit.  Over GF(p) that is msgs @ G mod p; for r > 1 the
    word digits are packed back into symbols.
    """
    f, m, n = code.field, code.m, code.n
    total = f.q**m
    if total > max_codewords:
        raise TooLargeError(
            f"{total} codewords exceed the enumeration budget {max_codewords}",
            estimate=total,
            ceiling=max_codewords,
        )
    products = f.mul_array(f.p ** np.arange(f.r - 1, -1, -1)[:, None], code.generator[:, None, :])
    image = digits(products, f.p, f.r).reshape(m * f.r, n * f.r)
    chunk = max(1, (1 << 18) // max(1, n * f.r))  # bounds each block's memory
    for s in range(0, total, chunk):
        words = digits(np.arange(s, min(s + chunk, total)), f.p, m * f.r) @ image % f.p
        yield words if f.r == 1 else from_digits(words.reshape(-1, n, f.r), f.p)


def codewords(code: LinearCode, max_codewords: int = DEFAULT_MAX_CODEWORDS):
    """Iterate all q^m codewords as integer-encoded numpy rows."""
    for block in _word_blocks(code, max_codewords):
        yield from block


def min_distance(
    code: LinearCode, max_codewords: int = DEFAULT_MAX_CODEWORDS, workers: int = 1
) -> int:
    """Minimum Hamming weight over nonzero codewords, by full enumeration.

    The enumeration-only reference for the MacWilliams distances of
    certified_k and state_from_code: the least nonzero weight of the weight
    count of all q^m codewords, which max_codewords bounds.  workers is
    accepted and has no effect.  Raises ValueError on the zero code, which
    has no nonzero codeword.
    """
    return _min_weight(_weight_distribution(_word_blocks(code, max_codewords), code.n))


def dual_code(code: LinearCode) -> LinearCode:
    """Euclidean dual: null space of the generator under sum(u_i v_i)."""
    f = code.field
    if code.m == 0:
        return LinearCode(f, np.eye(code.n, dtype=np.int64))
    basis = null_space_over_field(f, code.generator)
    return LinearCode(f, np.array(basis, dtype=np.int64).reshape(len(basis), code.n))


def is_self_dual(code: LinearCode) -> bool:
    return 2 * code.m == code.n and code.canonical_rows() == dual_code(code).canonical_rows()


def same_code(a: LinearCode, b: LinearCode) -> bool:
    return a.field == b.field and a.canonical_rows() == b.canonical_rows()


def shorten_last(code: LinearCode) -> LinearCode:
    """Restrict to codewords ending in 0 and delete that coordinate."""
    if not code.generator[:, -1].any():
        raise ValueError("all codewords already end in 0")
    # reduced with the last coordinate first, only row 0 is nonzero there
    red, _ = row_reduce(code.generator[:, ::-1], code.p, code.field)
    return LinearCode(code.field, red[1:, :0:-1])


def puncture_last(code: LinearCode) -> LinearCode:
    """Delete the last coordinate of every codeword."""
    rows, pivots = rref_over_field(code.field, code.generator[:, :-1]) if code.m else ([], [])
    kept = np.array(rows[: len(pivots)], dtype=np.int64)
    return LinearCode(code.field, kept.reshape(len(pivots), code.n - 1))


def expand_code(code: LinearCode, basis: TraceOrthBasis, which: str = "primal") -> LinearCode:
    """Rewrite a GF(p^r) code as a p-ary [rn, rm] code via the basis.

    Row (i, a) is b_a g_i, symbol by symbol.  Over a trace-orthogonal basis
    x = sum_t c_t b_t has Tr(x b_t) = c_t w_t, w_t = Tr(b_t^2), so "primal"
    writes c_t = Tr(x b_t) w_t^-1 mod p and "dual" writes Tr(x b_t).  The
    dual expansion of the dual code is the F_p-dual of the primal expansion
    of the code.  Raises ValueError unless basis.verify(), as the identity
    needs the basis to be trace-orthogonal.
    """
    f = code.field
    if basis.field != f:
        raise ValueError(f"basis is over {basis.field}, code over {f}")
    if which not in ("primal", "dual"):
        raise ValueError(f"unknown expansion {which!r}")
    if not basis.verify():
        raise ValueError(f"{basis.basis} with weights {basis.weights} is not a trace-orthogonal basis of {f}")
    p, r, b = f.p, f.r, np.array(basis.basis, dtype=np.int64)
    rows = f.mul_array(b[:, None], code.generator[:, None, :])  # (m, r, n): b_a g_i
    coords = f.trace_array(f.mul_array(rows[..., None], b))  # (m, r, n, r): Tr(x b_t)
    if which == "primal":
        coords = coords * np.array([pow(int(w), -1, p) for w in basis.weights]) % p
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


def _weight_distribution(blocks, n: int) -> list[int]:
    """A_i = number of words of Hamming weight i, i = 0..n, over blocks of length-n words."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for block in blocks:
        counts += np.bincount(np.count_nonzero(block, axis=1), minlength=n + 1)
    return counts.tolist()


def _macwilliams(weights: list[int], q: int, m: int) -> list[int]:
    """Weight distribution of the dual of an [n, m] code over GF(q) with distribution weights.

    B_j = q^-m sum_i A_i K_j(i), with the Krawtchouk values K_j(i) taken
    from the three-term recurrence
        (j+1) K_{j+1}(i) = ((n-j)(q-1) + j - q i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i)
    in Python integers: K_j(i) is an integer polynomial value, so each
    division by j+1 is exact, and only weights i with A_i != 0 are expanded,
    O(n) steps each.  The result must be a weight distribution of a code of
    q^(n-m) words containing 0 -- every sum divisible by q^m, B_0 = 1,
    no B_j negative, sum q^(n-m) -- or a ValueError is raised in place of a
    distance.
    """
    n = len(weights) - 1
    sums = [0] * (n + 1)
    for i, a in enumerate(weights):
        if a:
            prev, cur = 0, 1  # K_{-1}(i), K_0(i)
            for j in range(n + 1):
                sums[j] += a * cur
                prev, cur = cur, (((n - j) * (q - 1) + j - q * i) * cur - (q - 1) * (n - j + 1) * prev) // (j + 1)
    size = q**m
    dual = [s // size for s in sums]
    if any(s % size for s in sums) or dual[0] != 1 or min(dual) < 0 or sum(dual) != q ** (n - m):
        raise ValueError(f"MacWilliams transform of {weights} over GF({q}) is not a weight distribution")
    return dual


def _min_weight(weights: list[int]) -> int:
    """Minimum nonzero weight of a weight distribution."""
    low = next((i for i, a in enumerate(weights) if i and a), None)
    if low is None:
        raise ValueError("the zero code has no minimum distance")
    return low


def certified_k(
    code: LinearCode, max_codewords: int = DEFAULT_MAX_CODEWORDS, workers: int = 1
) -> tuple[int, int, int]:
    """(k, distance, dual distance) with k = min of both distances minus 1.

    Enumerates only the smaller side, the code (q^m words) or its dual
    (q^(n-m) words), so max_codewords bounds q^min(m, n-m); the other
    side's weight distribution, and with it its distance, is the exact
    integer MacWilliams transform of the enumerated one.  Raises ValueError
    on the zero code and on the full code, whose dual is the zero code.
    """
    small = code if 2 * code.m <= code.n else dual_code(code)
    weights = _weight_distribution(_word_blocks(small, max_codewords), code.n)
    other = _macwilliams(weights, code.field.q, small.m)
    dist, ddist = _min_weight(weights), _min_weight(other)
    if small is not code:
        dist, ddist = ddist, dist
    return min(dist, ddist) - 1, dist, ddist


def state_from_code(
    code: LinearCode, k: int, max_codewords: int = DEFAULT_MAX_CODEWORDS, workers: int = 1
) -> PureState:
    """Uniform superposition over the codewords of a p-ary code.

    Requires (and recomputes) distance >= k+1 on both the code and its dual,
    checking the code before the dual; the state is unnormalized with
    amplitude 1 on each codeword.  Only the code is enumerated, since its
    words are the kets: max_codewords bounds its q^m words, and the dual
    distance comes from the exact MacWilliams transform of the code's
    weight distribution, without enumerating the dual.
    """
    if code.r != 1:
        raise ValueError("state construction needs a prime-field code; expand it first")
    if code.m == 0:
        raise ValueError("the zero code gives a product state, not accepted here")
    if k < 0:
        raise ValueError(f"k={k} is negative")
    words = np.concatenate(list(_word_blocks(code, max_codewords)))
    weights = _weight_distribution([words], code.n)
    if (dist := _min_weight(weights)) < k + 1:
        raise HypothesisError("code", dist, k + 1)
    if (ddist := _min_weight(_macwilliams(weights, code.p, code.m))) < k + 1:
        raise HypothesisError("dual", ddist, k + 1)
    return PureState._from_arrays(code.n, code.p, words, exponents=np.zeros(len(words), dtype=np.int64))
