"""Pure n-qudit states with exact amplitudes and the uniformity oracle.

A state is a sorted int64 table of basis strings in Z_d^n with, per row,
either an exponent e (amplitude zeta_d^e) when every amplitude is a single
root of unity, or a cyclotomic-integer amplitude (absent strings have
amplitude zero; normalization is never applied, since the uniformity
criterion is scale-invariant).  The oracle checks, for every k-subset A of
positions and every pair of local strings (cA, cA2), the overlap sum over
the complementary positions: off-diagonal pairs must vanish exactly and
diagonal pairs must all equal norm / d^k exactly.  It knows nothing about
how a state was constructed.

A verify_uniform call takes one of three routes, each with the same report.

The Gram check serves a full-support state of single roots, such as the
symmetric-matrix states sum_x zeta^(q_H(x)) |x>.  Its sorted keys are the
row-major grid, so for each subset the exponents reshape, with no sort, to
a d^k x d^(n-k) matrix E, and the reduced density matrix is M M^H for
M = zeta^E up to conjugation.  Each entry x of M M^H minus d^(n-k) on the
diagonal lies in Z[zeta_d]; if x != 0 its norm, the product of its Galois
conjugates sigma_s(x) over the units s of Z_d, is a nonzero integer, so
some |sigma_s(x)| >= 1, and sigma_(d-s) is the complex conjugate of
sigma_s.  One dense float64 Gram matrix per unit s <= d/2 therefore
decides every entry exactly once the rounding error is below 1/2, which
_gram_exact proves for inner lengths d^(n-k) <= 2^24.  Each is formed from
real BLAS products of at most 2^18 multiply-adds, which OpenBLAS keeps on
the calling thread, so the check's time does not swing with the load on
other cores.

The histogram check serves every other state.  Once per verify_uniform
call each ket is expanded into its nonzero cyclotomic terms c zeta^j (its
row, j and the integer c); an exponent state is the case of one term per
ket with c = 1.  For each subset the kets are grouped by their
complementary strings, the term groups of each size are gathered into one
block, every term pair (u, v) of a group adds c_u c_v to the bin of
(cA, cA2, j_v - j_u mod d), and the bins are tested for zero through one
integer matrix product against the cyclotomic reduction matrix.  The
diagonal bins summed over cA are the norm, so no separate norm enters.
Its tables take 16 d^(2k+1) bytes per running check, bounded by
MAX_HISTOGRAM_BYTES.

The histogram check is exact under a bound proved once per call from S,
the sum of |c| over all terms (see _term_table): every bin and partial sum
is at most S^2, so the float64 bincount weights need S^2 <= 2^53 and the
int64 histogram, the diagonal scaled by d^k and their products with the
reduction matrix need a few factors more below 2^63.  A state past the
bound runs _check_subset_generic, the pure-Python reference that sums
CycInt products pair by pair; that reference is the only path for such a
state, and the differential tests hold both fast checks to it.

Every int64 packing is bounded where it is made.  A local string cA is
packed whole: d^k <= d^(2k+1), and verify_uniform refuses with
TooLargeError unless d^(2k+1) <= max_ops, which also bounds the histogram
index (cA, cA2, exponent).  The complementary strings, which can be far
longer than 63 bits, are packed into words of at most w digits with
d^w <= 2^62 and sorted word by word, so they never wrap.

Work is charged against max_ops.  Each subset check returns its failing
pair (or None) and its pair count, the sum of g^2 over the sizes g of its
groups of kets, and refuses against the total settled so far before it
builds any pairs.  One scan loop settles that total in lexicographic
order, so which subset a refusal names does not depend on the worker count.
"""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from math import comb

import numpy as np

from .cyclotomic import CycInt, from_int, reduction_matrix, root_power
from .modular import digits, from_digits

DEFAULT_MAX_OPS = 10**9
# Memory ceiling on the histogram check's tables, summed over the checks that run at once.
MAX_HISTOGRAM_BYTES = 2 * 2**30
# Largest inner length d^(n-k) at which the Gram check is exact (see _gram_exact).
_GRAM_MAX_INNER = 2**24
# Sort and histogram entries per subset, len(state) + d^(2k+1), below which
# verify_uniform runs every check on the calling thread.  On 2 cores 2
# workers took 2.6 times as long as one on a 12-qubit Gram check (k = 4,
# 4,608 entries) and 2 times as long on a 24-qubit, 4,096-ket histogram
# check (k = 1), but 0.75 times on a Gram check at n = 6, d = 5, k = 3
# (93,750 entries).
_POOL_MIN_ENTRIES = 2**16
# Multiply-adds per BLAS call in the Gram check.  OpenBLAS, the BLAS numpy
# ships, runs a dgemm of at most 65536 x 4 of them on the calling thread;
# larger ones it splits over its own threads, whose timing then swings with
# the load on the other cores and which keep spinning after the call.
_BLAS_CALL_MACS = 2**18


class TooLargeError(RuntimeError):
    """An instance exceeds a configured size ceiling; carries the estimate."""

    def __init__(self, message, estimate=None, ceiling=None):
        super().__init__(message)
        self.estimate = estimate
        self.ceiling = ceiling


def _words(cols: np.ndarray, d: int) -> list[np.ndarray]:
    """Digit columns packed into int64 words of at most w digits (d^w <= 2^62), leading word first."""
    w = next(w for w in range(62, 0, -1) if d**w <= 1 << 62)
    return [from_digits(cols[:, s : s + w], d) for s in range(0, cols.shape[1], w)]


class PureState:
    """Unnormalized pure state on n qudits of level d, held as arrays.

    keys       (support, n) int64 basis strings, lexsorted, no duplicates.
    exponents  int64 vector with amplitude zeta_d^e for each row when every
               amplitude is a single root of unity, else None.
    values     tuple of CycInt amplitudes aligned with the rows otherwise,
               else None.

    amps and phase_map() are dict views built from these arrays on demand.
    """

    def __init__(self, n: int, d: int, amplitudes: dict):
        self._assign(n, d, np.array(list(amplitudes), dtype=np.int64), values=amplitudes.values())

    @classmethod
    def from_phases(cls, n: int, d: int, phases: dict) -> PureState:
        """State whose amplitudes are the roots zeta_d^e for e in phases."""
        return cls._from_arrays(n, d, np.array(list(phases), dtype=np.int64), exponents=list(phases.values()))

    @classmethod
    def _from_arrays(cls, n, d, keys, exponents=None, values=None) -> PureState:
        state = cls.__new__(cls)
        state._assign(n, d, keys, exponents, values)
        return state

    def _assign(self, n, d, keys, exponents=None, values=None):
        """Validate and store: exactly one of exponents and values is given, aligned with keys."""
        if n < 1 or not 2 <= d <= 1 << 62:  # digits and packed words are int64
            raise ValueError(f"invalid shape n={n} d={d}")
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            keys = keys.reshape(0, n)
        if keys.ndim != 2 or keys.shape[1] != n:
            raise ValueError(f"basis strings must have {n} digits")
        outside = ((keys < 0) | (keys >= d)).any(axis=1)
        if outside.any():
            raise ValueError(f"basis string {tuple(keys[outside][0].tolist())} not in Z_{d}^{n}")
        if values is not None:
            values = tuple(values)
            for amp in values:
                if not isinstance(amp, CycInt):
                    raise TypeError(f"amplitude {amp!r} is not a CycInt")
                if amp.level != d:
                    raise ValueError(f"amplitude level {amp.level} != state level {d}")
            keep = np.array([amp.root_exponent() is not None or not amp.is_zero() for amp in values], dtype=bool)
            keys, values = keys[keep], tuple(amp for amp, kept in zip(values, keep) if kept)
            roots = [amp.root_exponent() for amp in values]
            if None not in roots:
                exponents, values = roots, None
        if not len(keys):
            raise ValueError("state has no nonzero amplitude")
        order = np.lexsort(_words(keys, d)[::-1])
        keys = keys[order]
        twice = (keys[1:] == keys[:-1]).all(axis=1)
        if twice.any():
            raise ValueError(f"basis string {tuple(keys[1:][twice][0].tolist())} occurs twice")
        self.n, self.d, self.keys = n, d, keys
        self.keys.setflags(write=False)
        self.exponents = None if exponents is None else (np.asarray(exponents) % d).astype(np.int64)[order]
        self.values = None if values is None else tuple(values[i] for i in order.tolist())

    def _amplitudes(self):
        """The CycInt amplitudes aligned with the rows of keys."""
        if self.values is not None:
            return self.values
        roots = [root_power(self.d, e) for e in range(self.d)]
        return [roots[e] for e in self.exponents.tolist()]

    @property
    def amps(self) -> dict:
        """Basis string tuple -> CycInt amplitude (a view built on each access)."""
        return dict(zip(map(tuple, self.keys.tolist()), self._amplitudes()))

    def phase_map(self) -> dict | None:
        """Basis string -> exponent when all amplitudes are single roots, else None."""
        if self.exponents is None:
            return None
        return dict(zip(map(tuple, self.keys.tolist()), self.exponents.tolist()))

    def norm(self) -> CycInt:
        """Exact  <state|state>  as a cyclotomic integer."""
        if self.exponents is not None:
            return from_int(self.d, len(self))
        total = from_int(self.d, 0)
        for amp in self.values:
            total = total + amp.conjugate() * amp
        return total

    def norm_value(self) -> int | CycInt:
        """The norm as a plain integer when it is one (it usually is)."""
        norm = self.norm()
        v = norm.integer_value()
        return v if v is not None else norm

    def relabel(self, perm) -> PureState:
        """Permute qudit positions: new position i holds old position perm[i]."""
        perm = [int(p) for p in perm]
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm} is not a permutation of range({self.n})")
        return PureState._from_arrays(self.n, self.d, self.keys[:, perm], self.exponents, self.values)

    def scale_phase(self, e: int) -> PureState:
        """Multiply every amplitude by zeta_d^e (a global phase)."""
        if self.exponents is not None:
            return PureState._from_arrays(self.n, self.d, self.keys, exponents=self.exponents + e % self.d)
        z = root_power(self.d, e)
        return PureState._from_arrays(self.n, self.d, self.keys, values=[amp * z for amp in self.values])

    def __len__(self):
        return len(self.keys)

    def __repr__(self):
        return f"PureState(n={self.n}, d={self.d}, kets={len(self)})"


@dataclass(frozen=True)
class UniformityReport:
    """Outcome of a uniformity check at one k."""

    k_requested: int
    uniform: bool
    norm: int | CycInt
    failing_subset: tuple[int, ...] | None = None
    failing_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def _project(key, positions):
    return tuple(key[p] for p in positions)


def marginal_sum(state: PureState, subset, ca, ca2) -> CycInt:
    """Exact overlap sum over the complement of subset for local strings ca, ca2.

    Iterates only stored amplitudes, joined sparsely on their projection to
    the complementary positions.
    """
    A = tuple(sorted(int(a) for a in subset))
    if len(set(A)) != len(A) or any(not 0 <= a < state.n for a in A):
        raise ValueError(f"bad subset {subset}")
    ca = tuple(int(x) for x in ca)
    ca2 = tuple(int(x) for x in ca2)
    if len(ca) != len(A) or len(ca2) != len(A):
        raise ValueError("local strings must match the subset size")
    if any(not 0 <= x < state.d for x in ca + ca2):
        raise ValueError(f"local strings {ca} and {ca2} must have digits in Z_{state.d}")
    aset = set(A)
    B = tuple(i for i in range(state.n) if i not in aset)
    left = {}
    right = {}
    for key, amp in zip(state.keys.tolist(), state._amplitudes()):
        pa = _project(key, A)
        if pa == ca:
            left[_project(key, B)] = amp
        if pa == ca2:
            right[_project(key, B)] = amp
    total = from_int(state.d, 0)
    for cb, a1 in left.items():
        a2 = right.get(cb)
        if a2 is not None:
            total = total + a1.conjugate() * a2
    return total


def _in_order(fn, items, workers: int):
    """(x, fn(x)) for each x of items, lazily and in order.

    Above one worker, fn runs in a pool with at most 2 * workers calls ahead
    of the one consumed; closing the generator cancels those not started.
    """
    if workers <= 1:
        yield from ((x, fn(x)) for x in items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = deque((x, pool.submit(fn, x)) for x in itertools.islice(items, 2 * workers))
        try:
            while window:
                x, future = window.popleft()
                yield x, future.result()
                window.extend((x, pool.submit(fn, x)) for x in itertools.islice(items, 1))
        finally:
            for _, future in window:
                future.cancel()


def verify_uniform(
    state: PureState, k: int, max_ops: int = DEFAULT_MAX_OPS, workers: int = 1
) -> UniformityReport:
    """Decide whether every k-qudit reduction of the state is maximally mixed.

    Subsets are scanned in lexicographic order and the scan stops at the
    first failure, which is recorded in the report.  Values k > n/2 are
    rejected (no state can be uniform beyond n/2).  Each call takes one of
    three routes, all with the same report:
      * a full-support state of single roots, within the bound of
        _gram_exact, runs the dense Gram check: rho_A = M M^H for its
        amplitudes M as a d^k x d^(n-k) matrix, in float64 once per Galois
        conjugate, which decides each entry exactly because a nonzero
        cyclotomic integer has a conjugate of modulus at least 1 (its norm
        is a nonzero integer);
      * any other state within the bound of _term_table runs the histogram
        check on its term table, built once;
      * a state past that bound runs the reference check, subset by subset.
    An instance whose per-subset table of d^(2k+1) pair-and-exponent
    entries, or whose sort and histogram work over all subsets, exceeds
    max_ops raises TooLargeError before starting, on every route; so does a
    histogram route whose tables (16 d^(2k+1) bytes per running check)
    would exceed MAX_HISTOGRAM_BYTES.  The pairs within each group of kets
    are charged as they are found (d^(n+k) per subset on a full-support
    state): one loop settles them into a running total in scan order, and a
    check refuses against the settled total before it builds any pairs, so
    the subset a refusal names does not depend on the worker count.  Below
    _POOL_MIN_ENTRIES sort and histogram entries per subset the checks run
    on the calling thread whatever the worker count.
    """
    n, d = state.n, state.d
    if k < 0 or 2 * k > n:
        raise ValueError(f"k={k} out of range for n={n} (need 0 <= k <= n/2)")

    def refuse(total, what, ceiling=max_ops):
        if total > ceiling:
            raise TooLargeError(f"{total} {what} exceed ceiling {ceiling}", estimate=total, ceiling=ceiling)

    def charge(A, pairs):  # reads the settled total; only the scan loop below adds to it
        refuse(spent + pairs, f"sort, histogram and pair entries through subset {A}")

    refuse(d ** (2 * k + 1), "histogram entries per subset")
    spent = comb(n, k) * (len(state) + d ** (2 * k + 1))
    refuse(spent, "sort and histogram entries")
    norm = state.norm_value()
    if len(state) + d ** (2 * k + 1) < _POOL_MIN_ENTRIES:  # too short a check to hand to a thread
        workers = 1
    if state.exponents is not None and len(state) == d**n and _gram_exact(d, n, k):
        roots = _conjugate_roots(d)
        scan = lambda A: _check_subset_gram(state, A, lambda pairs: charge(A, pairs), roots)  # noqa: E731
    elif (terms := _term_table(state, k)) is None:  # past the exactness bound only the reference is exact
        scan = lambda A: _check_subset_generic(state, A, lambda pairs: charge(A, pairs))  # noqa: E731
    else:
        running = min(max(workers, 1), comb(n, k))
        refuse(16 * d ** (2 * k + 1) * running, f"histogram bytes over {running} running checks", MAX_HISTOGRAM_BYTES)
        scan = lambda A: _check_subset(state, A, lambda pairs: charge(A, pairs), terms)  # noqa: E731

    with closing(_in_order(scan, itertools.combinations(range(n), k), workers)) as results:
        for A, (fail, pairs) in results:
            charge(A, pairs)
            spent += pairs
            if fail is not None:
                return UniformityReport(k, False, norm, A, fail)
    return UniformityReport(k, True, norm)


def max_uniformity(state: PureState, max_ops: int = DEFAULT_MAX_OPS, workers: int = 1) -> int:
    """Largest k in [0, n/2] at which the state verifies uniform."""
    for k in range(state.n // 2, -1, -1):
        if verify_uniform(state, k, max_ops=max_ops, workers=workers).uniform:
            return k
    return 0


def _gram_exact(d: int, n: int, k: int) -> bool:
    """Whether the Gram check decides every k-subset of a full-support state exactly.

    Let m = d^(n-k), u = 2^-53, and x = G[a, a'] - [a = a'] m for an entry
    of the exact Gram matrix G = M M^H; x lies in Z[zeta_d].  The check
    computes sigma_s(x), for each unit s of Z_d with s <= d/2, in float64,
    and calls x nonzero when some computed squared modulus is at least 1/4.
    That is exact when every computed value is within 1/4 of the true one
    and the squared modulus is formed to a relative 1/8:
      * x = 0: every sigma_s(x) is 0, so every computed modulus is below 1/4;
      * x != 0: the norm of x, the product of sigma_s(x) over all units s,
        is a nonzero rational integer, so some |sigma_s(x)| >= 1; since
        sigma_(d-s)(x) is the complex conjugate of sigma_s(x), some such s
        is at most d/2, and its computed modulus is above 3/4.
    The error of an entry, for m <= 2^24:
      * a root cos t + i sin t with t = (2 pi / d) j, 0 <= j < d, has t
        within 3.01u relative (so 19u absolute) and, with cos and sin within
        1 ulp, lies within eps = 2^-48 of zeta^j; a product of two computed
        roots is then within 3 eps of the exact one, and m of them move
        the entry by at most 3 m eps <= 3 * 2^-24;
      * the real and the imaginary part of an inner product of length m
        are each a real inner product of length 2m, so in any summation
        order (blocked, split into X X^T + Y Y^T and T - T^T for T = Y X^T,
        with fused multiply-adds or not) each is within
        gamma_2m sum |x_i||y_i| <= 2mu (1 + 2^-27) m (1 + eps)^2 of its
        value, together within 2 sqrt(2) m^2 u (1 + 2^-26) < 0.09;
      * subtracting m, which float64 holds exactly, adds at most
        u (2m + 1) < 2^-28.
    That is under 0.1 < 1/4, and squaring and adding the two parts is off
    by a relative 4u < 1/8.  Past m = 2^24 the histogram check runs.
    """
    return d ** (n - k) <= _GRAM_MAX_INNER


def _conjugate_roots(d: int) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(cos, sin) of 2 pi s j / d for j in Z_d, for each unit s of Z_d with s <= d/2.

    At d = 2 the roots are real, so the sine table is None.
    """
    tables = []
    for s in range(1, d // 2 + 1):
        if np.gcd(s, d) == 1:
            t = (2 * np.pi / d) * (s * np.arange(d) % d)
            tables.append((np.cos(t), None if d == 2 else np.sin(t)))
    return tables


def _product_t(W: np.ndarray, R: np.ndarray) -> np.ndarray:
    """W @ R.T in float64, as BLAS products of at most _BLAS_CALL_MACS multiply-adds each.

    Row bands of W, and column chunks of both when one row is past the
    limit; the chunks are summed in order.
    """
    cols, inner = R.shape
    band = max(1, _BLAS_CALL_MACS // (cols * inner))
    width = min(inner, max(1, _BLAS_CALL_MACS // (band * cols)))
    out = np.zeros((W.shape[0], cols))
    for r0 in range(0, W.shape[0], band):
        for c0 in range(0, inner, width):
            out[r0 : r0 + band] += W[r0 : r0 + band, c0 : c0 + width] @ R[:, c0 : c0 + width].T
    return out


def _check_subset_gram(state: PureState, A, charge=lambda pairs: None, roots=None):
    """Dense Gram check of one subset of a full-support single-root state; returns as _check_subset.

    The sorted keys of a full-support state are the row-major grid, so the
    exponents reshape to a d^k x d^(n-k) matrix E indexed by (cA, cB) with
    no sort.  For each pair of tables of _conjugate_roots (the default),
    M = cos[E] + i sin[E] and G = M M^H is the conjugate of rho_A, formed
    from real products by _product_t; an entry fails when it is at least
    1/2 away from [cA = cA2] d^(n-k) under any pair, which _gram_exact
    shows is exact within its bound.  Every one of the d^(n-k)
    groups of kets that agree off A holds d^k kets, so pairs = d^(n+k).
    """
    n, d = state.n, state.d
    k = len(A)
    dk, m = d**k, d ** (n - k)
    pairs = dk * dk * m
    charge(pairs)
    aset = set(A)
    B = [i for i in range(n) if i not in aset]
    E = state.exponents.reshape((d,) * n).transpose(list(A) + B).reshape(dk, m)
    fail = np.zeros((dk, dk), dtype=bool)
    for cos, sin in _conjugate_roots(d) if roots is None else roots:
        X = cos[E]
        G = _product_t(X, X)  # M = X + iY: the real part of M M^H is X X^T + Y Y^T
        if sin is not None:
            Y = sin[E]
            G += _product_t(Y, Y)
        G.flat[:: dk + 1] -= m
        G *= G
        if sin is not None:
            T = _product_t(Y, X)  # and its imaginary part is Y X^T - X Y^T
            G += (T - T.T) ** 2
        fail |= G >= 0.25
    fail = np.flatnonzero(fail)
    if not fail.size:
        return None, pairs
    ca, ca2 = digits(divmod(int(fail[0]), dk), d, k).tolist()
    return (tuple(ca), tuple(ca2)), pairs


@dataclass(frozen=True)
class _Terms:
    """The nonzero cyclotomic terms of a state's amplitudes, ket by ket.

    Term t is coeffs[t] * zeta^exps[t], the integer coefficient held as a
    float64 bincount weight.  Ket row i owns the terms first[i]:first[i+1];
    first is None when every ket has exactly one term, and coeffs is None
    when every coefficient is 1.
    """

    first: np.ndarray | None
    exps: np.ndarray
    coeffs: np.ndarray | None


def _term_table(state: PureState, k: int) -> _Terms | None:
    """The state's term table, or None when the histogram check at this k
    could wrap.

    With S the sum of |c| over all terms and Q the sum over kets of the
    squared sum of |c| over the ket's terms, every histogram bin and every
    partial sum of one is at most S^2 in absolute value, the diagonal bins
    of all local strings together hold at most Q, and the reduction matrix
    R has entries at most r.  The table is given only when
      * r S^2 < 2^63: the int64 histogram and its product with R;
      * r (d^k + 1) Q < 2^63: the diagonal's product with R scaled by d^k,
        and the norm's (at most r Q);
      * S^2 <= 2^53 unless every amplitude is a single root: the bincount
        weights c_u c_v and their float64 running sums are then integers
        of at most S^2, so exact.  (Each |c| <= S < 2^32 also fits the
        int64 coefficient table.)
    """
    d = state.d
    if state.exponents is not None:
        S = Q = len(state)
    else:
        per_ket = [sum(map(abs, amp.coeffs)) for amp in state.values]
        S, Q = sum(per_ket), sum(t * t for t in per_ket)
    r = int(np.abs(reduction_matrix(d)).max())
    if r * S * S >= 1 << 63 or r * (d**k + 1) * Q >= 1 << 63 or (state.values is not None and S * S > 1 << 53):
        return None
    if state.exponents is not None:
        return _Terms(None, state.exponents, None)
    C = np.array([amp.coeffs for amp in state.values], dtype=np.int64)
    rows, exps = np.nonzero(C)
    coeffs = C[rows, exps]
    first = np.concatenate(([0], np.cumsum(np.count_nonzero(C, axis=1))))
    return _Terms(first, exps, None if (coeffs == 1).all() else coeffs.astype(np.float64))


def _check_subset(state: PureState, A, charge=lambda pairs: None, terms: _Terms | None = None):
    """Histogram check of one subset over the state's term table.

    Returns (None, pairs) when the subset passes, else (the first failing
    pair (cA, cA2) in lexicographic order, pairs), where pairs is the sum of
    g^2 over the sizes g of the groups of kets that agree off A; charge(pairs)
    runs before any pair is built.  terms defaults to the table at k = |A|;
    a state past its exactness bound raises OverflowError.
    """
    n, d = state.n, state.d
    k = len(A)
    dk = d**k
    if terms is None and (terms := _term_table(state, k)) is None:
        raise OverflowError("the histogram check could wrap on this state; use the reference check")
    K = state.keys
    aset = set(A)
    B = [i for i in range(n) if i not in aset]

    # group the kets by their complementary strings
    words = _words(K[:, B], d)
    order = np.lexsort(words[::-1])
    a_s = from_digits(K[:, list(A)], d)[order]
    edge = np.ones(len(K) + 1, dtype=bool)  # edge[i]: a group starts at i, or i is the end
    edge[1:-1] = False
    for word in words:
        b_s = word[order]
        edge[1:-1] |= b_s[1:] != b_s[:-1]
    edges = np.flatnonzero(edge)
    sizes = edges[1:] - edges[:-1]
    pairs = int(sizes @ sizes)
    charge(pairs)

    # the terms of the sorted kets, ket by ket, and the group edges at term offsets
    t = order
    if terms.first is not None:
        counts = np.diff(terms.first)[order]
        ends = np.cumsum(counts)
        t = np.repeat(terms.first[order] - (ends - counts), counts) + np.arange(ends[-1])
        a_s = np.repeat(a_s, counts)
        edges = np.concatenate(([0], ends))[edges]
        sizes = edges[1:] - edges[:-1]
    starts = edges[:-1]
    e_s = terms.exps[t]
    c_s = None if terms.coeffs is None else terms.coeffs[t]

    # every ordered term pair (u, v) within a group, one (count, g) block per
    # group size g, binned at (a_u d^k + a_v) d + (e_v - e_u mod d) with
    # weight c_u c_v, since conj(zeta^e) = zeta^(-e); the wrap of the exponent
    # difference is added as a comparison.  Keys are distinct and a ket has
    # at most d terms, so g <= d^(k+1) and a block row holds at most g^2 pairs
    lo, hi = a_s * (dk * d) - e_s, a_s * d + e_s
    hist = np.zeros(dk * dk * d, dtype=np.int64)
    for g in np.flatnonzero(np.bincount(sizes)).tolist():
        heads = starts[sizes == g]
        chunk = max(1, 2_000_000 // (g * g))
        for s in range(0, len(heads), chunk):
            rows = heads[s : s + chunk, None] + np.arange(g)
            eg = e_s[rows]
            codes = (lo[rows][:, :, None] + hi[rows][:, None, :] + d * (eg[:, None, :] < eg[:, :, None])).ravel()
            if c_s is None:
                hist += np.bincount(codes, minlength=hist.size)
            else:
                cg = c_s[rows]
                hist += np.bincount(codes, (cg[:, :, None] * cg[:, None, :]).ravel(), hist.size).astype(np.int64)

    # reduced mod Phi_d, an off-diagonal bin must vanish and a diagonal one
    # times d^k must equal the norm, the diagonal's sum over all local strings
    # (every term pair within one ket)
    M = hist.reshape(dk * dk, d) @ reduction_matrix(d)
    diag = M[:: dk + 1]  # the rows (cA, cA)
    M[:: dk + 1] = dk * diag - diag.sum(axis=0)
    fail = np.flatnonzero(M.any(axis=1))
    if not fail.size:
        return None, pairs
    ca, ca2 = digits(divmod(int(fail[0]), dk), d, k).tolist()
    return (tuple(ca), tuple(ca2)), pairs


def _check_subset_generic(state: PureState, A, charge=lambda pairs: None):
    """Reference check of one subset with full cyclotomic accumulation; returns as _check_subset."""
    n, d = state.n, state.d
    k = len(A)
    aset = set(A)
    B = tuple(i for i in range(n) if i not in aset)
    groups: dict = {}
    for key, amp in zip(state.keys.tolist(), state._amplitudes()):
        groups.setdefault(_project(key, B), []).append((_project(key, A), amp))
    pairs = sum(len(entries) ** 2 for entries in groups.values())
    charge(pairs)
    pair_sums: dict = {}
    for entries in groups.values():
        for x, ax in entries:
            cj = ax.conjugate()
            for y, ay in entries:
                prod = cj * ay
                prev = pair_sums.get((x, y))
                pair_sums[(x, y)] = prod if prev is None else prev + prod
    norm = state.norm()
    dk = d**k
    zero = from_int(d, 0)
    for x in itertools.product(range(d), repeat=k):
        for y in itertools.product(range(d), repeat=k):
            s = pair_sums.get((x, y), zero)
            if x == y:
                if not (s.scale(dk) - norm).is_zero():
                    return (x, y), pairs
            elif not s.is_zero():
                return (x, y), pairs
    return None, pairs
