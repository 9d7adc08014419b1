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

For exponent states the oracle runs a vectorized path: for each subset the
kets are grouped by their complementary strings, the groups of each size
are gathered into one block, and the overlaps are accumulated as exponent
histograms and tested for zero through one integer matrix product against
the cyclotomic reduction matrix.  Counts are bounded by the state support
and the reduction-matrix entries are small, so the int64 arithmetic is exact.

Every int64 packing on that path is bounded where it is made.  A local
string cA is packed whole: d^k <= d^(2k+1), and verify_uniform refuses with
TooLargeError unless d^(2k+1) <= max_ops, which also bounds the histogram
index (cA, cA2, exponent).  The complementary strings, which can be far
longer than 63 bits, are packed into words of at most w digits with
d^w <= 2^62 and sorted word by word, so they never wrap.

Work is charged against max_ops.  Each subset check returns its failing
pair (or None) and its pair count, the sum of g^2 over its group sizes g,
and refuses against the total settled so far before it builds any pairs.
One scan loop settles that total in lexicographic order, so which subset a
refusal names does not depend on the worker count.
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
    rejected (no state can be uniform beyond n/2).  An instance whose
    per-subset table of d^(2k+1) pair-and-exponent entries, or whose sort and
    histogram work over all subsets, exceeds max_ops raises TooLargeError
    before starting.  The pairs within each group of kets are charged as
    they are found: one loop settles them into a running total in scan
    order, and a check refuses against the settled total before it builds
    any pairs, so the subset a refusal names does not depend on the worker
    count.
    """
    n, d = state.n, state.d
    if k < 0 or 2 * k > n:
        raise ValueError(f"k={k} out of range for n={n} (need 0 <= k <= n/2)")

    def refuse(total, what):
        if total > max_ops:
            raise TooLargeError(f"{total} {what} exceed ceiling {max_ops}", estimate=total, ceiling=max_ops)

    def charge(A, pairs):  # reads the settled total; only the scan loop below adds to it
        refuse(spent + pairs, f"sort, histogram and pair entries through subset {A}")

    refuse(d ** (2 * k + 1), "histogram entries per subset")
    spent = comb(n, k) * (len(state) + d ** (2 * k + 1))
    refuse(spent, "sort and histogram entries")
    norm = state.norm_value()
    check = _check_subset_phase if state.exponents is not None else _check_subset_generic
    scan = lambda A: check(state, A, lambda pairs: charge(A, pairs))  # noqa: E731

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


def _check_subset_phase(state: PureState, A, charge=lambda pairs: None):
    """Histogram check of one subset for single-root amplitudes.

    Returns (None, pairs) when the subset passes, else (the first failing
    pair (cA, cA2) in lexicographic order, pairs), where pairs is the sum of
    g^2 over the group sizes g; charge(pairs) runs before any pair is built.
    """
    n, d = state.n, state.d
    k = len(A)
    dk = d**k
    K, E = state.keys, state.exponents
    support = K.shape[0]
    aset = set(A)
    B = [i for i in range(n) if i not in aset]

    # group the kets by their complementary strings
    words = _words(K[:, B], d)
    order = np.lexsort(words[::-1])
    a_s = from_digits(K[:, list(A)], d)[order]
    e_s = E[order]
    edge = np.ones(support + 1, dtype=bool)  # edge[i]: a group starts at i, or i is the end
    edge[1:-1] = False
    for word in words:
        b_s = word[order]
        edge[1:-1] |= b_s[1:] != b_s[:-1]
    edges = np.flatnonzero(edge)
    starts, sizes = edges[:-1], edges[1:] - edges[:-1]
    pairs = int(sizes @ sizes)
    charge(pairs)

    # every ordered pair (i, j) within a group, one (count, g) block per group
    # size g, binned at (a_i d^k + a_j) d + (e_j - e_i mod d), the wrap of the
    # exponent difference added as a comparison; keys are distinct, so
    # g <= d^k and a block row holds g^2 <= d^(2k) pairs
    lo, hi = a_s * (dk * d) - e_s, a_s * d + e_s
    hist = np.zeros(dk * dk * d, dtype=np.int64)
    for g in np.flatnonzero(np.bincount(sizes)).tolist():
        first = starts[sizes == g]
        chunk = max(1, 2_000_000 // (g * g))
        for s in range(0, len(first), chunk):
            rows = first[s : s + chunk, None] + np.arange(g)
            eg = e_s[rows]
            codes = lo[rows][:, :, None] + hi[rows][:, None, :] + d * (eg[:, None, :] < eg[:, :, None])
            hist += np.bincount(codes.ravel(), minlength=hist.size)

    T = hist.reshape(dk, dk, d)
    # off-diagonal: the histogram polynomial must reduce to zero mod Phi_d;
    # diagonal: exponent-0 mass must be exactly support / d^k for every cA
    bad = (T.reshape(dk * dk, d) @ reduction_matrix(d)).any(axis=1).reshape(dk, dk)
    x = np.arange(dk)
    bad[x, x] = T[x, x, 0] * dk != support
    fail = np.flatnonzero(bad)
    if not fail.size:
        return None, pairs
    ca, ca2 = digits(divmod(int(fail[0]), dk), d, k).tolist()
    return (tuple(ca), tuple(ca2)), pairs


def _check_subset_generic(state: PureState, A, charge=lambda pairs: None):
    """Reference check of one subset with full cyclotomic accumulation; returns as _check_subset_phase."""
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
