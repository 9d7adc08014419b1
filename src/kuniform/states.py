"""Pure n-qudit states with exact amplitudes and the uniformity oracle.

A state is a sparse table from basis strings in Z_d^n to cyclotomic-integer
amplitudes (absent strings have amplitude zero; normalization is never
applied, since the uniformity criterion is scale-invariant).  The oracle
checks, for every k-subset A of positions and every pair of local strings
(cA, cA2), the overlap sum over the complementary positions: off-diagonal
pairs must vanish exactly and diagonal pairs must all equal norm / d^k
exactly.  It knows nothing about how a state was constructed.

When every amplitude is a single root of unity the oracle runs a vectorized
path: for each subset the overlaps are accumulated as exponent histograms
and tested for zero through one integer matrix product against the
cyclotomic reduction matrix.  Counts are bounded by the state support and
the reduction-matrix entries are small, so the int64 arithmetic is exact.

Every int64 packing on that path is bounded where it is made.  A local
string cA is packed whole: d^k <= d^(2k+1), and verify_uniform refuses with
TooLargeError unless d^(2k+1) <= max_ops, which also bounds the histogram
index (cA, cA2, exponent).  The complementary strings, which can be far
longer than 63 bits, are packed into words of at most w digits with
d^w <= 2^62 and sorted word by word, so they never wrap.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np

from .cyclotomic import CycInt, from_int, reduction_matrix, root_power
from .modular import digits, from_digits

DEFAULT_MAX_OPS = 10**9

_UNSET = object()


class TooLargeError(RuntimeError):
    """An instance exceeds a configured size ceiling; carries the estimate."""

    def __init__(self, message, estimate=None, ceiling=None):
        super().__init__(message)
        self.estimate = estimate
        self.ceiling = ceiling


class PureState:
    """Unnormalized pure state: basis string tuple -> CycInt amplitude."""

    def __init__(self, n: int, d: int, amplitudes: dict):
        if n < 1 or d < 2:
            raise ValueError(f"invalid shape n={n} d={d}")
        self.n = n
        self.d = d
        amps = {}
        for key, amp in amplitudes.items():
            key = tuple(int(x) for x in key)
            if len(key) != n or any(not 0 <= x < d for x in key):
                raise ValueError(f"basis string {key} not in Z_{d}^{n}")
            if not isinstance(amp, CycInt):
                raise TypeError(f"amplitude for {key} is not a CycInt")
            if amp.level != d:
                raise ValueError(f"amplitude level {amp.level} != state level {d}")
            if not _trivially_nonzero(amp) and amp.is_zero():
                continue
            amps[key] = amp
        if not amps:
            raise ValueError("state has no nonzero amplitude")
        self.amps = amps
        self._phase_map = _UNSET
        self._key_array = None

    @classmethod
    def from_phases(cls, n: int, d: int, phases: dict) -> PureState:
        """State whose amplitudes are the roots zeta_d^e for e in phases."""
        state = cls.__new__(cls)
        if n < 1 or d < 2:
            raise ValueError(f"invalid shape n={n} d={d}")
        state.n = n
        state.d = d
        amps = {}
        pmap = {}
        for key, e in phases.items():
            key = tuple(int(x) for x in key)
            if len(key) != n or any(not 0 <= x < d for x in key):
                raise ValueError(f"basis string {key} not in Z_{d}^{n}")
            e = int(e) % d
            amps[key] = root_power(d, e)
            pmap[key] = e
        if not amps:
            raise ValueError("state has no nonzero amplitude")
        state.amps = amps
        state._phase_map = pmap
        state._key_array = None
        return state

    def phase_map(self) -> dict | None:
        """Basis string -> exponent when all amplitudes are single roots, else None."""
        if self._phase_map is _UNSET:
            pmap = {}
            for key, amp in self.amps.items():
                nz = [j for j, c in enumerate(amp.coeffs) if c]
                if len(nz) == 1 and amp.coeffs[nz[0]] == 1:
                    pmap[key] = nz[0]
                else:
                    pmap = None
                    break
            self._phase_map = pmap
        return self._phase_map

    def norm(self) -> CycInt:
        """Exact  <state|state>  as a cyclotomic integer."""
        if self.phase_map() is not None:
            return from_int(self.d, len(self.amps))
        total = from_int(self.d, 0)
        for amp in self.amps.values():
            total = total + amp.conjugate() * amp
        return total

    def norm_value(self) -> int | CycInt:
        """The norm as a plain integer when it is one (it usually is)."""
        norm = self.norm()
        v = norm.integer_value()
        return v if v is not None else norm

    def relabel(self, perm) -> PureState:
        """Permute qudit positions: new position i holds old position perm[i]."""
        perm = tuple(perm)
        return PureState(
            self.n, self.d, {tuple(key[p] for p in perm): amp for key, amp in self.amps.items()}
        )

    def scale_phase(self, e: int) -> PureState:
        """Multiply every amplitude by zeta_d^e (a global phase)."""
        z = root_power(self.d, e)
        return PureState(self.n, self.d, {key: amp * z for key, amp in self.amps.items()})

    def _arrays(self):
        if self._key_array is None:
            keys = sorted(self.amps)
            K = np.array(keys, dtype=np.int64).reshape(len(keys), self.n)
            pmap = self.phase_map()
            E = np.array([pmap[k] for k in keys], dtype=np.int64) if pmap is not None else None
            self._key_array = (K, E)
        return self._key_array

    def __len__(self):
        return len(self.amps)

    def __repr__(self):
        return f"PureState(n={self.n}, d={self.d}, kets={len(self.amps)})"


def _trivially_nonzero(amp: CycInt) -> bool:
    nz = [c for c in amp.coeffs if c]
    return len(nz) == 1


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
    for key, amp in state.amps.items():
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


def verify_uniform(
    state: PureState, k: int, max_ops: int = DEFAULT_MAX_OPS, workers: int = 1
) -> UniformityReport:
    """Decide whether every k-qudit reduction of the state is maximally mixed.

    Subsets are scanned in lexicographic order and the scan stops at the
    first failure, which is recorded in the report.  Values k > n/2 are
    rejected (no state can be uniform beyond n/2).  Instances whose estimated
    work, or whose per-subset table of d^(2k+1) pair-and-exponent entries,
    exceeds max_ops raise TooLargeError instead of starting.
    """
    n, d = state.n, state.d
    if k < 0 or 2 * k > n:
        raise ValueError(f"k={k} out of range for n={n} (need 0 <= k <= n/2)")
    if not state.amps:
        raise ValueError("state has no nonzero amplitude")
    support = len(state.amps)
    for what, estimate in (
        ("elementary operations", comb(n, k) * d**k * support),
        ("histogram entries per subset", d ** (2 * k + 1)),
    ):
        if estimate > max_ops:
            raise TooLargeError(
                f"estimated {estimate} {what} exceeds ceiling {max_ops}",
                estimate=estimate,
                ceiling=max_ops,
            )
    norm = state.norm_value()
    pure_phase = state.phase_map() is not None

    subsets = list(itertools.combinations(range(n), k))
    if pure_phase:
        check = lambda A: _check_subset_phase(state, A)  # noqa: E731
    else:
        check = lambda A: _check_subset_generic(state, A)  # noqa: E731

    if workers > 1 and len(subsets) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for A, fail in zip(subsets, pool.map(check, subsets)):
                if fail is not None:
                    return UniformityReport(k, False, norm, A, fail)
    else:
        for A in subsets:
            fail = check(A)
            if fail is not None:
                return UniformityReport(k, False, norm, A, fail)
    return UniformityReport(k, True, norm)


def max_uniformity(state: PureState, max_ops: int = DEFAULT_MAX_OPS, workers: int = 1) -> int:
    """Largest k in [0, n/2] at which the state verifies uniform."""
    for k in range(state.n // 2, -1, -1):
        if verify_uniform(state, k, max_ops=max_ops, workers=workers).uniform:
            return k
    return 0


def _check_subset_phase(state: PureState, A):
    """Histogram check of one subset for single-root amplitudes.

    Returns None when the subset passes, else the first failing pair
    (cA, cA2) in lexicographic order.
    """
    n, d = state.n, state.d
    k = len(A)
    dk = d**k
    K, E = state._arrays()
    support = K.shape[0]
    aset = set(A)
    B = tuple(i for i in range(n) if i not in aset)

    w = next(w for w in range(62, 0, -1) if d**w <= 1 << 62)
    words = [from_digits(K[:, B[s : s + w]], d) for s in range(0, len(B), w)]
    order = np.lexsort(words[::-1])
    a_s = from_digits(K[:, A], d)[order]
    e_s = E[order]

    hist = np.zeros(dk * dk * d, dtype=np.int64)
    full = support == d**n
    if full and k:
        groups = support // dk
        a_g = a_s.reshape(groups, dk)
        e_g = e_s.reshape(groups, dk)
        chunk = max(1, int(2_000_000 // (dk * dk)))
        for s in range(0, groups, chunk):
            ag = a_g[s : s + chunk]
            eg = e_g[s : s + chunk]
            codes = (ag[:, :, None] * dk + ag[:, None, :]) * d + (eg[:, None, :] - eg[:, :, None]) % d
            hist += np.bincount(codes.ravel(), minlength=hist.size)
    else:
        new_group = np.zeros(support - 1, dtype=bool)
        for word in words:
            b_s = word[order]
            new_group |= b_s[1:] != b_s[:-1]
        boundaries = np.flatnonzero(new_group) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [support]))
        for s, e in zip(starts, ends):
            ag = a_s[s:e]
            eg = e_s[s:e]
            codes = (ag[:, None] * dk + ag[None, :]) * d + (eg[None, :] - eg[:, None]) % d
            hist += np.bincount(codes.ravel(), minlength=hist.size)

    T = hist.reshape(dk, dk, d)
    # diagonal: exponent-0 mass must be exactly support / d^k for every cA
    diag_ok = np.array([T[x, x, 0] * dk == support for x in range(dk)])
    # off-diagonal: the histogram polynomial must reduce to zero mod Phi_d
    R = reduction_matrix(d)
    rem = T.reshape(dk * dk, d) @ R
    off_zero = ~rem.any(axis=1)
    off_zero = off_zero.reshape(dk, dk)

    fail = None
    for x in range(dk):
        for y in range(dk):
            if x == y:
                if not diag_ok[x]:
                    fail = (x, y)
                    break
            elif not off_zero[x, y]:
                fail = (x, y)
                break
        if fail:
            break
    if fail is None:
        return None
    ca, ca2 = digits(fail, d, k).tolist()
    return tuple(ca), tuple(ca2)


def _check_subset_generic(state: PureState, A):
    """Reference check of one subset with full cyclotomic accumulation."""
    n, d = state.n, state.d
    k = len(A)
    aset = set(A)
    B = tuple(i for i in range(n) if i not in aset)
    groups: dict = {}
    for key, amp in state.amps.items():
        groups.setdefault(_project(key, B), []).append((_project(key, A), amp))
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
                    return (x, y)
            elif not s.is_zero():
                return (x, y)
    return None
