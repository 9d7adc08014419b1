"""States from zero-diagonal symmetric matrices over Z_d.

The amplitude of basis string c is zeta_d raised to the quadratic phase
c Ht c^T where Ht is the strict upper triangle of H (never H/2, which breaks
for even d).  A matrix certifies k-uniformity when, for every position
subset A of size k: over a prime modulus, the submatrix H[A x complement]
has rank k; over any modulus, some k-subset B of the complement makes
H[A x B] invertible over Z_d.  Both checks scan subsets in lexicographic
order with early exit, so failure reports are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .modular import digits, invertible_mod_d, is_prime, rank_mod_p
from .states import PureState, TooLargeError

DEFAULT_MAX_KETS = 10**6


def _validated(H, d: int) -> np.ndarray:
    m = np.atleast_2d(np.asarray(H, dtype=np.int64))
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if ((m % d) != ((m % d).T)).any():
        raise ValueError("matrix must be symmetric")
    if (np.diag(m) % d).any():
        raise ValueError("matrix must have zero diagonal")
    return m % d


def quadratic_phase(H, c, d: int) -> int:
    """The exponent c Ht c^T mod d, i.e. sum of H[i][j] c_i c_j over i < j."""
    m = _validated(H, d)
    c = [int(x) for x in c]
    n = m.shape[0]
    if len(c) != n:
        raise ValueError(f"string length {len(c)} != matrix size {n}")
    total = 0
    for i in range(n):
        if c[i]:
            for j in range(i + 1, n):
                total += int(m[i, j]) * c[i] * c[j]
    return total % d


def check_certificate_prime(H, p: int, k: int) -> bool:
    """Rank-based certificate over a prime modulus."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is composite; use check_certificate_general")
    m = _validated(H, p)
    n = m.shape[0]
    if not 1 <= 2 * k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    for A in itertools.combinations(range(n), k):
        comp = [j for j in range(n) if j not in A]
        if rank_mod_p(m[np.ix_(A, comp)], p) != k:
            return False
    return True


def check_certificate_general(H, d: int, k: int) -> bool:
    """Invertible-submatrix certificate, valid for any modulus d >= 2."""
    m = _validated(H, d)
    n = m.shape[0]
    if not 1 <= 2 * k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    for A in itertools.combinations(range(n), k):
        comp = [j for j in range(n) if j not in A]
        if not any(
            invertible_mod_d(m[np.ix_(A, B)], d) for B in itertools.combinations(comp, k)
        ):
            return False
    return True


def check_certificate(H, d: int, k: int) -> bool:
    """Dispatch to the rank certificate for prime d, else the general one."""
    return check_certificate_prime(H, d, k) if is_prime(d) else check_certificate_general(H, d, k)


@dataclass(frozen=True)
class Provenance:
    method: str  # "exhaustive" | "random" | "fixture"
    seed: int | None = None
    index: int | None = None


@dataclass(frozen=True, eq=False)
class SymWitness:
    """A zero-diagonal symmetric matrix together with the k it certifies."""

    n: int
    d: int
    H: np.ndarray
    k: int
    provenance: Provenance = field(default=Provenance("fixture"))

    def __post_init__(self):
        m = _validated(self.H, self.d)
        if m.shape[0] != self.n:
            raise ValueError(f"matrix size {m.shape[0]} != n={self.n}")
        object.__setattr__(self, "H", m)
        self.H.setflags(write=False)
        if not check_certificate(m, self.d, self.k):
            raise ValueError(f"matrix does not certify k={self.k} at level {self.d}")

    def upper_triangle(self) -> tuple[int, ...]:
        """Strict upper-triangle entries in row-major (lexicographic pair) order."""
        return tuple(
            int(self.H[i, j]) for i, j in itertools.combinations(range(self.n), 2)
        )


def upper_triangle_to_matrix(entries, n: int, d: int) -> np.ndarray:
    """Rebuild the symmetric zero-diagonal matrix from its upper triangle."""
    entries = [int(x) % d for x in entries]
    if len(entries) != n * (n - 1) // 2:
        raise ValueError(f"need {n * (n - 1) // 2} entries, got {len(entries)}")
    m = np.zeros((n, n), dtype=np.int64)
    for (i, j), v in zip(itertools.combinations(range(n), 2), entries):
        m[i, j] = m[j, i] = v
    return m


def all_phases(H, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All d^n basis strings (rows) and their quadratic phases, vectorized."""
    m = np.asarray(H, dtype=np.int64) % d
    strings = digits(np.arange(d**n), d, n)
    phases = np.zeros(d**n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            hij = int(m[i, j])
            if hij:
                phases += hij * strings[:, i] * strings[:, j]
    return strings, phases % d


def state_from_matrix(w: SymWitness, max_kets: int = DEFAULT_MAX_KETS, workers: int = 1) -> PureState:
    """The full-support state whose amplitude at c is zeta_d^(c Ht c^T).

    workers is accepted and has no effect: the phases come from one
    vectorized pass, which a thread pool over index blocks did not beat.
    """
    n, d = w.n, w.d
    if d**n > max_kets:
        raise TooLargeError(
            f"state would have {d**n} kets, above ceiling {max_kets}",
            estimate=d**n,
            ceiling=max_kets,
        )
    strings, phases = all_phases(w.H, n, d)
    return PureState.from_phases(
        n, d, {tuple(map(int, s)): int(e) for s, e in zip(strings, phases)}
    )
