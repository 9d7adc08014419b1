"""States from zero-diagonal symmetric matrices over Z_d.

The amplitude of basis string c is zeta_d raised to the quadratic phase
c Ht c^T where Ht is the strict upper triangle of H (never H/2, which breaks
for even d).  A matrix certifies k-uniformity when, for every position
subset A of size k, some k-subset B of the complement makes H[A x B]
invertible over Z_d.

At a prime power d = p^e that is a rank test: a k x k block is invertible
over Z_(p^e) iff its determinant is nonzero mod p, and some k x k block of
H[A x complement] has that iff the block has rank k mod p.  One batched
kernel runs the test on candidate upper triangles, a search chunk or a
single matrix alike; at other levels (6, 10, ...) it is only a necessary
condition, and check_certificate decides there by Bareiss determinants.
The kernel reduces each prime's digit table once, into the narrowest
unsigned dtype that holds its residues (uint8 for p < 2^8), and gathers the
blocks from that table, so the stacks it hands to the elimination kernel
are already narrow and in range.  Subsets are scanned in lexicographic
order with early exit, so failure reports are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .modular import digits, invertible_mod_d, is_prime, prime_factors, rank_mod_p, reduce_mod
from .states import PureState, TooLargeError

DEFAULT_MAX_KETS = 10**6
_STACK_CAP = 1 << 16  # entries of H[A x complement] gathered per rank_mod_p call; 2^14 to 2^16 time alike, 2^18 is slower


def _validated(H, d: int) -> np.ndarray:
    if d < 2:
        raise ValueError(f"invalid level d={d}")
    m = np.atleast_2d(reduce_mod(H, d))
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if (m != m.T).any():
        raise ValueError("matrix must be symmetric")
    if np.diag(m).any():
        raise ValueError("matrix must have zero diagonal")
    return m


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


def _rank_certificate(rows, n: int, d: int, k: int) -> np.ndarray:
    """Pass mask over candidate upper triangles, digit rows (N, T) in triu order.

    Row i passes iff for every prime p | d and every k-subset A, its
    H[A x complement] has rank k mod p: exact at prime powers, necessary
    elsewhere.  At those other levels a prime with (p - 1)^2 >= 2^63, too
    large for the int64 kernel, is skipped; at a prime power the kernel
    refuses it.  Subsets go in lexicographic blocks sized so the still-alive
    candidates gather at most _STACK_CAP entries, and failing candidates
    drop after each block.  rows may be any integer table (or list); each
    prime reads it reduced once into np.min_scalar_type(p - 1).
    """
    pos = np.zeros((n, n), dtype=np.int64)
    pos[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    pos += pos.T
    primes = prime_factors(d)
    if len(primes) > 1:  # only necessary here: leave a prime too large for the kernel to Bareiss
        primes = [p for p in primes if (p - 1) ** 2 < 1 << 63]
    tables = [(p, reduce_mod(rows, p, np.min_scalar_type(p - 1))) for p in primes]
    alive = np.arange(len(rows))
    subsets = itertools.combinations(range(n), k)
    while alive.size and (block := list(itertools.islice(subsets, max(1, _STACK_CAP // (alive.size * k * (n - k)))))):
        A = np.array(block)
        outside = np.ones((len(A), n), dtype=bool)
        outside[np.arange(len(A))[:, None], A] = False
        cols = pos[A[:, :, None], np.nonzero(outside)[1].reshape(len(A), 1, n - k)]
        for p, table in tables:
            alive = alive[(rank_mod_p(table[alive[:, None, None, None], cols], p) == k).all(axis=1)]
    mask = np.zeros(len(rows), dtype=bool)
    mask[alive] = True
    return mask


def check_certificate_prime(H, p: int, k: int) -> bool:
    """Rank certificate over a prime modulus: every H[A x complement] has rank k mod p."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is composite; use check_certificate_general")
    return check_certificate(H, p, k)


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
    """Whether H certifies k at level d: the rank kernel's verdict when d is a
    prime power, the invertible-submatrix certificate when d has two or more
    distinct primes (the search has already screened its survivors by rank)."""
    m = _validated(H, d)
    n = m.shape[0]
    if not 1 <= 2 * k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if len(prime_factors(d)) > 1:
        return check_certificate_general(m, d, k)
    return bool(_rank_certificate(m[np.triu_indices(n, 1)][None], n, d, k)[0])


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
        return tuple(self.H[np.triu_indices(self.n, 1)].tolist())


def upper_triangle_to_matrix(entries, n: int, d: int) -> np.ndarray:
    """Rebuild the symmetric zero-diagonal matrix from its upper triangle."""
    if len(entries) != n * (n - 1) // 2:
        raise ValueError(f"need {n * (n - 1) // 2} entries, got {len(entries)}")
    m = _validated(np.zeros((n, n), dtype=np.int64), d)  # refuses a bad level before reducing by it
    m[np.triu_indices(n, 1)] = reduce_mod(entries, d)
    return m + m.T


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
    return PureState._from_arrays(n, d, strings, exponents=phases)
