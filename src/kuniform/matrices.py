"""States from zero-diagonal symmetric matrices over Z_d.

The amplitude of basis string c is zeta_d raised to the quadratic phase
q(c) = c Ht c^T where Ht is the strict upper triangle of H (never H/2, which
breaks for even d).

The certificate rests on one lemma.  For a k-subset A of positions, with
M = H[A x complement] and a, a' strings on A,

    rho_A(a, a') = d^(-n) zeta^(q_A(a) - q_A(a')) sum_b zeta^((a - a')^T M b),

and the character sum is d^(n-k) when M^T (a - a') = 0 mod d and 0
otherwise.  So rho_A = I/d^k exactly when c -> M^T c is injective on Z_d^k.
By the Chinese remainder theorem that holds iff it holds over Z_(p^e) for
each prime power p^e exactly dividing d, and over Z_(p^e) iff it holds mod
p: a kernel vector c' mod p gives the kernel vector p^(e-1) c' mod p^e, and
a kernel vector mod p^e with its common power of p divided out is one mod
p.  Hence H gives a k-uniform state iff, for every k-subset A, H[A x
complement] has rank k mod every prime p | d.  check_certificate decides
exactly that, at every level d.

The paper's certificate, check_certificate_general, asks instead for one
k x k block of H[A x complement] that is invertible over Z_d, that is, one
block whose determinant is a unit mod every p | d at once.  It implies the
rank condition, and at a prime power the two agree; at 6, 10, 12, ... the
nonzero minors mod different primes may sit in different blocks, so it is
only sufficient.

One batched kernel runs the rank test on a digit table whose columns are
candidate upper triangles -- a search chunk, or a single matrix as one
column -- for every prime p | d; the elimination kernel decides every prime
up to 2^63, so check_certificate is its verdict alone at every level.  The
kernel reduces the table once per prime, into the narrowest unsigned dtype
that holds its residues (uint8 for p < 2^8), with one row per candidate,
and gathers the blocks from those rows, so the stacks it hands to the
elimination kernel are already narrow and in range.  Subsets are scanned in
lexicographic order with early exit, so failure reports are reproducible.
The search screens p = 2 by popcount instead (search._screen_level2) for
n <= 64 and hands this kernel one other prime at a time.  check_certificate
keeps the rank kernel at every prime, so the SymWitness of a search hit is
certified independently of that screen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .modular import digits, invertible_mod_d, is_prime, prime_factors, rank_mod_p, read_ints, reduce_mod
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
    c = read_ints(c).tolist()
    n = m.shape[0]
    if len(c) != n:
        raise ValueError(f"string length {len(c)} != matrix size {n}")
    total = 0
    for i in range(n):
        if c[i]:
            for j in range(i + 1, n):
                total += int(m[i, j]) * c[i] * c[j]
    return total % d


def _rank_certificate(table, n: int, k: int, primes) -> np.ndarray:
    """Pass mask over candidate upper triangles, the columns of a digit table (T, N) in triu order.

    Column i passes iff for every prime p of primes, the prime factors of
    the level, and every k-subset A, its H[A x complement] has rank k mod
    p: the exact certificate.  Each prime reads the table reduced once
    into np.min_scalar_type(p - 1) and transposed to rows, one per
    candidate, and gathers the blocks of the alive candidates as
    rows[alive][:, cols].  Subsets go in lexicographic blocks sized so those
    blocks hold at most _STACK_CAP entries, and failing candidates drop
    after each block.
    """
    pos = np.zeros((n, n), dtype=np.int64)
    pos[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    pos += pos.T
    tables = [(p, reduce_mod(table, p, np.min_scalar_type(p - 1)).T.copy()) for p in primes]
    alive = np.arange(np.shape(table)[1])
    subsets = itertools.combinations(range(n), k)
    while alive.size and (block := list(itertools.islice(subsets, max(1, _STACK_CAP // (alive.size * k * (n - k)))))):
        A = np.array(block)
        outside = np.ones((len(A), n), dtype=bool)
        outside[np.arange(len(A))[:, None], A] = False
        cols = pos[A[:, :, None], np.nonzero(outside)[1].reshape(len(A), 1, n - k)]
        for p, rows in tables:
            alive = alive[(rank_mod_p(rows[alive][:, cols], p) == k).all(axis=1)]
    mask = np.zeros(np.shape(table)[1], dtype=bool)
    mask[alive] = True
    return mask


def check_certificate_prime(H, p: int, k: int) -> bool:
    """Rank certificate over a prime modulus: every H[A x complement] has rank k mod p."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is composite; use check_certificate, which is exact at every level")
    return check_certificate(H, p, k)


def check_certificate_general(H, d: int, k: int) -> bool:
    """The paper's certificate: every H[A x complement] has a k x k block
    invertible over Z_d, by Bareiss determinants.

    Sufficient at every level and exact at prime powers; at levels with two
    or more distinct primes it rejects some k-uniform witnesses, which
    check_certificate accepts.  It shares no code with the rank kernel, so
    the tests hold check_certificate to it at every prime.
    """
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
    """Whether H gives a k-uniform state at level d: every H[A x complement]
    has rank k mod every prime p | d, exact by the module docstring's lemma,
    decided by the rank kernel at every prime.
    """
    m = _validated(H, d)
    n = m.shape[0]
    if not 1 <= 2 * k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    return bool(_rank_certificate(m[np.triu_indices(n, 1)][:, None], n, k, prime_factors(d))[0])


@dataclass(frozen=True)
class Provenance:
    method: str  # "exhaustive" | "random" | "fixture" | "cauchy"
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


def cauchy_witness(n: int, p: int, xs=None) -> SymWitness:
    """The symmetric Cauchy witness H_ij = (x_i + x_j)^-1 mod p, H_ii = 0, at k = n // 2.

    A block H[A x complement] never meets the diagonal: it is the Cauchy
    matrix 1 / (x_a - y_b) on the disjoint sets x_A and y = -x off A, and
    every square submatrix of a Cauchy matrix is nonsingular (Roth and
    Seroussi, IEEE Trans. Inf. Theory 31, 1985), so the block has rank
    min(|A|, n - |A|) mod p and the state is absolutely maximally
    entangled.  xs defaults to 0..n-1, valid at every prime p >= 2n - 1.
    A composite p, len(xs) != n, xs that repeat mod p or a pair i != j with
    x_i + x_j = 0 mod p raise ValueError.  SymWitness still checks the
    certificate, so the lemma is never trusted.
    """
    if not is_prime(p):
        raise ValueError(f"the Cauchy witness needs a prime level, got {p}")
    xs = reduce_mod(range(n) if xs is None else xs, p, object)
    if xs.shape != (n,):
        raise ValueError(f"need {n} points, got an array of shape {xs.shape}")
    xs = xs.tolist()
    if len(set(xs)) != n:
        raise ValueError(f"points {xs} repeat mod {p}")
    if any((x + y) % p == 0 for x, y in itertools.combinations(xs, 2)):
        raise ValueError(f"two points of {xs} sum to 0 mod {p}")
    H = [[0 if i == j else pow(x + y, -1, p) for j, y in enumerate(xs)] for i, x in enumerate(xs)]
    return SymWitness(n, p, H, n // 2, Provenance("cauchy"))


def upper_triangle_to_matrix(entries, n: int, d: int) -> np.ndarray:
    """Rebuild the symmetric zero-diagonal matrix from its upper triangle."""
    if len(entries) != n * (n - 1) // 2:
        raise ValueError(f"need {n * (n - 1) // 2} entries, got {len(entries)}")
    m = _validated(np.zeros((n, n), dtype=np.int64), d)  # refuses a bad level before reducing by it
    m[np.triu_indices(n, 1)] = reduce_mod(entries, d)
    return m + m.T


def all_phases(H, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All d^n basis strings (rows) and their quadratic phases, vectorized."""
    m = reduce_mod(H, d)
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
