"""Seeded search for certifying matrices and scan of whole table rows.

Candidates are the d^(n(n-1)/2) strict upper triangles.  Exhaustive mode
enumerates them in lexicographic order (first entry most significant).
Random mode derives entry t of candidate i from a splitmix64 hash of
(stream base + i*T + t), where the stream base mixes the seed with
(n, d, k); the same (n, d, k, seed) therefore always replays the same
candidate sequence, any candidate is addressable directly, and workers can
split the index space freely.  The digit is the hash reduced mod d (the
reduction bias is below 2^-60 and identical across runs).

A returned matrix always passes the public certificate check again before
it leaves this module.  A miss is only a proof of absence in exhaustive
mode; in random mode it just means "not found within budget", and table
scans report the two cases differently.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .matrices import Provenance, SymWitness, check_certificate, upper_triangle_to_matrix
from .modular import digits, is_prime

_MASK = (1 << 64) - 1
_CHUNK = 1 << 15


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_base(seed: int, n: int, d: int, k: int) -> int:
    return splitmix64(splitmix64(seed & _MASK) ^ ((n << 20) | (d << 10) | k))


@dataclass(frozen=True)
class SearchBudget:
    """How hard to look: candidate ceiling, stream seed, and mode."""

    max_candidates: int
    seed: int = 0
    mode: str = "random"  # "random" | "exhaustive"

    def __post_init__(self):
        if self.mode not in ("random", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_candidates < 1:
            raise ValueError("budget must allow at least one candidate")


def _digits_batch(base: int, start: int, count: int, T: int, d: int, mode: str) -> np.ndarray:
    """Candidate digit rows for indices [start, start+count)."""
    if mode == "exhaustive":
        return digits(np.arange(start, start + count), d, T)
    with np.errstate(over="ignore"):
        u = np.arange(start, start + count, dtype=np.uint64) * np.uint64(T)
        out = np.empty((count, T), dtype=np.int64)
        for t in range(T):
            h = _splitmix64_np(np.uint64(base) + u + np.uint64(t))
            out[:, t] = (h % np.uint64(d)).astype(np.int64)
    return out


# --- fast vectorized screen for level 2 -------------------------------------

def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _screen_level2(digits: np.ndarray, n: int, k: int) -> np.ndarray:
    """Boolean pass mask for level-2 candidates (rank certificate, k <= 4).

    Rows of each k x (n-k) submatrix are packed into integers; the rank is k
    iff every nonempty XOR combination of rows is nonzero.
    """
    pos = {pair: t for t, pair in enumerate(_pairs(n))}
    alive = np.ones(digits.shape[0], dtype=bool)
    for A in itertools.combinations(range(n), k):
        if not alive.any():
            break
        comp = [j for j in range(n) if j not in A]
        idx = np.flatnonzero(alive)
        sub = digits[idx]
        rows = []
        for i in A:
            r = np.zeros(idx.size, dtype=np.int64)
            for t, j in enumerate(comp):
                key = (i, j) if i < j else (j, i)
                r |= sub[:, pos[key]] << t
            rows.append(r)
        ok = np.ones(idx.size, dtype=bool)
        for mask in range(1, 1 << k):
            combo = np.zeros(idx.size, dtype=np.int64)
            for b in range(k):
                if mask >> b & 1:
                    combo ^= rows[b]
            ok &= combo != 0
        alive[idx[~ok]] = False
    return alive


# --- scalar checks (any level) ----------------------------------------------

def _rank_at_least(rows: list[list[int]], p: int, need: int) -> bool:
    rows = [row[:] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rowr = rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rowr)]
        r += 1
        if r >= need:
            return True
    return r >= need


def _invertible_small(rows: list[list[int]], d: int) -> bool:
    k = len(rows)
    if k == 1:
        det = rows[0][0]
    elif k == 2:
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    elif k == 3:
        a, b, c = rows[0]
        e, f, g = rows[1]
        h, i, j = rows[2]
        det = a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)
    else:
        from .modular import invertible_mod_d

        return invertible_mod_d(rows, d)
    return gcd(det % d, d) == 1


def _scalar_pass(digits_row, n: int, d: int, k: int, prime: bool, pos) -> bool:
    entry = digits_row
    for A in itertools.combinations(range(n), k):
        comp = [j for j in range(n) if j not in A]
        rows = [
            [int(entry[pos[(i, j) if i < j else (j, i)]]) for j in comp] for i in A
        ]
        if prime:
            if not _rank_at_least(rows, d, k):
                return False
        else:
            found = False
            for cols in itertools.combinations(range(len(comp)), k):
                sub = [[row[c] for c in cols] for row in rows]
                if _invertible_small(sub, d):
                    found = True
                    break
            if not found:
                return False
    return True


def _first_pass_in_chunk(start: int, count: int, n: int, d: int, k: int, base: int, mode: str) -> int | None:
    """Index of the first certificate-passing candidate in a chunk, if any."""
    T = n * (n - 1) // 2
    digits = _digits_batch(base, start, count, T, d, mode)
    prime = is_prime(d)
    if d == 2 and k <= 4:
        mask = _screen_level2(digits, n, k)
        for off in np.flatnonzero(mask):
            H = upper_triangle_to_matrix(digits[off], n, d)
            if check_certificate(H, d, k):
                return start + int(off)
        return None
    pos = {pair: t for t, pair in enumerate(_pairs(n))}
    for off in range(count):
        if _scalar_pass(digits[off], n, d, k, prime, pos):
            H = upper_triangle_to_matrix(digits[off], n, d)
            if check_certificate(H, d, k):
                return start + off
    return None


def search_witness(
    n: int, d: int, k: int, budget: SearchBudget, workers: int = 1
) -> SymWitness | None:
    """First candidate matrix certifying k, or None within the budget.

    Exhaustive mode requires d^(n(n-1)/2) <= max_candidates and its miss is a
    proof that no certifying matrix exists.  Random-mode misses prove
    nothing.  The result is independent of the worker count: candidates are
    scanned in index order and the smallest passing index wins.
    """
    if not 1 <= 2 * k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if d < 2:
        raise ValueError(f"invalid level {d}")
    T = n * (n - 1) // 2
    space = d**T
    if budget.mode == "exhaustive":
        if space > budget.max_candidates:
            raise ValueError(
                f"exhaustive mode needs d^T = {space} <= budget {budget.max_candidates}"
            )
        total = space
    else:
        total = budget.max_candidates
    base = _stream_base(budget.seed, n, d, k)

    chunks = [(s, min(_CHUNK, total - s)) for s in range(0, total, _CHUNK)]
    hit = None
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for w in range(0, len(chunks), workers):
                wave = chunks[w : w + workers]
                futs = [
                    pool.submit(_first_pass_in_chunk, s, c, n, d, k, base, budget.mode)
                    for s, c in wave
                ]
                results = [f.result() for f in futs]
                found = [r for r in results if r is not None]
                if found:
                    hit = min(found)
                    break
    else:
        for s, c in chunks:
            hit = _first_pass_in_chunk(s, c, n, d, k, base, budget.mode)
            if hit is not None:
                break
    if hit is None:
        return None
    digits = _digits_batch(base, hit, 1, T, d, budget.mode)[0]
    H = upper_triangle_to_matrix(digits, n, d)
    return SymWitness(
        n=n, d=d, H=H, k=k, provenance=Provenance(budget.mode, budget.seed, hit)
    )


@dataclass
class TableCell:
    """Best uniformity found for one (level, size) cell of a table scan."""

    n: int
    d: int
    best_k: int
    witness: SymWitness | None
    misses: list[tuple[int, str]] = field(default_factory=list)  # (k, "exhausted"|"budget")


def table_scan(
    d: int,
    n_values,
    max_candidates: int = 10**7,
    seed: int = 0,
    workers: int = 1,
    registry_path=None,
) -> dict[int, TableCell]:
    """Largest certifiable k per n, trying k from n/2 downward.

    Each (n, k) attempt runs exhaustively when the whole candidate space
    fits in the budget (so a miss is definitive) and with the seeded random
    stream otherwise (a miss only means the budget ran out).
    """
    out = {}
    for n in n_values:
        T = n * (n - 1) // 2
        misses: list[tuple[int, str]] = []
        best_k = 0
        witness = None
        for k in range(n // 2, 0, -1):
            exhaustive = d**T <= max_candidates
            budget = SearchBudget(
                max_candidates, seed, "exhaustive" if exhaustive else "random"
            )
            w = search_witness(n, d, k, budget, workers=workers)
            if w is not None:
                best_k, witness = k, w
                break
            misses.append((k, "exhausted" if exhaustive else "budget"))
        out[n] = TableCell(n=n, d=d, best_k=best_k, witness=witness, misses=misses)
        if registry_path is not None and witness is not None:
            from .fileio import append_registry

            append_registry(registry_path, witness)
    return out
