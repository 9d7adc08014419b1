"""Seeded search for certifying matrices and scan of whole table rows.

Candidates are the d^(n(n-1)/2) strict upper triangles.  Exhaustive mode
enumerates them in lexicographic order (first entry most significant).
Random mode derives entry t of candidate i from a splitmix64 hash of
(stream base + i*T + t), where the stream base mixes the seed with
(n, d, k); the same (n, d, k, seed) therefore always replays the same
candidate sequence and any candidate is addressable directly.  The digit
is the hash reduced mod d (the reduction bias is below 2^-60 and identical
across runs).  Levels above 2^63 are refused.  One function, _stream,
hashes the stream over arrays, for any run of digits of any gathered
candidates; the digit table _digits_batch, the level-2 row words and the
survivors' digits at odd primes all read it.

Candidates are scanned in chunks whose sizes grow x4 from 2^10 to a fixed
2^15 (the first three are 2^10, 2^12, 2^14), so a hit near the start of the
stream costs a small block while long scans still run on large ones.  The
primes of d screen a chunk in one loop, each on the survivors of the ones
before it.  Each prime p first runs the degree test on the n-bit row words
of the digits nonzero mod p (n <= 64): a vertex with fewer than k
neighbours mod p lies with them in a k-subset whose block has a zero row.
Then its exact test: at p = 2 with n <= 64 the popcount tests of
_screen_level2 on the same words, and otherwise the batched rank kernel of
matrices mod p, which decides every prime of a level up to 2^63.

The words at p = 2 come from the level-2 stream _level2_words at d = 2, and
in random mode at every even d: (h mod d) mod 2 = h mod 2 for even d, so
the parity words of a level-d candidate are those of the level-2 candidate
at the same stream position.  It passes on only the candidates of degree
>= k, whose digits the odd primes then read.  In exhaustive mode at d = 2
the index bits are the triangle entries, and the row words are
GF(2)-linear in them: flipping entry (i, j) XORs bit j into row i and bit
i into row j.  So words(hi*2^B + lo) = words(lo) ^ words(hi*2^B): one
table of the 2^B low words, B = min(T, 15), is built by B doublings
W <- [W, W ^ P_t], where P_t is the word pattern of pair t, and a chunk is
at most two slices of it, each XORed with one constant column.  In random
mode vertex v's entries (v, j > v) are consecutive digits of the stream.
They are hashed vertex by vertex, only for the candidates still alive, and
added into a uint8 count of ones for each row not yet tested (at most 63,
as n <= 64).  Once vertex v's entries are in, its row is complete: a
candidate whose count for v is below k drops, and row v leaves the counts.
No row words are kept along the way; after the last vertex one hash of
the survivors' whole triangles rebuilds their words (about 2% of an
(8,2,4) chunk survives).

Chunks are scanned in index order on the calling thread, with the primes
search_witness found once, and the scan stops at the first chunk with a
hit.  The screen is exact, so the first survivor is the hit, and
SymWitness certifies it once with the rank kernel at every prime,
independently of the popcount screen.  The witness reads its matrix from
_digits_batch, the stream the replay pins are defined on.  A miss is only
a proof of absence in exhaustive mode; in random mode it just means "not
found within budget", and table scans report the two cases differently.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .fileio import append_registry, read_registry
from .matrices import _STACK_CAP, Provenance, SymWitness, _rank_certificate, upper_triangle_to_matrix
from .matrices import check_certificate  # noqa: F401 -- unused here; kbench traces search.check_certificate
from .modular import digits, prime_factors

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK = 1 << 15
_FIRST_CHUNK = 1 << 10
_HASH_BLOCK = 1 << 14


def splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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
        for name in ("max_candidates", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.max_candidates < 1:
            raise ValueError("budget must allow at least one candidate")


def _stream(base: int, start: int, offs: np.ndarray, T: int, t0: int, L: int, d: int) -> np.ndarray:
    """Digits t0 .. t0+L-1 of candidates start + offs, shape (L, len(offs)) in np.min_scalar_type(d - 1).

    Digit t of candidate i is splitmix64((base + i*T + t) mod 2^64) mod d.
    The stream is hashed in blocks of at most _HASH_BLOCK inputs, through
    buffers allocated once per call and rewritten by out= ufuncs: a block's
    uint64 buffer holds at most 128 KB (for L <= _HASH_BLOCK), which stays
    in cache and is not mapped and unmapped by the allocator block after
    block.  At a power of two
    h & (d - 1) = h mod d, and elsewhere h - (h // d)*d = h mod d, which
    numpy forms without a hardware division (h % d takes one per entry).

    At d = 2 the digit is z_31 ^ z_0, where z = y*M mod 2^32 is the low word
    of the second product (M = 0x94D049BB133111EB, y the value it
    multiplies), which depends only on the low 32 bits of y and M.  One
    multiply by C = M*(1 + 2^31) mod 2^32 and a shift give it:
    y*C = z + (z << 31) mod 2^32, whose bits 0..30 are those of z; no carry
    enters bit 31, so bit 31 is z_31 ^ z_0.
    """
    out = np.empty((L, len(offs)), dtype=np.min_scalar_type(d - 1))
    step = max(1, _HASH_BLOCK // L)
    width = min(step, len(offs))
    x = np.empty(width, dtype=np.uint64)
    h, tmp = np.empty((L, width), dtype=np.uint64), np.empty((L, width), dtype=np.uint64)
    low = np.empty((L, width), dtype=np.uint32) if d == 2 else None
    rows = np.arange(L, dtype=np.uint64)[:, None] + np.uint64((base + start * T + t0 + _GOLDEN) & _MASK)
    for lo in range(0, len(offs), step):
        w = min(step, len(offs) - lo)
        hb, tb, ob = h[:, :w], tmp[:, :w], out[:, lo:lo + w]
        with np.errstate(over="ignore"):
            np.multiply(offs[lo:lo + w], np.uint64(T), out=x[:w], dtype=np.uint64, casting="unsafe")
            np.add(rows, x[:w], out=hb)
            np.right_shift(hb, np.uint64(30), out=tb)
            hb ^= tb
            hb *= np.uint64(0xBF58476D1CE4E5B9)
            np.right_shift(hb, np.uint64(27), out=tb)
            if d == 2:
                lb = low[:, :w]
                np.bitwise_xor(hb, tb, out=lb, casting="unsafe")
                lb *= np.uint32(0x94D049BB133111EB * (1 + 2**31) & 0xFFFFFFFF)
                np.right_shift(lb, np.uint32(31), out=ob, casting="unsafe")
            else:
                hb ^= tb
                hb *= np.uint64(0x94D049BB133111EB)
                np.right_shift(hb, np.uint64(31), out=tb)
                hb ^= tb
                if d & (d - 1):
                    np.floor_divide(hb, np.uint64(d), out=tb)
                    tb *= np.uint64(d)
                    np.subtract(hb, tb, out=ob, casting="unsafe")
                else:
                    np.bitwise_and(hb, np.uint64(d - 1), out=ob, casting="unsafe")
    return out


def _digits_batch(base: int, start: int, count: int, T: int, d: int, mode: str) -> np.ndarray:
    """The digit table of candidates [start, start+count), shape (T, count) in
    np.min_scalar_type(d - 1): column i holds the digits of candidate start + i,
    from _stream in random mode and modular.digits of the index in exhaustive mode.
    """
    if mode == "random":
        return _stream(base, start, np.arange(count), T, 0, T, d)
    return np.ascontiguousarray(digits(np.arange(start, start + count), d, T).T, dtype=np.min_scalar_type(d - 1))


# --- screens: drop candidates that cannot pass, a whole chunk at a time -----

def _row_words(bits: np.ndarray, n: int) -> np.ndarray:
    """Row v of each candidate's H as an n-bit word (bit j is H[v, j]), shape (n, count)."""
    word = np.min_scalar_type((1 << n) - 1).type  # uint8 .. uint64
    words = np.zeros((n, bits.shape[1]), dtype=word)
    for t, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        col = bits[t].astype(word)
        words[i] |= col << word(j)
        words[j] |= col << word(i)
    return words


def _screen_level2(bits: np.ndarray, n: int, k: int) -> np.ndarray:
    """Boolean pass mask of the level-2 bit screen (n <= 64) over (T, count) bits.

    Let w_S be the XOR of the row words of S.  For n >= 2k, every k-subset
    block H[A x complement] has rank k over GF(2) iff every nonempty S with
    |S| <= k has popcount(w_S & ~S) > k - |S|.

    (<=) Take S inside A.  Then w_S has more bits outside S than the k - |S|
    rows of A outside S can cover, so one of those bits lies outside A.
    (=>) If popcount(w_S & ~S) <= k - |S|, take A = S plus the bits of w_S
    outside S, padded to size k.  Then w_S vanishes on the complement of A,
    which is a dependency among the rows of S.

    So the screen makes sum_{s<=k} C(n, s) XOR-and-popcount tests, one s at
    a time with the failures dropped after each block of subsets; s = 1 is
    the degree test, so low-degree candidates drop before any XOR.
    """
    mask = np.zeros(bits.shape[1], dtype=bool)
    mask[_subset_screen(_row_words(bits, n), k, 1)] = True
    return mask


def _subset_screen(words: np.ndarray, k: int, first: int) -> np.ndarray:
    """Columns of the (n, count) row words that pass the tests of _screen_level2 for first <= |S| <= k."""
    word = words.dtype.type
    alive = np.arange(words.shape[1])
    for s in range(first, k + 1):
        subsets = itertools.combinations(range(words.shape[0]), s)
        while alive.size and (block := list(itertools.islice(subsets, max(1, _STACK_CAP // alive.size)))):
            S = np.array(block)
            outside = ~np.bitwise_or.reduce(word(1) << S.astype(word), axis=1)
            acc = np.bitwise_xor.reduce(words[S], axis=1) & outside[:, None]
            keep = np.flatnonzero((np.bitwise_count(acc) > k - s).all(axis=0))
            words, alive = words[:, keep], alive[keep]
    return alive


# --- the level-2 stream: row words straight from the candidate index --------

@functools.lru_cache(maxsize=8)
def _pair_patterns(n: int) -> np.ndarray:
    """Row t is the row words of the graph whose one edge is pair t, shape (T, n), read-only."""
    word = np.min_scalar_type((1 << n) - 1).type
    P = np.zeros((n * (n - 1) // 2, n), dtype=word)
    for t, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        P[t, i], P[t, j] = word(1) << word(j), word(1) << word(i)
    P.flags.writeable = False
    return P


@functools.lru_cache(maxsize=8)
def _low_words(n: int) -> np.ndarray:
    """Row words of exhaustive candidates 0 .. 2^B - 1, B = min(T, 15), shape (n, 2^B), read-only.

    Index bit b is the entry of pair T - 1 - b, so B doublings
    W <- [W, W ^ P_{T-1-b}] build the table.
    """
    P = _pair_patterns(n)
    W = np.zeros((n, 1), dtype=P.dtype)
    for b in range(min(len(P), 15)):
        W = np.concatenate([W, W ^ P[len(P) - 1 - b][:, None]], axis=1)
    W.flags.writeable = False
    return W


def _level2_words(base: int, start: int, count: int, n: int, k: int, mode: str):
    """(offsets, row words) of the chunk's candidates whose every vertex has degree >= k, n <= 64.

    words[:, i] is _row_words of candidate start + offsets[i], and the
    degree test is the s = 1 test of _screen_level2.  Exhaustive words are
    slices of _low_words XORed with the words of the index bits above them.
    Random mode hashes vertex v's new entries (v, j > v), digits
    t_v .. t_v + n - 2 - v of the candidate, for the candidates still alive,
    adds them to the degree counts of rows v .. n - 1 and then tests the
    count of v, whose row is complete; the survivors' words are rebuilt
    from their digits at the end.
    """
    word = np.min_scalar_type((1 << n) - 1).type
    T = n * (n - 1) // 2
    if mode == "exhaustive":
        W, P = _low_words(n), _pair_patterns(n)
        size = W.shape[1]
        high = T - size.bit_length() + 1  # index bits above the table, one per pair 0 .. high - 1
        parts = []
        for hi in range(start // size, (start + count - 1) // size + 1):
            lead = P[[t for t in range(high) if hi >> (high - 1 - t) & 1]]
            lo, stop = max(start - hi * size, 0), min(start + count - hi * size, size)
            parts.append(W[:, lo:stop] ^ np.bitwise_xor.reduce(lead, axis=0, initial=word(0))[:, None])
        words = np.concatenate(parts, axis=1)
        offs = _degree_ok(words, k)
        return offs, words[:, offs]
    # deg[r] counts the ones hashed so far in row v + r
    offs, deg = np.arange(count), np.zeros((n, count), dtype=np.uint8)
    t = 0
    for v in range(n):
        L = n - 1 - v
        if L:
            bits = _stream(base, start, offs, T, t, L, 2)
            deg[0] += np.add.reduce(bits, axis=0, dtype=np.uint8)
            deg[1:] += bits
            t += L
        live = np.flatnonzero(deg[0] >= k)
        offs, deg = offs[live], np.take(deg[1:], live, axis=1)
    return offs, _row_words(_stream(base, start, offs, T, 0, T, 2), n)


def _degree_ok(words: np.ndarray, k: int) -> np.ndarray:
    """Columns of the (n, count) row words whose every row has at least k bits set.

    With the words of H mod p this is the |S| = 1 test of _screen_level2,
    and it holds at every prime: a vertex with fewer than k neighbours mod p
    lies with them in a k-subset A whose block H[A x complement] has a zero
    row mod p.
    """
    return np.flatnonzero((np.bitwise_count(words) >= k).all(axis=0))


def _survivors(start: int, count: int, n: int, d: int, k: int, base: int, mode: str, primes) -> np.ndarray:
    """Offsets of the chunk's certificate passers, ascending.

    One loop over the primes of d, each on the survivors of the ones before
    it: the degree test, then the popcount tests at p = 2 with n <= 64 and
    the rank kernel mod p otherwise (module docstring).
    """
    T, words, table = n * (n - 1) // 2, None, None
    if n <= 64 and d % 2 == 0 and (d == 2 or mode == "random"):
        offs, words = _level2_words(base, start, count, n, k, mode)
    else:
        offs, table = np.arange(count), _digits_batch(base, start, count, T, d, mode)
    for p in primes:
        if not offs.size:
            break
        popcount = p == 2 and n <= 64
        if words is None:  # every prime but a p = 2 from _level2_words reads the digit table
            if table is None:
                table = _stream(base, start, offs, T, 0, T, d)
            residues = table if p == d else table - table // p * p  # table % p takes a hardware division per entry
            keep = _degree_ok(words := _row_words(residues != 0, n), k) if n <= 64 else np.arange(offs.size)
            words = words[:, keep] if popcount else None
        else:  # _level2_words passes on only candidates of degree >= k
            keep = np.arange(offs.size)
        if popcount:
            keep = keep[_subset_screen(words, k, 2)]
        else:
            keep = keep[_rank_certificate(residues[:, keep], n, k, [p])]
        offs, words = offs[keep], None
        if table is not None:
            table = table[:, keep]
    return offs


def _candidate(base: int, index: int, n: int, d: int, mode: str) -> np.ndarray:
    """The matrix of candidate index, read from the digit stream _digits_batch."""
    return upper_triangle_to_matrix(_digits_batch(base, index, 1, n * (n - 1) // 2, d, mode)[:, 0], n, d)


def _chunks(total: int):
    """(start, count) blocks that grow x4 from _FIRST_CHUNK to _CHUNK, so an early hit stays cheap."""
    start, size = 0, _FIRST_CHUNK
    while start < total:
        yield start, min(size, total - start)
        start += size
        size = min(4 * size, _CHUNK)


def search_witness(
    n: int, d: int, k: int, budget: SearchBudget, workers: int = 1
) -> SymWitness | None:
    """First candidate matrix certifying k, or None within the budget.

    Exhaustive mode requires d^(n(n-1)/2) <= max_candidates and its miss is a
    proof that no certifying matrix exists.  Random-mode misses prove
    nothing.  Chunks are scanned in index order on the calling thread and the
    smallest passing index wins.  workers is accepted and has no effect.
    """
    if not 1 <= 2 * k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if d < 2:
        raise ValueError(f"invalid level {d}")
    if d > 1 << 63:
        raise OverflowError(f"level {d} is above 2^63, the largest level the candidate stream holds")
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
    primes = prime_factors(d)
    for start, count in _chunks(total):
        offs = _survivors(start, count, n, d, k, base, budget.mode, primes)
        if offs.size:
            hit = start + int(offs[0])
            H = _candidate(base, hit, n, d, budget.mode)
            return SymWitness(n=n, d=d, H=H, k=k, provenance=Provenance(budget.mode, budget.seed, hit))
    return None


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
    stream otherwise (a miss only means the budget ran out).  workers is
    accepted and has no effect.
    """
    n_values = list(n_values)
    if min(n_values, default=2) < 2:
        raise ValueError(f"table sizes must be n >= 2, got {min(n_values)}")
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
            w = search_witness(n, d, k, budget)
            if w is not None:
                best_k, witness = k, w
                break
            misses.append((k, "exhausted" if exhaustive else "budget"))
        out[n] = TableCell(n=n, d=d, best_k=best_k, witness=witness, misses=misses)
        if registry_path is not None and witness is not None:
            append_registry(registry_path, witness)
    return out


def table_from_registry(path, d: int, n_values) -> dict[int, TableCell]:
    """Table cells from the witnesses stored in a registry file: the largest k per n at level d."""
    cells = {n: TableCell(n=n, d=d, best_k=0, witness=None) for n in n_values}
    for w in read_registry(path):
        if w.d == d and w.n in cells and w.k > cells[w.n].best_k:
            cells[w.n].best_k = w.k
            cells[w.n].witness = w
    return cells
