"""Galois fields GF(p^r), the trace map, and trace-orthogonal bases.

Elements are encoded as integers in [0, p^r): the base-p digits of the code
are the coefficients of the element over the fixed modulus polynomial, least
significant digit first.  The modulus is the lowest monic irreducible of
degree r in this integer encoding, found by scanning with Rabin's test, so
the encoding is identical across runs.

The field has one arithmetic.  A single vectorized product, _mulmod, of
coefficient rows modulo the modulus and p builds every table once per
field: the smallest generator (candidates in small ascending batches), the
exp table by doubling (multiplying by g^s is an r x r matrix over F_p,
applied in bounded blocks), the log table, and a q-entry trace table.
After that every product, inverse, power and trace is a table lookup, and
every sum is digit-wise mod p through modular.digits and from_digits; the
scalar methods and their array forms (mul_array, pow_array, trace_array)
read the same tables, which are immutable after construction.  The
trace-orthogonal basis searches work on whole arrays of candidates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modular import digits, from_digits, gf_mul, is_prime, null_space_rows, rank_mod_p, row_reduce

_MAX_FIELD = 1 << 20
_BLOCK = 1 << 15  # elements per vectorized step of the table builds


def _reduction(modulus, p: int) -> np.ndarray:
    """(r*r, r) matrix: row t*r + u is x^(2r-2-t-u) reduced mod (modulus, p).

    Coefficient rows are digit rows as modular.digits writes them: digit t is
    the coefficient of x^(r-1-t), so digits t and u multiply into that power.
    """
    r = len(modulus) - 1
    powers = np.zeros((2 * r - 1, r), dtype=np.int64)  # x^j, least significant first
    powers[:r] = np.eye(r, dtype=np.int64)
    top = -np.array(modulus[:r], dtype=np.int64) % p  # x^r
    for j in range(r, 2 * r - 1):  # x^j = x * x^(j-1): up one degree, x^r folded back
        powers[j] = (np.concatenate(([0], powers[j - 1, :-1])) + powers[j - 1, -1] * top) % p
    degree = 2 * r - 2 - np.add.outer(np.arange(r), np.arange(r))
    return powers[degree.ravel(), ::-1]


def _mulmod(a, b, red: np.ndarray, p: int) -> np.ndarray:
    """Product of coefficient rows (..., r), broadcast, modulo the modulus behind red and p.

    Entries stay below r^2 (p-1)^2, which is under 2^63 for every field of
    at most 2^20 elements.
    """
    outer = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :] % p
    return outer.reshape(*outer.shape[:-2], -1) @ red % p


def _powmod(a, e: int, red: np.ndarray, p: int) -> np.ndarray:
    """a^e for coefficient rows a (..., r), by square and multiply."""
    a = np.asarray(a, dtype=np.int64)
    out = np.zeros_like(a)
    out[..., -1] = 1
    while e:
        if e & 1:
            out = _mulmod(out, a, red, p)
        a, e = _mulmod(a, a, red, p), e >> 1
    return out


def _is_irreducible(modulus, p: int) -> bool:
    """Irreducibility of a monic polynomial of degree r >= 2 over F_p (Rabin's test).

    x^(p^r) must equal x, and for each prime s dividing r, x^(p^(r/s)) - x
    must be a unit mod the polynomial, i.e. multiplication by it must be an
    invertible r x r matrix over F_p.
    """
    r = len(modulus) - 1
    red = _reduction(modulus, p)
    x = digits(p, p, r)[0]
    if (_powmod(x, p**r, red, p) != x).any():
        return False
    eye = np.eye(r, dtype=np.int64)
    return all(
        rank_mod_p(_mulmod(eye, (_powmod(x, p ** (r // s), red, p) - x) % p, red, p), p) == r
        for s in _prime_factors(r)
    )


def _prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] * (n > 1)


class GF:
    """The field GF(p^r) with deterministic element encoding and tables.

    The scalar methods take and return Python ints; mul_array, pow_array and
    trace_array are their elementwise forms on integer arrays of any shape.
    """

    def __init__(self, p: int, r: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1:
            raise ValueError(f"invalid extension degree {r}")
        q = p**r
        if q > _MAX_FIELD:
            raise ValueError(f"field size {q} exceeds enumeration budget {_MAX_FIELD}")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = self._find_modulus()
        self._build_tables()

    def _find_modulus(self) -> tuple[int, ...]:
        p, r = self.p, self.r
        if r == 1:
            return (0, 1)  # x
        for low in range(p**r):
            coeffs = self.coeffs_of(low) + (1,)
            if _is_irreducible(coeffs, p):
                return coeffs
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        red = _reduction(self.modulus, p)
        one = digits(1, p, r)[0]
        # the smallest generator: a^((q-1)/s) != 1 for every prime s | q-1
        exponents = [(q - 1) // s for s in _prime_factors(q - 1)]
        for lo in range(1, q, 64):
            cands = np.arange(lo, min(lo + 64, q))
            rows = digits(cands, p, r)
            ok = np.ones(cands.size, dtype=bool)
            for e in exponents:
                ok &= (_powmod(rows, e, red, p) != one).any(axis=-1)
            if ok.any():
                self.generator = int(cands[ok.argmax()])
                break
        # exp[s:2s] = exp[:s] * g^s, where times g^s is an r x r matrix on digit rows
        exp = np.ones(q - 1, dtype=np.int64)
        eye = np.eye(r, dtype=np.int64)
        gs, s = digits(self.generator, p, r)[0], 1
        while s < q - 1:
            times, todo = _mulmod(eye, gs, red, p), min(s, q - 1 - s)
            for lo in range(0, todo, _BLOCK):
                hi = min(lo + _BLOCK, todo)
                exp[s + lo : s + hi] = from_digits(digits(exp[lo:hi], p, r) @ times % p, p)
            gs, s = _mulmod(gs, gs, red, p), 2 * s
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # Tr(a) = sum of a^(p^i), i < r; it lies in F_p, so only the constant
        # (lowest) digits need summing
        trace = np.zeros(q, dtype=np.int64)
        logs = log[1:].copy()  # log a^(p^i) of every nonzero a
        for _ in range(r):
            trace[1:] += exp[logs] % p
            logs = logs * p % (q - 1)
        self._tables = (exp, log)
        self._trace = trace % p
        # the tables the elimination kernel takes; None over a prime field
        self.tables = None if r == 1 else self._tables

    def mul_array(self, a, b) -> np.ndarray:
        return gf_mul(a, b, self._tables)

    def pow_array(self, a, e) -> np.ndarray:
        """a^e elementwise, with 0^0 = 1 and 0^e = 0 otherwise."""
        (exp, log), a, e = self._tables, np.asarray(a), np.asarray(e)
        return np.where(a == 0, e == 0, exp[log[a] * e % (self.q - 1)])

    def trace_array(self, a) -> np.ndarray:
        return self._trace[a]

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        return tuple(digits(a, self.p, self.r)[0, ::-1].tolist())

    def from_coeffs(self, coeffs) -> int:
        return int(from_digits(np.array(list(coeffs), dtype=np.int64)[::-1] % self.p, self.p))

    def add(self, a: int, b: int) -> int:
        return int(from_digits(digits([a, b], self.p, self.r).sum(axis=0) % self.p, self.p))

    def neg(self, a: int) -> int:
        return int(from_digits(-digits(a, self.p, self.r)[0] % self.p, self.p))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        exp, log = self._tables
        return int(exp[(log[a] + log[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        exp, log = self._tables
        return int(exp[-log[a] % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        exp, log = self._tables
        return int(exp[int(log[a]) * e % (self.q - 1)])

    def trace(self, a: int) -> int:
        """Trace down to F_p: sum of a^(p^i) for i < r, always in [0, p)."""
        return int(self._trace[a])

    def eval_point_order(self) -> list[int]:
        """Fixed enumeration 0, 1, g, g^2, ... used for evaluation codes."""
        return [0] + self._tables[0].tolist()

    def scalar_embed(self, c: int) -> int:
        """Element of the prime subfield F_p as a field element."""
        return c % self.p

    def __repr__(self):
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((self.p, self.r))


@lru_cache(maxsize=None)
def get_field(p: int, r: int = 1) -> GF:
    return GF(p, r)


def field_trace(field: GF, a: int) -> int:
    return field.trace(a)


@dataclass(frozen=True)
class TraceOrthBasis:
    """Basis of GF(p^r) over F_p with Tr(a_i a_j) = 0 for i != j.

    weights[i] = Tr(basis[i]^2), each nonzero, which is what makes the
    weighted dual expansion work.
    """

    field: GF
    basis: tuple[int, ...]
    weights: tuple[int, ...]

    def verify(self) -> bool:
        f = self.field
        basis = np.array(self.basis, dtype=np.int64)
        if basis.shape != (f.r,) or rank_mod_p(digits(basis, f.p, f.r), f.p) != f.r:
            return False
        gram = _trace_form(f, basis[:, None], basis)
        weights = np.diag(gram)
        return bool(weights.all() and (weights == self.weights).all() and (gram == np.diag(weights)).all())


def _trace_form(field: GF, a, b) -> np.ndarray:
    """Tr(a b) elementwise, the symmetric F_p-bilinear form the bases are orthogonal for."""
    return field.trace_array(field.mul_array(a, b))


def find_trace_orthogonal_basis(p: int, r: int, seed: int = 0, max_restarts: int = 20000) -> TraceOrthBasis:
    """A trace-orthogonal basis of GF(p^r) over F_p.

    For odd p the symmetric form B(x, y) = Tr(xy) is nondegenerate and is
    orthogonalized directly.  For p = 2 that route degenerates (Tr(a^2) is
    Tr(a) squared), so a seeded randomized greedy search with restarts is
    used instead.  The result is re-verified before returning either way.
    """
    field = get_field(p, r)
    if p % 2 == 1:
        basis = _orthogonalize_odd(field)
    else:
        basis = _random_basis_char2(field, seed, max_restarts)
    if not basis.verify():
        raise RuntimeError("trace-orthogonal search returned an invalid basis")
    return basis


def _orthogonalize_odd(field: GF) -> TraceOrthBasis:
    """Gram-Schmidt for Tr(xy), starting from the polynomial basis 1, x, x^2, ..."""
    f, p, r = field, field.p, field.r
    vecs = p ** np.arange(r, dtype=np.int64)
    chosen = []
    while vecs.size:
        norms = _trace_form(f, vecs, vecs)
        if norms.any():
            v = vecs[(norms != 0).argmax()]
        else:
            # nondegeneracy guarantees some pair sum works in odd characteristic
            rows = digits(vecs, p, r)
            sums = from_digits((rows[:, None] + rows) % p, p)
            ok = np.triu(_trace_form(f, sums, sums) != 0, 1)
            if not ok.any():
                raise RuntimeError("orthogonalization stalled; form degenerate?")
            v = sums.flat[ok.argmax()]
        chosen.append(int(v))
        c = _trace_form(f, vecs, v) * pow(int(_trace_form(f, v, v)), -1, p) % p
        projected = (digits(vecs, p, r) - c[:, None] * digits(v, p, r)) % p
        projected = projected[projected.any(axis=1)]
        # keep the rows that are independent of the rows before them
        vecs = from_digits(projected[_independent_prefix(projected, p)][: r - len(chosen)], p)
    weights = tuple(_trace_form(f, chosen, chosen).tolist())
    return TraceOrthBasis(f, tuple(chosen), weights)


def _independent_prefix(rows: np.ndarray, p: int) -> np.ndarray:
    """Indices of the rows that raise the rank of the rows before them over F_p."""
    k = len(rows)
    prefixes = np.where(np.tri(k, dtype=bool)[:, :, None], rows, 0)
    return np.flatnonzero(np.diff(rank_mod_p(prefixes, p), prepend=0))


def _random_basis_char2(field: GF, seed: int, max_restarts: int) -> TraceOrthBasis:
    """Seeded greedy search: the first candidate in a shuffled order that is
    trace-orthogonal to, and independent of, every element chosen so far."""
    f = field
    rng = random.Random(seed)
    # in characteristic 2 the weight condition Tr(a^2) != 0 means Tr(a) = 1
    candidates = np.flatnonzero(f.trace_array(np.arange(f.q)) == 1).tolist()
    for _ in range(max_restarts):
        rng.shuffle(candidates)
        order = np.array(candidates, dtype=np.int64)
        open_ = np.ones(order.size, dtype=bool)  # orthogonal to every chosen element
        span = np.zeros(f.q, dtype=bool)  # the F_2-span of the chosen elements
        span[0] = True
        chosen: list[int] = []
        while len(chosen) < f.r:
            free = np.flatnonzero(open_ & ~span[order])
            if not free.size:
                break
            a = int(order[free[0]])
            chosen.append(a)
            open_ &= _trace_form(f, order, a) == 0
            # adding a in characteristic 2 is XOR of the integer encodings
            span[np.flatnonzero(span) ^ a] = True
        if len(chosen) == f.r:
            return TraceOrthBasis(f, tuple(chosen), (1,) * f.r)
    raise RuntimeError(
        f"no trace-orthogonal basis found for GF(2^{f.r}) within {max_restarts} restarts; retry with a new seed"
    )


def rref_over_field(field: GF, mat) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over an arbitrary GF, with pivot columns."""
    red, rank = row_reduce(np.atleast_2d(mat), field.p, field.tables)
    return red.tolist(), (red[:rank] != 0).argmax(axis=1).tolist()


def null_space_over_field(field: GF, mat) -> list[list[int]]:
    """Rows spanning {x : mat @ x = 0} over the field."""
    return null_space_rows(mat, field.p, field.tables).tolist()
