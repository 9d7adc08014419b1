"""Galois fields GF(p^r), the trace map, and trace-orthogonal bases.

Elements are encoded as integers in [0, p^r): the base-p digits of the code
are the coefficients of the element over the fixed modulus polynomial, least
significant digit first.  The modulus is the lowest monic irreducible of
degree r in this integer encoding, found by scanning with Rabin's test, so
the encoding is identical across runs.

GF is the package's one owner of extension-field arithmetic.  A single
vectorized product, _mulmod, of coefficient rows modulo the modulus and p
builds every table once per field: the smallest generator, the exp table
by doubling (times g^s is an r x r matrix over F_p, applied in bounded
blocks), the log table and a q-entry trace table.  The array forms are
table lookups (mul_array, inv_array, pow_array, trace_array) or digit-wise
mod p (add_array, sub_array); the kernel, the code enumerator and the basis
searches call them.  The scalar methods are the pure-Python reference: add,
neg and sub are digit loops independent of the array forms, and mul, inv
and pow read the same immutable tables.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modular import (
    digits,
    from_digits,
    is_prime,
    null_space_mod_p,
    prime_factors,
    rank_mod_p,
    read_ints,
    reduce_mod,
    rref_mod_p,
)

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
        for s in prime_factors(r)
    )


class GF:
    """The field GF(p^r) with deterministic element encoding and tables.

    The scalar methods take and return Python ints; the *_array methods
    are their elementwise forms on integer arrays of any shape.
    """

    def __init__(self, p: int, r: int = 1):
        if r < 1:
            raise ValueError(f"invalid extension degree {r}")
        # sizes first, so a huge p or r costs no primality test or big power
        if abs(p) ** min(r, _MAX_FIELD.bit_length()) > _MAX_FIELD:
            raise ValueError(f"field size {p}^{r} exceeds enumeration budget {_MAX_FIELD}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p, self.r, self.q = p, r, p**r
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
        exponents = [(q - 1) // s for s in prime_factors(q - 1)]
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
        self._exp, self._log, self._trace = exp, log, trace % p

    def mul_array(self, a, b) -> np.ndarray:
        """a * b elementwise, broadcast; a product with a zero factor is zero."""
        a, b = np.asarray(a), np.asarray(b)
        return np.where((a == 0) | (b == 0), 0, self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv_array(self, a) -> np.ndarray:
        if (np.asarray(a) == 0).any():
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[a] % (self.q - 1)]

    def add_array(self, a, b) -> np.ndarray:
        """a + b elementwise, broadcast: base-p digits added mod p."""
        return self._digitwise(np.add, a, b)

    def sub_array(self, a, b) -> np.ndarray:
        return self._digitwise(np.subtract, a, b)

    def _digitwise(self, op, a, b) -> np.ndarray:
        (a, b), p, r = np.broadcast_arrays(a, b), self.p, self.r
        return from_digits(op(digits(a, p, r), digits(b, p, r)) % p, p).reshape(a.shape)

    def pow_array(self, a, e) -> np.ndarray:
        """a^e elementwise, with 0^0 = 1 and 0^e = 0 otherwise.

        The exponents are read exactly, uint64 and Python ints past 2^64
        included, and reduced mod q - 1 before they meet the logarithm.
        """
        a, e = np.asarray(a), read_ints(e)
        return np.where(a == 0, e == 0, self._exp[self._log[a] * reduce_mod(e, self.q - 1) % (self.q - 1)])

    def trace_array(self, a) -> np.ndarray:
        return self._trace[a]

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        return tuple(digits(a, self.p, self.r)[0, ::-1].tolist())

    def from_coeffs(self, coeffs) -> int:
        """Inverse of coeffs_of: at most r coefficients in 0..p-1, lowest power first."""
        coeffs = read_ints(coeffs).tolist()
        if len(coeffs) > self.r or not all(0 <= c < self.p for c in coeffs):
            raise ValueError(f"{coeffs} are not the coefficients of an element of {self}")
        return int(from_digits(np.array(coeffs[::-1], dtype=np.int64), self.p))

    def add(self, a: int, b: int) -> int:
        return self._digit_sum(a, b, 1)

    def neg(self, a: int) -> int:
        return self._digit_sum(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self._digit_sum(a, b, -1)

    def _digit_sum(self, a: int, b: int, sign: int) -> int:
        """a + sign*b digit by digit mod p, on Python ints (independent of the array forms)."""
        p, out, place = self.p, 0, 1
        for _ in range(self.r):
            out += (a % p + sign * (b % p)) % p * place
            a, b, place = a // p, b // p, place * p
        return out

    def mul(self, a: int, b: int) -> int:
        return 0 if a == 0 or b == 0 else int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._exp[-self._log[a] % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        """a^e with 0^0 = 1; e is read as an exact integer (numpy integers included) and reduced mod q - 1."""
        e = operator.index(e)
        return int(e == 0) if a == 0 else int(self._exp[int(self._log[a]) * (e % (self.q - 1)) % (self.q - 1)])

    def trace(self, a: int) -> int:
        """Trace down to F_p: sum of a^(p^i) for i < r, always in [0, p)."""
        return int(self._trace[a])

    def eval_point_order(self) -> list[int]:
        """Fixed enumeration 0, 1, g, g^2, ... used for evaluation codes."""
        return [0] + self._exp.tolist()

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
        """Whether r field elements (integer values in [0, q)) have the trace Gram matrix diag(weights), weights nonzero.

        That alone makes them independent over F_p, so no rank is taken:
        sum_i c_i b_i = 0 gives c_t w_t = Tr(b_t sum_i c_i b_i) = 0, so c_t = 0.
        """
        f = self.field
        try:
            basis = read_ints(self.basis)
        except ValueError:
            return False
        if basis.shape != (f.r,) or ((basis < 0) | (basis >= f.q)).any():
            return False
        basis = basis.astype(np.int64)
        gram = _trace_form(f, basis[:, None], basis)
        return bool(np.all(self.weights) and np.array_equal(gram, np.diag(self.weights)))


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
    f, p = field, field.p
    vecs = p ** np.arange(f.r, dtype=np.int64)
    chosen = []
    while vecs.size:
        norms = _trace_form(f, vecs, vecs)
        if norms.any():
            drop = int((norms != 0).argmax())
            v = vecs[drop]
        else:
            # nondegeneracy guarantees some pair sum works in odd characteristic
            sums = f.add_array(vecs[:, None], vecs)
            ok = np.triu(_trace_form(f, sums, sums) != 0, 1)
            if not ok.any():
                raise RuntimeError("orthogonalization stalled; form degenerate?")
            a, drop = divmod(int(ok.argmax()), vecs.size)
            v = sums[a, drop]
        chosen.append(int(v))
        # c lies in F_p, so it is also the field element c
        c = _trace_form(f, vecs, v) * pow(int(_trace_form(f, v, v)), -1, p) % p
        # vecs spans the complement of chosen, and the projection kills only v:
        # v = vecs[drop] goes to zero, or, for v = vecs[a] + vecs[drop], a < drop,
        # vecs[drop] goes to minus the image of vecs[a]; the rest stay independent
        vecs = np.delete(f.sub_array(vecs, f.mul_array(c, v)), drop)
    return TraceOrthBasis(f, tuple(chosen), tuple(_trace_form(f, chosen, chosen).tolist()))


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
    red, pivots = rref_mod_p(mat, field.p, field)
    return red.tolist(), pivots.tolist()


def null_space_over_field(field: GF, mat) -> list[list[int]]:
    """Rows spanning {x : mat @ x = 0} over the field."""
    return null_space_mod_p(mat, field.p, field).tolist()
