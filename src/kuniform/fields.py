"""Galois fields GF(p^r), the trace map, and trace-orthogonal bases.

Elements are encoded as integers in [0, p^r): the base-p digits of the code
are the coefficients of the element over the fixed modulus polynomial, least
significant digit first.  The modulus is the lowest monic irreducible of
degree r in this integer encoding, found by exhaustive scan, so the encoding
is identical across runs.  Multiplication goes through discrete log/exp
tables built once per field; tables are immutable after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modular import is_prime, null_space_rows, rank_mod_p, row_reduce

_MAX_FIELD = 1 << 20


def _poly_mulmod(a, b, modulus, p):
    """Multiply coefficient lists mod (modulus polynomial, p)."""
    r = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    for i in range(len(out) - 1, r - 1, -1):
        c = out[i]
        if c:
            for j in range(r + 1):
                out[i - r + j] = (out[i - r + j] - c * modulus[j]) % p
    out = out[:r] + [0] * (r - len(out))
    return out[:r]


def _poly_powmod(base, e, modulus, p):
    result = [1] + [0] * (len(modulus) - 2)
    b = list(base)
    while e:
        if e & 1:
            result = _poly_mulmod(result, b, modulus, p)
        b = _poly_mulmod(b, b, modulus, p)
        e >>= 1
    return result


def _is_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial over F_p (Rabin's test)."""
    r = len(coeffs) - 1
    x = [0, 1]
    # x^(p^r) must equal x mod f
    xq = _poly_powmod(x, p**r, coeffs, p)
    if xq != ([0, 1] + [0] * (r - 2) if r >= 2 else [0]):
        return False
    for s in _prime_factors(r):
        xe = _poly_powmod(x, p ** (r // s), coeffs, p)
        diff = [(a - b) % p for a, b in zip(xe, [0, 1] + [0] * (r - 2))]
        if not _poly_gcd_is_one(coeffs, diff, p):
            return False
    return True


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _poly_gcd_is_one(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]

    def deg(v):
        for i in range(len(v) - 1, -1, -1):
            if v[i]:
                return i
        return -1

    while True:
        db = deg(b)
        if db < 0:
            return deg(a) == 0
        if db == 0:
            return True
        da = deg(a)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], -1, p)
        c = (a[da] * inv) % p
        shift = da - db
        for j in range(db + 1):
            a[j + shift] = (a[j + shift] - c * b[j]) % p
        # loop continues with reduced a


class GF:
    """The field GF(p^r) with deterministic element encoding and tables."""

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
            if _is_irreducible(list(coeffs), p):
                return coeffs
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        # find the smallest generator in integer encoding
        factors = _prime_factors(q - 1) if q > 2 else []
        gen = None
        for a in range(2, q) if q > 2 else [1]:
            if all(self._pow_raw(a, (q - 1) // s) != 1 for s in factors):
                gen = a
                break
        if gen is None:
            gen = 1
        self.generator = gen
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._mul_raw(exp[i - 1], gen)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        # the tables as arrays for the vectorized paths; None over a prime field
        self.tables = None if r == 1 else (np.array(exp, dtype=np.int64), np.array(log, dtype=np.int64))

    # raw polynomial arithmetic on integer-encoded elements (pre-table)
    def _mul_raw(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        prod = _poly_mulmod(list(self.coeffs_of(a)), list(self.coeffs_of(b)), list(self.modulus), self.p)
        return self.from_coeffs(prod)

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return result

    def coeffs_of(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + (c % self.p)
        return a

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        return self.from_coeffs(
            (x + y) % self.p for x, y in zip(self.coeffs_of(a), self.coeffs_of(b))
        )

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        return self.from_coeffs((-x) % self.p for x in self.coeffs_of(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def trace(self, a: int) -> int:
        """Trace down to F_p: sum of a^(p^i) for i < r, always in [0, p)."""
        t = 0
        x = a
        for _ in range(self.r):
            t = self.add(t, x)
            x = self.pow(x, self.p)
        assert t < self.p, "trace landed outside the prime subfield"
        return t

    def eval_point_order(self) -> list[int]:
        """Fixed enumeration 0, 1, g, g^2, ... used for evaluation codes."""
        if self.q == 2:
            return [0, 1]
        return [0] + [self._exp[i] for i in range(self.q - 1)]

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
        if len(self.basis) != f.r:
            return False
        coeff_rows = [f.coeffs_of(b) for b in self.basis]
        if rank_mod_p(np.array(coeff_rows), f.p) != f.r:
            return False
        for i, bi in enumerate(self.basis):
            if f.trace(f.mul(bi, bi)) != self.weights[i] or self.weights[i] == 0:
                return False
            for bj in self.basis[i + 1 :]:
                if f.trace(f.mul(bi, bj)) != 0:
                    return False
        return True


def find_trace_orthogonal_basis(p: int, r: int, seed: int = 0, max_restarts: int = 20000) -> TraceOrthBasis:
    """A trace-orthogonal basis of GF(p^r) over F_p.

    For odd p the symmetric form B(x, y) = Tr(xy) is nondegenerate and is
    orthogonalized directly.  For p = 2 that route degenerates (Tr(a^2) is
    Tr(a) squared), so a seeded randomized greedy search with restarts is
    used instead.  The result is re-verified before returning either way.
    """
    field = get_field(p, r)
    if r == 1:
        basis = TraceOrthBasis(field, (1,), (1,))
        assert basis.verify()
        return basis
    if p % 2 == 1:
        basis = _orthogonalize_odd(field)
    else:
        basis = _random_basis_char2(field, seed, max_restarts)
    if not basis.verify():
        raise RuntimeError("trace-orthogonal search returned an invalid basis")
    return basis


def _orthogonalize_odd(field: GF) -> TraceOrthBasis:
    f = field
    # start from the polynomial basis 1, x, x^2, ...
    vecs = [f.from_coeffs([0] * i + [1]) for i in range(f.r)]
    chosen = []
    while vecs:
        v = None
        for u in vecs:
            if f.trace(f.mul(u, u)) != 0:
                v = u
                break
        if v is None:
            # nondegeneracy guarantees some pair sum works in odd characteristic
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    w = f.add(vecs[i], vecs[j])
                    if f.trace(f.mul(w, w)) != 0:
                        v = w
                        break
                if v is not None:
                    break
        if v is None:
            raise RuntimeError("orthogonalization stalled; form degenerate?")
        chosen.append(v)
        tvv = f.trace(f.mul(v, v))
        inv_tvv = pow(tvv, -1, f.p)
        projected = []
        for u in vecs:
            c = (f.trace(f.mul(u, v)) * inv_tvv) % f.p
            u2 = f.sub(u, f.mul(f.scalar_embed(c), v))
            if u2 != 0:
                projected.append(u2)
        # keep a linearly independent subset of the projected vectors
        vecs = _independent_subset(f, projected, f.r - len(chosen))
    weights = tuple(f.trace(f.mul(v, v)) for v in chosen)
    return TraceOrthBasis(f, tuple(chosen), weights)


def _independent_subset(field: GF, vecs, want: int):
    rows = []
    out = []
    for v in vecs:
        trial = rows + [field.coeffs_of(v)]
        if rank_mod_p(np.array(trial), field.p) == len(trial):
            rows = trial
            out.append(v)
            if len(out) == want:
                break
    return out


def _random_basis_char2(field: GF, seed: int, max_restarts: int) -> TraceOrthBasis:
    f = field
    rng = random.Random(seed)
    # in characteristic 2 the weight condition Tr(a^2) != 0 means Tr(a) = 1
    candidates = [a for a in range(1, f.q) if f.trace(a) == 1]
    for _ in range(max_restarts):
        rng.shuffle(candidates)
        chosen: list[int] = []
        rows: list[tuple[int, ...]] = []
        for a in candidates:
            if any(f.trace(f.mul(a, b)) != 0 for b in chosen):
                continue
            trial = rows + [f.coeffs_of(a)]
            if rank_mod_p(np.array(trial), 2) != len(trial):
                continue
            chosen.append(a)
            rows = trial
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
