"""Exact arithmetic with integer combinations of d-th roots of unity.

Values are stored as length-d integer coefficient vectors: ``coeffs[j]`` is the
coefficient of zeta^j where zeta = exp(2*pi*i/d).  The representation is NOT
canonical (relations between powers of zeta are never reduced), so equality of
two values is decided by ``zero_test`` on their difference: a vector represents
zero iff the polynomial sum(coeffs[j] * x^j) is divisible by the d-th
cyclotomic polynomial over the integers.

Coefficients are plain Python ints, so no overflow is possible anywhere in
this module: the CycInt constructor converts its coefficients with
operator.index, so numpy integers become Python ints and floats and strings
raise ValueError.  Ring results are formed from Python ints only, so they
skip that conversion.  All values are immutable and safe to share between
threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _trim(coeffs):
    """Drop trailing zeros; the zero polynomial becomes ()."""
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomials; den must be monic."""
    assert den and den[-1] == 1, "divisor must be monic"
    rem = list(num)
    dd = len(den) - 1
    q = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            q[i - dd] = c
            for j, cd in enumerate(den):
                rem[i - dd + j] -= c * cd
    return _trim(q), _trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the d-th cyclotomic polynomial.

    Computed by exact division: Phi_d = (x^d - 1) / prod of Phi_e over proper
    divisors e of d.  Cached per level.
    """
    if d < 1:
        raise ValueError(f"invalid level {d}")
    if d == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (d - 1) + [1])  # x^d - 1
    den = (1,)
    for e in range(1, d):
        if d % e == 0:
            den = _poly_mul(den, cyclotomic_polynomial(e))
    q, r = _poly_divmod(num, den)
    assert not r, f"cyclotomic division left a remainder for d={d}"
    return q


@lru_cache(maxsize=None)
def reduction_matrix(d: int) -> np.ndarray:
    """Integer matrix R with row j = coefficients of x^j mod Phi_d.

    A length-d coefficient vector v represents zero iff v @ R == 0.  Used by
    vectorized verification paths; entries are small for desk-scale d.
    """
    phi = cyclotomic_polynomial(d)
    deg = len(phi) - 1
    rows = np.zeros((d, deg), dtype=np.int64)
    for j in range(d):
        mono = [0] * j + [1]
        _, rem = _poly_divmod(tuple(mono), phi)
        for t, c in enumerate(rem):
            rows[j, t] = c
    return rows


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_d], as an unreduced length-d coefficient vector."""

    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.level < 2:
            raise ValueError(f"invalid level {self.level}")
        if len(self.coeffs) != self.level:
            raise ValueError(
                f"need {self.level} coefficients, got {len(self.coeffs)}"
            )
        try:
            coeffs = tuple(map(operator.index, self.coeffs))
        except TypeError as err:
            raise ValueError(f"coefficients {self.coeffs!r} are not all integers") from err
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _result(cls, level: int, coeffs: tuple[int, ...]) -> CycInt:
        """A ring result, built without __post_init__: its level is already
        checked and its coefficients are Python ints made from Python ints."""
        out = object.__new__(cls)
        object.__setattr__(out, "level", level)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def _check(self, other: CycInt):
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")

    def __add__(self, other: CycInt) -> CycInt:
        self._check(other)
        return CycInt._result(self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CycInt) -> CycInt:
        self._check(other)
        return CycInt._result(self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: CycInt) -> CycInt:
        self._check(other)
        d = self.level
        out = [0] * d
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % d] += a * b
        return CycInt._result(d, tuple(out))

    def __neg__(self) -> CycInt:
        return CycInt._result(self.level, tuple(-a for a in self.coeffs))

    def scale(self, c: int) -> CycInt:
        c = operator.index(c)  # a numpy int would wrap in the products below
        return CycInt._result(self.level, tuple(c * a for a in self.coeffs))

    def conjugate(self) -> CycInt:
        """Complex conjugation: zeta^j -> zeta^(-j)."""
        d = self.level
        return CycInt._result(d, tuple(self.coeffs[(d - j) % d] for j in range(d)))

    def is_zero(self) -> bool:
        return zero_test(self)

    def root_exponent(self) -> int | None:
        """e when the vector is exactly zeta^e (one coefficient 1, the rest 0), else None."""
        nz = [j for j, c in enumerate(self.coeffs) if c]
        return nz[0] if len(nz) == 1 and self.coeffs[nz[0]] == 1 else None

    def integer_value(self) -> int | None:
        """The rational integer this value equals, or None if irrational."""
        _, rem = _poly_divmod(self.coeffs, cyclotomic_polynomial(self.level))
        if len(rem) > 1:
            return None
        return rem[0] if rem else 0

    def approx(self) -> complex:
        """Floating-point evaluation; for cross-checks only, never decisions."""
        d = self.level
        return sum(c * np.exp(2j * np.pi * j / d) for j, c in enumerate(self.coeffs))


def root_power(d: int, e: int) -> CycInt:
    """zeta_d^e as a CycInt (exponent reduced mod d)."""
    if d < 2:
        raise ValueError(f"invalid level {d}")
    coeffs = [0] * d
    coeffs[e % d] = 1
    return CycInt(d, tuple(coeffs))


def from_int(d: int, c: int) -> CycInt:
    """The rational integer c as a CycInt of level d."""
    if d < 2:
        raise ValueError(f"invalid level {d}")
    return CycInt(d, (c,) + (0,) * (d - 1))


def zero_test(a: CycInt) -> bool:
    """True iff a represents 0, i.e. Phi_d divides the coefficient polynomial."""
    if not any(a.coeffs):
        return True
    _, rem = _poly_divmod(a.coeffs, cyclotomic_polynomial(a.level))
    return not rem
