"""Counting and asymptotic lower bounds on achievable uniformity.

The counting bound (how many zero-diagonal symmetric matrices certify a
given k over F_p) is evaluated in exact rational arithmetic with its huge
p-power prefactor dropped -- only the sign matters, and the prefactor
overflows everything.  A positive value proves a witness matrix exists; a
nonpositive value proves nothing.

The asymptotic rates lambda_p (limsup of k/n) come in three flavours:
an existence rate from the counting bound, a rate from self-dual codes
meeting the Gilbert-Varshamov bound, and a constructive rate from
concatenating extension-field codes, maximized over the tower degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .modular import is_prime


def np_lower_bound(n: int, k: int, p: int) -> Fraction:
    """Sign-carrying part of the witness-count lower bound, exactly.

    Returns 1 - C(n,k) * (1 - prod_{i<k} (1 - p^-(n-k-i))) as a Fraction.
    Positive means a certifying matrix exists for (n, k) over F_p.
    """
    if k < 1 or n - 2 * k + 1 < 1:
        raise ValueError(f"need 1 <= k and n-k-(k-1) >= 1, got n={n} k={k}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # prod (1 - p^-e) = prod (p^e - 1) / p^(sum e), reduced once
    exps = range(n - 2 * k + 1, n - k + 1)
    den = p ** sum(exps)
    num = math.prod(p**e - 1 for e in exps)
    return Fraction(den - math.comb(n, k) * (den - num), den)


def cor3_predicate(n: int, k: int, p: int) -> bool:
    """Integer inequality C(n,k) (p^k - 1) <= (p-1) p^(n-k), for 1 <= k, 2k <= n and p >= 2."""
    if p < 2:
        raise ValueError(f"invalid alphabet size {p}")
    if k < 1 or n - 2 * k + 1 < 1:
        raise ValueError(f"need 1 <= k and n-k-(k-1) >= 1, got n={n} k={k}")
    return math.comb(n, k) * (p**k - 1) <= (p - 1) * p ** (n - k)


def thm3_prime_threshold(n: int) -> int:
    """Smallest bound C(n, n/2) + 1: odd primes at or above it make k = n/2 achievable."""
    if n < 2 or n % 2:
        raise ValueError(f"need even n >= 2, got {n}")
    return math.comb(n, n // 2) + 1


def entropy(d: int, x: float) -> float:
    """The d-ary entropy function, with endpoint values by continuity."""
    if d < 2:
        raise ValueError(f"invalid alphabet size {d}")
    if not 0 <= x <= 1:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0:
        return 0.0
    if x == 1:
        return math.log(d - 1, d) if d > 2 else 0.0
    return (
        x * math.log(d - 1, d) - x * math.log(x, d) - (1 - x) * math.log(1 - x, d)
    )


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    if not 0 < tol < math.inf:  # a NaN or infinite tol would end the bisection before its first step
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    assert flo * fhi < 0, "bisection needs a sign change"
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def lambda_existence(p: int, tol: float = 1e-9) -> float:
    """Root in (0, 1/2) of H_2(x) = (1 - 2x) log2(p)."""
    if p < 2:
        raise ValueError(f"invalid alphabet size {p}")
    log2p = math.log2(p)
    f = lambda x: entropy(2, x) - (1 - 2 * x) * log2p  # noqa: E731
    return _bisect(f, 1e-12, 0.5, tol)


def lambda_selfdual(p: int, tol: float = 1e-9) -> float:
    """Inverse of the p-ary entropy at 1/2, on (0, 1 - 1/p)."""
    if p < 2:
        raise ValueError(f"invalid alphabet size {p}")
    f = lambda x: entropy(p, x) - 0.5  # noqa: E731
    return _bisect(f, 1e-12, 1 - 1 / p, tol)


def lambda_constructive(p: int, t_max: int = 8) -> tuple[float, int]:
    """Best concatenation rate (1/2t)(1/2 - 1/(p^t - 1)) over 1 <= t <= t_max."""
    if p < 2:
        raise ValueError(f"invalid alphabet size {p}")
    if t_max < 1:
        raise ValueError(f"need t_max >= 1, got {t_max}")
    rate = lambda t: (0.5 - 1 / (p**t - 1)) / (2 * t)  # noqa: E731
    t = max(range(1, t_max + 1), key=rate)  # the smallest t on a tie
    return rate(t), t


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one parameter point."""

    p: int
    n: int | None = None
    k: int | None = None
    np_bound: Fraction | None = None
    cor3_holds: bool | None = None
    thm3_threshold: int | None = None
    lambda_bounds: dict | None = None
    tol: float | None = None


def bound_report(p: int, n: int | None = None, k: int | None = None, tol: float = 1e-9) -> BoundReport:
    """Evaluate every applicable bound at a prime p and (n, k); n and k are optional."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    np_b = cor3 = thr = None
    if n is not None and k is not None:
        np_b = np_lower_bound(n, k, p)
        cor3 = cor3_predicate(n, k, p)
    if n is not None and n % 2 == 0:
        thr = thm3_prime_threshold(n)
    cval, ct = lambda_constructive(p)
    lams = {
        "existence": lambda_existence(p, tol),
        "selfdual": lambda_selfdual(p, tol),
        "constructive": cval,
        "constructive_t": ct,
    }
    return BoundReport(p=p, n=n, k=k, np_bound=np_b, cor3_holds=cor3, thm3_threshold=thr, lambda_bounds=lams, tol=tol)
