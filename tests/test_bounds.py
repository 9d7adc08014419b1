import math
from fractions import Fraction

import pytest

from kuniform.bounds import (
    bound_report,
    cor3_predicate,
    entropy,
    lambda_constructive,
    lambda_existence,
    lambda_selfdual,
    np_lower_bound,
    thm3_prime_threshold,
)

EXISTENCE = {2: 0.1705, 3: 0.2461, 5: 0.3081, 7: 0.3360, 11: 0.3634, 13: 0.3714, 17: 0.3821}
SELFDUAL = {2: 0.110, 3: 0.159, 5: 0.210, 7: 0.237, 11: 0.268, 13: 0.278, 17: 0.293}
CONSTRUCTIVE = {
    2: (0.060, 3),
    3: (0.094, 2),
    5: (0.125, 1),
    7: (0.167, 1),
    11: (0.200, 1),
    13: (0.208, 1),
    17: (0.219, 1),
}


def test_np_lower_bound_examples():
    assert np_lower_bound(16, 3, 2) > 0
    assert np_lower_bound(4, 2, 7) > 0
    # exact rational check at a hand-computed point
    assert np_lower_bound(4, 2, 5) == 1 - 6 * (1 - Fraction(24, 25) * Fraction(4, 5))
    # the (6, 3, 2) value is negative; existence there comes from search instead
    assert np_lower_bound(6, 3, 2) < 0


def test_np_lower_bound_matches_the_per_factor_product():
    for p in (2, 3, 5, 7):
        for n in range(2, 16):
            for k in range(1, n // 2 + 1):
                prod = Fraction(1)
                for i in range(k):
                    prod *= 1 - Fraction(1, p ** (n - k - i))
                assert np_lower_bound(n, k, p) == 1 - math.comb(n, k) * (1 - prod), (n, k, p)


def test_np_lower_bound_range():
    with pytest.raises(ValueError):
        np_lower_bound(4, 0, 2)
    with pytest.raises(ValueError):
        np_lower_bound(3, 2, 2)
    with pytest.raises(ValueError):
        np_lower_bound(8, 2, 4)  # composite p
    # cor3_predicate takes the same (n, k) range
    for n, k in ((4, 0), (3, 2), (3, 5)):
        with pytest.raises(ValueError, match="1 <= k"):
            cor3_predicate(n, k, 2)


def test_cor3_examples():
    assert cor3_predicate(2, 1, 2)
    assert not cor3_predicate(8, 3, 2)
    assert cor3_predicate(20, 3, 2)


def test_cor3_implies_nonnegative_bound():
    # proof chain: the predicate bounds the union term, so the count bound
    # cannot be negative; it is strictly positive except at k = 1 equality
    for p in (2, 3, 5, 7):
        for n in range(2, 25):
            for k in range(1, n // 2 + 1):
                if not cor3_predicate(n, k, p):
                    continue
                val = np_lower_bound(n, k, p)
                assert val >= 0, (n, k, p)
                strict = math.comb(n, k) * (p**k - 1) < (p - 1) * p ** (n - k)
                if k >= 2 or strict:
                    assert val > 0, (n, k, p)


def test_binary_k3_positivity_threshold():
    # computed threshold where the exact count bound turns positive for k=3
    signs = {n: np_lower_bound(n, 3, 2) > 0 for n in range(8, 30)}
    assert all(signs[n] for n in range(15, 30))
    assert not any(signs[n] for n in range(8, 15))


def test_thm3_threshold():
    assert thm3_prime_threshold(2) == 3
    assert thm3_prime_threshold(4) == 7
    assert thm3_prime_threshold(6) == 21
    with pytest.raises(ValueError):
        thm3_prime_threshold(5)


def test_entropy():
    assert entropy(2, 0.5) == pytest.approx(1.0)
    assert entropy(2, 0.1705) == pytest.approx(0.659, abs=1e-3)
    assert entropy(2, 0) == 0
    assert entropy(3, 2 / 3) == pytest.approx(1.0)  # maximum of H_3
    with pytest.raises(ValueError):
        entropy(2, 1.5)
    for d in (1, 0):
        with pytest.raises(ValueError, match="invalid alphabet size"):
            entropy(d, 0.5)


def test_lambda_existence_table():
    for p, want in EXISTENCE.items():
        got = lambda_existence(p, tol=1e-10)
        assert abs(got - want) <= 1e-3, (p, got, want)
        # the returned value really is a root of the defining equation
        assert abs(entropy(2, got) - (1 - 2 * got) * math.log2(p)) < 1e-8


def test_lambda_selfdual_table():
    for p, want in SELFDUAL.items():
        got = lambda_selfdual(p, tol=1e-10)
        assert abs(got - want) <= 1e-3, (p, got, want)
        assert abs(entropy(p, got) - 0.5) < 1e-8


@pytest.mark.parametrize("tol", [0, -1e-9, math.nan, math.inf, -math.inf])
def test_lambda_tolerance_must_be_finite_and_positive(tol):
    for fn in (lambda_existence, lambda_selfdual):
        with pytest.raises(ValueError, match="finite and positive"):
            fn(3, tol)
    with pytest.raises(ValueError, match="finite and positive"):
        bound_report(2, tol=tol)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_lambda_rates_refuse_alphabets_below_two(p):
    for fn in (lambda_existence, lambda_selfdual, lambda_constructive):
        with pytest.raises(ValueError, match="invalid alphabet size"):
            fn(p)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_cor3_refuses_alphabets_below_two(p):
    with pytest.raises(ValueError, match="invalid alphabet size"):
        cor3_predicate(6, 2, p)


def test_lambda_constructive_table():
    for p, (want, want_t) in CONSTRUCTIVE.items():
        val, t = lambda_constructive(p)
        assert round(val, 3) == want, (p, val)
        assert t == want_t
        # brute maximization oracle over the same t range
        best = max((0.5 - 1 / (p**s - 1)) / (2 * s) for s in range(1, 9))
        assert val == pytest.approx(best)
    for t_max in (0, -1):
        with pytest.raises(ValueError, match="t_max >= 1"):
            lambda_constructive(2, t_max=t_max)


def test_bound_ordering():
    for p in (2, 3, 5, 7, 11, 13, 17):
        c, _ = lambda_constructive(p)
        s = lambda_selfdual(p)
        e = lambda_existence(p)
        assert c < s < e < 0.5, p


def test_bound_report():
    rep = bound_report(7, 4, 2)
    assert rep.np_bound > 0
    assert rep.thm3_threshold == 7
    assert rep.cor3_holds is True
    assert set(rep.lambda_bounds) == {"existence", "selfdual", "constructive", "constructive_t"}
    rep2 = bound_report(5, 3)
    assert rep2.np_bound is None and rep2.thm3_threshold is None
