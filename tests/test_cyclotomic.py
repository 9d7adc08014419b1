import random
from math import gcd

import numpy as np
import pytest

from kuniform.cyclotomic import (
    CycInt,
    cyclotomic_polynomial,
    from_int,
    reduction_matrix,
    root_power,
    zero_test,
)


def test_root_power_basics():
    assert root_power(2, 1).coeffs == (0, 1)
    assert root_power(4, 5).coeffs == (0, 1, 0, 0)
    assert root_power(6, 0).coeffs == (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        root_power(1, 0)
    with pytest.raises(ValueError, match="invalid level"):
        from_int(1, 0)


def test_malformed_values_are_refused():
    for level in (1, 0, -2):
        with pytest.raises(ValueError, match="invalid level"):
            CycInt(level, (1,) * max(level, 0))
    with pytest.raises(ValueError, match="need 3 coefficients"):
        CycInt(3, (1, 0))
    with pytest.raises(ValueError, match="invalid level"):
        cyclotomic_polynomial(0)


def test_coefficients_are_python_ints():
    # an int64 coefficient would wrap when squared: (2^62)^2 = 0 mod 2^64
    a = CycInt(3, (np.int64(2**62), 0, 0))
    assert type(a.coeffs[0]) is int
    assert (a * a).coeffs == (2**124, 0, 0) and not (a * a).is_zero()
    assert CycInt(3, (1, 0, 0)).scale(np.int64(2**62)).scale(2**62).coeffs == (2**124, 0, 0)
    # ring results skip the constructor's conversion, so they must come out as Python ints already
    b = CycInt(3, tuple(np.array([2**40, -5, 7], dtype=np.int64)))
    for r in (a + b, a - b, a * b, -b, b.conjugate(), b.scale(np.int64(3)), b.scale(True)):
        assert type(r) is CycInt and r.level == 3 and len(r.coeffs) == 3
        assert all(type(c) is int for c in r.coeffs)
    assert (b * b).coeffs == (2**80 - 70, 49 - 10 * 2**40, 25 + 14 * 2**40)
    for coeffs in ((1.5, 0), ("1", 0), (1.0, 0), (None, 0)):
        with pytest.raises(ValueError, match="not all integers"):
            CycInt(2, coeffs)


def test_ring_ops():
    assert (root_power(4, 1) * root_power(4, 3)).coeffs == (1, 0, 0, 0)
    assert (root_power(2, 0) + root_power(2, 1)).coeffs == (1, 1)
    a = CycInt(2, (1, 1))
    assert (a * a).coeffs == (2, 2)
    with pytest.raises(ValueError):
        root_power(2, 0) + root_power(3, 0)


def test_conjugate():
    assert root_power(4, 1).conjugate().coeffs == root_power(4, 3).coeffs
    assert root_power(2, 1).conjugate().coeffs == root_power(2, 1).coeffs
    assert CycInt(3, (1, 2, 3)).conjugate().coeffs == (1, 3, 2)


def test_conjugate_involution_and_unit_norm():
    rng = random.Random(0)
    for _ in range(100):
        d = rng.randrange(2, 20)
        coeffs = tuple(rng.randrange(-5, 6) for _ in range(d))
        a = CycInt(d, coeffs)
        assert a.conjugate().conjugate().coeffs == a.coeffs
        e = rng.randrange(d)
        z = root_power(d, e)
        assert (z * z.conjugate() - from_int(d, 1)).is_zero()


def _totient(d):
    return sum(1 for a in range(1, d + 1) if gcd(a, d) == 1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    for p in (2, 3, 5, 7, 11):
        assert cyclotomic_polynomial(p) == (1,) * p
    for d in range(1, 40):
        phi = cyclotomic_polynomial(d)
        assert len(phi) - 1 == _totient(d)
        assert phi[-1] == 1


def test_zero_test_examples():
    assert zero_test(CycInt(2, (1, 1)))
    assert zero_test(CycInt(6, (1, 1, 1, 1, 1, 1)))
    assert not zero_test(CycInt(3, (2, 1, 0)))


def test_root_inverse_property():
    for d in range(2, 16):
        for e in range(d):
            prod = root_power(d, e) * root_power(d, d - e)
            assert zero_test(prod - root_power(d, 0))


def test_character_sum_cancellation():
    # sum over x in Z_d of zeta^(a x) vanishes for every nonzero a
    for d in range(2, 25):
        for a in range(1, d):
            total = from_int(d, 0)
            for x in range(d):
                total = total + root_power(d, (a * x) % d)
            assert zero_test(total), (d, a)


def test_zero_test_matches_float_evaluation():
    rng = random.Random(1)
    for _ in range(1000):
        d = rng.randrange(2, 25)
        coeffs = tuple(rng.randrange(-10, 11) for _ in range(d))
        a = CycInt(d, coeffs)
        assert zero_test(a) == (abs(a.approx()) < 1e-6), (d, coeffs)


def test_reduction_matrix_agrees_with_zero_test():
    rng = random.Random(2)
    for _ in range(300):
        d = rng.randrange(2, 20)
        coeffs = tuple(rng.randrange(-8, 9) for _ in range(d))
        v = np.array(coeffs, dtype=np.int64) @ reduction_matrix(d)
        assert (not v.any()) == zero_test(CycInt(d, coeffs))


def test_integer_value():
    assert from_int(5, 7).integer_value() == 7
    assert (root_power(2, 1) + root_power(2, 0)).integer_value() == 0
    # 1 + zeta_3 + zeta_3^2 + 4 == 4 as an algebraic number
    a = CycInt(3, (5, 1, 1))
    assert a.integer_value() == 4
    assert root_power(5, 1).integer_value() is None
