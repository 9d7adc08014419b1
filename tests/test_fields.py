import random

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem, gf_sub

from kuniform.codes import expand_code, reed_solomon
from kuniform.fields import GF, TraceOrthBasis, find_trace_orthogonal_basis, get_field
from kuniform.modular import is_prime


def test_gf4_layout():
    f = get_field(2, 2)
    # lowest monic irreducible of degree 2 over F_2 is x^2 + x + 1
    assert f.modulus == (1, 1, 1)
    w = 2  # the class of x
    assert f.mul(w, w) == f.add(w, 1)  # w^2 = w + 1
    assert f.trace(0) == 0
    assert f.trace(1) == 0
    assert f.trace(w) == 1
    assert f.trace(f.mul(w, w)) == 1


def test_gf9_modulus_is_lowest():
    f = get_field(3, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1 is irreducible mod 3 and comes first


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2)])
def test_coefficients_round_trip(p, r):
    f = get_field(p, r)
    assert [f.from_coeffs(f.coeffs_of(a)) for a in range(f.q)] == list(range(f.q))


@pytest.mark.parametrize("coeffs", [[0, 0, 1], [3, 1], [-1, 0], [2]])
def test_from_coeffs_refuses_non_elements(coeffs):
    # over GF(4): more than r = 2 coefficients, or a digit outside 0..1
    with pytest.raises(ValueError, match="not the coefficients"):
        get_field(2, 2).from_coeffs(coeffs)


def test_from_coeffs_refuses_fractional_coefficients():
    f = get_field(3, 2)
    with pytest.raises(ValueError, match="not an integer"):
        f.from_coeffs([1.5, 1])
    assert f.from_coeffs([2.0, 1.0]) == f.from_coeffs([2, 1])


_HUGE_EXPONENTS = [2**62 + 1, 2**63 - 1, 2**63 + 5, 2**64 + 3, -1, -(2**62) - 1]


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (2, 20)])
def test_pow_array_reduces_huge_exponents_exactly(p, r):
    # log(a) * e in int64 wraps for these e; the scalar pow works on Python ints
    f = get_field(p, r)
    elements = [0, 1, 3, f.generator, f.q - 1]
    for e in _HUGE_EXPONENTS:
        assert f.pow_array(elements, e).tolist() == [f.pow(a, e) for a in elements]
    grid = f.pow_array(np.array(elements)[:, None], np.array(_HUGE_EXPONENTS, dtype=object))
    assert grid.tolist() == [[f.pow(a, e) for e in _HUGE_EXPONENTS] for a in elements]
    assert f.pow_array(3, np.uint64(2**63 + 5)) == f.pow(3, 2**63 + 5)
    assert f.pow_array([0, 0, 2], [0, 5, 0]).tolist() == [1, 0, 1]


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (2, 20)])
def test_pow_reads_numpy_exponents_exactly(p, r):
    # int(log a) * np.int64(e) is a numpy product and wraps; the Python-int exponent is the reference
    f = get_field(p, r)
    for a in (0, 1, 3, f.generator, f.q - 1):
        for e in _HUGE_EXPONENTS + [0, 5]:
            want = f.pow(a, e)
            for kind in (np.int64, np.uint64):
                if np.iinfo(kind).min <= e <= np.iinfo(kind).max:
                    got = f.pow(a, kind(e))
                    assert type(got) is int and got == want, (a, e, kind)


def test_field_size_is_checked_before_the_power_is_formed():
    with pytest.raises(ValueError, match="exceeds enumeration budget"):
        GF(2, 10**5)
    for r in (0, -1):
        with pytest.raises(ValueError, match="invalid extension degree"):
            GF(3, r)


def test_field_axioms_random():
    rng = random.Random(8)
    for p, r in [(2, 3), (3, 2), (5, 2), (2, 4), (7, 1)]:
        f = get_field(p, r)
        for _ in range(200):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_generator_is_primitive():
    for p, r in [(2, 2), (2, 3), (3, 2), (5, 1), (5, 2), (7, 1)]:
        f = get_field(p, r)
        seen = set()
        x = 1
        for _ in range(f.q - 1):
            seen.add(x)
            x = f.mul(x, f.generator)
        assert len(seen) == f.q - 1


def test_eval_point_order():
    for p, r in [(2, 2), (5, 1), (3, 2)]:
        f = get_field(p, r)
        pts = f.eval_point_order()
        assert pts[0] == 0
        assert pts[1] == 1
        assert len(pts) == f.q
        assert len(set(pts)) == f.q


def test_trace_properties():
    rng = random.Random(9)
    for p, r in [(2, 3), (3, 2), (5, 2), (2, 4)]:
        f = get_field(p, r)
        for _ in range(100):
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            ta, tb = f.trace(a), f.trace(b)
            assert 0 <= ta < p
            assert f.trace(f.add(a, b)) == (ta + tb) % p
            assert f.trace(f.pow(a, p)) == ta  # Frobenius invariance
        # the trace is onto F_p, hence not identically zero
        assert any(f.trace(a) for a in range(f.q))


def test_trace_orthogonal_gf4():
    b = find_trace_orthogonal_basis(2, 2, seed=0)
    f = b.field
    w = 2
    assert set(b.basis) == {w, f.mul(w, w)}
    assert b.weights == (1, 1)
    assert b.verify()


def test_trace_orthogonal_prime_field():
    b = find_trace_orthogonal_basis(5, 1)
    assert b.basis == (1,)
    assert b.weights == (1,)


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_trace_orthogonal_verified(p, r):
    b = find_trace_orthogonal_basis(p, r, seed=3)
    assert b.verify()
    f = b.field
    # exhaustive re-check of the defining conditions
    for i in range(r):
        assert f.trace(f.mul(b.basis[i], b.basis[i])) == b.weights[i] != 0
        for j in range(r):
            if i != j:
                assert f.trace(f.mul(b.basis[i], b.basis[j])) == 0


@pytest.mark.parametrize(
    "p,r,basis,weights",
    [
        (3, 4, (1, 9, 30, 33), (1, 1, 2, 1)),
        (7, 3, (1, 56, 175), (3, 2, 3)),
        (5, 4, (1, 25, 130, 265), (4, 2, 4, 4)),
        (13, 3, (1, 182, 1105), (3, 1, 3)),
    ],
)
def test_trace_orthogonal_golden_through_pair_sums(p, r, basis, weights):
    # in these fields the odd-p Gram-Schmidt meets only isotropic candidates
    # at some step and takes a pair sum as its next element
    b = find_trace_orthogonal_basis(p, r)
    assert (b.basis, b.weights) == (basis, weights)


@pytest.mark.parametrize("bad", [9, 10, 100, -1, -9, 2**64])
def test_trace_orthogonal_verify_refuses_non_elements(bad):
    f9 = get_field(3, 2)
    good = find_trace_orthogonal_basis(3, 2)
    basis = TraceOrthBasis(f9, (good.basis[0], bad), good.weights)
    assert not basis.verify()
    with pytest.raises(ValueError, match="not a trace-orthogonal basis"):
        expand_code(reed_solomon(f9, 4, 2), basis)


@pytest.mark.parametrize("basis", [(1.5, 3), (1, 3.5), ("1", 3), (1, float("nan"))])
def test_trace_orthogonal_verify_refuses_non_integer_elements(basis):
    # (1, 3) with weights (2, 1) is a trace-orthogonal basis of GF(9); these
    # would read as it if truncated
    f9 = get_field(3, 2)
    assert TraceOrthBasis(f9, (1, 3), (2, 1)).verify() and TraceOrthBasis(f9, (1.0, 3.0), (2, 1)).verify()
    assert not TraceOrthBasis(f9, basis, (2, 1)).verify()
    with pytest.raises(ValueError, match="not a trace-orthogonal basis"):
        expand_code(reed_solomon(f9, 4, 2), TraceOrthBasis(f9, basis, (2, 1)))


def test_trace_orthogonal_deterministic():
    a = find_trace_orthogonal_basis(2, 4, seed=11)
    b = find_trace_orthogonal_basis(2, 4, seed=11)
    assert a.basis == b.basis


def _prime_powers(lo, hi):
    return [(p, r) for p in range(2, hi + 1) if is_prime(p) for r in range(1, 11) if lo < p**r <= hi]


def _poly(a, p):
    """Element code as a galoistools polynomial: dense, highest degree first."""
    out = []
    while a:
        a, c = divmod(a, p)
        out.append(c)
    return out[::-1]


def _code(poly, p):
    out = 0
    for c in poly:
        out = out * p + int(c)
    return out


def _check_against_galoistools(f, a, b):
    p, mod = f.p, list(f.modulus[::-1])
    ref_add = [_code(gf_add(_poly(x, p), _poly(y, p), p, ZZ), p) for x, y in zip(a, b)]
    ref_sub = [_code(gf_sub(_poly(x, p), _poly(y, p), p, ZZ), p) for x, y in zip(a, b)]
    ref_mul = [_code(gf_rem(gf_mul(_poly(x, p), _poly(y, p), p, ZZ), mod, p, ZZ), p) for x, y in zip(a, b)]
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.add_array(a, b).tolist() == [f.add(x, y) for x, y in pairs] == ref_add
    assert f.sub_array(a, b).tolist() == [f.sub(x, y) for x, y in pairs] == ref_sub
    assert f.mul_array(a, b).tolist() == [f.mul(x, y) for x, y in pairs] == ref_mul
    nonzero = a[a != 0]
    inv = f.inv_array(nonzero)
    assert inv.tolist() == [f.inv(x) for x in nonzero.tolist()]
    assert all(
        gf_rem(gf_mul(_poly(x, p), _poly(y, p), p, ZZ), mod, p, ZZ) == [1] for x, y in zip(nonzero.tolist(), inv.tolist())
    )


@pytest.mark.parametrize("p,r", _prime_powers(1, 64))
def test_arithmetic_matches_galoistools_on_every_pair(p, r):
    f = get_field(p, r)
    a, b = np.divmod(np.arange(f.q * f.q), f.q)
    _check_against_galoistools(f, a, b)


@pytest.mark.parametrize("p,r", [(p, r) for p, r in _prime_powers(64, 1 << 10) if r > 1 or p in (67, 509, 1021)])
def test_arithmetic_matches_galoistools_on_random_pairs(p, r):
    f = get_field(p, r)
    rng = np.random.default_rng(p**r)
    a, b = rng.integers(0, f.q, size=(2, 400))
    _check_against_galoistools(f, a, b)


def test_inv_array_refuses_zero():
    with pytest.raises(ZeroDivisionError):
        get_field(2, 3).inv_array([1, 0])
    for f in (get_field(5), get_field(2, 3)):
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
