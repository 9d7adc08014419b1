"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every test is deterministic; seeds are fixed in the test bodies.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from kuniform.bounds import (
    lambda_constructive,
    lambda_existence,
    lambda_selfdual,
    np_lower_bound,
    thm3_prime_threshold,
)
from kuniform.codes import dual_code, is_self_dual, min_distance, shorten_last, state_from_code
from kuniform.cyclotomic import from_int, root_power, zero_test
from kuniform.fields import find_trace_orthogonal_basis, get_field
from kuniform.fileio import read_code, read_state, read_witness
from kuniform.fixtures import fixture_path
from kuniform.matrices import (
    cauchy_witness,
    check_certificate_general,
    check_certificate_prime,
    state_from_matrix,
    upper_triangle_to_matrix,
)
from kuniform.modular import count_linear_solutions, is_prime
from kuniform.search import SearchBudget, search_witness, table_scan
from kuniform.states import PureState, TooLargeError, marginal_sum, max_uniformity, verify_uniform


def _verdict(number: int, text: str):
    print(f"\ncriterion {number}: PASS  {text}")


def test_criterion_1_five_qubit_example():
    t0 = time.perf_counter()
    s = read_state(fixture_path("state_5qubit_d2.txt"))
    report = verify_uniform(s, 2)
    assert report.uniform and report.norm == 8
    with pytest.raises(ValueError):
        verify_uniform(s, 3)  # k capped at floor(5/2)
    assert max_uniformity(s) == 2
    diag = marginal_sum(s, (2, 3), (0, 0), (0, 0))
    assert diag.integer_value() == 2 == report.norm // 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict(1, f"5-qubit state is 2-uniform, diag = norm/4 = 2 ({elapsed:.3f}s)")


def test_criterion_2_printed_matrix_states(data_dir):
    t0 = time.perf_counter()
    cases = [
        ("witness_2x2_d4.txt", "expected_2x2_d4.txt", 1),
        ("witness_2x2_d6.txt", "expected_2x2_d6.txt", 1),
        ("witness_6x6_d2.txt", "expected_6x6_d2.txt", 3),
        ("witness_8x8_d2.txt", "expected_8x8_d2.txt", 3),
    ]
    for wname, ename, k in cases:
        w = read_witness(fixture_path(wname))
        if is_prime(w.d):
            assert check_certificate_prime(w.H, w.d, k), wname
        assert check_certificate_general(w.H, w.d, k), wname
        state = state_from_matrix(w)
        expected = read_state(data_dir / ename)
        # symbol-for-symbol: same kets, same root-of-unity exponent each
        assert state.phase_map() == expected.phase_map(), wname
        assert verify_uniform(state, k).uniform, wname
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _verdict(2, f"2x2(d=4,6), 6x6(d=2), 8x8(d=2) states match print and verify ({elapsed:.2f}s)")


def test_criterion_3_selfdual_code_pipeline():
    t0 = time.perf_counter()
    code = read_code(fixture_path("code_8_4_4_binary.txt"))
    assert min_distance(code) == 4
    assert is_self_dual(code)
    state = state_from_code(code, 3)
    assert len(state) == 16
    assert verify_uniform(state, 3).uniform
    shortened = shorten_last(code)
    assert (shortened.n, shortened.m) == (7, 3)
    seven = state_from_code(shortened, 2)
    assert verify_uniform(seven, 2).uniform
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _verdict(3, f"[8,4,4] self-dual -> 3-uniform; shortened -> 2-uniform 7-qubit ({elapsed:.2f}s)")


def _scan_and_check(d, ns, expect, budget=10**7, seed=0):
    cells = table_scan(d, ns, max_candidates=budget, seed=seed)
    got = [cells[n].best_k for n in ns]
    assert got == expect, (d, got, expect)
    for n in ns:
        w = cells[n].witness
        assert w is not None
        state = state_from_matrix(w)
        assert verify_uniform(state, w.k).uniform, (d, n)
    return cells


def test_criterion_4_prime_level_tables():
    t0 = time.perf_counter()
    _scan_and_check(2, range(2, 9), [1, 1, 1, 2, 3, 2, 3])
    _scan_and_check(3, range(2, 7), [1, 1, 2, 2, 3])
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _verdict(4, f"k rows for d=2 (n=2..8) and d=3 (n=2..6) match, oracle-checked ({elapsed:.1f}s)")


def test_criterion_5_composite_level_tables():
    t0 = time.perf_counter()
    cells4 = _scan_and_check(4, range(2, 7), [1, 1, 1, 2, 3])
    cells9 = _scan_and_check(9, range(2, 6), [1, 1, 2, 2])
    # the search certifies these by rank mod p; the paper's invertible-block
    # certificate, exact at a prime power, rechecks every witness
    for cells, d in ((cells4, 4), (cells9, 9)):
        assert not is_prime(d)
        for cell in cells.values():
            assert check_certificate_general(cell.witness.H, d, cell.best_k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _verdict(5, f"k rows for d=4 (n=2..6) and d=9 (n=2..5) match via general certificate ({elapsed:.1f}s)")


def test_criterion_6_exhaustive_negative():
    t0 = time.perf_counter()
    result = search_witness(4, 2, 2, SearchBudget(64, 0, "exhaustive"))
    assert result is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict(6, f"all 64 candidates fail at (n=4, d=2, k=2) ({elapsed:.3f}s)")


def test_criterion_7_lambda_tables():
    t0 = time.perf_counter()
    existence = {2: 0.1705, 3: 0.2461, 5: 0.3081, 7: 0.3360, 11: 0.3634, 13: 0.3714, 17: 0.3821}
    selfdual = {2: 0.110, 3: 0.159, 5: 0.210, 7: 0.237, 11: 0.268, 13: 0.278, 17: 0.293}
    constructive = {2: (0.060, 3), 3: (0.094, 2), 5: (0.125, 1), 7: (0.167, 1),
                    11: (0.200, 1), 13: (0.208, 1), 17: (0.219, 1)}
    for p, want in existence.items():
        assert abs(lambda_existence(p, tol=1e-10) - want) <= 1e-3, p
    for p, want in selfdual.items():
        assert abs(lambda_selfdual(p, tol=1e-10) - want) <= 1e-3, p
    for p, (want, want_t) in constructive.items():
        val, t = lambda_constructive(p)
        assert round(val, 3) == want and t == want_t, p
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict(7, f"all three asymptotic-rate tables reproduced ({elapsed:.3f}s)")


def test_criterion_8_large_prime_halfrank():
    t0 = time.perf_counter()
    assert thm3_prime_threshold(4) == 7
    w = search_witness(4, 7, 2, SearchBudget(10**6, 0, "random"))
    assert w is not None
    state = state_from_matrix(w)
    assert verify_uniform(state, 2).uniform
    # below the threshold the exact count bound is reported with no claim
    val = np_lower_bound(4, 2, 5)
    assert val == Fraction(-49, 125)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _verdict(8, f"(n=4, p=7, k=2) witness verified; p=5 bound = {val} ({elapsed:.1f}s)")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()

    # (a) linear-equation counting formula vs enumeration, 10^4 cases
    rng = random.Random(100)
    grids = {}
    for _ in range(10**4):
        d = rng.randrange(2, 9)
        m = rng.randrange(1, 5)
        coeffs = tuple(rng.randrange(d) for _ in range(m))
        target = rng.randrange(d)
        if (d, m) not in grids:
            grids[(d, m)] = np.array(list(itertools.product(range(d), repeat=m)), dtype=np.int64)
        vals = (grids[(d, m)] @ np.array(coeffs, dtype=np.int64)) % d
        assert count_linear_solutions(coeffs, d, target) == int((vals == target).sum())

    # (b) character-sum cancellation in the exact zero test
    for d in range(2, 21):
        for a in range(1, d):
            total = from_int(d, 0)
            for x in range(d):
                total = total + root_power(d, (a * x) % d)
            assert zero_test(total)

    # (c) certificate => oracle soundness, >= 50 random witnesses per cell
    for n, d, k in itertools.product((4, 5, 6), (2, 3), (1, 2)):
        if (n, d, k) == (4, 2, 2):
            # provably empty cell (criterion 6); nothing to sample
            assert search_witness(4, 2, 2, SearchBudget(64, 0, "exhaustive")) is None
            continue
        found = 0
        for seed in range(400):
            w = search_witness(n, d, k, SearchBudget(50_000, seed=seed, mode="random"))
            if w is None:
                continue
            assert verify_uniform(state_from_matrix(w), k).uniform, (n, d, k, seed)
            found += 1
            if found == 50:
                break
        assert found == 50, (n, d, k, found)

    # (d) duality of the trace-orthogonal expansions, >= 100 random codes
    from kuniform.codes import LinearCode, expand_code

    rng = random.Random(101)
    cases = 0
    while cases < 100:
        p = rng.choice([2, 3, 5])
        field = get_field(p, 2)
        basis = find_trace_orthogonal_basis(p, 2, seed=cases)
        n = rng.randrange(2, 5)
        m = rng.randrange(1, n + 1)
        g = np.array([[rng.randrange(field.q) for _ in range(n)] for _ in range(m)])
        try:
            c = LinearCode(field, g)
        except ValueError:
            continue
        primal = expand_code(c, basis, "primal")
        dualw = expand_code(dual_code(c), basis, "dual")
        assert primal.m + dualw.m == 2 * n
        if dualw.m:
            assert not ((primal.generator @ dualw.generator.T) % p).any()
        cases += 1

    # (e) shortened-code dual = punctured dual, >= 50 instances
    from kuniform.codes import puncture_last, same_code

    rng = random.Random(102)
    checked = 0
    while checked < 50:
        p = rng.choice([2, 3, 5])
        field = get_field(p)
        n = rng.choice([4, 6, 8])
        g = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n // 2)])
        try:
            c = LinearCode(field, g)
        except ValueError:
            continue
        if not c.generator[:, -1].any():
            continue
        assert same_code(dual_code(shorten_last(c)), puncture_last(dual_code(c)))
        checked += 1

    # (f) the two certificate checkers agree over prime moduli, 1000 per (n, p)
    rng = random.Random(103)
    for n, p in itertools.product((5, 6), (2, 3, 5)):
        for i in range(1000):
            tri = [rng.randrange(p) for _ in range(n * (n - 1) // 2)]
            H = upper_triangle_to_matrix(tri, n, p)
            k = 1 + (i % 2)
            assert check_certificate_prime(H, p, k) == check_certificate_general(H, p, k)

    # (g) seeded search is independent of the worker count
    for n, d, k, mode, budget in [
        (6, 2, 3, "exhaustive", 2**15),
        (6, 3, 3, "random", 10**6),
        (5, 4, 2, "random", 10**5),
    ]:
        outcomes = set()
        for workers in (1, 2, 3):
            w = search_witness(n, d, k, SearchBudget(budget, seed=5, mode=mode), workers=workers)
            outcomes.add((w.provenance.index, tuple(w.upper_triangle())))
        assert len(outcomes) == 1, (n, d, k)

    elapsed = time.perf_counter() - t0
    _verdict(9, f"all property suites pass at their stated sizes ({elapsed:.1f}s)")


def test_expanded_gf9_reed_solomon_state_is_4_uniform():
    # GF(9) RS[9,4] expanded over a trace-orthogonal basis: the [18,8]
    # ternary code with distance 6 and dual distance 5, so its 6,561-ket
    # state is 4-uniform; the oracle meets one ket per B-group throughout
    from kuniform.codes import expand_code, reed_solomon

    t0 = time.perf_counter()
    code = expand_code(reed_solomon(get_field(3, 2), 9, 4), find_trace_orthogonal_basis(3, 2, seed=0), "primal")
    assert (code.n, code.m, code.p) == (18, 8, 3)
    state = state_from_code(code, 4)
    report = verify_uniform(state, 4)
    assert report.uniform and report.norm == 6561
    elapsed = time.perf_counter() - t0
    print(f"\n[18,8] code state: PASS  18 qutrits, 4-uniform over 3,060 subsets ({elapsed:.1f}s)")


def test_ame_at_every_prime_up_to_61_from_cauchy_witnesses():
    # AME(n, p) for every 2 <= n <= 14 and every prime 2n - 1 <= p <= 61:
    # SymWitness rank-certifies k = n // 2 for each Cauchy witness as it is
    # built, and the oracle verifies each state whose Gram route forms
    # C(n, k) p^(n+k) floor(p/2) pair products, at most 10^9
    t0 = time.perf_counter()
    cells = [(n, p) for n in range(2, 15) for p in range(2 * n - 1, 62) if is_prime(p)]
    witnesses = [cauchy_witness(n, p) for n, p in cells]
    assert len(witnesses) == 162 and all(w.k == w.n // 2 for w in witnesses)
    certified = time.perf_counter() - t0
    small = [w for w in witnesses if comb(w.n, w.k) * w.d ** (w.n + w.k) * (w.d // 2) <= 10**9]
    assert len(small) == 35
    for w in small:
        report = verify_uniform(state_from_matrix(w), w.k)
        assert report.uniform and report.norm == w.d**w.n, (w.n, w.d)
    elapsed = time.perf_counter() - t0
    print(f"\nAME(n, p), 2 <= n <= 14, 2n - 1 <= p <= 61: PASS  162 witnesses certified ({certified:.2f}s), "
          f"35 states verified ({elapsed - certified:.2f}s)")


def test_criterion_10_desk_scale_guards():
    t0 = time.perf_counter()
    # large table cells are out of reach and must refuse loudly, not hang
    with pytest.raises(ValueError):
        search_witness(14, 2, 4, SearchBudget(10**7, 0, "exhaustive"))
    big = PureState.from_phases(30, 2, {(0,) * 30: 0, (1,) * 30: 0})
    with pytest.raises(TooLargeError):
        verify_uniform(big, 15)
    from kuniform.codes import reed_solomon

    with pytest.raises(TooLargeError):
        min_distance(reed_solomon(get_field(5), 5, 4), max_codewords=500)
    # the formula side stays exact out to the sizes the tables mention
    assert isinstance(np_lower_bound(24, 6, 2), Fraction)
    assert np_lower_bound(24, 4, 2) > 0
    elapsed = time.perf_counter() - t0
    _verdict(10, f"oversized instances refuse cleanly; formulas stay exact ({elapsed:.2f}s)")
