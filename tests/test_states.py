import cmath
import collections
import itertools
import random
import sys
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import states
from kuniform.cyclotomic import CycInt, from_int, root_power
from kuniform.fileio import read_state, read_witness
from kuniform.fixtures import fixture_path
from kuniform.matrices import all_phases, state_from_matrix, upper_triangle_to_matrix
from kuniform.states import (
    PureState,
    TooLargeError,
    _check_subset,
    _check_subset_generic,
    _check_subset_gram,
    marginal_sum,
    max_uniformity,
    verify_uniform,
)


@pytest.fixture(scope="module")
def five_qubit():
    return read_state(fixture_path("state_5qubit_d2.txt"))


def _ghz(n, d=2):
    return PureState.from_phases(n, d, {(0,) * n: 0, (d - 1,) * n: 0})


def _w_state():
    return PureState.from_phases(3, 2, {(0, 0, 1): 0, (0, 1, 0): 0, (1, 0, 0): 0})


def _quadratic_phases(n, d, tri):
    """Basis string -> q_H(x) for the zero-diagonal symmetric H with upper triangle tri."""
    strings, exps = all_phases(upper_triangle_to_matrix(tri, n, d), n, d)
    return dict(zip(map(tuple, strings.tolist()), exps.tolist()))


def test_five_qubit_marginals(five_qubit):
    s = five_qubit
    # positions 3 and 4 in 1-based counting are (2, 3) here
    diag = marginal_sum(s, (2, 3), (0, 0), (0, 0))
    assert diag.integer_value() == 2
    for ca in itertools.product(range(2), repeat=2):
        assert marginal_sum(s, (2, 3), ca, ca).integer_value() == 2
        for ca2 in itertools.product(range(2), repeat=2):
            if ca2 != ca:
                assert marginal_sum(s, (2, 3), ca, ca2).is_zero()
    # empty subset gives the norm
    assert marginal_sum(s, (), (), ()).integer_value() == 8


def test_five_qubit_uniformity(five_qubit):
    r = verify_uniform(five_qubit, 2)
    assert r.uniform
    assert r.norm == 8
    assert r.failing_subset is None and r.failing_pair is None
    assert max_uniformity(five_qubit) == 2
    with pytest.raises(ValueError):
        verify_uniform(five_qubit, 3)


def test_ghz_and_w():
    assert verify_uniform(_ghz(3), 1).uniform
    r = verify_uniform(_w_state(), 1)
    assert not r.uniform
    assert r.failing_subset is not None
    assert r.failing_pair is not None


def test_max_uniformity_small():
    product = PureState.from_phases(2, 2, {(0, 0): 0})
    assert max_uniformity(product) == 0
    bell = _ghz(2)
    assert max_uniformity(bell) == 1


def test_monotonicity(five_qubit):
    states = [five_qubit, _ghz(4), _ghz(2)]
    for s in states:
        ks = [k for k in range(s.n // 2 + 1)]
        results = [verify_uniform(s, k).uniform for k in ks]
        # once it fails at some k it must fail for all larger k
        for a, b in zip(results, results[1:]):
            assert a or not b


def test_relabeling_invariance(five_qubit):
    rng = random.Random(10)
    for _ in range(5):
        perm = list(range(5))
        rng.shuffle(perm)
        assert verify_uniform(five_qubit.relabel(perm), 2).uniform
    w = _w_state()
    for perm in itertools.permutations(range(3)):
        assert not verify_uniform(w.relabel(perm), 1).uniform
    for bad in ([0, 0, 1], [0, 1], [0, 1, 3]):
        with pytest.raises(ValueError):
            w.relabel(bad)


def test_global_phase_invariance(five_qubit):
    for e in range(2):
        assert verify_uniform(five_qubit.scale_phase(e), 2).uniform
    s = PureState.from_phases(2, 4, {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 3): 3})
    base = verify_uniform(s, 1).uniform
    for e in range(4):
        assert verify_uniform(s.scale_phase(e), 1).uniform == base


def test_generic_path_agrees_with_phase_path(five_qubit):
    # scaling all amplitudes by 2 gives a state that is not all single roots
    doubled = PureState(
        5, 2, {key: amp.scale(2) for key, amp in five_qubit.amps.items()}
    )
    assert doubled.phase_map() is None
    r = verify_uniform(doubled, 2)
    assert r.uniform
    assert r.norm == 32  # 4 * 8
    w2 = PureState(3, 2, {k: a.scale(3) for k, a in _w_state().amps.items()})
    assert not verify_uniform(w2, 1).uniform


def test_non_integer_amplitude_state():
    # amplitude 1 + zeta_5 has non-rational modulus; the oracle must cope
    d = 5
    one_plus = from_int(d, 1) + root_power(d, 1)
    s = PureState(2, d, {(0, 0): one_plus, (1, 1): one_plus})
    r = verify_uniform(s, 1)
    assert not r.uniform  # two kets out of five local values cannot be uniform


def test_zero_amplitudes_are_dropped():
    amps = {
        (0, 0): root_power(2, 0),
        (1, 1): CycInt(2, (1, 1)),  # 1 + (-1) == 0, must vanish
    }
    s = PureState(2, 2, amps)
    assert len(s) == 1
    with pytest.raises(ValueError):
        PureState(2, 2, {(0, 0): CycInt(2, (1, 1))})


def test_k_zero_is_always_uniform(five_qubit):
    assert verify_uniform(five_qubit, 0).uniform


def test_size_guard():
    s = PureState.from_phases(30, 2, {(0,) * 30: 0, (1,) * 30: 0})
    with pytest.raises(TooLargeError) as exc:
        verify_uniform(s, 15)
    assert exc.value.estimate is not None and exc.value.estimate > 10**9
    # a histogram of 7^7 = 823,543 entries per subset is refused before any other estimate
    with pytest.raises(TooLargeError) as exc:
        verify_uniform(_ghz(6, 7), 3, max_ops=100_000)
    assert exc.value.estimate == 7**7


def test_pairs_are_charged_as_a_running_total(five_qubit):
    # 10 subsets x (8 kets + 2^5 histogram entries) up front, then 96 pair
    # entries over all subsets, on single-root and general states alike
    doubled = PureState(5, 2, {key: amp.scale(2) for key, amp in five_qubit.amps.items()})
    for state in (five_qubit, doubled):
        for workers in (1, 2, 3):
            assert verify_uniform(state, 2, max_ops=496, workers=workers).uniform
            with pytest.raises(TooLargeError) as exc:
                verify_uniform(state, 2, max_ops=495, workers=workers)
            assert exc.value.ceiling == 495 and exc.value.estimate > 495
        with pytest.raises(TooLargeError) as exc:
            verify_uniform(state, 2, max_ops=495)
        assert exc.value.estimate == 496


def test_pair_budget_keeps_count_under_thread_contention():
    # GHZ on 40 qubits at k=1: 40 x (2 kets + 2^3 histogram entries) up front
    # and 2 pair entries per subset, 480 in all; a lost update would let 479 pass
    ghz = _ghz(40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert verify_uniform(ghz, 1, max_ops=480, workers=8).uniform
            with pytest.raises(TooLargeError):
                verify_uniform(ghz, 1, max_ops=479, workers=8)
    finally:
        sys.setswitchinterval(interval)


def test_bad_inputs():
    with pytest.raises(ValueError):
        PureState(2, 2, {(0, 2): root_power(2, 0)})
    with pytest.raises(ValueError):
        PureState(2, 2, {(0, 0, 0): root_power(2, 0)})
    with pytest.raises(ValueError):
        PureState(2, 2, {(0, 0): root_power(3, 0)})
    # distinct dict keys that are the same basis string once converted to ints
    with pytest.raises(ValueError, match="occurs twice"):
        PureState(2, 2, {(0.5, 1): root_power(2, 0), (0, 1): root_power(2, 1)})
    with pytest.raises(ValueError, match="occurs twice"):
        PureState.from_phases(2, 2, {(0.5, 1): 0, (0, 1): 1})
    s = _ghz(2)
    with pytest.raises(ValueError):
        marginal_sum(s, (0,), (0, 1), (0,))
    # local digits outside Z_2 match no ket and would sum to 0 unchecked
    for ca, ca2 in (((5,), (5,)), ((-1,), (-1,)), ((0,), (2,)), ((-1,), (0,))):
        with pytest.raises(ValueError, match="Z_2"):
            marginal_sum(s, (0,), ca, ca2)
    with pytest.raises(ValueError):
        verify_uniform(s, -1)


def test_worker_count_does_not_change_result(five_qubit):
    for workers in (1, 2, 3):
        assert verify_uniform(five_qubit, 2, workers=workers).uniform
        r = verify_uniform(_w_state(), 1, workers=workers)
        # first failure in scan order: the diagonal at subset (0,), local value 0
        assert (r.failing_subset, r.failing_pair) == ((0,), ((0,), (0,)))


def test_parallel_verify_stops_at_the_first_failure(monkeypatch, five_qubit):
    calls = []
    check = states._check_subset
    monkeypatch.setattr(states, "_check_subset", lambda s, A, *rest: calls.append(A) or check(s, A, *rest))
    n = 40
    w = PureState.from_phases(n, 2, {tuple(int(i == j) for j in range(n)): 0 for i in range(n)})
    one = verify_uniform(w, 3)
    assert (one.uniform, one.failing_subset, len(calls)) == (False, (0, 1, 2), 1)
    calls.clear()
    two = verify_uniform(w, 3, workers=2)
    assert (two.failing_subset, two.failing_pair) == (one.failing_subset, one.failing_pair)
    assert len(calls) <= 2 * 2
    # the 5-qubit 2-uniform state next to a qubit in |0>: the first subset
    # holding qubit 5 is (0, 5), the fifth in scan order
    padded = PureState(6, 2, {key + (0,): amp for key, amp in five_qubit.amps.items()})
    for workers in (1, 2, 3):
        calls.clear()
        r = verify_uniform(padded, 2, workers=workers)
        assert (r.failing_subset, r.failing_pair) == ((0, 5), ((0, 0), (0, 0)))
        assert 5 <= len(calls) <= 5 + 2 * workers - 1


def _base_digits(x, d, width):
    out = []
    for _ in range(width):
        x, r = divmod(x, d)
        out.append(r)
    return tuple(reversed(out))


def test_long_complements_do_not_wrap():
    # 29 qudits at d=5: the tail of ket 1 is 2^64 in base 5, which wraps to
    # the all-zero tail of ket 0 when the 28 tail digits share one int64
    e1 = (1,) + (0,) * 27
    tails = [(0,) * 28, _base_digits(2**64, 5, 28), e1, tuple(2 * x for x in e1), tuple(3 * x for x in e1)]
    s = PureState.from_phases(29, 5, {(a,) + t: 0 for a, t in enumerate(tails)})
    assert _check_subset(s, (0,))[0] is None
    first = next(A for A in itertools.combinations(range(29), 1) if _check_subset_generic(s, A)[0] is not None)
    r = verify_uniform(s, 1)
    assert (r.failing_subset, r.failing_pair) == (first, _check_subset_generic(s, first)[0])


@st.composite
def _sparse_phase_state(draw):
    """(state, A): single-root or general amplitudes on full or sparse support."""
    if draw(st.booleans()):
        # full support: the quadratic phases of a random zero-diagonal
        # symmetric H, which may or may not certify k-uniformity
        n = draw(st.integers(2, 5))
        d = draw(st.sampled_from([2, 3, 4]))
        tri = draw(st.lists(st.integers(0, d - 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        phases = _quadratic_phases(n, d, tri)
        k = draw(st.integers(0, n // 2))
        A = tuple(sorted(draw(st.permutations(range(n)))[:k]))
    else:
        n = draw(st.integers(1, 70))
        d = draw(st.sampled_from([2, 3, 4, 5, 6]))
        k = draw(st.integers(0, min(2, n // 2)))
        A = tuple(sorted(draw(st.permutations(range(n)))[:k]))
        # ket indices that differ by multiples of 2^64 collide in one int64 word
        index = st.builds(lambda hi, lo: (hi * 2**64 + lo) % d**n, st.integers(0, 3), st.integers(0, 15))
        tails = draw(st.lists(index, min_size=1, max_size=6, unique=True))
        # kets that share a tail and differ on A share their complementary
        # string, so the B-groups come in mixed sizes
        phases = {}
        for _ in range(draw(st.integers(2, 8))):
            ket = list(_base_digits(draw(st.sampled_from(tails)), d, n))
            for a in A:
                ket[a] = draw(st.integers(0, d - 1))
            phases[tuple(ket)] = draw(st.integers(0, d - 1))
    if draw(st.booleans()):
        return PureState.from_phases(n, d, phases), A
    # general amplitudes: each root times its own nonzero combination of
    # roots, with coefficients of both signs
    factor = st.builds(CycInt, st.just(d), st.tuples(*[st.integers(-3, 3)] * d)).filter(lambda c: not c.is_zero())
    return PureState(n, d, {key: root_power(d, e) * draw(factor) for key, e in phases.items()}), A


@settings(max_examples=300, deadline=None)
@given(_sparse_phase_state())
def test_phase_path_matches_generic_on_sparse_states(case):
    s, A = case
    assert _check_subset(s, A) == _check_subset_generic(s, A)


@st.composite
def _scan_case(draw):
    """(state, k): full-support quadratic phases, sparse phases, or general amplitudes."""
    if draw(st.booleans()):
        n, d = draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 6), (2, 9)]))
        tri = draw(st.lists(st.integers(0, d - 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        phases = _quadratic_phases(n, d, tri)
    else:
        n, d = draw(st.integers(2, 6)), draw(st.sampled_from([2, 3, 5]))
        ket = st.tuples(*[st.integers(0, d - 1)] * n)
        phases = draw(st.dictionaries(ket, st.integers(0, d - 1), min_size=1, max_size=8))
    k = draw(st.integers(1, min(2, n // 2)))
    if draw(st.booleans()):
        return PureState.from_phases(n, d, phases), k
    factor = st.builds(CycInt, st.just(d), st.tuples(*[st.integers(-2, 2)] * d)).filter(lambda c: not c.is_zero())
    # one shared factor keeps a uniform state uniform
    common = draw(factor) if draw(st.booleans()) else None
    return PureState(n, d, {key: root_power(d, e) * (common or draw(factor)) for key, e in phases.items()}), k


def _first_failure(s, k):
    """(subset, pair) of the first failing marginal sum in (A, cA, cA2) order, or (None, None)."""
    norm, dk = s.norm(), s.d**k
    for A in itertools.combinations(range(s.n), k):
        for ca in itertools.product(range(s.d), repeat=k):
            for ca2 in itertools.product(range(s.d), repeat=k):
                m = marginal_sum(s, A, ca, ca2)
                if not (m.scale(dk) - norm if ca == ca2 else m).is_zero():
                    return A, (ca, ca2)
    return None, None


def _pair_count(s, A):
    """Sum of g^2 over the groups of kets that agree off A."""
    B = [i for i in range(s.n) if i not in A]
    return sum(g * g for g in collections.Counter(tuple(key[i] for i in B) for key in s.keys.tolist()).values())


@settings(max_examples=120, deadline=None)
@given(_scan_case())
def test_scan_matches_brute_force_at_every_worker_count(case):
    s, k = case
    subset, pair = _first_failure(s, k)
    scanned = itertools.combinations(range(s.n), k)
    if subset is not None:
        scanned = itertools.takewhile(lambda A: A <= subset, scanned)
    # sort and histogram entries up front, then the pairs of every subset scanned
    total = comb(s.n, k) * (len(s) + s.d ** (2 * k + 1)) + sum(_pair_count(s, A) for A in scanned)
    for workers in (1, 2, 3):
        r = verify_uniform(s, k, max_ops=total, workers=workers)
        assert (r.uniform, r.failing_subset, r.failing_pair) == (subset is None, subset, pair)
        with pytest.raises(TooLargeError):
            verify_uniform(s, k, max_ops=total - 1, workers=workers)


def _off_by_one_state(M):
    """Three qubits whose subset (0,) fails only at the off-diagonal pair, by 1.

    Over the complementary strings 00, 01, 10 the kets with qubit 0 at 0 and
    at 1 carry a = (1, M + 1, M) and c = (1, M, -(M + 1)): |a|^2 = |c|^2, so
    the diagonal passes, and a.c = 1.  At M = 2^27 a float64 running sum
    1 + M(M + 1) already loses the 1.
    """
    amps = {(0, 0, 0): 1, (0, 0, 1): M + 1, (0, 1, 0): M, (1, 0, 0): 1, (1, 0, 1): M, (1, 1, 0): -(M + 1)}
    return PureState(3, 2, {key: from_int(2, c) for key, c in amps.items()})


@pytest.mark.parametrize("M,exact", [(2**24, True), (2**25, False), (2**27, False)])
def test_exactness_bound_decides_which_check_runs(monkeypatch, M, exact):
    # S = sum of |c| = 4M + 4, so S^2 <= 2^53 exactly when M <= 2^24
    s = _off_by_one_state(M)
    calls = []
    generic = states._check_subset_generic
    monkeypatch.setattr(states, "_check_subset_generic", lambda s, A, *rest: calls.append(A) or generic(s, A, *rest))
    r = verify_uniform(s, 1)
    assert marginal_sum(s, (0,), (0,), (1,)).integer_value() == 1
    assert (r.failing_subset, r.failing_pair) == _first_failure(s, 1) == ((0,), ((0,), (1,)))
    assert calls == ([] if exact else [(0,)])
    if exact:
        assert _check_subset(s, (0,)) == generic(s, (0,)) == (((0,), (1,)), 12)
    else:
        with pytest.raises(OverflowError):
            _check_subset(s, (0,))


def test_general_states_within_the_bound_skip_the_reference(monkeypatch, five_qubit):
    monkeypatch.setattr(states, "_check_subset_generic", None)
    for factor in (from_int(2, 3), from_int(2, -2), CycInt(2, (2, 1)), CycInt(2, (-1, 3))):
        scaled = PureState(5, 2, {key: amp * factor for key, amp in five_qubit.amps.items()})
        assert verify_uniform(scaled, 2).uniform
    w = PureState(3, 2, {key: amp.scale(-3) for key, amp in _w_state().amps.items()})
    assert verify_uniform(w, 1).failing_pair == ((0,), (0,))


@st.composite
def _perturbed_full_support(draw):
    """Quadratic phases on all d^n strings, with one exponent moved half the time."""
    n, d = draw(st.sampled_from([(2, 2), (4, 2), (6, 2), (2, 3), (4, 3), (2, 4), (3, 4), (3, 5), (2, 6), (3, 6),
                                 (2, 8), (2, 9), (2, 10), (2, 12)]))
    phases = _quadratic_phases(n, d, draw(st.lists(st.integers(0, d - 1), min_size=comb(n, 2), max_size=comb(n, 2))))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(phases)))
        phases[key] += draw(st.integers(1, d - 1))
    return PureState.from_phases(n, d, phases)


@settings(max_examples=150, deadline=None)
@given(_perturbed_full_support())
def test_gram_check_matches_both_references_on_full_support(s):
    for k in range(s.n // 2 + 1):
        for A in itertools.combinations(range(s.n), k):
            assert _check_subset_gram(s, A) == _check_subset(s, A) == _check_subset_generic(s, A)


def test_gram_check_needs_every_conjugate():
    # x = (1 - zeta)(2 zeta + 2 zeta^4 - 1) at d = 5 is nonzero with |x| = 0.28,
    # while its conjugate under zeta -> zeta^2 has modulus 8.06.  As the sum of
    # 25 roots, zeta^0..zeta^4 taken 2, 8, 3, 5 and 7 times, it is the entry
    # ((0,), (1,)) of the subset (0,) of this 3-qudit state
    row = [0] * 2 + [1] * 8 + [2] * 3 + [3] * 5 + [4] * 7
    s = PureState.from_phases(3, 5, {(a, b // 5, b % 5): row[b] if a == 0 else 0 for a in range(5) for b in range(25)})
    assert abs(sum(cmath.exp(2j * cmath.pi * e / 5) for e in row)) < 0.5
    assert _check_subset_gram(s, (0,)) == _check_subset_generic(s, (0,)) == (((0,), (1,)), 5**4)


def test_products_are_cut_to_the_call_limit(monkeypatch):
    # row bands of W, and column chunks once a single row is past the limit
    rng = np.random.default_rng(1)
    for rows, cols, inner in ((5, 4, 3), (9, 6, 40), (1, 7, 50), (12, 12, 1)):
        W, R = rng.standard_normal((rows, inner)), rng.standard_normal((cols, inner))
        for limit in (1, 7, 64, 10**6):
            monkeypatch.setattr(states, "_BLAS_CALL_MACS", limit)
            assert np.allclose(states._product_t(W, R), W @ R.T)


@settings(max_examples=40, deadline=None)
@given(_perturbed_full_support())
def test_gram_check_in_small_products_matches_the_reference(s):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "_BLAS_CALL_MACS", 5)
        for k in range(1, s.n // 2 + 1):
            for A in itertools.combinations(range(s.n), k):
                assert _check_subset_gram(s, A) == _check_subset_generic(s, A)


def test_short_checks_skip_the_pool(monkeypatch, five_qubit):
    pools = []
    pool = states.ThreadPoolExecutor
    monkeypatch.setattr(states, "ThreadPoolExecutor", lambda **kw: pools.append(kw) or pool(**kw))
    gram = state_from_matrix(read_witness(fixture_path("witness_6x6_d2.txt")))  # 2^6 + 2^7 entries per subset
    for s, k in ((gram, 3), (five_qubit, 2)):
        assert verify_uniform(s, k, workers=2).uniform
    assert pools == []
    monkeypatch.setattr(states, "_POOL_MIN_ENTRIES", 2**6 + 2**7)
    assert verify_uniform(gram, 3, workers=2).uniform and pools == [{"max_workers": 2}]


@settings(max_examples=60, deadline=None)
@given(_scan_case())
def test_pooled_scan_matches_brute_force(case):
    # as test_scan_matches_brute_force_at_every_worker_count, with every check handed to the pool
    s, k = case
    subset, pair = _first_failure(s, k)
    scanned = itertools.combinations(range(s.n), k)
    if subset is not None:
        scanned = itertools.takewhile(lambda A: A <= subset, scanned)
    total = comb(s.n, k) * (len(s) + s.d ** (2 * k + 1)) + sum(_pair_count(s, A) for A in scanned)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "_POOL_MIN_ENTRIES", 0)
        for workers in (2, 3):
            r = verify_uniform(s, k, max_ops=total, workers=workers)
            assert (r.uniform, r.failing_subset, r.failing_pair) == (subset is None, subset, pair)
            with pytest.raises(TooLargeError):
                verify_uniform(s, k, max_ops=total - 1, workers=workers)


def test_full_support_single_root_states_skip_the_histogram(monkeypatch):
    monkeypatch.setattr(states, "_check_subset", None)
    for name, k in (("witness_2x2_d4.txt", 1), ("witness_2x2_d6.txt", 1), ("witness_6x6_d2.txt", 3)):
        s = state_from_matrix(read_witness(fixture_path(name)))
        for workers in (1, 2):
            assert verify_uniform(s, k, workers=workers).uniform
    # all phases 0: every off-diagonal entry of rho_A is d^(n-1), so (0, 1) fails first
    flat = PureState.from_phases(3, 3, _quadratic_phases(3, 3, [0, 0, 0]))
    for workers in (1, 2):
        r = verify_uniform(flat, 1, workers=workers)
        assert (r.failing_subset, r.failing_pair) == ((0,), ((0,), (1,)))


def _recording(monkeypatch, name):
    calls = []
    check = getattr(states, name)
    monkeypatch.setattr(states, name, lambda s, A, *rest: calls.append(A) or check(s, A, *rest))
    return calls


def test_sparse_and_general_states_take_the_histogram(monkeypatch, five_qubit):
    calls = _recording(monkeypatch, "_check_subset")
    monkeypatch.setattr(states, "_check_subset_gram", None)
    assert verify_uniform(five_qubit, 2).uniform  # 8 of 32 strings
    assert len(calls) == comb(5, 2)
    full = state_from_matrix(read_witness(fixture_path("witness_2x2_d4.txt")))
    doubled = PureState(2, 4, {key: amp.scale(2) for key, amp in full.amps.items()})
    assert len(doubled) == 16 and doubled.phase_map() is None
    calls.clear()
    assert verify_uniform(doubled, 1).uniform
    assert calls == [(0,), (1,)]


def test_gram_exactness_gate(monkeypatch):
    # the inner length d^(n-k) may reach 2^24 and no further
    assert states._gram_exact(2, 24, 0) and not states._gram_exact(2, 25, 0)
    assert states._gram_exact(2, 30, 6) and not states._gram_exact(2, 31, 6)
    assert states._gram_exact(3, 15, 0) and not states._gram_exact(3, 16, 0)  # 3^15 < 2^24 < 3^16
    assert states._gram_exact(4096, 4, 2) and not states._gram_exact(4097, 4, 2)
    # past the gate the histogram check runs: shrink the gate to 2^3 and take
    # the 2-uniform ring graph state on 5 qubits, whose inner length is 2^3
    # at k = 2 and 2^4 at k = 1
    monkeypatch.setattr(states, "_GRAM_MAX_INNER", 8)
    ring = PureState.from_phases(5, 2, _quadratic_phases(5, 2, [1, 0, 0, 1, 1, 0, 0, 1, 0, 1]))
    histogram, gram = _recording(monkeypatch, "_check_subset"), _recording(monkeypatch, "_check_subset_gram")
    assert verify_uniform(ring, 2).uniform
    assert (len(histogram), len(gram)) == (0, comb(5, 2))
    gram.clear()
    assert verify_uniform(ring, 1).uniform
    assert (len(histogram), len(gram)) == (5, 0)


def test_histogram_memory_ceiling(monkeypatch):
    # a check that ran would call None and raise TypeError, not TooLargeError
    monkeypatch.setattr(states, "_check_subset", None)
    assert states.MAX_HISTOGRAM_BYTES == 2**31
    # 600^3 entries pass the operation ceiling but take 16 * 600^3 = 3.5e9 bytes
    with pytest.raises(TooLargeError, match="bytes") as exc:
        verify_uniform(_ghz(2, 600), 1)
    assert (exc.value.estimate, exc.value.ceiling) == (16 * 600**3, 2**31)
    # 128 MB per running check: 17 workers over 34 subsets are too many,
    # and 40 workers over 20 subsets run 20 checks at once
    for n, workers, running in ((34, 17, 17), (20, 40, 20)):
        with pytest.raises(TooLargeError, match="bytes") as exc:
            verify_uniform(_ghz(n, 200), 1, workers=workers)
        assert exc.value.estimate == 16 * 200**3 * running
