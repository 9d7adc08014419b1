import cmath
import collections
import itertools
import random
import sys
import threading
from math import comb, gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kuniform import states
from kuniform.cli import main
from kuniform.codes import state_from_code
from kuniform.cyclotomic import CycInt, cyclotomic_polynomial, from_int, reduction_matrix, root_power, zero_test
from kuniform.fileio import read_code, read_state, read_witness
from kuniform.fixtures import fixture_path
from kuniform.matrices import all_phases, state_from_matrix, upper_triangle_to_matrix
from kuniform.search import SearchBudget, search_witness, table_scan
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
    # a state of general amplitudes multiplies each one by the root
    general = PureState(2, 4, {(0, 0): CycInt(4, (2, 1, 0, 0)), (1, 1): from_int(4, 3)})
    assert general.scale_phase(3).amps == {(0, 0): CycInt(4, (1, 0, 0, 2)), (1, 1): CycInt(4, (0, 0, 0, 3))}
    assert general.scale_phase(-1.0).amps == general.scale_phase(3).amps
    for state in (s, general):
        with pytest.raises(ValueError, match="not an integer"):
            state.scale_phase(1.5)


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
    with pytest.raises(TypeError, match="not a CycInt"):
        PureState(2, 2, {(0, 1): 1})
    with pytest.raises(ValueError, match="occurs twice"):
        PureState._from_arrays(2, 2, [[0, 1], [0, 1]], exponents=[0, 1])
    # digits and exponents are read exactly, never truncated; integral floats stay accepted
    with pytest.raises(ValueError, match="not an integer"):
        PureState(2, 2, {(0.5, 1): root_power(2, 0), (1, 1): root_power(2, 1)})
    with pytest.raises(ValueError, match="not an integer"):
        PureState.from_phases(2, 2, {(0.5, 1): 0, (0, 1): 1})
    with pytest.raises(ValueError, match="not an integer"):
        PureState.from_phases(2, 2, {("1", 1): 1})
    with pytest.raises(ValueError, match="not an integer"):
        PureState.from_phases(2, 2, {(0, 1): 1.5, (1, 1): 0})
    assert PureState.from_phases(2, 2, {(1.0, 1): 3.0}).phase_map() == {(1, 1): 1}
    s = _ghz(2)
    with pytest.raises(ValueError, match="not a permutation"):
        s.relabel([1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="not an integer"):
        s.relabel([1.9, 0.2])
    assert s.relabel([1.0, 0.0]).phase_map() == s.phase_map()
    with pytest.raises(ValueError):
        marginal_sum(s, (0,), (0, 1), (0,))
    for subset in ((0, 0), (2,), (-1,)):
        with pytest.raises(ValueError, match="bad subset"):
            marginal_sum(s, subset, (0,) * len(subset), (0,) * len(subset))
    with pytest.raises(ValueError, match="not an integer"):
        marginal_sum(s, (0.7,), (0,), (0,))
    with pytest.raises(ValueError, match="not an integer"):
        marginal_sum(s, (0,), (0.5,), (0,))
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
    assert len(calls) == 1
    # the 5-qubit 2-uniform state next to a qubit in |0>: the first subset
    # holding qubit 5 is (0, 5), the fifth in scan order
    padded = PureState(6, 2, {key + (0,): amp for key, amp in five_qubit.amps.items()})
    for workers in (1, 2, 3):
        calls.clear()
        r = verify_uniform(padded, 2, workers=workers)
        assert (r.failing_subset, r.failing_pair) == ((0, 5), ((0, 0), (0, 0)))
        assert len(calls) == 5


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


def _reference_scan(s, k):
    """(subset, pair) of the first subset the reference check fails, in scan order, or (None, None)."""
    for A in itertools.combinations(range(s.n), k):
        fail = _check_subset_generic(s, A)[0]
        if fail is not None:
            return A, fail
    return None, None


def _copies(s, rng):
    """The state, a relabeled copy and a phase-scaled copy, each packing its own keys."""
    copies = [s, s.relabel(rng.sample(range(s.n), s.n)), s.scale_phase(1)]
    for t in copies:
        assert [w.tolist() for w in t.words] == [w.tolist() for w in states._words(t.keys, t.d)]
    return copies


def test_histogram_check_across_packed_words():
    # 100 qutrits pack into words of w = 39, 39 and 22 digits
    d, n, w = 3, 100, 39
    assert states._word_width(d) == w and len(states._words(np.zeros((1, n), np.int64), d)) == 3
    rng = random.Random(3)
    # the code state of a 4 x 100 generator over Z_3 whose columns 0 and 1 are
    # e1 and e2, whose columns 2..77 lie off their span, and whose column 78 is
    # e1 + e2: the scan at k = 3 passes every (0, 1, j) up to j = 77 and
    # fails at (0, 1, 78), the first position of the third word
    off = [c for c in itertools.product(range(d), repeat=4) if c[2:] != (0, 0)]
    cols = [(1, 0, 0, 0), (0, 1, 0, 0), *rng.choices(off, k=76), (1, 1, 0, 0)]
    cols += [tuple(rng.randrange(d) for _ in range(4)) for _ in range(n - len(cols))]
    G = np.array(cols).T
    code = {tuple((np.array(m) @ G % d).tolist()): rng.randrange(d) for m in itertools.product(range(d), repeat=4)}
    code_state = PureState.from_phases(n, d, code)
    for s in _copies(code_state, rng):
        report = verify_uniform(s, 3)
        assert (report.failing_subset, report.failing_pair) == _reference_scan(s, 3)
    assert verify_uniform(code_state, 3).failing_subset == (0, 1, 78)
    # kets that agree off a few positions around the word boundaries, so the
    # groups of a subset of those positions come in mixed sizes
    near = [w - 2, w - 1, w, w + 1, 2 * w - 1, 2 * w, 2 * w + 1, n - 1]
    phases = {}
    for key in rng.sample(sorted(code), 12):
        for _ in range(5):
            ket = list(key)
            for i in rng.sample(near, rng.randrange(1, 4)):
                ket[i] = rng.randrange(d)
            phases[tuple(ket)] = rng.randrange(d)
    sparse = PureState.from_phases(n, d, phases)
    general = PureState(n, d, {key: root_power(d, e) * CycInt(d, (1, rng.randrange(-2, 3), 1)) for key, e in phases.items()})
    subsets = list(itertools.combinations(near, 3)) + [(0, w - 1, w), (0, w, 2 * w), (w - 1, 2 * w, n - 1)]
    for base in (sparse, general):
        for s in _copies(base, rng):
            for A in subsets:
                assert _check_subset(s, A) == _check_subset_generic(s, A), A


def test_histogram_check_on_every_subset_of_the_bundled_code_state():
    s = state_from_code(read_code(fixture_path("code_8_4_4_binary.txt")), 3)
    assert (s.n, len(s)) == (8, 16)
    for k in (1, 2, 3):
        for A in itertools.combinations(range(s.n), k):
            assert _check_subset(s, A) == _check_subset_generic(s, A) == (None, 16), A


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
    # sort and histogram entries up front, then the pairs of every subset
    # scanned, once per unit u <= d/2 of Z_d on the Gram route (full support, single roots)
    gram = s.exponents is not None and len(s) == s.d**s.n
    passes = sum(gcd(u, s.d) == 1 for u in range(1, s.d // 2 + 1)) if gram else 1
    total = comb(s.n, k) * (len(s) + s.d ** (2 * k + 1)) + passes * sum(_pair_count(s, A) for A in scanned)
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
        assert states._conjugate_roots(s.d, s.d ** (s.n - k))[0][0].dtype == np.float32  # d^(n-k) <= 2^10
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
    assert all(t.dtype == np.float32 for pair in states._conjugate_roots(5, 5**2) for t in pair)
    assert _check_subset_gram(s, (0,)) == _check_subset_generic(s, (0,)) == (((0,), (1,)), 5**4)


@pytest.mark.parametrize("n,d,k", [(6, 5, 3), (5, 9, 2)])
@pytest.mark.parametrize("moved", [False, True])
def test_gram_check_matches_the_histogram_on_large_products(n, d, k, moved):
    # each real product is d^k x d^k x d^(n-k) multiply-adds: 125 * 125 * 125
    # = 1.95M at (6, 5, 3) and 81 * 81 * 729 = 4.78M at (5, 9, 2), far past the
    # states the hypothesis test above draws
    rng = random.Random(0)
    H = upper_triangle_to_matrix([rng.randrange(d) for _ in range(comb(n, 2))], n, d)
    strings, exps = all_phases(H, n, d)
    if moved:
        exps[rng.randrange(d**n)] += 1
    s = PureState.from_phases(n, d, dict(zip(map(tuple, strings.tolist()), exps.tolist())))
    for A in list(itertools.combinations(range(n), k))[:3]:
        fail, pairs = _check_subset_gram(s, A)
        assert (fail, pairs) == _check_subset(s, A)
        assert (fail is None) != moved  # the first three subsets of this H pass


@pytest.mark.parametrize("n,d,k", [(12, 2, 2), (6, 4, 1), (3, 32, 1), (13, 2, 2)])
def test_gram_check_matches_the_histogram_at_the_float32_edge(n, d, k):
    # the inner length d^(n-k) is 2^10, the largest at which the root tables
    # are float32, and 2^11 at (13, 2, 2), where they are float64
    m = d ** (n - k)
    assert states._conjugate_roots(d, m)[0][0].dtype == (np.float32 if m <= 2**10 else np.float64)
    strings, exps = all_phases(search_witness(n, d, k, SearchBudget(10**5, seed=0)).H, n, d)
    rng = random.Random(m + d)
    verdicts = set()
    for moved in (False, True):  # a k-uniform witness's state, then one exponent moved
        if moved:
            exps[rng.randrange(d**n)] += rng.randrange(1, d)
        s = PureState.from_phases(n, d, dict(zip(map(tuple, strings.tolist()), exps.tolist())))
        for A in itertools.combinations(range(n), k):
            fail, pairs = _check_subset_gram(s, A)
            assert (fail, pairs) == _check_subset(s, A), A
            verdicts.add(fail is None)
    assert verdicts == {True, False}


def _norm_reference(s):
    """<s|s> of a values state as the sum of conj(a) a, one CycInt product at a time."""
    total = from_int(s.d, 0)
    for amp in s.values:
        total = total + amp.conjugate() * amp
    return total


@st.composite
def _values_amplitudes(draw):
    """(n, d, amplitudes) of general amplitudes whose coefficients reach up to 2^bits, some of them zero."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(2, 9))
    bits = draw(st.sampled_from([2, 16, 31, 32, 40, 70]))
    coeff = st.integers(-(2**bits), 2**bits)
    phi = cyclotomic_polynomial(d)
    zero = st.builds(lambda t, j: CycInt(d, tuple([0] * j + [t * c for c in phi] + [0] * (d - j - len(phi)))),
                     coeff, st.integers(0, d - len(phi)))
    amp = st.one_of(st.builds(CycInt, st.just(d), st.tuples(*[coeff] * d)), zero)
    ket = st.tuples(*[st.integers(0, d - 1)] * n)
    amps = draw(st.dictionaries(ket, amp, min_size=1, max_size=12))
    assume(not all(amp.is_zero() or amp.root_exponent() is not None for amp in amps.values()))
    return n, d, amps


@settings(max_examples=150, deadline=None)
@given(_values_amplitudes().map(lambda case: PureState(*case)))
def test_norm_matches_the_cyclotomic_loop(s):
    per_ket = [sum(map(abs, amp.coeffs)) for amp in s.values]
    assert s.coeffs.dtype == (np.int64 if sum(x * x for x in per_ket) < 2**63 else object)
    assert s.norm().coeffs == _norm_reference(s).coeffs


@pytest.mark.parametrize("past,dtype", [(0, np.int64), (1, object)])
def test_norm_past_the_int64_bound(past, dtype):
    # two kets whose coefficients sum to L and 1 in absolute value, so
    # Q = L^2 + 1, which is below 2^63 at the first L and above it at L + 1
    L = isqrt(2**63 - 2) + past
    s = PureState(1, 3, {(0,): CycInt(3, (L - 1, -1, 0)), (1,): CycInt(3, (0, 0, -1))})
    per_ket = np.abs(s.coeffs).sum(axis=1)
    assert (int(per_ket.sum()), int(per_ket @ per_ket), s.coeffs.dtype) == (L + 1, L * L + 1, dtype)
    assert s.norm().coeffs == _norm_reference(s).coeffs == ((L - 1) ** 2 + 2, 1 - L, 1 - L)


@settings(max_examples=100, deadline=None)
@given(_values_amplitudes(), st.integers(-20, 20))
def test_scale_phase_multiplies_each_amplitude_by_the_root(case, e):
    s = PureState(*case)
    z = root_power(s.d, e)
    assert s.scale_phase(e).values == tuple(amp * z for amp in s.values)


@settings(max_examples=100, deadline=None)
@given(_values_amplitudes())
def test_values_are_the_nonzero_amplitudes_in_key_order(case):
    n, d, amps = case
    assert PureState(n, d, amps).values == tuple(amps[key] for key in sorted(amps) if not zero_test(amps[key]))


@st.composite
def _amplitude_rows(draw):
    """(d, amplitudes): multiples of shifted Phi_d, which are zero, some moved by 1, near r sum |c| = 2^63."""
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12, 15]))
    phi = cyclotomic_polynomial(d)
    r = int(np.abs(reduction_matrix(d)).max())
    amps = []
    for _ in range(draw(st.integers(1, 20))):
        j = draw(st.integers(0, d - len(phi)))
        row = [0] * j + list(phi) + [0] * (d - j - len(phi))
        limit = ((1 << 63) - 1) // (r * sum(map(abs, row)))  # the largest multiple within the bound
        t = draw(st.one_of(st.integers(-3, 3), st.integers(limit - 2, limit + 2), st.integers(-limit - 2, -limit + 2)))
        row = [t * c for c in row]
        if draw(st.booleans()):
            row[draw(st.integers(0, d - 1))] += draw(st.sampled_from([-1, 1]))
        amps.append(CycInt(d, tuple(row)) if draw(st.integers(0, 4)) else root_power(d, draw(st.integers(0, d - 1))))
    return d, amps


@settings(max_examples=200, deadline=None)
@given(_amplitude_rows())
def test_zero_amplitudes_match_the_polynomial_division(case):
    d, amps = case
    table = np.array([amp.coeffs for amp in amps], dtype=object)
    expected = [not zero_test(amp) for amp in amps]
    assert states._nonzero(table, d).tolist() == expected
    if all(-(2**63) <= c < 2**63 for amp in amps for c in amp.coeffs):  # as the int64 table of a state file
        assert states._nonzero(table.astype(np.int64), d).tolist() == expected


@pytest.mark.parametrize("rows,past", [(48, 0), (48, 1), (47, 0)])
def test_zero_amplitudes_are_tested_in_one_product_within_the_bound(monkeypatch, rows, past):
    # at d = 105 the reduction matrix has entries up to r = 2 and phi(105) = 48
    # columns; the last amplitude, the integer M, reaches r M < 2^63 or, one
    # past, r M >= 2^63.  Below, at and past the bound, and with fewer rows
    # than phi(d), no amplitude is tested on its own
    d, phi = 105, cyclotomic_polynomial(105)
    r = int(np.abs(reduction_matrix(d)).max())
    assert (r, len(phi) - 1) == (2, 48)
    rng = random.Random(rows + past)
    amps = []
    for i in range(rows - 1):
        j = i % (d - len(phi) + 1)
        t = rng.randrange(-5, 6)
        row = [0] * j + [t * c for c in phi] + [0] * (d - j - len(phi))
        row[rng.randrange(d)] += rng.choice([0, 0, 1])
        amps.append(CycInt(d, tuple(row)))
    M = ((1 << 63) - 1) // r + past
    amps.append(from_int(d, M))
    expected = [not zero_test(amp) for amp in amps]
    assert 0 < sum(expected) < rows
    calls = []
    is_zero = CycInt.is_zero
    monkeypatch.setattr(CycInt, "is_zero", lambda amp: calls.append(amp) or is_zero(amp))
    assert states._nonzero(np.array([amp.coeffs for amp in amps], dtype=object), d).tolist() == expected
    s = PureState(8, d, {tuple(map(int, f"{i:08b}")): amp for i, amp in enumerate(amps)})
    assert calls == []
    assert len(s) == sum(expected) and s.coeffs is not None


def test_past_the_bound_a_wrapped_product_would_read_zero():
    # c = 2^62 (1, 1, -1, -1, -1, 1) at d = 6 is not zero, yet its product
    # with R is (2^64, 0), which int64 wraps to (0, 0); so would the int64
    # sum of its |c|, 6 * 2^62, were the bound taken on it
    c = tuple(2**62 * x for x in (1, 1, -1, -1, -1, 1))
    assert not (np.array(c, dtype=np.int64) @ reduction_matrix(6)).any() and not zero_test(CycInt(6, c))
    rows = [c, (1, -1, 0, 0, 0, 0)]
    for dtype in (object, np.int64):
        assert states._nonzero(np.array(rows, dtype=dtype), 6).tolist() == [True, True]


def test_the_oracle_starts_no_thread(monkeypatch, five_qubit):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    gram = state_from_matrix(read_witness(fixture_path("witness_6x6_d2.txt")))
    # and a full-support state at n = 6, d = 5 whose first subset fails at k = 3,
    # with 5^6 + 5^7 sort and histogram entries per subset
    flat = PureState.from_phases(6, 5, _quadratic_phases(6, 5, [1] * 15))
    for s, k, uniform in ((gram, 3, True), (five_qubit, 2, True), (flat, 3, False)):
        reports = [verify_uniform(s, k, workers=workers) for workers in (1, 2, 3, 4)]
        assert reports[0].uniform == uniform and all(r == reports[0] for r in reports)
    assert started == []


def test_the_search_starts_no_thread(monkeypatch, capsys):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    # a hit in the first chunk and misses that scan many chunks
    assert search_witness(6, 3, 3, SearchBudget(10**6, seed=9), workers=3).provenance.index == 182
    assert search_witness(8, 3, 4, SearchBudget(3 * 10**4, seed=0), workers=3) is None
    cells = table_scan(2, range(2, 7), max_candidates=2**15, workers=2)
    assert [cells[n].best_k for n in range(2, 7)] == [1, 1, 1, 2, 3] and cells[4].misses == [(2, "exhausted")]
    search = ["search", "--n"]
    assert main([*search, "6", "--d", "3", "--k", "3", "--seed", "9", "--budget", "1000000"]) == 0
    assert main([*search, "7", "--d", "2", "--k", "3", "--mode", "exhaustive", "--budget", str(2**21)]) == 3
    capsys.readouterr()
    assert started == []


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


def test_per_level_tables_count_against_the_memory_ceiling(monkeypatch):
    # at k = 0 the operation ceiling allows any level up to max_ops, while the
    # reduction matrix or the Gram root tables take 8 d phi(d) bytes
    d = 1009
    flat = PureState.from_phases(1, d, {(j,): 0 for j in range(d)})  # the Gram route
    for s in (_ghz(2, d), flat):
        assert verify_uniform(s, 0).uniform
    monkeypatch.setattr(states, "MAX_HISTOGRAM_BYTES", 2**20)
    # a table that was built would call None and raise TypeError, not TooLargeError
    monkeypatch.setattr(states, "reduction_matrix", None)
    monkeypatch.setattr(states, "_conjugate_roots", None)
    for s in (_ghz(2, d), flat):
        with pytest.raises(TooLargeError, match="bytes of per-level tables") as exc:
            verify_uniform(s, 0)
        assert (exc.value.estimate, exc.value.ceiling) == (8 * d * (d - 1), 2**20)


def test_the_gram_route_charges_every_conjugate_pass():
    # one qudit of level 2053 holding every basis string, at k = 0: 2 * 2053
    # sort and histogram entries up front, then the one subset's 2053 pairs,
    # formed once in each of the 1026 passes of the Gram check
    d = 2053
    flat = PureState.from_phases(1, d, {(j,): 0 for j in range(d)})
    assert len(states._conjugate_roots(d, d)) == 1026
    assert verify_uniform(flat, 0, max_ops=2 * d + 1026 * d).uniform
    with pytest.raises(TooLargeError) as exc:
        verify_uniform(flat, 0, max_ops=2 * d + d)  # the pair count alone
    assert exc.value.estimate == 2 * d + 1026 * d


def test_histogram_memory_ceiling(monkeypatch):
    # a check that ran would call None and raise TypeError, not TooLargeError
    monkeypatch.setattr(states, "_check_subset", None)
    assert states.MAX_HISTOGRAM_BYTES == 2**31
    # 600^3 entries pass the operation ceiling but take 16 * 600^3 = 3.5e9 bytes
    with pytest.raises(TooLargeError, match="bytes") as exc:
        verify_uniform(_ghz(2, 600), 1)
    assert (exc.value.estimate, exc.value.ceiling) == (16 * 600**3, 2**31)
    # one check runs at a time, so the estimate does not grow with the worker count
    for workers in (2, 4, 17):
        with pytest.raises(TooLargeError, match="bytes") as exc:
            verify_uniform(_ghz(2, 600), 1, workers=workers)
        assert (exc.value.estimate, exc.value.ceiling) == (16 * 600**3, 2**31)
