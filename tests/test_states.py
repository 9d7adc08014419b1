import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import states
from kuniform.cyclotomic import CycInt, from_int, root_power
from kuniform.fileio import read_state
from kuniform.fixtures import fixture_path
from kuniform.matrices import all_phases, upper_triangle_to_matrix
from kuniform.states import (
    PureState,
    TooLargeError,
    _check_subset_generic,
    _check_subset_phase,
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
    # scaling all amplitudes by 2 forces the generic cyclotomic path
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
    # amplitude 1 + zeta_5 has non-rational modulus; the generic path must cope
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
    # 13,720 estimated operations, but a histogram of 7^7 = 823,543 entries per subset
    with pytest.raises(TooLargeError) as exc:
        verify_uniform(_ghz(6, 7), 3, max_ops=100_000)
    assert exc.value.estimate == 7**7


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
    check = states._check_subset_phase
    monkeypatch.setattr(states, "_check_subset_phase", lambda s, A: calls.append(A) or check(s, A))
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
    assert _check_subset_phase(s, (0,)) is None
    first = next(A for A in itertools.combinations(range(29), 1) if _check_subset_generic(s, A))
    r = verify_uniform(s, 1)
    assert (r.failing_subset, r.failing_pair) == (first, _check_subset_generic(s, first))


@st.composite
def _sparse_phase_state(draw):
    if draw(st.booleans()):
        # full support: the quadratic phases of a random zero-diagonal
        # symmetric H, which may or may not certify k-uniformity
        n = draw(st.integers(2, 5))
        d = draw(st.sampled_from([2, 3, 4]))
        tri = draw(st.lists(st.integers(0, d - 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        strings, exps = all_phases(upper_triangle_to_matrix(tri, n, d), n, d)
        k = draw(st.integers(0, n // 2))
        A = tuple(sorted(draw(st.permutations(range(n)))[:k]))
        return PureState.from_phases(n, d, dict(zip(map(tuple, strings.tolist()), exps.tolist()))), A
    n = draw(st.integers(1, 70))
    d = draw(st.sampled_from([2, 3, 5]))
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
    return PureState.from_phases(n, d, phases), A


@settings(max_examples=150, deadline=None)
@given(_sparse_phase_state())
def test_phase_path_matches_generic_on_sparse_states(case):
    s, A = case
    assert _check_subset_phase(s, A) == _check_subset_generic(s, A)
