import itertools

import numpy as np
import pytest

from kuniform import modular
from kuniform.fileio import append_registry, read_registry
from kuniform.matrices import check_certificate, state_from_matrix
from kuniform.search import (
    SearchBudget,
    _digits_batch,
    _stream_base,
    search_witness,
    splitmix64,
    table_scan,
)
from kuniform.states import verify_uniform


def test_trivial_exhaustive_witness():
    w = search_witness(2, 2, 1, SearchBudget(4, 0, "exhaustive"))
    assert w.H.tolist() == [[0, 1], [1, 0]]
    assert w.provenance.index == 1
    assert w.provenance.method == "exhaustive"


def test_exhaustive_negative_cells():
    assert search_witness(4, 2, 2, SearchBudget(64, 0, "exhaustive")) is None
    assert search_witness(4, 4, 2, SearchBudget(4**6, 0, "exhaustive")) is None


def test_exhaustive_budget_invariant():
    with pytest.raises(ValueError):
        search_witness(6, 2, 3, SearchBudget(100, 0, "exhaustive"))
    with pytest.raises(ValueError):
        SearchBudget(0, 0, "random")
    with pytest.raises(ValueError):
        SearchBudget(10, 0, "sideways")


def test_random_stream_is_stable():
    # pin the documented candidate-digit scheme against accidental change
    base = _stream_base(7, 6, 2, 3)
    digits = _digits_batch(base, 0, 3, 15, 2, "random")
    again = _digits_batch(base, 0, 3, 15, 2, "random")
    assert (digits == again).all()
    one = _digits_batch(base, 2, 1, 15, 2, "random")
    assert (one[0] == digits[2]).all()
    assert splitmix64(0) == 0xE220A8397B1DCDAF  # published splitmix64 vector


def test_exhaustive_order_is_lexicographic():
    digits = _digits_batch(0, 0, 9, 2, 3, "exhaustive")
    assert digits.tolist() == [
        [0, 0],
        [0, 1],
        [0, 2],
        [1, 0],
        [1, 1],
        [1, 2],
        [2, 0],
        [2, 1],
        [2, 2],
    ]
    # the shared digits helper, at other bases and widths and from a nonzero start
    for base, width, start in ((2, 5, 0), (5, 3, 0), (7, 1, 0), (3, 4, 17), (4, 0, 0)):
        want = list(itertools.product(range(base), repeat=width))[start:]
        count = len(want)
        rows = modular.digits(np.arange(start, start + count), base, width)
        assert rows.tolist() == [list(t) for t in want]
        assert (_digits_batch(0, start, count, width, base, "exhaustive") == rows).all()
        assert modular.from_digits(rows, base).tolist() == list(range(start, start + count))
    assert modular.from_digits(np.ones((1, 63), dtype=np.int64), 2).tolist() == [2**63 - 1]
    with pytest.raises(OverflowError):
        modular.from_digits(np.zeros((1, 64), dtype=np.int64), 2)


@pytest.mark.parametrize("n,d,k,mode,budget", [
    (6, 2, 3, "exhaustive", 2**15),
    (6, 2, 3, "random", 10**5),
    (5, 3, 2, "random", 10**5),
    (6, 4, 3, "random", 10**6),
])
def test_worker_count_determinism(n, d, k, mode, budget):
    results = []
    for workers in (1, 2, 3):
        w = search_witness(n, d, k, SearchBudget(budget, seed=5, mode=mode), workers=workers)
        assert w is not None
        results.append((w.provenance.index, w.H.tolist()))
    assert results[0] == results[1] == results[2]


def test_seed_replays_identically():
    a = search_witness(6, 3, 3, SearchBudget(10**6, seed=9, mode="random"))
    b = search_witness(6, 3, 3, SearchBudget(10**6, seed=9, mode="random"))
    assert a.provenance.index == b.provenance.index
    assert (a.H == b.H).all()


def test_found_witnesses_pass_recheck_and_oracle():
    for n, d, k, budget in [(5, 2, 2, 10**4), (6, 3, 3, 10**6), (5, 4, 2, 10**5)]:
        w = search_witness(n, d, k, SearchBudget(budget, seed=0, mode="random"))
        assert w is not None
        assert check_certificate(w.H, d, k)
        assert verify_uniform(state_from_matrix(w), k).uniform


def test_registry_roundtrip(tmp_path):
    path = tmp_path / "registry.txt"
    w1 = search_witness(5, 2, 2, SearchBudget(10**4, seed=0, mode="random"))
    w2 = search_witness(4, 3, 2, SearchBudget(3**6, seed=0, mode="exhaustive"))
    append_registry(path, w1)
    append_registry(path, w2)
    loaded = read_registry(path)
    assert len(loaded) == 2
    assert (loaded[0].H == w1.H).all()
    assert loaded[0].provenance == w1.provenance
    assert (loaded[1].H == w2.H).all()
    assert loaded[1].k == 2


def test_table_scan_small(tmp_path):
    registry = tmp_path / "reg.txt"
    cells = table_scan(2, range(2, 7), max_candidates=2**15, seed=0, registry_path=registry)
    assert [cells[n].best_k for n in range(2, 7)] == [1, 1, 1, 2, 3]
    assert cells[4].misses == [(2, "exhausted")]
    assert cells[2].witness.provenance.index == 1
    stored = read_registry(registry)
    assert [w.n for w in stored] == [2, 3, 4, 5, 6]
