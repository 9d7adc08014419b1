"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q kbench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(run.__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, seed=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, seed):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, workload, trace, seed)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_planted_wrong_expectation_counts_as_failure(capsys, monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_K_ROWS, 2, [9] * 7)
    result = _run(capsys, "matrix_binary", 0)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert result["metrics"]["wall_s"]["value"] > 0


def test_raising_job_counts_as_failure_and_later_jobs_still_run():
    runner = workloads.Runner()
    assert runner.job("boom", lambda: 1 // 0, 0) is None
    assert runner.job("fine", lambda: 2, 2) == 2
    assert (runner.attempted, runner.failed, len(runner.records)) == (2, 1, 2)


def _bindings():
    return [(owner, attr, vars(owner)[attr])
            for _, _, attr, wheres, _ in spans.BINDINGS
            for owner in map(spans._owner, wheres)]


def test_traced_run_restores_every_binding(capsys):
    before = _bindings()
    _run(capsys, "code_concat", 1)
    _run(capsys, "matrix_qudit", 1)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)


def test_failed_install_restores_what_it_replaced(monkeypatch):
    before = _bindings()
    monkeypatch.setattr(spans, "BINDINGS", spans.BINDINGS + [
        ("bad", "modular", "rank_mod_p", ("search",), None)])
    with pytest.raises(RuntimeError):
        spans.Tracer(spans.Recorder()).install()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)


def test_bindings_cover_every_alias_in_the_package():
    import kuniform

    modules = [kuniform] + [sys.modules[name] for name in sorted(sys.modules)
                            if name.startswith("kuniform.")]
    wrapped = {(id(owner), attr) for owner, attr, _ in _bindings()}
    for _, home, attr, _, _ in spans.BINDINGS:
        original = vars(spans._owner(home))[attr]
        for mod in modules:
            if vars(mod).get(attr) is original:
                assert (id(mod), attr) in wrapped, f"{mod.__name__}.{attr} is not traced"


def test_self_time_subtracts_the_union_of_children():
    S = spans.Span
    got = spans._self_times([
        S("root", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0),
        S("b", 3.0, 6.0, parent=0),  # overlaps a, as pool workers do
        S("c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        S("a.child", 2.0, 3.0, parent=1),
    ])
    assert got == pytest.approx([10 - 5 - 2, 2, 3, 4, 1])


def test_subset_rank_is_lexicographic_position():
    for n, k in ((5, 2), (6, 3), (7, 1)):
        for i, subset in enumerate(itertools.combinations(range(n), k)):
            assert spans._subset_rank(subset, n) == i


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "kbench", tmp_path / "kbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "matrix_binary",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
