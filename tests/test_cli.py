import subprocess
import sys

import pytest

from kuniform import cli
from kuniform.cli import main
from kuniform.fileio import read_code, read_state, read_witness, write_state
from kuniform.fixtures import fixture_path
from kuniform.states import PureState


def run(*argv):
    return main(list(argv))


def test_verify_fixture_ok(capsys):
    code = run("verify", "--state", str(fixture_path("state_5qubit_d2.txt")), "--k", "2")
    out = capsys.readouterr().out
    assert code == 0
    assert "uniform" in out and "norm: 8" in out


def test_verify_k_out_of_range():
    assert run("verify", "--state", str(fixture_path("state_5qubit_d2.txt")), "--k", "3") == 2


def test_verify_missing_file():
    assert run("verify", "--state", "/nonexistent/state.txt", "--k", "1") == 2


def test_verify_not_uniform(tmp_path, capsys):
    w_state = PureState.from_phases(3, 2, {(0, 0, 1): 0, (0, 1, 0): 0, (1, 0, 0): 0})
    path = tmp_path / "w.txt"
    write_state(path, w_state)
    code = run("verify", "--state", str(path), "--k", "1")
    out = capsys.readouterr().out
    assert code == 4
    assert "NOT uniform" in out
    assert "failing subset" in out


def test_verify_many_qubits(tmp_path, capsys):
    # 65 qubits: the complement of one qubit no longer fits one int64 index
    path = tmp_path / "ghz65.txt"
    write_state(path, PureState.from_phases(65, 2, {(0,) * 65: 0, (1,) * 65: 0}))
    assert run("verify", "--state", str(path), "--k", "1") == 0
    assert "k=1: uniform" in capsys.readouterr().out


@pytest.mark.parametrize("error", [OverflowError, MemoryError])
def test_verify_resource_errors_exit_2(monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("instance too large")

    monkeypatch.setattr(cli, "verify_uniform", fail)
    assert run("verify", "--state", str(fixture_path("state_5qubit_d2.txt")), "--k", "1") == 2
    assert "error: instance too large" in capsys.readouterr().err


def test_verify_without_k_reports_max(capsys):
    code = run("verify", "--state", str(fixture_path("state_5qubit_d2.txt")))
    out = capsys.readouterr().out
    assert code == 0
    assert "max uniform k: 2" in out


def test_construct_matrix_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "w.txt"
    code = run(
        "construct-matrix", "--n", "6", "--d", "2", "--k", "3",
        "--mode", "random", "--seed", "7", "--out", str(out_file),
    )
    assert code == 0
    w = read_witness(out_file)
    assert (w.n, w.d, w.k) == (6, 2, 3)
    # determinism: a second run writes the same witness
    out2 = tmp_path / "w2.txt"
    run("construct-matrix", "--n", "6", "--d", "2", "--k", "3",
        "--mode", "random", "--seed", "7", "--out", str(out2))
    assert out_file.read_text() == out2.read_text()


def test_construct_matrix_exhausted(tmp_path):
    code = run(
        "construct-matrix", "--n", "4", "--d", "2", "--k", "2",
        "--mode", "exhaustive", "--budget", "64", "--out", str(tmp_path / "no.txt"),
    )
    assert code == 3


def test_construct_matrix_level6(tmp_path):
    out_file = tmp_path / "w26.txt"
    code = run(
        "construct-matrix", "--n", "2", "--d", "6", "--k", "1",
        "--mode", "exhaustive", "--budget", "6", "--out", str(out_file),
    )
    assert code == 0
    w = read_witness(out_file)
    assert w.H.tolist() == [[0, 1], [1, 0]]


def test_bounds_lambda(capsys):
    assert run("bounds", "--p", "2", "--lambda") == 0
    out = capsys.readouterr().out
    assert "lambda_existence: 0.170" in out
    assert "lambda_selfdual: 0.110" in out
    assert "lambda_constructive: 0.059" in out and "t=3" in out


def test_bounds_point(capsys):
    assert run("bounds", "--p", "2", "--n", "8", "--k", "3") == 0
    out = capsys.readouterr().out
    assert "cor3: False" in out
    assert "not positive" in out
    assert run("bounds", "--p", "7", "--n", "4", "--k", "2") == 0
    out = capsys.readouterr().out
    assert "halfrank_prime_threshold: 7" in out
    assert "k=n/2 achievable" in out


def test_bounds_needs_args():
    assert run("bounds", "--p", "2") == 2


def test_construct_code(tmp_path, capsys):
    out_file = tmp_path / "state.txt"
    code = run("construct-code", "--code", str(fixture_path("code_8_4_4_binary.txt")), "--out", str(out_file))
    out = capsys.readouterr().out
    assert code == 0
    assert "certified k: 3" in out
    state = read_state(out_file)
    assert len(state) == 16


def test_construct_code_hypothesis_failure(tmp_path, capsys):
    code = run(
        "construct-code", "--code", str(fixture_path("code_8_4_4_binary.txt")),
        "--k", "4", "--out", str(tmp_path / "no.txt"),
    )
    out = capsys.readouterr().out
    assert code == 4
    assert "distance" in out


def test_concat_and_emit(tmp_path, capsys):
    # build an extension-field code file, expand it, then emit its state
    from kuniform.codes import reed_solomon
    from kuniform.fields import get_field
    from kuniform.fileio import write_code

    rs = reed_solomon(get_field(2, 2), 4, 2)
    code_file = tmp_path / "rs42.txt"
    write_code(code_file, rs)
    expanded = tmp_path / "rs42_binary.txt"
    code = run("concat", "--code", str(code_file), "--out", str(expanded))
    out = capsys.readouterr().out
    assert code == 0
    assert "duality check: pass" in out
    c = read_code(expanded)
    assert (c.n, c.m, c.p) == (8, 4, 2)

    state_file = tmp_path / "state.txt"
    assert run("emit-state", "--code", str(expanded), "--out", str(state_file)) == 0
    assert run("emit-state", "--witness", str(fixture_path("witness_6x6_d2.txt")), "--out", str(state_file)) == 0
    state = read_state(state_file)
    assert len(state) == 64


def test_concat_rejects_prime_field(tmp_path):
    assert run("concat", "--code", str(fixture_path("code_8_4_4_binary.txt")), "--out", str(tmp_path / "x.txt")) == 2


def test_emit_state_needs_one_source(tmp_path):
    assert run("emit-state", "--out", str(tmp_path / "x.txt")) == 2


def test_table_porcelain(capsys, tmp_path):
    registry = tmp_path / "reg.txt"
    code = run(
        "table", "--d", "2", "--n-max", "5", "--budget", str(2**10),
        "--registry", str(registry),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1   1   1   2" in out.replace("\n", " ")
    code = run("table", "--d", "2", "--n-max", "5", "--porcelain", "--from-registry", str(registry))
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln.split() for ln in out.strip().splitlines()]
    assert [ln[2] for ln in lines] == ["1", "1", "1", "2"]


def test_usage_error_exit_code():
    assert run("construct-matrix", "--n", "4") == 2
    assert run() == 2


def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "kuniform.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "construct-matrix" in proc.stdout
