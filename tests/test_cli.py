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


def test_verify_rejects_repeated_basis_strings(tmp_path, capsys):
    # 1 + zeta_2 = 0 at 00 leaves |11>, which is not 1-uniform
    path = tmp_path / "twice.txt"
    path.write_text("2 2\n0 0 ^0\n0 0 ^1\n1 1 ^0\n")
    assert run("verify", "--state", str(path), "--k", "1") == 2
    assert "repeated" in capsys.readouterr().err


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


def test_search_prints_the_witness_and_appends_it(tmp_path, capsys):
    registry = tmp_path / "reg.txt"
    code = run("search", "--n", "6", "--d", "3", "--k", "3", "--seed", "9",
               "--budget", "1000000", "--registry", str(registry))
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "witness n=6 d=3 k=3 candidate 182 seed 9"
    assert out[1] == "0 1 2 0 2 0"
    assert out[-1] == f"appended to registry {registry}"
    assert len(out) == 8
    assert run("search", "--n", "4", "--d", "2", "--k", "2", "--mode", "exhaustive", "--budget", "64") == 3
    assert capsys.readouterr().out == "search exhausted: no certifying matrix exists for n=4 d=2 k=2\n"


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
    assert run("construct-code", "--code", str(fixture_path("code_8_4_4_binary.txt")),
               "--k", "-1", "--out", str(tmp_path / "neg.txt")) == 2
    assert "error: k=-1 is negative" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["construct-code", "concat"])
def test_out_of_range_code_digits_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 3 2\n5,1 1,0\n")
    assert run(command, "--code", str(bad), "--out", str(tmp_path / "x.txt")) == 2
    assert "digit outside 0..2: '5,1 1,0'" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


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


@pytest.mark.parametrize("argv", [
    ["table", "--d", "2", "--n-max", "2", "--from-registry", "{missing}"],
    ["table", "--d", "2", "--n-max", "2", "--budget", "4", "--registry", "{missing}/r"],
    ["search", "--n", "2", "--d", "2", "--k", "1", "--registry", "{missing}/r"],
    ["construct-matrix", "--n", "2", "--d", "2", "--k", "1", "--out", "{missing}/x"],
    ["emit-state", "--witness", "{witness}", "--out", "{missing}/x"],
    ["construct-code", "--code", "{code}", "--out", "{missing}/x"],
    ["concat", "--code", "{ext_code}", "--out", "{missing}/x"],
], ids=["table-from-registry", "table-registry", "search-registry", "construct-matrix-out",
        "emit-state-out", "construct-code-out", "concat-out"])
def test_unreadable_or_unwritable_files_exit_2(tmp_path, capsys, argv):
    from kuniform.codes import reed_solomon
    from kuniform.fields import get_field
    from kuniform.fileio import write_code

    write_code(tmp_path / "rs42.txt", reed_solomon(get_field(2, 2), 4, 2))
    paths = {
        "missing": str(tmp_path / "missing"),
        "witness": str(fixture_path("witness_6x6_d2.txt")),
        "code": str(fixture_path("code_8_4_4_binary.txt")),
        "ext_code": str(tmp_path / "rs42.txt"),
    }
    assert run(*(arg.format(**paths) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "missing") in err


def test_usage_error_exit_code():
    assert run("construct-matrix", "--n", "4") == 2
    assert run() == 2


def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "kuniform.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "construct-matrix" in proc.stdout
