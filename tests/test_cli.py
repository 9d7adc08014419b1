import argparse
import inspect
import subprocess
import sys

import pytest

from kuniform import cli
from kuniform.cli import main
from kuniform.codes import dual_code, reed_solomon, same_code
from kuniform.fields import get_field
from kuniform.fileio import read_code, read_state, read_witness, write_code, write_state
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


def test_verify_method_is_a_choice(capsys):
    # the oracle is the only method, so verify takes no --method
    state = str(fixture_path("state_5qubit_d2.txt"))
    for method in ("oracle", "bareiss"):
        assert run("verify", "--state", state, "--k", "1", "--method", method) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: --method {method}" in err
    assert run("verify", "--state", state, "--k", "1") == 0


def test_parser_is_built_once_and_keeps_no_state():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["verify", "--state", "a.txt", "--k", "2", "--max-ops", "3"])
    second = parser.parse_args(["verify", "--state", "b.txt"])
    assert (first.k, first.max_ops) == (2, 3)
    assert (second.state, second.k, second.max_ops) == ("b.txt", None, 10**9)


def test_every_option_is_read():
    # an option no command reads would be accepted and do nothing
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    body = inspect.getsource(cli).replace(inspect.getsource(cli._build_parser), "")
    unread = {
        (name, action.dest)
        for name, sp in commands.choices.items()
        for action in sp._actions
        if not isinstance(action, argparse._HelpAction) and f"args.{action.dest}" not in body
    }
    assert not unread


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


@pytest.mark.parametrize("argv", [
    ["search", "--n", "5", "--d", "2", "--k", "2"],
    ["construct-matrix", "--n", "5", "--d", "2", "--k", "2", "--out", "w.txt"],
    ["table", "--d", "2", "--n-max", "4"],
    ["verify", "--state", "state.txt"],
    ["construct-code", "--code", "code.txt", "--out", "state.txt"],
])
@pytest.mark.parametrize("workers", ["0", "-2", "x"])
def test_workers_below_one_exit_2(tmp_path, monkeypatch, capsys, argv, workers):
    # every command runs on one thread and takes no --workers, at any value
    monkeypatch.chdir(tmp_path)
    for value in (workers, "2"):
        assert run(*argv, "--workers", value) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: --workers {value}" in err
    assert not any(tmp_path.iterdir())


def test_bounds_lambda(capsys):
    assert run("bounds", "--p", "2", "--lambda") == 0
    out = capsys.readouterr().out
    assert "lambda_existence: 0.170" in out
    assert "lambda_selfdual: 0.110" in out
    assert "lambda_constructive: 0.059" in out and "t=3" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_bounds_lambda_refuses_a_tolerance_that_is_not_finite_and_positive(capsys, tol):
    assert run("bounds", "--p", "2", "--lambda", f"--tol={tol}") == 2
    out, err = capsys.readouterr()
    assert out == "" and "finite and positive" in err


def test_bounds_point(capsys):
    assert run("bounds", "--p", "2", "--n", "8", "--k", "3") == 0
    out = capsys.readouterr().out
    assert "cor3: False" in out
    assert "not positive" in out
    assert run("bounds", "--p", "7", "--n", "4", "--k", "2") == 0
    out = capsys.readouterr().out
    assert "halfrank_prime_threshold: 7" in out
    assert "k=n/2 achievable" in out


def test_bounds_small_point_output_is_exact(capsys):
    assert run("bounds", "--p", "2", "--n", "8", "--k", "3") == 0
    assert capsys.readouterr().out == (
        "p=2 n=8 k=3\n"
        "count_bound: -5375/512 = -10.498 [not positive (no claim)]\n"
        "cor3: False\n"
        "halfrank_prime_threshold: 71\n"
    )


@pytest.mark.parametrize("n,k,line", [
    # exact values past the interpreter's int-to-string digit limit
    ("8000", "2", "count_bound: 1 [positive (witness exists)]"),
    ("16000", "2", "halfrank_prime_threshold: ~1.90460e+4814"),
    # and a count bound past the float range
    ("1200", "550", "count_bound: -4.84291e+327 [not positive (no claim)]"),
])
def test_bounds_at_large_points(capsys, n, k, line):
    assert run("bounds", "--p", "2", "--n", n, "--k", k) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_bounds_needs_args():
    assert run("bounds", "--p", "2") == 2


@pytest.mark.parametrize("argv", [
    ["--p", "1", "--lambda"],
    ["--p", "1", "--n", "4"],
    # Theorem 3 speaks of primes only: no "k=n/2 achievable" at p=9
    ["--p", "9", "--n", "4"],
])
def test_bounds_refuse_a_level_that_is_not_prime(capsys, argv):
    assert run("bounds", *argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "is not prime" in err


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
    # build an extension-field code file, expand it, then build its state
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
    # emit-state renders witnesses only; construct-code turns a code into a state
    assert run("emit-state", "--code", str(expanded), "--out", str(state_file)) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: --code {expanded}" in err
    assert not state_file.exists()
    assert run("construct-code", "--code", str(expanded), "--out", str(state_file)) == 0
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


@pytest.mark.parametrize("command", ["construct-code"])
def test_code_states_refuse_an_extension_field_code(tmp_path, capsys, command):
    code_file = tmp_path / "rs42.txt"
    write_code(code_file, reed_solomon(get_field(2, 2), 4, 2))
    assert run(command, "--code", str(code_file), "--out", str(tmp_path / "x.txt")) == 2
    assert "prime-field code" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_concat_writes_the_weighted_dual_expansion(tmp_path, capsys):
    rs = tmp_path / "rs94.txt"
    write_code(rs, reed_solomon(get_field(3, 2), 9, 4))
    primal, dual = tmp_path / "primal.txt", tmp_path / "dual.txt"
    assert run("concat", "--code", str(rs), "--out", str(primal), "--out-dual", str(dual)) == 0
    assert f"weighted dual expansion -> {dual}" in capsys.readouterr().out
    p, d = read_code(primal), read_code(dual)
    assert (d.n, d.m, d.p) == (18, 10, 3)
    assert not (p.generator @ d.generator.T % 3).any()
    assert same_code(d, dual_code(p))


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


def test_table_from_registry_names_a_refused_line(tmp_path, capsys):
    registry = tmp_path / "reg.txt"
    registry.write_text("2 2 1 random 0 0 1\n4 2 2 random 0 0 0 0 0 0 0 0\n")
    assert run("table", "--d", "2", "--n-max", "4", "--from-registry", str(registry)) == 2
    assert capsys.readouterr().err.startswith("error: line 2: matrix does not certify k=2 at level 2")


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


_MALFORMED = {
    "wrong header arity": "2 2 1 0\n",
    "short row": "2 2 1\n0\n1 0\n",
    "long row": "2 2 1\n0 1 1\n1 0\n",
    "non-integer": "2 2 1\n0 x\n1 0\n",
    "caret without exponent": "2 2\n0 0 ^\n",
    "stray commas": "2 1 4 2\n1,,0 1\n",
    "comment-only": "# nothing here\n",
    "short registry line": "2 2 1 random 0\n",
}
_READING_COMMANDS = {
    "verify": ["verify", "--state", "{file}"],
    "emit-state": ["emit-state", "--witness", "{file}", "--out", "{out}"],
    "construct-code": ["construct-code", "--code", "{file}", "--out", "{out}"],
    "concat": ["concat", "--code", "{file}", "--out", "{out}"],
    "table": ["table", "--d", "2", "--n-max", "3", "--from-registry", "{file}"],
}


# a registry of comments only is an empty registry, which table reads fine
@pytest.mark.parametrize("command,kind", [
    (command, kind) for command in _READING_COMMANDS for kind in _MALFORMED
    if (command, kind) != ("table", "comment-only")
])
def test_malformed_input_files_exit_2(tmp_path, capsys, command, kind):
    path = tmp_path / "in.txt"
    path.write_text(_MALFORMED[kind])
    argv = [arg.format(file=path, out=tmp_path / "out.txt") for arg in _READING_COMMANDS[command]]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.txt").exists()


def test_usage_error_exit_code(tmp_path):
    assert run("construct-matrix", "--n", "4") == 2
    assert run() == 2
    # table sizes below 2 or an empty range, scanned or read from an empty registry
    empty = tmp_path / "empty.txt"
    empty.write_text("# no witnesses\n")
    assert run("table", "--d", "2", "--n-min", "-3", "--n-max", "2", "--porcelain") == 2
    assert run("table", "--d", "2", "--n-min", "5", "--n-max", "3") == 2
    assert run("table", "--d", "2", "--n-min", "1", "--n-max", "3", "--from-registry", str(empty)) == 2


def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "kuniform.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "construct-matrix" in proc.stdout


@pytest.mark.parametrize("argv,want", [
    (["search", "--n", "2", "--d", "2", "--k", "1", "--budget", "10"], 0),
    (["search", "--n", "2", "--d", "2", "--k", "2"], 2),
    (["search", "--n", "4", "--d", "2", "--k", "2", "--mode", "exhaustive", "--budget", "100"], 3),
])
def test_package_runs_as_a_module(argv, want):
    proc = subprocess.run([sys.executable, "-m", "kuniform", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == want, proc.stderr
    assert ("witness n=2" in proc.stdout) == (want == 0)


_HUGE_PRIME = str(2**61 - 1)


@pytest.mark.parametrize("argv,want", [
    (["emit-state", "--witness", "{file}", "--out", "{out}"], 2),
    (["bounds", "--p", _HUGE_PRIME, "--n", "8", "--k", "3"], 0),
    # the rank kernel decides 2^61 - 1, its residues kept as Python ints
    (["search", "--n", "2", "--d", _HUGE_PRIME, "--k", "1", "--budget", "10"], 0),
    # the level (2^31 - 1)^2 has no small factor and no prime cofactor
    (["search", "--n", "2", "--d", str((2**31 - 1) ** 2), "--k", "1", "--budget", "10"], 0),
    # 2(2^61 - 1): the popcount screen decides mod 2 and the rank kernel mod 2^61 - 1
    (["search", "--n", "2", "--d", str(2 * (2**61 - 1)), "--k", "1", "--budget", "10"], 0),
])
def test_huge_prime_levels_answer_promptly(tmp_path, argv, want):
    path = tmp_path / "in.txt"
    path.write_text(f"2 {_HUGE_PRIME} 1\n0 1\n1 0\n")
    argv = [arg.format(file=path, out=tmp_path / "out.txt") for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "kuniform.cli", *argv], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == want, proc.stderr
    if want == 2:  # emit-state reads the witness and stops at the ket ceiling
        assert "above ceiling" in proc.stderr


@pytest.mark.parametrize("argv", [["search", "--n", "4", "--k", "1", "--budget", "10"],
                                  ["table", "--n-max", "3", "--budget", "10", "--porcelain"]])
@pytest.mark.parametrize("d", [2**63 + 29, 2**64 + 13])
def test_levels_above_2_63_exit_2_with_the_ceiling(capsys, argv, d):
    assert run(*argv, "--d", str(d)) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"level {d} is above 2^63" in err
    assert run(*argv, "--d", str(2**63)) == 0
