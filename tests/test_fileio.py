import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kuniform.cyclotomic import CycInt, root_power
from kuniform.codes import LinearCode, reed_solomon
from kuniform.fields import get_field
from kuniform.fileio import (
    _state_table,
    _state_walk,
    append_registry,
    code_from_text,
    code_to_text,
    read_code,
    read_registry,
    read_state,
    read_witness,
    state_from_text,
    state_to_text,
    witness_from_text,
    witness_to_text,
    write_code,
    write_state,
    write_witness,
)
from kuniform.fixtures import fixture_path
from kuniform.matrices import Provenance, SymWitness, state_from_matrix
from kuniform.states import PureState


def test_state_roundtrip_compact(tmp_path):
    s = read_state(fixture_path("state_5qubit_d2.txt"))
    path = tmp_path / "s.txt"
    write_state(path, s)
    s2 = read_state(path)
    assert s2.n == s.n and s2.d == s.d
    assert s2.phase_map() == s.phase_map()
    # compact form is used whenever amplitudes are single roots
    assert "^" in path.read_text()


def test_state_roundtrip_general_coeffs(tmp_path):
    amp = CycInt(3, (1, 2, 0))
    s = PureState(2, 3, {(0, 0): amp, (1, 2): root_power(3, 1)})
    path = tmp_path / "g.txt"
    write_state(path, s)
    text = path.read_text()
    assert "1 2 0" in text  # coefficient line for the non-root amplitude
    s2 = read_state(path)
    assert s2.amps[(0, 0)].coeffs == (1, 2, 0)
    assert s2.amps[(1, 2)].coeffs == (0, 1, 0)


def test_state_writer_matches_golden_files(data_dir):
    w = read_witness(fixture_path("witness_6x6_d2.txt"))
    golden = data_dir / "states" / "witness_6x6_d2_state.txt"
    assert state_to_text(state_from_matrix(w)) == golden.read_text()
    general = PureState(2, 3, {(0, 0): CycInt(3, (1, 2, 0)), (1, 2): root_power(3, 1)})
    assert state_to_text(general) == (data_dir / "states" / "general_coeffs_d3.txt").read_text()


def test_state_parse_errors():
    with pytest.raises(ValueError):
        state_from_text("")
    # the amplitudes at 00 sum to 1 + zeta_2 = 0: keeping only one would be wrong
    with pytest.raises(ValueError, match="0 0 \\^1"):
        state_from_text("2 2\n0 0 ^0\n0 0 ^1\n1 1 ^0\n")
    with pytest.raises(ValueError):
        state_from_text("2 0\n0 0 ^0\n")  # level 0: no exponent is reduced mod 0
    with pytest.raises(ValueError):
        state_from_text("2 2\n0 0\n")  # missing amplitude
    with pytest.raises(ValueError):
        state_from_text("2 2\n0 0 1 0 0\n")  # wrong coefficient count
    with pytest.raises(ValueError, match="0 0 \\^0 7"):
        state_from_text("2 2\n0 0 ^0 7\n")  # data after the amplitude


def test_witness_roundtrip(tmp_path):
    w = SymWitness(
        n=2,
        d=6,
        H=np.array([[0, 1], [1, 0]]),
        k=1,
        provenance=Provenance("random", seed=7, index=42),
    )
    path = tmp_path / "w.txt"
    write_witness(path, w)
    w2 = read_witness(path)
    assert (w2.H == w.H).all()
    assert (w2.n, w2.d, w2.k) == (2, 6, 1)
    assert w2.provenance == w.provenance
    assert witness_from_text(witness_to_text(w2)).provenance == w.provenance


def test_witness_parse_errors():
    good = witness_to_text(read_witness(fixture_path("witness_6x6_d2.txt")))
    assert witness_from_text(good + "\n# a comment\n\n").n == 6
    with pytest.raises(ValueError, match="0 1 1 0 1 1"):
        witness_from_text(good + "0 1 1 0 1 1\n")  # a row after the n-th matrix row
    with pytest.raises(ValueError):
        witness_from_text("2 2 1\n0 1\n")  # missing matrix row
    with pytest.raises(ValueError, match="row 2 has 1 entries"):
        witness_from_text("2 2 1\n0 1\n1\n")  # a short matrix row
    with pytest.raises(ValueError, match="row 1 has 3 entries"):
        witness_from_text("2 2 1\n0 1 1\n1 0\n")


def test_witness_fixture_provenance():
    w = read_witness(fixture_path("witness_6x6_d2.txt"))
    assert w.provenance.method == "fixture"
    assert w.provenance.seed is None


def test_code_roundtrip_prime_field(tmp_path):
    c = reed_solomon(get_field(5), 5, 2)
    path = tmp_path / "c.txt"
    write_code(path, c)
    c2 = read_code(path)
    assert c2.field == c.field
    assert (c2.generator == c.generator).all()


def test_code_roundtrip_extension_field(tmp_path):
    f = get_field(3, 2)
    c = reed_solomon(f, 6, 3)
    path = tmp_path / "c9.txt"
    write_code(path, c)
    text = path.read_text()
    assert "," in text  # extension entries are digit lists
    c2 = read_code(path)
    assert c2.field == f
    assert (c2.generator == c.generator).all()


def test_code_parse_errors():
    with pytest.raises(ValueError):
        code_from_text("")
    with pytest.raises(ValueError):
        code_from_text("3 1 2 1\n1 1\n")  # wrong row length
    good = code_to_text(reed_solomon(get_field(2), 2, 1))
    assert code_from_text(good).n == 2
    assert code_from_text(good + "# a comment\n\n").n == 2
    with pytest.raises(ValueError, match="0 1 1"):
        code_from_text("3 1 2 1\n1 1 1\n0 1 1\n")  # a row after the m-th generator row


@pytest.mark.parametrize(
    "text,line",
    [
        ("2 1 2 1\n3 -1\n", "3 -1"),  # would read as 1 1 mod 2
        ("2 1 2 1\n1 2\n", "1 2"),
        ("2 1 3 2\n5,1 1,0\n", "5,1 1,0"),  # would read as 2,1 mod 3
        ("2 1 3 2\n1,0 0,-1\n", "1,0 0,-1"),
        ("1 1 3 2\n7\n", "7"),  # a plain digit in an extension-field code
    ],
)
def test_code_reader_refuses_out_of_range_digits(text, line):
    with pytest.raises(ValueError, match=f"digit outside.*{line}"):
        code_from_text(text)


# "-" is an absent seed or index, as in the witness comment
_REGISTRY_LINES = "6 2 3 fixture - - 1 1 1 0 0 0 1 0 1 1 1 0 1 1 1\n2 6 1 random 7 42 1\n"


def test_registry_lines_are_pinned_and_read_back(tmp_path):
    path = tmp_path / "reg.txt"
    fixture = read_witness(fixture_path("witness_6x6_d2.txt"))
    found = SymWitness(n=2, d=6, H=np.array([[0, 1], [1, 0]]), k=1, provenance=Provenance("random", 7, 42))
    append_registry(path, fixture)
    append_registry(path, found)
    assert path.read_text() == _REGISTRY_LINES
    got = read_registry(path)
    assert [w.provenance for w in got] == [fixture.provenance, found.provenance]
    assert all((a.H == b.H).all() and (a.n, a.d, a.k) == (b.n, b.d, b.k) for a, b in zip(got, [fixture, found]))


@pytest.mark.parametrize(
    "text,message",
    [
        ("# only comments\n", "no data in witness file"),  # was IndexError
        ("2 2\n0 1\n1 0\n", "line 1: witness header 'n d k' has 2 entries"),
        ("2 2 1\n0 x\n1 0\n", "line 2: matrix row 1 has a non-integer entry: '0 x'"),
        ("2 2 1\n0 1\n\n# note\n1 0\n0 1\n", "line 6: line after the 2 witness rows"),
        ("2 2 1\n0 1\n1 0\n# method=random seed=x index=-\n", "line 4: seed or index has a non-integer"),
        ("2 0 1\n0 1\n1 0\n", "invalid level d=0"),
        ("2 1 1\n0 1\n1 0\n", "invalid level d=1"),
    ],
)
def test_witness_reader_refusals(text, message):
    with pytest.raises(ValueError, match=message):
        witness_from_text(text)


@pytest.mark.parametrize("line,message", [
    ("4 2 2 random 0 0 0 0 0 0 0 0", "line 2: matrix does not certify k=2 at level 2: '4 2 2 "),
    ("2 1180591620717411303424 1 random 0 0 1", "line 2: residues mod 1180591620717411303424 do not fit in int64"),
])
def test_registry_reader_names_the_line_of_a_refused_witness(tmp_path, line, message):
    path = tmp_path / "reg.txt"
    path.write_text(f"2 2 1 random 0 0 1\n{line}\n")
    with pytest.raises(ValueError, match=message):
        read_registry(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("2 2 1 random 0\n", "line 1: registry line 'n d k method seed index' has 5 entries"),  # was IndexError
        ("2 0 1 random 0 0 1\n", "invalid level d=0"),  # was ZeroDivisionError
        ("2 2 1 random 0 0 1 1\n", "line 1: upper triangle has 2 entries, expected 1"),
        ("2 2 1 random x 0 1\n", "line 1: seed or index has a non-integer"),
        ("# header\n\n2 2 1 random 0 0 1\n2 2 q random 0 0 1\n", "line 4: registry line has a non-integer"),
    ],
)
def test_registry_reader_refusals(tmp_path, text, message):
    path = tmp_path / "reg.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_registry(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("2\n", "line 1: state header 'n d' has 1 entries"),
        ("2 2\n0 0 ^\n", "line 2: amplitude line has a non-integer entry: '0 0 \\^'"),
        ("2 2\n0 0 0 ^1\n", "line 2: amplitude line has 4 entries, expected 3"),
        ("2 99999999999999999999\n0 0 ^0\n", "invalid shape"),  # was StopIteration
    ],
)
def test_state_reader_refusals(text, message):
    with pytest.raises(ValueError, match=message):
        state_from_text(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("2 1 2\n1 1\n", "line 1: code header 'n m p r' has 3 entries"),
        ("2 1 3 3\n1,,0 1\n", "line 2: entry '1,,0' has a non-integer entry"),
        ("2 1 3 2\n1, 1\n", "line 2: entry '1,' has a non-integer entry"),
        ("2 1 3 2\n1,0,1 1\n", "line 2: entry '1,0,1' has 3 entries, expected 2"),
        ("2 1 2 100000\n1 1\n", "exceeds enumeration budget"),  # formed 2^100000 before
        ("2 -1 2 1\n", "has 0 rows after its header, expected -1"),
    ],
)
def test_code_reader_refusals(text, message):
    with pytest.raises(ValueError, match=message):
        code_from_text(text)


_VALID = [
    state_to_text(PureState(2, 3, {(0, 0): CycInt(3, (1, 2, 0)), (1, 2): root_power(3, 1)})),
    state_to_text(state_from_matrix(read_witness(fixture_path("witness_2x2_d4.txt")))),
    witness_to_text(read_witness(fixture_path("witness_6x6_d2.txt"))),
    code_to_text(reed_solomon(get_field(3, 2), 4, 2)),
    code_to_text(reed_solomon(get_field(5), 4, 2)),
    _REGISTRY_LINES,
]
_TOKEN = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["^", "^1", "^-3", "x", "1.5", ",", "1,", ",1", "1,,0", "0,1", "2,1,0", "-", "#",
                     "method=random", "seed=-", "index=x", str(2**64), str(-(2**63) - 1), "9" * 30]),
)


@st.composite
def _soup(draw):
    """Token soup: random lines, or a valid file of any format with a few lines or tokens changed."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(st.lists(_TOKEN, max_size=8).map(" ".join), max_size=10)))
    lines = [ln.split() for ln in draw(st.sampled_from(_VALID)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop line", "repeat line", "drop token", "add token", "replace token"]))
        if op == "drop line":
            del lines[i]
        elif op == "repeat line":
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if op == "drop token":
                del lines[i][j]
            else:
                lines[i][j : j + (op == "replace token")] = [draw(_TOKEN)]
        if not lines:
            break
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


@pytest.mark.parametrize("reader", ["state", "witness", "code", "registry"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_soup())
@example(text="# only comments\n\n# more\n")
@example(text="2 2 1 random 0\n")
@example(text="2 0 1\n0 1\n1 0\n")
@example(text="2 99999999999999999999\n0 0 ^0\n")
def test_readers_raise_only_value_or_overflow_errors(tmp_path, reader, text):
    path = tmp_path / "in.txt"
    path.write_text(text)
    parse = {"state": read_state, "witness": read_witness, "code": read_code, "registry": read_registry}[reader]
    try:
        parse(path)
    except (ValueError, OverflowError):
        pass


def _same_state(a, b):
    return (
        (a.n, a.d) == (b.n, b.d)
        and np.array_equal(a.keys, b.keys)
        and (a.exponents is None) == (b.exponents is None)
        and (a.exponents is None or np.array_equal(a.exponents, b.exponents))
        and a.values == b.values
    )


@st.composite
def _state_and_edit(draw):
    """A state with root-only, coefficient-only or mixed amplitudes, and a few random edits to its text."""
    kind = draw(st.sampled_from(["exponent", "coefficient", "mixed"]))
    d = draw(st.sampled_from([2, 3, 4, 6, 9] + ([2**40 + 15] if kind == "exponent" else [])))
    n = draw(st.integers(1, 6))
    keys = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * n), min_size=1, max_size=12, unique=True))
    if kind == "exponent":  # no CycInt: root_power(d, e) would hold d coefficients
        state = PureState.from_phases(n, d, {key: draw(st.integers(-2 * d, 2 * d)) for key in keys})
    else:
        coeffs = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(lambda c: CycInt(d, tuple(c)))
        amp = coeffs if kind == "coefficient" else st.one_of(st.integers(0, d - 1).map(lambda e: root_power(d, e)), coeffs)
        amps = {key: draw(amp) for key in keys}
        assume(not all(a.is_zero() for a in amps.values()))
        state = PureState(n, d, amps)
    text = state_to_text(state)
    rows = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows)))
        op = draw(st.sampled_from(["comment", "blank", "repeat", "drop line", "zero", "move caret", "split caret",
                                   "drop token", "add token", "replace token"]))
        if op in ("comment", "blank"):
            rows.insert(i, ["#", "note"] if op == "comment" else [])
        elif i == len(rows) or not rows[i]:
            continue
        elif op == "repeat":
            rows.insert(i, list(rows[i]))
        elif op == "drop line":
            del rows[i]
        elif op == "zero":  # a zero amplitude, which PureState drops
            rows[i][n:] = ["0"] * len(rows[i][n:])
        elif op == "move caret":
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i] = [("^" if k == j else "") + t.lstrip("^") for k, t in enumerate(rows[i])]
        elif op == "split caret":
            rows[i] = [u for t in rows[i] for u in (["^", t[1:]] if t.startswith("^") else [t])]
        else:
            j = draw(st.integers(0, len(rows[i]) - 1))
            if op == "drop token":
                del rows[i][j]
            else:
                tokens = ["^", "^1", "^-3", "^^1", "0", "-", "1-2", "0^1", "99999999999999999999", "x"]
                rows[i][j : j + (op == "replace token")] = [draw(st.sampled_from(tokens))]
    return state, text, "\n".join(map(" ".join, rows)) + draw(st.sampled_from(["", "\n"]))


def _text_line_by_line(state):
    """The state writer's output, rendered one amplitude line at a time."""
    lines = [f"{state.n} {state.d}"]
    for key, amp in zip(state.keys.tolist(), state._amplitudes()):
        e = amp.root_exponent()
        lines.append(" ".join(map(str, key)) + " " + (f"^{e}" if e is not None else " ".join(map(str, amp.coeffs))))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_state_and_edit())
def test_state_text_roundtrip_and_array_parse_matches_walk(case):
    state, text, edited = case
    if state.d < 2**40:
        assert text == _text_line_by_line(state)
    assert _same_state(state_from_text(text), state)
    assert state_to_text(state_from_text(text)) == text
    # the array parse takes only what the per-line walk takes, with an equal state
    for t in (text, edited):
        fast, walk = _state_table(t), _outcome(_state_walk, t)
        if fast is not None:
            assert isinstance(walk, PureState) and _same_state(fast, walk)
        got = _outcome(state_from_text, t)
        assert got == walk if not isinstance(walk, PureState) else _same_state(got, walk)


@pytest.mark.parametrize(
    "text,message",
    [
        ("2 2\n0 ^0 1\n", "line 2: amplitude line has 3 entries, expected 4"),  # a caret outside the last token
        ("2 2\n0 0 ^ 1\n", "line 2: amplitude line has a non-integer entry"),
        ("2 2\n0 0 ^1\n1 1 0\n", "line 3: amplitude line has 3 entries, expected 4"),  # a row lost its caret
        ("2 2\n", "state has no nonzero amplitude"),  # an empty body, with warnings as errors
        # a repeated basis string whose first amplitude is zero, which PureState would drop
        ("2 2\n0 0 0 0\n0 0 1 0\n", "line 3: basis string repeated"),
    ],
)
def test_state_array_parse_traps(text, message):
    assert _state_table(text) is None
    with pytest.raises(ValueError, match=message):
        state_from_text(text)


def test_state_comment_between_rows_is_skipped():
    plain = "2 2\n0 0 ^0\n1 1 ^1\n"
    assert _same_state(state_from_text("2 2\n0 0 ^0\n# note\n1 1 ^1\n"), state_from_text(plain))
