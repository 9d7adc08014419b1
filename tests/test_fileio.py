import numpy as np
import pytest

from kuniform.cyclotomic import CycInt, root_power
from kuniform.codes import LinearCode, reed_solomon
from kuniform.fields import get_field
from kuniform.fileio import (
    code_from_text,
    code_to_text,
    read_code,
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
