"""GF(p^r) encodings, trace-orthogonal bases and expanded codes pinned by golden files.

The files in tests/data/fields/ fix, for every prime power q <= 2^12, the
modulus, the generator and digests of the exp and trace tables; the bases
find_trace_orthogonal_basis returns at seeds 0, 3 and 11; and the
reed_solomon(q, q // 2) generators over GF(4), GF(8), GF(9), GF(16) and
GF(25) with both of their expansions, in the code file format.  Everything
is read through public methods, one element at a time.  A deliberate change
of encoding means regenerating the files:

    PYTHONPATH=src python tests/test_field_goldens.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from kuniform.codes import expand_code, reed_solomon
from kuniform.fields import GF, find_trace_orthogonal_basis, get_field
from kuniform.fileio import code_to_text
from kuniform.modular import is_prime

GOLDEN = Path(__file__).parent / "data" / "fields"
MAX_Q = 1 << 12
BASIS_PAIRS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]
BASIS_SEEDS = [0, 3, 11]
RS_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]


def _prime_powers(limit):
    for p in filter(is_prime, range(2, limit + 1)):
        r = 1
        while p**r <= limit:
            yield p, r
            r += 1


def _digest(values) -> str:
    return hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()[:16]


def field_record(p, r):
    f = GF(p, r)
    return {
        "p": p,
        "r": r,
        "modulus": list(f.modulus),
        "generator": f.generator,
        "exp": _digest(f.pow(f.generator, i) for i in range(f.q - 1)),
        "trace": _digest(f.trace(a) for a in range(f.q)),
    }


def basis_record(p, r, seed):
    b = find_trace_orthogonal_basis(p, r, seed=seed)
    return {"p": p, "r": r, "seed": seed, "basis": list(b.basis), "weights": list(b.weights)}


def rs_texts(p, r):
    """{file name: code file text} for RS[q, q // 2] over GF(p^r) and its two expansions."""
    f = get_field(p, r)
    rs = reed_solomon(f, f.q, f.q // 2)
    basis = find_trace_orthogonal_basis(p, r)
    stem = f"rs_{p}_{r}"
    return {
        f"{stem}.txt": code_to_text(rs),
        f"{stem}_primal.txt": code_to_text(expand_code(rs, basis, "primal")),
        f"{stem}_dual.txt": code_to_text(expand_code(rs, basis, "dual")),
    }


def _dump(records) -> str:
    return "[\n" + ",\n".join(json.dumps(rec) for rec in records) + "\n]\n"


def _load(name):
    return json.loads((GOLDEN / name).read_text())


def test_field_tables_match_golden():
    want = _load("tables.json")
    assert [(w["p"], w["r"]) for w in want] == list(_prime_powers(MAX_Q))
    for w in want:
        assert field_record(w["p"], w["r"]) == w


def test_trace_orthogonal_bases_match_golden():
    want = _load("bases.json")
    assert len(want) == len(BASIS_PAIRS) * len(BASIS_SEEDS)
    for w in want:
        assert basis_record(w["p"], w["r"], w["seed"]) == w


@pytest.mark.parametrize("p,r", RS_FIELDS)
def test_reed_solomon_expansions_match_golden(p, r):
    for name, text in rs_texts(p, r).items():
        assert text == (GOLDEN / name).read_text(), name


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    tables = [field_record(p, r) for p, r in _prime_powers(MAX_Q)]
    (GOLDEN / "tables.json").write_text(_dump(tables))
    bases = [basis_record(p, r, s) for p, r in BASIS_PAIRS for s in BASIS_SEEDS]
    (GOLDEN / "bases.json").write_text(_dump(bases))
    for p, r in RS_FIELDS:
        for name, text in rs_texts(p, r).items():
            (GOLDEN / name).write_text(text)
