"""Text file formats: states, witness matrices, codes, and the search registry.

Every writer's output re-parses to an equal in-memory value.  Lines starting
with '#' are comments everywhere; the witness format uses one to carry
provenance, which round-trips too.  Readers refuse data they would not use
(a line past the declared rows, a token after an amplitude) with a
ValueError naming the line.

state file     header "n d", then one line per nonzero amplitude: n basis
               digits followed either by "^e" (amplitude zeta_d^e, written
               whenever possible) or by d integer coefficients.
witness file   header "n d k", then n matrix rows, then a provenance comment.
code file      header "n m p r", then m generator rows; an entry is r
               comma-separated base-p digits (a plain digit when r = 1).
registry       append-only; one witness per line:
               n d k method seed index then the upper-triangle entries.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .codes import LinearCode
from .cyclotomic import CycInt, root_power
from .fields import get_field
from .matrices import Provenance, SymWitness, upper_triangle_to_matrix
from .modular import digits, from_digits
from .states import PureState


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


# --- states -------------------------------------------------------------------

def state_to_text(state: PureState) -> str:
    if state.exponents is not None:
        amps = [f"^{e}" for e in state.exponents.tolist()]
    else:
        amps = [
            " ".join(str(c) for c in amp.coeffs) if (e := amp.root_exponent()) is None else f"^{e}"
            for amp in state.values
        ]
    lines = [f"{state.n} {state.d}"]
    lines += [" ".join(str(x) for x in key) + " " + amp for key, amp in zip(state.keys.tolist(), amps)]
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> PureState:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty state file")
    n, d = (int(x) for x in lines[0].split())
    keys, amps, seen = [], [], set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) < n + 1:
            raise ValueError(f"short amplitude line: {line!r}")
        key = tuple(int(x) for x in parts[:n])
        if key in seen:
            raise ValueError(f"basis string repeated in line {line!r}")
        seen.add(key)
        rest = parts[n:]
        if rest[0].startswith("^"):
            if len(rest) != 1:
                raise ValueError(f"data after the amplitude: {line!r}")
            amps.append(int(rest[0][1:]))
        else:
            if len(rest) != d:
                raise ValueError(f"expected {d} coefficients: {line!r}")
            amps.append(CycInt(d, tuple(int(x) for x in rest)))
        keys.append(key)
    if all(isinstance(e, int) for e in amps):
        return PureState._from_arrays(n, d, keys, exponents=amps)
    values = [root_power(d, e) if isinstance(e, int) else e for e in amps]
    return PureState._from_arrays(n, d, keys, values=values)


def write_state(path, state: PureState) -> None:
    Path(path).write_text(state_to_text(state))


def read_state(path) -> PureState:
    return state_from_text(Path(path).read_text())


# --- witnesses ------------------------------------------------------------------

def witness_to_text(w: SymWitness) -> str:
    lines = [f"{w.n} {w.d} {w.k}"]
    for row in w.H:
        lines.append(" ".join(str(int(x)) for x in row))
    prov = w.provenance
    seed = "-" if prov.seed is None else str(prov.seed)
    index = "-" if prov.index is None else str(prov.index)
    lines.append(f"# method={prov.method} seed={seed} index={index}")
    return "\n".join(lines) + "\n"


def witness_from_text(text: str) -> SymWitness:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty witness file")
    data = [ln for ln in lines if not ln.startswith("#")]
    n, d, k = (int(x) for x in data[0].split())
    rows = [[int(x) for x in ln.split()] for ln in data[1 : n + 1]]
    if len(rows) != n:
        raise ValueError(f"expected {n} matrix rows")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"matrix row {i + 1} has {len(row)} entries, expected {n}: {data[i + 1]!r}")
    if len(data) > n + 1:
        raise ValueError(f"line after the {n} matrix rows: {data[n + 1]!r}")
    prov = Provenance("fixture")
    for ln in lines:
        if ln.startswith("#") and "method=" in ln:
            fields = dict(part.split("=", 1) for part in ln[1:].split() if "=" in part)
            seed = fields.get("seed", "-")
            index = fields.get("index", "-")
            prov = Provenance(
                fields.get("method", "fixture"),
                None if seed == "-" else int(seed),
                None if index == "-" else int(index),
            )
    return SymWitness(n=n, d=d, H=np.array(rows), k=k, provenance=prov)


def write_witness(path, w: SymWitness) -> None:
    Path(path).write_text(witness_to_text(w))


def read_witness(path) -> SymWitness:
    return witness_from_text(Path(path).read_text())


# --- codes ----------------------------------------------------------------------

def code_to_text(code: LinearCode) -> str:
    lines = [f"{code.n} {code.m} {code.p} {code.r}"]
    # each entry's base-p digits, least significant first
    entries = digits(code.generator, code.p, code.r)[:, ::-1].reshape(code.m, code.n, code.r)
    lines += [" ".join(",".join(map(str, entry)) for entry in row) for row in entries.tolist()]
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> LinearCode:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty code file")
    n, m, p, r = (int(x) for x in lines[0].split())
    field = get_field(p, r)
    rows = []
    for ln in lines[1 : m + 1]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} entries per row: {ln!r}")
        row = []
        for part in parts:
            coeffs = [int(x) for x in part.split(",")]
            if len(coeffs) not in (1, r):
                raise ValueError(f"bad entry {part!r} for extension degree {r}")
            row.append(coeffs + [0] * (r - len(coeffs)))
        if not all(0 <= c < p for entry in row for c in entry):
            raise ValueError(f"digit outside 0..{p - 1}: {ln!r}")
        rows.append(row)
    if len(rows) != m:
        raise ValueError(f"expected {m} generator rows")
    if len(lines) > m + 1:
        raise ValueError(f"line after the {m} generator rows: {lines[m + 1]!r}")
    g = from_digits(np.array(rows, dtype=np.int64).reshape(m, n, r)[..., ::-1], p)
    return LinearCode(field, g)


def write_code(path, code: LinearCode) -> None:
    Path(path).write_text(code_to_text(code))


def read_code(path) -> LinearCode:
    return code_from_text(Path(path).read_text())


# --- search registry --------------------------------------------------------------

def append_registry(path, w: SymWitness) -> None:
    prov = w.provenance
    seed = "-" if prov.seed is None else str(prov.seed)
    index = "-" if prov.index is None else str(prov.index)
    tri = " ".join(str(x) for x in w.upper_triangle())
    with open(path, "a") as fp:
        fp.write(f"{w.n} {w.d} {w.k} {prov.method} {seed} {index} {tri}\n")


def read_registry(path) -> list[SymWitness]:
    out = []
    for line in _data_lines(Path(path).read_text()):
        parts = line.split()
        n, d, k = int(parts[0]), int(parts[1]), int(parts[2])
        method = parts[3]
        seed = None if parts[4] == "-" else int(parts[4])
        index = None if parts[5] == "-" else int(parts[5])
        tri = [int(x) for x in parts[6:]]
        H = upper_triangle_to_matrix(tri, n, d)
        out.append(SymWitness(n=n, d=d, H=H, k=k, provenance=Provenance(method, seed, index)))
    return out
