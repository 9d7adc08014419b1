"""Text file formats: states, witness matrices, codes, and the search registry.

state file     header "n d", then one line per nonzero amplitude: n basis
               digits followed either by "^e" (amplitude zeta_d^e, written
               whenever possible) or by d integer coefficients.
witness file   header "n d k", n matrix rows, "# method=M seed=S index=I".
code file      header "n m p r", then m generator rows; an entry is r
               comma-separated base-p digits (a plain digit when r = 1).
registry       append-only; per witness, "n d k method seed index" + triangle.

Writers' output re-parses to an equal value; "-" is an absent seed or index.
The readers share one record layer -- _records, _ints and _header_body -- so
each refuses, with a ValueError naming the line, an empty file, a wrong token
count, a non-integer token and a missing or extra row (an integer past int64
may raise OverflowError).  The state reader also refuses a repeated basis
string; the code reader an entry of neither 1 nor r digits or a digit
outside 0..p-1; the registry reader a line of fewer than six fields or
whose witness SymWitness refuses.

A state file is first read as one int64 table (np.loadtxt) whose rows are
all compact or all coefficient rows; it takes only files the per-line walk
would accept, and returns the same state.  Anything else -- a comment, a
mixed file, an irregular caret, any refusal -- goes to the walk, so every
message is the walk's, unchanged.  Either reader hands PureState its
exponents or one table of coefficient rows, a compact row e there being
the root zeta^e.  The writer renders each distinct digit and exponent to
a string once, and a coefficient row of a single root as "^e".
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codes import LinearCode
from .fields import get_field
from .matrices import Provenance, SymWitness, upper_triangle_to_matrix
from .modular import digits, from_digits
from .states import PureState, _root_exponents


class _Line(NamedTuple):
    no: int  # counted from 1
    text: str  # stripped
    tokens: list[str]

    def error(self, msg: str) -> ValueError:
        return ValueError(f"line {self.no}: {msg}: {self.text!r}")


def _records(text: str) -> tuple[list[_Line], list[_Line]]:
    """The data lines and the '#' comment lines of a text, blank lines dropped."""
    data, comments = [], []
    for no, raw in enumerate(text.splitlines(), 1):
        if line := raw.strip():
            (comments if line.startswith("#") else data).append(_Line(no, line, line.split()))
    return data, comments


def _count(line: _Line, tokens: list[str], count: int, what: str) -> list[str]:
    if len(tokens) != count:
        raise line.error(f"{what} has {len(tokens)} entries, expected {count}")
    return tokens


def _ints(line: _Line, tokens: list[str], count: int, what: str) -> list[int]:
    """Exactly count integer tokens, or a ValueError naming the line."""
    _count(line, tokens, count, what)
    try:
        return list(map(int, tokens))
    except ValueError:
        raise line.error(f"{what} has a non-integer entry") from None


def _header_body(text: str, kind: str, fields: str, rows: str | None = None):
    """(header integers, body lines, comments) of a kind file; rows names the header field counting the body."""
    data, comments = _records(text)
    if not data:
        raise ValueError(f"no data in {kind} file")
    names, body = fields.split(), data[1:]
    head = _ints(data[0], data[0].tokens, len(names), f"{kind} header '{fields}'")
    want = head[names.index(rows)] if rows else len(body)
    if not 0 <= want <= len(body):
        raise ValueError(f"{kind} file has {len(body)} rows after its header, expected {want}")
    if len(body) > want:
        raise body[want].error(f"line after the {want} {kind} rows")
    return head, body, comments


# --- states -------------------------------------------------------------------

def state_to_text(state: PureState) -> str:
    if state.exponents is not None:
        exps, inv = np.unique(state.exponents, return_inverse=True)
        amps = np.array([f"^{e}\n" for e in exps.tolist()], dtype=object)[inv]
    else:
        amps = np.array([
            (" ".join(map(str, c)) if e < 0 else f"^{e}") + "\n"
            for c, e in zip(state.coeffs.tolist(), _root_exponents(state.coeffs).tolist())
        ], dtype=object)
    # one string per distinct digit, each token carrying the separator that follows it
    vals, inv = np.unique(state.keys, return_inverse=True)
    keys = np.array([f"{v} " for v in vals.tolist()], dtype=object)[inv.reshape(state.keys.shape)]
    return f"{state.n} {state.d}\n" + "".join(np.column_stack([keys, amps]).ravel().tolist())


# A state file the array parse takes: digits, '-', '^', spaces and newlines only,
# every caret starting the last token of its line and followed by an integer.
_STATE_CHARS = re.compile(r"[0-9 ^\n-]*")
_CARET = re.compile(r" \^-?[0-9]+ *(?:\n|\Z)")


def _state_table(text: str) -> PureState | None:
    """The state of a text parsed as one int64 table, or None where the per-line walk must decide.

    All rows compact give a (rows, n+1) table, all coefficient rows a
    (rows, n+d) table; a file mixing them, holding a comment or another
    character, or refused anywhere here goes to _state_walk, which then
    accepts or names the line exactly as it would on its own.
    """
    head, _, body = text.partition("\n")
    if not _STATE_CHARS.fullmatch(text) or not body.strip():
        return None
    carets = body.count("^")
    try:
        n, d = map(int, head.split())
        if len(_CARET.findall(body)) != carets:
            return None
        table = np.loadtxt(io.StringIO(body.replace("^", " ")), dtype=np.int64, comments=None, ndmin=2)
        rows, cols = table.shape
        keys = table[:, :n]
        if carets == rows and cols == n + 1:
            return PureState._from_arrays(n, d, keys, exponents=table[:, n])
        # zero amplitudes are dropped before PureState looks for a repeated basis string
        if carets == 0 and cols == n + d and len(np.unique(keys, axis=0)) == rows:
            return PureState._from_arrays(n, d, keys, coeffs=table[:, n:])
    except (ValueError, OverflowError):
        pass
    return None


def _state_walk(text: str) -> PureState:
    """The per-line reference reader: every refusal names its line."""
    (n, d), body, _ = _header_body(text, "state", "n d")
    amps = {}
    for line in body:
        *front, last = line.tokens
        compact = last.startswith("^")  # n digits and "^e", else n digits and d coefficients
        values = _ints(line, [*front, last.removeprefix("^")], n + (1 if compact else d), "amplitude line")
        if not compact and d < 2:
            raise ValueError(f"invalid level {d}")  # the level a row of d coefficients needs
        if (key := tuple(values[:n])) in amps:
            raise line.error("basis string repeated")
        amps[key] = values[n] if compact else values[n:]
    if all(isinstance(e, int) for e in amps.values()):
        return PureState._from_arrays(n, d, list(amps), exponents=list(amps.values()))
    rows = [[int(j == amp % d) for j in range(d)] if isinstance(amp, int) else amp for amp in amps.values()]
    return PureState._from_arrays(n, d, list(amps), coeffs=np.array(rows, dtype=object))


def state_from_text(text: str) -> PureState:
    state = _state_table(text)
    return _state_walk(text) if state is None else state


def write_state(path, state: PureState) -> None:
    Path(path).write_text(state_to_text(state))


def read_state(path) -> PureState:
    return state_from_text(Path(path).read_text())


# --- witnesses ------------------------------------------------------------------

def _provenance_tokens(prov: Provenance) -> list[str]:
    return [prov.method] + ["-" if v is None else str(v) for v in (prov.seed, prov.index)]


def _provenance_from_tokens(line: _Line, method: str, seed: str, index: str) -> Provenance:
    seed, index = (None if t == "-" else _ints(line, [t], 1, "seed or index")[0] for t in (seed, index))
    return Provenance(method, seed, index)


def witness_to_text(w: SymWitness) -> str:
    lines = [f"{w.n} {w.d} {w.k}"] + [" ".join(str(int(x)) for x in row) for row in w.H]
    lines.append("# method={} seed={} index={}".format(*_provenance_tokens(w.provenance)))
    return "\n".join(lines) + "\n"


def witness_from_text(text: str) -> SymWitness:
    (n, d, k), body, comments = _header_body(text, "witness", "n d k", rows="n")
    rows = [_ints(line, line.tokens, n, f"matrix row {i}") for i, line in enumerate(body, 1)]
    prov = Provenance("fixture")
    for line in comments:
        fields = dict(part.split("=", 1) for part in line.text[1:].split() if "=" in part)
        if "method" in fields:
            prov = _provenance_from_tokens(line, *(fields.get(key, "-") for key in ("method", "seed", "index")))
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
    (n, m, p, r), body, _ = _header_body(text, "code", "n m p r", rows="m")
    field = get_field(p, r)
    rows = []
    for line in body:
        row = []
        for entry in _count(line, line.tokens, n, "generator row"):
            coeffs = entry.split(",")
            row += _ints(line, coeffs + ["0"] * (r - 1) if len(coeffs) == 1 else coeffs, r, f"entry {entry!r}")
        if not all(0 <= c < p for c in row):
            raise line.error(f"digit outside 0..{p - 1}")
        rows.append(row)
    g = from_digits(np.array(rows, dtype=np.int64).reshape(m, n, r)[..., ::-1], p)
    return LinearCode(field, g)


def write_code(path, code: LinearCode) -> None:
    Path(path).write_text(code_to_text(code))


def read_code(path) -> LinearCode:
    return code_from_text(Path(path).read_text())


# --- search registry --------------------------------------------------------------

def append_registry(path, w: SymWitness) -> None:
    fields = [w.n, w.d, w.k, *_provenance_tokens(w.provenance), *w.upper_triangle()]
    with open(path, "a") as fp:
        fp.write(" ".join(map(str, fields)) + "\n")


def read_registry(path) -> list[SymWitness]:
    out = []
    for line in _records(Path(path).read_text())[0]:
        head = _count(line, line.tokens[:6], 6, "registry line 'n d k method seed index'")
        n, d, k = _ints(line, head[:3], 3, "registry line")
        tri = _ints(line, line.tokens[6:], n * (n - 1) // 2, "upper triangle")
        prov = _provenance_from_tokens(line, *head[3:])
        try:
            out.append(SymWitness(n=n, d=d, H=upper_triangle_to_matrix(tri, n, d), k=k, provenance=prov))
        except (ValueError, OverflowError) as exc:
            raise line.error(str(exc)) from None
    return out
