"""In-memory span recorder wrapped around kuniform's module boundaries.

The package imports its collaborators with ``from .x import y``, so a caller
looks a function up in its own module namespace.  ``Tracer`` therefore
replaces the function at every binding a caller uses (listed in
``BINDINGS``), records one span per call, and puts the original objects back
on ``uninstall``.  Nothing inside the package is changed or called privately:
what a span knows about a call (path, level class, work done) is worked out
from the call's public arguments and result after the call has returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from math import comb


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Spans kept in memory; a span's parent is the innermost span open in its thread.

    A span opened in a pool worker with nothing open in its own thread takes
    the innermost span of the thread that created the recorder as parent:
    the package only starts pools from that thread and waits for them there.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    def dump(self, fp, **labels) -> None:
        """Write the spans to fp as one JSON line, with labels as extra keys."""
        fp.write(json.dumps({**labels, "spans": [asdict(s) for s in self.spans]}) + "\n")


# --- what a span records about its call, worked out after it returns ----------

def _search(a, result):
    n, d, budget = a["n"], a["d"], a["budget"]
    if result is not None:
        cands = result.provenance.index + 1
    elif budget.mode == "exhaustive":
        cands = d ** (n * (n - 1) // 2)
    else:
        cands = budget.max_candidates
    return {"level": "binary" if d == 2 else "qudit", "cands": cands, "hit": result is not None}


def _verify(a, report):
    state, k = a["state"], a["k"]
    n, d, support = state.n, state.d, len(state)
    if state.phase_map() is None:
        path = "generic"
    else:
        path = "phase_full" if support == d**n else "phase_sparse"
    subsets = comb(n, k)
    if not report.uniform:
        subsets = _subset_rank(report.failing_subset, n) + 1
    return {"path": path, "ket_subsets": support * subsets}


def _subset_rank(subset, n):
    """Position of a k-subset in lexicographic order of the k-subsets of range(n)."""
    k, rank, prev = len(subset), 0, -1
    for i, s in enumerate(subset):
        for v in range(prev + 1, s):
            rank += comb(n - 1 - v, k - 1 - i)
        prev = s
    return rank


def _kets(a, state):
    return {"kets": len(state)}


def _words(a, result):
    code = a["code"]
    return {"field": "prime" if code.r == 1 else "ext", "words": code.field.q ** code.m}


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _exit(a, code):
    return {"exit": code}


# span name, module owning the function, attribute, modules (or the class
# "states.PureState") whose binding is wrapped, and what the span records.
BINDINGS = [
    ("search.table_scan", "search", "table_scan", ("search", "cli", ""), None),
    ("search.search_witness", "search", "search_witness", ("search", "cli", ""), _search),
    ("search.recheck", "matrices", "check_certificate", ("search",), None),
    ("matrices.cert", "matrices", "check_certificate", ("matrices", ""), None),
    ("matrices.state_from_matrix", "matrices", "state_from_matrix", ("matrices", "cli", ""), _kets),
    ("matrices.all_phases", "matrices", "all_phases", ("matrices",), None),
    ("modular.rank", "modular", "rank_mod_p", ("modular", "matrices", "fields", ""), None),
    ("modular.invertible", "modular", "invertible_mod_d", ("modular", "matrices", ""), None),
    ("states.from_phases", "states.PureState", "from_phases", ("states.PureState",), None),
    ("states.verify", "states", "verify_uniform", ("states", "cli", ""), _verify),
    ("states.max_uniformity", "states", "max_uniformity", ("states", "cli", ""), None),
    ("cyclotomic.zero_test", "cyclotomic", "zero_test", ("cyclotomic", ""), None),
    ("codes.min_distance", "codes", "min_distance", ("codes", ""), _words),
    ("codes.certified_k", "codes", "certified_k", ("codes", "cli"), None),
    ("codes.state_from_code", "codes", "state_from_code", ("codes", "cli", ""), _words),
    ("codes.dual_code", "codes", "dual_code", ("codes", "cli", ""), None),
    ("codes.expand_code", "codes", "expand_code", ("codes", "cli", ""), None),
    ("fields.rref", "fields", "rref_over_field", ("fields", "codes"), None),
    ("fields.null_space", "fields", "null_space_over_field", ("fields", "codes"), None),
    ("fields.basis", "fields", "find_trace_orthogonal_basis", ("fields", "cli", ""), None),
    ("fileio.read", "fileio", "read_state", ("fileio",), _file_bytes),
    ("fileio.read", "fileio", "read_code", ("fileio",), _file_bytes),
    ("fileio.read", "fileio", "read_witness", ("fileio",), _file_bytes),
    ("fileio.write", "fileio", "write_state", ("fileio",), _file_bytes),
    ("fileio.write", "fileio", "write_code", ("fileio",), _file_bytes),
    ("fileio.write", "fileio", "write_witness", ("fileio",), _file_bytes),
    ("cli.main", "cli", "main", ("cli",), _exit),
]


def _owner(where: str):
    if where == "states.PureState":
        return importlib.import_module("kuniform.states").PureState
    return importlib.import_module("kuniform." + where if where else "kuniform")


def _wrap(recorder: Recorder, name: str, fn, describe):
    sig = inspect.signature(fn) if describe else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if describe:
            recorder.spans[idx].attrs = describe(sig.bind(*args, **kwargs).arguments, result)
        return result

    return traced


class Tracer:
    """Installs span-recording wrappers at every binding in BINDINGS."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, home, attr, wheres, describe in BINDINGS:
                original = vars(_owner(home))[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(_wrap(self.recorder, name, original.__func__, describe))
                else:
                    wrapped = _wrap(self.recorder, name, original, describe)
                for where in wheres:
                    owner = _owner(where)
                    if vars(owner).get(attr) is not original:
                        raise RuntimeError(f"{where}.{attr} is not the function the tracer expects")
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# --- per-layer metrics from one traced repetition ------------------------------

def _self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _has_ancestor(spans, s, names) -> bool:
    p = s.parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


# metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "search_cands_per_s": "cands/s",
    "codewords_per_s": "words/s",
    "search.binary.cands_per_s": "cands/s",
    "search.qudit.cands_per_s": "cands/s",
    "search.self_s": "s",
    "search.recheck_calls": "count",
    "search.recheck_s": "s",
    "search.hit_ratio": "ratio",
    "modular.rank_calls": "count",
    "modular.rank_s": "s",
    "modular.invertible_calls": "count",
    "modular.invertible_s": "s",
    "matrices.state_build_s": "s",
    "matrices.all_phases_s": "s",
    "matrices.kets_per_s": "kets/s",
    "matrices.cert_calls": "count",
    "matrices.cert_s": "s",
    "states.from_phases_s": "s",
    "states.verify.phase_full.ket_subsets_per_s": "ket_subsets/s",
    "states.verify.phase_full_s": "s",
    "states.verify.phase_sparse.ket_subsets_per_s": "ket_subsets/s",
    "states.verify.phase_sparse_s": "s",
    "states.verify.generic_s": "s",
    "cyclotomic.zero_tests": "count",
    "cyclotomic.zero_test_s": "s",
    "codes.prime.words_per_s": "words/s",
    "codes.ext.words_per_s": "words/s",
    "codes.min_distance_calls": "count",
    "codes.min_distance_calls_per_state": "calls/state",
    "codes.dual_code_s": "s",
    "codes.expand_s": "s",
    "fields.rref_calls": "count",
    "fields.rref_s": "s",
    "fields.basis_s": "s",
    "fileio.read_s": "s",
    "fileio.write_s": "s",
    "fileio.mb_per_s": "MB/s",
    "cli.self_s": "s",
    "cli.bad_exits": "count",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every metric in LAYER_UNITS from the spans of one repetition (0 where a layer did not run)."""
    selfs = _self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + st

    def by(name, key, value, work_key):
        """Summed work and duration of the spans called name whose attrs[key] is value."""
        work = secs = 0.0
        for s in spans:
            if s.name == name and s.attrs[key] == value:
                work += s.attrs[work_key]
                secs += s.end - s.start
        return work, secs

    search = [s for s in spans if s.name == "search.search_witness"]
    cands = sum(s.attrs["cands"] for s in search)
    hits = sum(s.attrs["hit"] for s in search)
    code_spans = {"codes.min_distance", "codes.state_from_code"}
    words = word_s = 0.0
    for s in spans:
        if s.name in code_spans:
            words += s.attrs["words"]
            if not _has_ancestor(spans, s, code_spans):
                word_s += s.end - s.start
    verify = {path: by("states.verify", "path", path, "ket_subsets") for path in ("phase_full", "phase_sparse", "generic")}
    file_bytes = sum(s.attrs["bytes"] for s in spans if s.name.startswith("fileio."))
    file_s = total.get("fileio.read", 0.0) + total.get("fileio.write", 0.0)
    kets = sum(s.attrs["kets"] for s in spans if s.name == "matrices.state_from_matrix")
    build_s = total.get("matrices.state_from_matrix", 0.0)
    recheck = calls.get("search.recheck", 0)
    states_built = calls.get("codes.state_from_code", 0)

    return {
        "search_cands_per_s": _rate(cands, total.get("search.search_witness", 0.0)),
        "codewords_per_s": _rate(words, word_s),
        "search.binary.cands_per_s": _rate(*by("search.search_witness", "level", "binary", "cands")),
        "search.qudit.cands_per_s": _rate(*by("search.search_witness", "level", "qudit", "cands")),
        "search.self_s": self_s.get("search.search_witness", 0.0) + self_s.get("search.table_scan", 0.0),
        "search.recheck_calls": recheck,
        "search.recheck_s": total.get("search.recheck", 0.0),
        "search.hit_ratio": hits / recheck if recheck else 0.0,
        "modular.rank_calls": calls.get("modular.rank", 0),
        "modular.rank_s": total.get("modular.rank", 0.0),
        "modular.invertible_calls": calls.get("modular.invertible", 0),
        "modular.invertible_s": total.get("modular.invertible", 0.0),
        "matrices.state_build_s": build_s,
        "matrices.all_phases_s": total.get("matrices.all_phases", 0.0),
        "matrices.kets_per_s": _rate(kets, build_s),
        "matrices.cert_calls": calls.get("matrices.cert", 0),
        "matrices.cert_s": total.get("matrices.cert", 0.0),
        "states.from_phases_s": total.get("states.from_phases", 0.0),
        "states.verify.phase_full.ket_subsets_per_s": _rate(*verify["phase_full"]),
        "states.verify.phase_full_s": verify["phase_full"][1],
        "states.verify.phase_sparse.ket_subsets_per_s": _rate(*verify["phase_sparse"]),
        "states.verify.phase_sparse_s": verify["phase_sparse"][1],
        "states.verify.generic_s": verify["generic"][1],
        "cyclotomic.zero_tests": calls.get("cyclotomic.zero_test", 0),
        "cyclotomic.zero_test_s": total.get("cyclotomic.zero_test", 0.0),
        "codes.prime.words_per_s": _rate(*by("codes.min_distance", "field", "prime", "words")),
        "codes.ext.words_per_s": _rate(*by("codes.min_distance", "field", "ext", "words")),
        "codes.min_distance_calls": calls.get("codes.min_distance", 0),
        "codes.min_distance_calls_per_state": (
            calls.get("codes.min_distance", 0) / states_built if states_built else 0.0
        ),
        "codes.dual_code_s": total.get("codes.dual_code", 0.0),
        "codes.expand_s": total.get("codes.expand_code", 0.0),
        "fields.rref_calls": calls.get("fields.rref", 0),
        "fields.rref_s": total.get("fields.rref", 0.0),
        "fields.basis_s": total.get("fields.basis", 0.0),
        "fileio.read_s": total.get("fileio.read", 0.0),
        "fileio.write_s": total.get("fileio.write", 0.0),
        "fileio.mb_per_s": _rate(file_bytes / 1e6, file_s),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.bad_exits": sum(1 for s in spans if s.name == "cli.main" and s.attrs["exit"] != 0),
    }
