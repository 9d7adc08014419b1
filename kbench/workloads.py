"""The benchmark's workloads: fixed job lists over kuniform's public API.

Each workload has a ``setup`` (fields, codes and code files: the inputs the
jobs need) and a ``jobs`` function that runs the job list once through a
``Runner``.  The workload seed drives the search seed and the seed of the
trace-orthogonal basis; everything else is fixed.  Every job carries the
value its result must show, and a job whose result differs, or which
raises, counts as failed without stopping the run.

Sizes come in two sets: ``full`` for measurement and ``tiny`` for the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from kuniform import cli, codes, fields, fileio, matrices, search, states
from kuniform.cyclotomic import CycInt

# Largest certified k per n = 2, 3, ... (the paper's tables, criteria 4 and 5).
EXPECTED_K_ROWS = {2: [1, 1, 1, 2, 3, 2, 3], 3: [1, 1, 2, 2, 3], 4: [1, 1, 1, 2, 3], 9: [1, 1, 2, 2]}
# How the level-2 table labels its misses: a proof ("exhausted") or a spent budget.
EXPECTED_D2_MISSES = {4: [(2, "exhausted")], 7: [(3, "exhausted")], 8: [(4, "budget")]}
# certified_k (k, distance, dual distance) of the expanded RS[n, m] over GF(p^r),
# keyed by (p, r, n, m).
EXPECTED_EXPANDED = {(2, 3, 8, 4): (7, 8, 8), (3, 2, 9, 4): (4, 6, 5),
                     (2, 2, 4, 2): (3, 4, 4), (3, 2, 4, 2): (3, 4, 4)}

SIZES = {
    "full": {
        "d2_table": (range(2, 9), 2**21),
        "d2_search": (12, 4),
        "qudit_tables": ((3, range(2, 7)), (4, range(2, 7)), (9, range(2, 6))),
        "qudit_budget": 10**7,
        "scalar_misses": (((8, 3, 4), 3 * 10**4), ((7, 4, 3), 3 * 10**4)),
        "qudit_search": (6, 5, 3),
        "generic": (4, 5, 2),
        "rs": ((2, 3, 8, 4), (3, 2, 9, 4)),
        "mix_screen_miss": (7, 2, 3),
        "mix_scalar_miss": ((8, 3, 4), 2**16),
    },
    "tiny": {
        "d2_table": (range(2, 6), 2**21),
        "d2_search": (6, 3),
        "qudit_tables": ((3, range(2, 5)), (4, range(2, 5)), (9, range(2, 4))),
        "qudit_budget": 10**5,
        "scalar_misses": (((8, 3, 4), 100), ((7, 4, 3), 100)),
        "qudit_search": (4, 5, 2),
        "generic": (4, 4, 1),
        "rs": ((2, 2, 4, 2), (3, 2, 4, 2)),
        "mix_screen_miss": (4, 2, 2),
        "mix_scalar_miss": ((8, 3, 4), 200),
    },
}


# A shared machine slows down when other tenants load it: the 2-core machine
# of the baseline ran the same job list up to 40% slower for minutes at a
# time, and twice as slow at worst, in CPU time as well as wall time.  A fixed
# memory-bound kernel, timed before every job, slows down with the jobs
# (log-log slope 0.7-1.7 over 55 repetitions of the four workloads).  Each
# repetition's job times are scaled by CALIBRATION_REF_S over the median
# kernel time of that repetition, so they read in seconds of a machine on
# which the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.020
_CAL_KEYS = (np.arange(1_000_000, dtype=np.int64) * 2654435761) % 1_000_003


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now."""
    t0 = time.perf_counter()
    np.bincount(_CAL_KEYS % 65536)
    np.argsort(_CAL_KEYS[:250_000], kind="stable")
    return time.perf_counter() - t0


@dataclass
class Record:
    """One timed job: name, seconds spent in the call, and work it did."""

    name: str
    seconds: float
    work: dict = field(default_factory=dict)


class Runner:
    """Times jobs, checks their results and counts failures.

    ``job`` returns the call's result, or None when the call raised; a
    later job that needs that result then fails in turn, and is counted.
    Checks run outside the timed call.  After the last job, ``finish``
    sets ``scale``, which turns this repetition's seconds into calibrated
    seconds.
    """

    def __init__(self):
        self.records: list[Record] = []
        self.attempted = 0
        self.failed = 0
        self.calibrations: list[float] = []
        self.scale = 1.0

    def finish(self) -> None:
        self.calibrations.append(calibrate())
        self.scale = CALIBRATION_REF_S / statistics.median(self.calibrations)

    def job(self, name, call, expect, observe=lambda r: r, work=None):
        self.attempted += 1
        self.calibrations.append(calibrate())
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:
            self.records.append(Record(name, time.perf_counter() - t0))
            self._fail(name, traceback.format_exc())
            return None
        self.records.append(Record(name, time.perf_counter() - t0))
        try:
            got = observe(result)
            if work is not None:
                self.records[-1].work = work(result)
        except Exception:
            self._fail(name, traceback.format_exc())
            return result
        if got != expect:
            self._fail(name, f"expected {expect!r}, got {got!r}\n")
        return result

    def _fail(self, name, why):
        self.failed += 1
        print(f"kbench: job {name!r} failed: {why}", file=sys.stderr, end="")


def run_cli(argv) -> tuple[int, str]:
    """kuniform's CLI in this process: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _verify_job(run, name, state, k, workers=1, norm_per_ket=1):
    """Oracle check of a state that must be k-uniform with norm = norm_per_ket * support."""
    return run.job(
        name,
        lambda: states.verify_uniform(state, k, workers=workers),
        (True, True),
        lambda r: (r.uniform, r.norm == norm_per_ket * len(state)),
        lambda r: {"ket_subsets": len(state) * math.comb(state.n, k)},
    )


def _found(w, n, d, k):
    return w is not None and (w.n, w.d, w.k) == (n, d, k)


def _build_and_verify(run, w, workers=1):
    """Full-support state of a witness, then the oracle at the witness's k."""
    label = "none" if w is None else f"({w.n},{w.d},{w.k})"
    state = run.job(f"build {label}", lambda: matrices.state_from_matrix(w, workers=workers), True,
                    lambda s: len(s) == w.d**w.n)
    _verify_job(run, f"verify {label}", state, 0 if w is None else w.k, workers)


def _tag(key):
    return "RS[{2},{3}]/GF({0}^{1})".format(*key)


# --- matrix_binary -----------------------------------------------------------

def setup_matrix(seed, size, workdir):
    return {"seed": seed, "p": SIZES[size]}


def jobs_matrix_binary(run: Runner, inp):
    seed, p = inp["seed"], inp["p"]
    ns, budget = p["d2_table"]
    row = EXPECTED_K_ROWS[2][: len(ns)]
    misses = {n: EXPECTED_D2_MISSES.get(n, []) for n in ns}
    cells = run.job(
        "table d=2",
        lambda: search.table_scan(2, ns, max_candidates=budget, seed=seed),
        (row, misses),
        lambda c: ([c[n].best_k for n in ns], {n: c[n].misses for n in ns}),
    ) or {}
    n, k = p["d2_search"]
    w = run.job(
        f"search ({n},2,{k})",
        lambda: search.search_witness(n, 2, k, search.SearchBudget(10**7, seed)),
        True,
        lambda w: _found(w, n, 2, k),
    )
    for witness in [c.witness for c in cells.values()] + [w]:
        _build_and_verify(run, witness)


# --- matrix_qudit ------------------------------------------------------------

def jobs_matrix_qudit(run: Runner, inp):
    seed, p = inp["seed"], inp["p"]
    tables = {}
    for d, ns in p["qudit_tables"]:
        row = EXPECTED_K_ROWS[d][: len(ns)]
        tables[d] = run.job(
            f"table d={d}",
            lambda: search.table_scan(d, ns, max_candidates=p["qudit_budget"], seed=seed),
            row,
            lambda c: [c[n].best_k for n in ns],
        ) or {}
    for (n, d, k), budget in p["scalar_misses"]:
        run.job(f"miss ({n},{d},{k})",
                lambda: search.search_witness(n, d, k, search.SearchBudget(budget, seed)), None)
    n, d, k = p["qudit_search"]
    w = run.job(f"search ({n},{d},{k})",
                lambda: search.search_witness(n, d, k, search.SearchBudget(10**6, seed)),
                True, lambda w: _found(w, n, d, k))
    d9, ns9 = p["qudit_tables"][-1]
    cell9 = tables.get(d9, {}).get(ns9[-1])
    for witness in (w, cell9 and cell9.witness):
        _build_and_verify(run, witness)

    # Generic oracle: every amplitude of a level-4 state times 1 + zeta_4,
    # so no amplitude is a single root of unity.
    d, n, k = p["generic"]
    cell = tables.get(d, {}).get(n)
    one_plus_zeta = CycInt(d, (1, 1) + (0,) * (d - 2))

    def generic_state():
        base = matrices.state_from_matrix(cell.witness)
        return states.PureState(n, d, {key: amp * one_plus_zeta for key, amp in base.amps.items()})

    state = run.job(f"build generic ({n},{d},{k})", generic_state, True, lambda s: len(s) == d**n)
    # |1 + zeta_4|^2 = 2, so the norm is twice the support.
    _verify_job(run, f"verify generic ({n},{d},{k})", state, k, norm_per_ket=2)


# --- code_concat -------------------------------------------------------------

def _rs(p, r, n, m):
    return codes.reed_solomon(fields.get_field(p, r), n, m)


def setup_code_concat(seed, size, workdir):
    rs, paths = {}, {}
    for key in SIZES[size]["rs"]:
        rs[key] = _rs(*key)
        paths[key] = os.path.join(workdir, "rs_{}_{}_{}_{}.txt".format(*key))
        fileio.write_code(paths[key], rs[key])
    return {"seed": seed, "rs": rs, "paths": paths}


def _construct_code_summary(result):
    """(exit code, k, distance, dual distance, kets) from construct-code's output."""
    code, out = result
    dist = re.search(r"distance (\d+), dual distance (\d+)", out)
    k = re.search(r"certified k: (\d+)", out)
    kets = re.search(r"state with (\d+) kets", out)
    return code, int(k.group(1)), int(dist.group(1)), int(dist.group(2)), int(kets.group(1))


def jobs_code_concat(run: Runner, inp):
    seed = inp["seed"]
    for (p, r, n, m), path in inp["paths"].items():
        tag = _tag((p, r, n, m))
        binary, state = path + ".expanded", path + ".state"
        run.job(f"concat {tag}",
                lambda: run_cli(["concat", "--code", path, "--out", binary, "--seed", str(seed)]),
                (0, True), lambda res: (res[0], "duality check: pass" in res[1]))
        run.job(f"construct-code {tag}",
                lambda: run_cli(["construct-code", "--code", binary, "--out", state]),
                (0, *EXPECTED_EXPANDED[(p, r, n, m)], p ** (r * m)), _construct_code_summary)
        run.job(f"verify --k 1 {tag}",
                lambda: run_cli(["verify", "--state", state, "--k", "1"]),
                (0, True), lambda res: (res[0], "k=1: uniform" in res[1]),
                # support p^(rm) times the rn subsets of size 1
                lambda res: {"ket_subsets": p ** (r * m) * r * n})
    (first, rs1), (second, rs2) = inp["rs"].items()
    # Reed-Solomon codes are MDS: distance n - m + 1, dual distance m + 1.
    n, m = first[2:]
    run.job(f"certified_k {_tag(first)}", lambda: codes.certified_k(rs1), (n - m, n - m + 1, m + 1))
    n, m = second[2:]
    run.job(f"min_distance {_tag(second)}", lambda: codes.min_distance(rs2), n - m + 1)


# --- parallel_mix ------------------------------------------------------------

WORKERS = 2


def setup_parallel_mix(seed, size, workdir):
    expanded = {}
    for key in SIZES[size]["rs"]:
        p, r = key[:2]
        basis = fields.find_trace_orthogonal_basis(p, r, seed=seed)
        expanded[key] = codes.expand_code(_rs(*key), basis, "primal")
    return {"seed": seed, "p": SIZES[size], "expanded": expanded, "reference": {}}


def _reference_index(inp, n, d, k, budget):
    """Witness index of the same search at workers=1, computed once per run, untimed."""
    ref = inp["reference"]
    if (n, d, k) not in ref:
        w = search.search_witness(n, d, k, budget)
        ref[(n, d, k)] = None if w is None else w.provenance.index
    return ref[(n, d, k)]


def jobs_parallel_mix(run: Runner, inp):
    seed, p = inp["seed"], inp["p"]
    n, d, k = p["mix_screen_miss"]
    run.job(f"exhaustive miss ({n},{d},{k})",
            lambda: search.search_witness(n, d, k, search.SearchBudget(2**21, seed, "exhaustive"),
                                          workers=WORKERS), None)
    (n, d, k), budget = p["mix_scalar_miss"]
    run.job(f"random miss ({n},{d},{k})",
            lambda: search.search_witness(n, d, k, search.SearchBudget(budget, seed), workers=WORKERS),
            None)
    n, k = p["d2_search"]
    budget = search.SearchBudget(10**7, seed)
    w = run.job(f"search ({n},2,{k})",
                lambda: search.search_witness(n, 2, k, budget, workers=WORKERS),
                True,
                lambda w: w.provenance.index == _reference_index(inp, n, 2, k, budget))
    _build_and_verify(run, w, WORKERS)

    (first, code), (second, code2) = inp["expanded"].items()
    run.job(f"certified_k {_tag(first)} expanded", lambda: codes.certified_k(code, workers=WORKERS),
            EXPECTED_EXPANDED[first])
    state = run.job(f"state_from_code {_tag(first)} expanded",
                    lambda: codes.state_from_code(code, EXPECTED_EXPANDED[first][0], workers=WORKERS),
                    code.p**code.m, len)
    _verify_job(run, f"verify --k 1 {_tag(first)} expanded", state, 1, WORKERS)
    # The [18, 8] ternary code has more than 2^12 words on both sides, so
    # min_distance takes its thread-pool path here.
    run.job(f"certified_k {_tag(second)} expanded", lambda: codes.certified_k(code2, workers=WORKERS),
            EXPECTED_EXPANDED[second])


WORKLOADS = {
    "matrix_binary": (setup_matrix, jobs_matrix_binary),
    "matrix_qudit": (setup_matrix, jobs_matrix_qudit),
    "code_concat": (setup_code_concat, jobs_code_concat),
    "parallel_mix": (setup_parallel_mix, jobs_parallel_mix),
}

