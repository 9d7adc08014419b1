#!/usr/bin/env python3
"""kuniform benchmark: run one workload and print its metrics as JSON.

    python3 kbench/run.py --workload matrix_binary --seed 0 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, never from an installed copy.  The job list of the workload
runs again and again until the next repetition would end after
``--seconds`` (at least twice).  Each job's time is its median over the
repetitions, in calibrated seconds (see ``workloads.calibrate``).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: time of the job list, set-up time (median of several fresh
processes that import the package and build the inputs), peak resident
memory, and oracle throughput.  The uncalibrated job-list time goes to
standard error.  With ``--trace 1`` repetitions alternate
between untraced and traced; the traced ones give the per-layer metrics
(see ``spans.py``), the difference gives the tracing overhead, and the
spans are written to ``.kbench-traces/`` in the checkout.

Every job's result is checked; ``failed`` counts jobs that raised or gave a
wrong result, and ``correct`` is true only when none did.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
MIN_REPS = 2


def _median_job_times(reps, calibrated) -> list[float]:
    """Per-job median (calibrated) seconds, jobs matched by position across repetitions."""
    return [statistics.median(r.records[j].seconds * (r.scale if calibrated else 1.0) for r in reps)
            for j in range(len(reps[0].records))]


def end_to_end(reps, calibrated=True) -> dict[str, float]:
    times = _median_job_times(reps, calibrated)
    records = reps[0].records
    ket_subsets = sum(r.work.get("ket_subsets", 0) for r in records)
    oracle_s = sum(t for r, t in zip(records, times) if "ket_subsets" in r.work)
    return {
        "wall_s": sum(times),
        "oracle_ket_subsets_per_s": ket_subsets / oracle_s if oracle_s > 0 else 0.0,
    }


def measure(workload: str, seed: int, size: str, seconds: float, trace: bool, workdir: str):
    """Repeat the job list for about `seconds`; returns (untraced reps, traced reps)."""
    import spans
    import workloads

    setup, jobs = workloads.WORKLOADS[workload]
    inputs = setup(seed, size, workdir)
    plain, traced = [], []
    start = time.perf_counter()
    rep_s = []
    while True:
        run = workloads.Runner()
        t0 = time.perf_counter()
        if trace and len(plain) > len(traced):
            recorder = spans.Recorder()
            with spans.Tracer(recorder):
                jobs(run, inputs)
            run.recorder = recorder
            traced.append(run)
        else:
            jobs(run, inputs)
            plain.append(run)
        run.finish()
        rep_s.append(time.perf_counter() - t0)
        enough = len(plain) + len(traced) >= MIN_REPS and (not trace or len(traced) >= 1)
        if enough and time.perf_counter() - start + statistics.median(rep_s) > seconds:
            return plain, traced


def setup_seconds(workload: str, seed: int, size: str, scale: float) -> float:
    """Median wall time of fresh processes that import the package and build the inputs, times scale."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--size", size, "--seconds", "0", "--setup-only"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * scale


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "kuniform" / "__init__.py").is_file():
        print(f"kbench: no kuniform sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import kuniform
    import workloads

    if Path(kuniform.__file__).resolve().parent != SRC / "kuniform":
        print(f"kbench: imported kuniform from {kuniform.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"kbench: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".kbench-", dir=ROOT)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload][0](args.seed, args.size, workdir)
            return 0
        plain, traced = measure(args.workload, args.seed, args.size, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if args.trace:
        import spans

        out = ROOT / ".kbench-traces" / f"{args.workload}-seed{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w") as fp:
            for i, r in enumerate(traced):
                r.recorder.dump(fp, workload=args.workload, seed=args.seed, rep=i)
        per_rep = [spans.layer_metrics(r.recorder.spans) for r in traced]
        values = {name: statistics.median(m[name] for m in per_rep) for name in spans.LAYER_UNITS}
        values["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(plain)["wall_s"]
        units = dict(spans.LAYER_UNITS, **{"trace.overhead_s": "s"})
    else:
        values = end_to_end(plain)
        print(f"kbench: uncalibrated wall_s {end_to_end(plain, calibrated=False)['wall_s']}", file=sys.stderr)
        # the probes run right after the repetitions, so their calibration applies
        scale = statistics.median(r.scale for r in plain)
        values["setup_s"] = setup_seconds(args.workload, args.seed, args.size, scale)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "oracle_ket_subsets_per_s": "ket_subsets/s"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
