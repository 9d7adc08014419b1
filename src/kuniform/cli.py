"""Command-line front end.

Subcommands: construct-matrix, construct-code, verify, search, table,
bounds, concat, emit-state.  construct-code turns a code file into a
state, and emit-state renders a witness matrix to one.  Exit codes are a
stable contract:

    0  success
    2  usage or parse error (including out-of-range parameters and
       unreadable or unwritable files)
    3  search exhausted without a find
    4  certificate or verification failure

Commands return 0, 3 or 4 themselves and raise on every other failure.
main is the only place that maps an exception to an exit code: it prints
"error: ..." on stderr and returns 2.  (construct-code alone catches a
failed distance hypothesis, which is its exit 4.)

All randomness enters through --seed (default 0, never wall clock).
"""

from __future__ import annotations

import argparse
import functools
import sys
from decimal import Decimal
from fractions import Fraction

from . import bounds as bounds_mod
from . import fileio
from .codes import HypothesisError, certified_k, dual_code, expand_code, state_from_code
from .fields import find_trace_orthogonal_basis
from .matrices import state_from_matrix
from .search import SearchBudget, search_witness, table_from_registry, table_scan
from .states import TooLargeError, max_uniformity, verify_uniform


def _budget(args) -> SearchBudget:
    return SearchBudget(args.budget, args.seed, args.mode)


def cmd_search(args) -> int:
    """construct-matrix writes the witness to --out; search prints it."""
    w = search_witness(args.n, args.d, args.k, _budget(args))
    if w is None:
        kind = "no certifying matrix exists" if args.mode == "exhaustive" else "not found within budget"
        print(f"search exhausted: {kind} for n={args.n} d={args.d} k={args.k}")
        return 3
    if args.command == "construct-matrix":
        fileio.write_witness(args.out, w)
        print(f"witness n={w.n} d={w.d} k={w.k} found at candidate {w.provenance.index} -> {args.out}")
        return 0
    print(f"witness n={w.n} d={w.d} k={w.k} candidate {w.provenance.index} seed {w.provenance.seed}")
    for row in w.H:
        print(" ".join(str(int(x)) for x in row))
    if args.registry:
        fileio.append_registry(args.registry, w)
        print(f"appended to registry {args.registry}")
    return 0


def cmd_table(args) -> int:
    if not 2 <= args.n_min <= args.n_max:
        raise ValueError(f"need 2 <= --n-min <= --n-max, got {args.n_min} and {args.n_max}")
    ns = range(args.n_min, args.n_max + 1)
    if args.from_registry:
        cells = table_from_registry(args.from_registry, args.d, ns)
    else:
        cells = table_scan(
            args.d,
            ns,
            max_candidates=args.budget,
            seed=args.seed,
            registry_path=args.registry,
        )
    if args.porcelain:
        for n in ns:
            cell = cells[n]
            status = "ok" if cell.witness is not None else "none"
            misses = ",".join(f"k{k}:{why}" for k, why in cell.misses) or "-"
            print(f"{args.d} {n} {cell.best_k} {status} {misses}")
    else:
        print(f"level d={args.d}  (largest certified k per n)")
        print("  n : " + " ".join(f"{n:>3}" for n in ns))
        print("  k : " + " ".join(f"{cells[n].best_k:>3}" for n in ns))
        for n in ns:
            for k, why in cells[n].misses:
                label = (
                    "exhaustive: no matrix certifies this k"
                    if why == "exhausted"
                    else "random: not found within budget (no disproof)"
                )
                print(f"  n={n} k={k}: {label}")
    return 0


def cmd_verify(args) -> int:
    state = fileio.read_state(args.state)
    if args.k is not None and not 0 <= 2 * args.k <= state.n:
        raise ValueError(f"k={args.k} out of range for n={state.n} (need 0 <= k <= n/2)")
    print(f"state: n={state.n} d={state.d} kets={len(state)}")
    if args.k is None:
        k = max_uniformity(state, max_ops=args.max_ops)
        print(f"norm: {state.norm_value()}")
        print(f"max uniform k: {k}")
        return 0
    report = verify_uniform(state, args.k, max_ops=args.max_ops)
    print(f"norm: {report.norm}")
    if report.uniform:
        print(f"k={args.k}: uniform")
        return 0
    print(f"k={args.k}: NOT uniform")
    print(f"failing subset: {report.failing_subset}")
    print(f"failing pair: {report.failing_pair[0]} vs {report.failing_pair[1]}")
    return 4


def _exact(x: Fraction | int) -> str | None:
    """str(x), or None past the interpreter's limit on digits in an int-to-string conversion."""
    try:
        return str(x)
    except ValueError:
        return None


def _approx(x: Fraction | int) -> str:
    """x to six significant digits, also where float(x) overflows."""
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        return f"{Decimal(x.numerator) / x.denominator:.6g}"


def cmd_bounds(args) -> int:
    if args.lam:
        rep = bounds_mod.bound_report(args.p, tol=args.tol)
        lb = rep.lambda_bounds
        print(f"p={args.p}")
        print(f"lambda_existence: {lb['existence']:.6f} (tol {args.tol:g})")
        print(f"lambda_selfdual: {lb['selfdual']:.6f} (tol {args.tol:g})")
        print(f"lambda_constructive: {lb['constructive']:.6f} (t={lb['constructive_t']})")
        return 0
    if args.n is None:
        raise ValueError("bounds needs --n (with optional --k) or --lambda")
    rep = bounds_mod.bound_report(args.p, args.n, args.k, tol=args.tol)
    print(f"p={args.p} n={args.n}" + (f" k={args.k}" if args.k is not None else ""))
    if rep.np_bound is not None:
        sign = "positive (witness exists)" if rep.np_bound > 0 else "not positive (no claim)"
        exact = _exact(rep.np_bound)
        print(f"count_bound: {exact + ' = ' if exact else ''}{_approx(rep.np_bound)} [{sign}]")
        print(f"cor3: {rep.cor3_holds}")
    if rep.thm3_threshold is not None:
        note = ""
        if args.p % 2 == 1 and args.p >= rep.thm3_threshold:
            note = f"  (odd p={args.p} >= threshold: k=n/2 achievable)"
        print(f"halfrank_prime_threshold: {_exact(rep.thm3_threshold) or '~' + _approx(rep.thm3_threshold)}{note}")
    return 0


def cmd_construct_code(args) -> int:
    code = fileio.read_code(args.code)
    if code.r != 1:
        raise ValueError("state construction needs a prime-field code; run concat first")
    best_k, dist, ddist = certified_k(code)
    k = args.k if args.k is not None else best_k
    print(f"code: [{code.n}, {code.m}] over GF({code.p}), distance {dist}, dual distance {ddist}")
    try:
        state = state_from_code(code, k)
    except HypothesisError as exc:
        print(f"hypothesis fails for k={k}: {exc}")
        return 4
    fileio.write_state(args.out, state)
    print(f"certified k: {k}")
    print(f"state with {len(state)} kets -> {args.out}")
    return 0


def cmd_concat(args) -> int:
    code = fileio.read_code(args.code)
    if code.r < 2:
        raise ValueError("concat needs a code over an extension field GF(p^r), r >= 2")
    basis = find_trace_orthogonal_basis(code.p, code.r, seed=args.seed)
    primal = expand_code(code, basis, "primal")
    dualw = expand_code(dual_code(code), basis, "dual")
    fileio.write_code(args.out, primal)
    print(f"expanded [{code.n}, {code.m}] over {code.field} -> [{primal.n}, {primal.m}] over GF({code.p}) -> {args.out}")
    if args.out_dual:
        fileio.write_code(args.out_dual, dualw)
        print(f"weighted dual expansion -> {args.out_dual}")
    # duality report: expansions must be orthogonal with complementary dimensions
    ok_dim = primal.m + dualw.m == primal.n
    prod = (primal.generator @ dualw.generator.T) % code.p
    ok_orth = not prod.any()
    print(f"duality check: {'pass' if ok_dim and ok_orth else 'FAIL'}")
    return 0 if ok_dim and ok_orth else 4


def cmd_emit_state(args) -> int:
    if args.witness is None:
        raise ValueError("emit-state needs --witness")
    state = state_from_matrix(fileio.read_witness(args.witness))
    fileio.write_state(args.out, state)
    print(f"state with {len(state)} kets -> {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(prog="kuniform", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_search_flags(sp, with_out):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--d", type=int, required=True)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--mode", choices=["exhaustive", "random"], default="random")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=int, default=10**7)
        if with_out:
            sp.add_argument("--out", required=True)

    sp = sub.add_parser("construct-matrix", help="search for a witness matrix and write it")
    add_search_flags(sp, with_out=True)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("search", help="search for a witness matrix and print it")
    add_search_flags(sp, with_out=False)
    sp.add_argument("--registry", default=None)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("table", help="largest certified k per n for one level")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--budget", type=int, default=10**7)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--registry", default=None)
    sp.add_argument("--from-registry", default=None)
    sp.add_argument("--porcelain", action="store_true")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="check k-uniformity of a state file")
    sp.add_argument("--state", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--max-ops", type=int, default=10**9)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bounds", help="evaluate count/threshold/asymptotic bounds")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", action="store_true")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("construct-code", help="state from a code file, distances checked")
    sp.add_argument("--code", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_construct_code)

    sp = sub.add_parser("concat", help="expand an extension-field code to p-ary")
    sp.add_argument("--code", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--out-dual", default=None)
    sp.set_defaults(func=cmd_concat)

    sp = sub.add_parser("emit-state", help="render a witness matrix to a state file")
    sp.add_argument("--witness", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_emit_state)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (TooLargeError, ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
