"""Command-line front door: builders, checkers, processes, experiments.

Each command takes only the flags it reads.  All randomness flows from
--seed (experiment reads the seed of its spec instead); nothing reads the
clock, so a fixed seed gives byte-identical output across runs and thread
counts.  stdout carries the requested artifact, stderr carries logs.  Exit
codes: 0 success, 2 validation error, 3 size-guard violation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from .builders import (SizeGuardError, k_balance_analysis, load_pattern,
                       pattern_names)
from .census import Configuration, count_rooted_copies
from .engine import closure
from .experiments import (ExperimentSpec, ModelRecipe, estimate_pc_bisection,
                          record_trajectory, render_report, run_experiment,
                          threshold_scan)
from .hypergraph import Hypergraph, check_well_behaved, loads, to_json
from .processes import write_trace_csv
from .theory import ModelParams


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_trace(rows, path: str) -> None:
    buf = io.StringIO()
    write_trace_csv(rows, buf)
    _emit(buf.getvalue(), path)


def _write_traces(traces, directory: str) -> Path:
    """One trace_{index:03d}.csv per trace in `directory`, made if missing."""
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    for tr in traces:
        _emit_trace(tr.rows, str(outdir / f"trace_{tr.index:03d}.csv"))
    return outdir


def _read_host(args) -> Hypergraph:
    return loads(_read_text(args.input))


def _id_list(raw: str, flag: str) -> list:
    if raw.strip() == "":
        return []
    try:
        return [int(tok) for tok in raw.replace(";", ",").split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated integer list")


def _float_list(raw: str, flag: str) -> list:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated number list")


def _load_pattern_arg(spec: str) -> Hypergraph:
    """A pattern is a library name or a path to a hypergraph file."""
    if spec in pattern_names():
        return load_pattern(spec)
    if os.path.exists(spec):
        return loads(Path(spec).read_text())
    raise ValueError(
        f"--pattern {spec!r} is neither a library name "
        f"({', '.join(pattern_names())}) nor an existing file")


def _params_from(args, r: int) -> ModelParams:
    return ModelParams(r=r, c=args.c, alpha=args.alpha, d=args.d, K=args.K)


# -- subcommand handlers -------------------------------------------------------

def _cmd_build(args) -> int:
    if args.complete is not None:
        n, k = args.complete
        recipe = ModelRecipe("complete", n=n, k=k)
    elif args.pattern is None:
        raise ValueError("--lift needs --pattern")
    else:
        recipe = ModelRecipe("lift", n=args.lift,
                             pattern=_load_pattern_arg(args.pattern))
    _emit(to_json(recipe.build()), args.out)
    return 0


def _cmd_check(args) -> int:
    H = _read_host(args)
    report = check_well_behaved(H, d=args.d, rho=args.rho, nu=args.nu)
    _emit(render_report(report.to_dict()), args.out)
    return 0


def _cmd_closure(args) -> int:
    H = _read_host(args)
    infected0 = _id_list(args.infected, "--infected")
    active = (_id_list(args.active, "--active")
              if args.active is not None else None)
    final = closure(H, infected0, active)
    _emit(render_report({"infected": sorted(final), "count": len(final),
                         "percolates": len(final) == H.n}), args.out)
    return 0


def _cmd_simulate(args) -> int:
    H = _read_host(args)
    params = _params_from(args, H.r)
    tr = record_trajectory(H, params, args.seed, trace_stride=args.stride)
    _emit_trace(tr.rows, args.out)
    print(json.dumps({"percolated": tr.percolated,
                      "infected_count": tr.infected_count,
                      "sampled_count": tr.sampled_count},
                     sort_keys=True), file=sys.stderr)
    return 0


def _cmd_pc(args) -> int:
    H = _read_host(args)
    est = estimate_pc_bisection(H, args.q, args.seed, trials=args.trials,
                                tol=args.tol, d=args.d,
                                workers=args.threads)
    _emit(render_report(est.to_dict()), args.out)
    return 0


def _cmd_scan(args) -> int:
    H = _read_host(args)
    grid = _float_list(args.grid, "--grid")
    rows = threshold_scan(H, grid, args.alpha, args.d, args.trials,
                          args.seed, workers=args.threads)
    if args.format == "csv":
        lines = ["c,p,q,trials,successes,fraction,ci_low,ci_high,predicted"]
        for row in rows:
            d = row.to_dict()
            lines.append(
                f"{d['c']:.17g},{d['p']:.17g},{d['q']:.17g},{d['trials']},"
                f"{d['successes']},{d['fraction']:.17g},"
                f"{d['ci_low']:.17g},{d['ci_high']:.17g},{d['predicted']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(render_report({"rows": [row.to_dict() for row in rows]}),
              args.out)
    return 0


def _cmd_trajectory(args) -> int:
    if args.traces < 1:
        raise ValueError("--traces must be at least 1")
    if args.traces > 1 and args.out == "-":
        raise ValueError("--traces above 1 needs --out DIRECTORY")
    H = _read_host(args)
    params = _params_from(args, H.r)
    star_indices = tuple(
        tuple(_id_list(pair, "--stars"))
        for pair in args.stars.split(";") if pair.strip()) if args.stars else ()
    traces = [record_trajectory(H, params, args.seed, index=k,
                                trace_stride=args.stride,
                                star_indices=star_indices,
                                star_vertices=args.star_vertices)
              for k in range(args.traces)]
    summary = {"traces": [tr.to_dict() for tr in traces]}
    if args.out == "-":
        _emit_trace(traces[0].rows, "-")
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    else:
        outdir = _write_traces(traces, args.out)
        _emit(render_report(summary), str(outdir / "summary.json"))
        print(json.dumps({"written": str(outdir),
                          "traces": len(traces)}, sort_keys=True))
    return 0


def _cmd_kbalance(args) -> int:
    F = _load_pattern_arg(args.pattern)
    report = k_balance_analysis(F, k=args.k)
    _emit(render_report(report.to_dict()), args.out)
    return 0


def _cmd_census(args) -> int:
    H = _read_host(args)
    config = Configuration.from_dict(json.loads(_read_text(args.config)))
    roots = _id_list(args.root, "--root")
    infected = _id_list(args.infected, "--infected")
    count = count_rooted_copies(H, infected, config, roots)
    if args.format == "csv":
        _emit(f"{count}\n", args.out)
    else:
        _emit(render_report({"count": count}), args.out)
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec.from_dict(json.loads(_read_text(args.spec)))
    outcome = run_experiment(spec, workers=args.threads)
    _emit(render_report(outcome.report), args.out)
    if outcome.traces and args.trace_dir is not None:
        _write_traces(outcome.traces, args.trace_dir)
    return 0


# -- parser --------------------------------------------------------------------

def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    out = _flag("--out", default="-", help="output path (default stdout)")
    host = _flag("--in", dest="input", default="-",
                 help="hypergraph file, JSON or text (default stdin)")
    seed = _flag("--seed", type=int, default=0,
                 help="master seed, 64-bit unsigned (default 0)")
    threads = _flag("--threads", type=int, default=os.cpu_count() or 1,
                    help="Monte Carlo workers: threads that share the trials, "
                         "at most one per core (default: all cores)")
    fmt = _flag("--format", choices=("json", "csv"), default="json",
                help="tabular output format (default json)")
    # the model constants of simulate, scan and trajectory (scan has no --c)
    c = _flag("--c", type=float, required=True,
              help="initial-density constant")
    alpha = _flag("--alpha", type=float, required=True,
                  help="edge-probability constant")
    d = _flag("--d", type=float, required=True, help="degree scale")
    K = _flag("--K", type=float, default=100.0,
              help="error-band exponent (default 100)")

    parser = argparse.ArgumentParser(
        prog="hyperboot",
        description="Bootstrap percolation on hypergraphs: builders, "
                    "deterministic closure, revelation processes, "
                    "configuration censuses and threshold experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[out],
                       help="construct a hypergraph and emit it as JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--complete", nargs=2, type=int, metavar=("N", "K"),
                       help="complete K-uniform hypergraph on N vertices")
    group.add_argument("--lift", type=int, metavar="N",
                       help="pattern lift of the complete host on N vertices")
    p.add_argument("--pattern", help="pattern: library name or file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", parents=[out, host],
                       help="regularity/codegree report for a hypergraph")
    p.add_argument("--d", type=float, required=True, help="degree scale")
    p.add_argument("--rho", type=float, required=True, help="slack factor")
    p.add_argument("--nu", type=float, required=True, help="vertex cap")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("closure", parents=[out, host],
                       help="deterministic infection closure")
    p.add_argument("--infected", required=True,
                   help="initially infected vertices, comma-separated")
    p.add_argument("--active", default=None,
                   help="restrict the rule to these edge ids")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("simulate", parents=[out, host, seed, c, alpha, d, K],
                       help="run the two-phase process, emit the trace CSV")
    p.add_argument("--stride", type=int, default=None,
                   help="trace row stride in steps")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pc", parents=[out, host, seed, threads],
                       help="bisect the critical initial density")
    p.add_argument("--q", type=float, required=True,
                   help="edge success probability")
    p.add_argument("--trials", type=int, default=50,
                   help="Monte Carlo trials per evaluation (default 50)")
    p.add_argument("--tol", type=float, default=0.01,
                   help="bracket width to stop at (default 0.01)")
    p.add_argument("--d", type=float, default=None,
                   help="degree scale for the scaled estimate "
                        "(default: max degree)")
    p.set_defaults(func=_cmd_pc)

    p = sub.add_parser("scan", parents=[out, host, seed, threads, fmt, alpha,
                                        d],
                       help="percolation fraction across a grid of c values")
    p.add_argument("--grid", required=True,
                   help="comma-separated c values")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("trajectory", parents=[out, host, seed, c, alpha, d, K],
                       help="record process traces with trajectory predictions")
    p.add_argument("--traces", type=int, default=1,
                   help="number of independent traces (default 1)")
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--stars", default=None,
                   help="pendant-star indices to sample, e.g. '0,0;1,0'")
    p.add_argument("--star-vertices", type=int, default=0,
                   help="how many vertices to sample star counts at")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("kbalance", parents=[out],
                       help="exact k-density balance report for a pattern")
    p.add_argument("--pattern", required=True,
                   help="pattern: library name or file")
    p.add_argument("--k", type=int, default=None,
                   help="density offset k (default: pattern uniformity)")
    p.set_defaults(func=_cmd_kbalance)

    p = sub.add_parser("census", parents=[out, host, fmt],
                       help="count rooted configuration copies")
    p.add_argument("--config", required=True,
                   help="configuration JSON file")
    p.add_argument("--root", required=True,
                   help="root image vertices, comma-separated")
    p.add_argument("--infected", default="",
                   help="infected vertices, comma-separated")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("experiment", parents=[out, threads],
                       help="run a full experiment spec file")
    p.add_argument("--spec", required=True, help="ExperimentSpec JSON file")
    p.add_argument("--trace-dir", default=None,
                   help="directory for trajectory trace CSVs")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # only the commands that read --seed or --threads have them
        if not 0 <= getattr(args, "seed", 0) < 2 ** 64:
            raise ValueError("--seed must fit in 64 unsigned bits")
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1")
        return args.func(args)
    except SizeGuardError as exc:
        print(f"hyperboot: size guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"hyperboot: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
