"""Alternating parent/change runs of the benchmark, summarised as one JSON file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \
        --out BENCH_3.json [--workloads scan_k200 ...] [--first-seed 101]
        [--traced pipeline_k120 dieout_k200]
        [--claim requests_per_s@pipeline_k120 ...]

PARENT_DIR and CHANGE_DIR are two checkouts (e.g. made with ``git archive``).
Pair k runs ``python3 perfbench/run.py --workload W --seed first_seed + k``
once in each checkout, the parent first on even k and the change first on odd
k, one process at a time.  For every end-to-end metric the file gives each
side's median, quartiles and runs, the pairs the change won (ties count
for neither side) and a no-regression verdict against the metric's relative
``bound`` in BENCHMARK.json:

- ``regressed``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's quartile spread, relative to its median,
  exceeds the bound, and not every change run beats every parent run;
- ``ok`` otherwise.

Each workload named by --traced also gets one ``--trace 1`` run per side
with its per-layer metrics.  A run that perfbench marks incorrect stops the
script with its failed checks, first failures and trace pattern violations.

Each ``--claim METRIC@WORKLOAD`` records a gain verdict for that metric:
``met`` when the change won at least nine tenths of the pairs and its median
beats the parent's by more than the parent's quartile spread, ``not met``
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, trace: int):
    """One benchmark process: (metric values, environment block)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: {out.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        detail = json.loads(lines[-2]) if len(lines) > 1 else {}
        raise RuntimeError(f"{checkout} {workload} seed {seed}: incorrect "
                           f"output: {refusal(detail)}")
    return ({name: m["value"] for name, m in result["metrics"].items()},
            json.loads(lines[-2])["environment"])


def refusal(detail: dict) -> str:
    """Why a run was marked incorrect, from its detail line: the checks
    that failed, the first three request failures and the trace pattern
    violations."""
    failed = sorted(name for name, ok in detail.get("checks", {}).items()
                    if not ok)
    parts = [f"failed checks {failed}"] if failed else []
    if detail.get("failures"):
        parts.append(f"first failures {detail['failures'][:3]}")
    if detail.get("pattern_violations"):
        parts.append(f"pattern violations {detail['pattern_violations']}")
    return "; ".join(parts) or "no detail line"


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(parent: dict, change: dict, sign: int, bound: float) -> str:
    """regressed, unresolved or ok; sign is +1 when higher is better."""
    base = parent["median"]
    if sign * (base - change["median"]) > bound * abs(base):
        return "regressed"
    beats_all = (min(sign * y for y in change["runs"])
                 > max(sign * x for x in parent["runs"]))
    if parent["q3"] - parent["q1"] > bound * abs(base) and not beats_all:
        return "unresolved"
    return "ok"


def gain(row: dict, sign: int) -> dict:
    """The gain verdict of one metric's row; sign is +1 when higher is
    better."""
    parent, change = row["parent"], row["change"]
    pairs = len(parent["runs"])
    gap = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    met = row["change_wins"] >= 0.9 * pairs and gap > spread
    return {"change_wins": row["change_wins"], "pairs": pairs,
            "median_gap": gap, "parent_quartile_spread": spread,
            "verdict": "met" if met else "not met"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--traced", nargs="*", default=[])
    ap.add_argument("--claim", nargs="*", default=[],
                    metavar="METRIC@WORKLOAD")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two runs a side")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or names
    for w in args.traced:
        if w not in names:
            ap.error(f"--traced {w}: not a workload of BENCHMARK.json")
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    claims = [c.partition("@")[::2] for c in args.claim]
    for metric, workload in claims:
        if metric not in better or workload not in workloads:
            ap.error(f"--claim {metric}@{workload}: not an end-to-end metric "
                     "of a workload that runs")
    sides = {"parent": args.parent, "change": args.change}

    command = (f"python3 tools/bench_pairs.py PARENT CHANGE --pairs "
               f"{args.pairs} --first-seed {args.first_seed} --workloads "
               f"{' '.join(workloads)} --traced {' '.join(args.traced)}")
    if args.claim:
        command += f" --claim {' '.join(args.claim)}"
    report = {"command": command, "pairs": args.pairs,
              "seeds": [args.first_seed + k for k in range(args.pairs)],
              "environment": {}, "workloads": {}, "traced": {}, "claims": {}}
    for w in workloads:
        runs: dict = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                values, env = run(sides[side], w, args.first_seed + k, 0)
                runs[side].append(values)
                report["environment"][side] = env
                print(w, k, side, values["requests_per_s"],
                      file=sys.stderr, flush=True)
        rows = {}
        for metric, (direction, bound) in better.items():
            a = summary([r[metric] for r in runs["parent"]])
            b = summary([r[metric] for r in runs["change"]])
            sign = 1 if direction == "higher" else -1
            rows[metric] = {"parent": a, "change": b,
                            "change_wins": sum(sign * (y - x) > 0 for x, y
                                               in zip(a["runs"], b["runs"])),
                            "bound": bound,
                            "verdict": verdict(a, b, sign, bound)}
        report["workloads"][w] = rows
    for metric, w in claims:
        sign = 1 if better[metric][0] == "higher" else -1
        report["claims"][f"{metric}@{w}"] = gain(
            report["workloads"][w][metric], sign)
    for w in args.traced:
        report["traced"][w] = {side: run(path, w, args.first_seed, 1)[0]
                               for side, path in sides.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
