"""hyperboot benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload scan_k200 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-references full

A run builds its host (set-up, timed several times, median reported), then
sends one request at a time with workers=1 until --seconds have passed, and
checks every output against the digests in reference.json.  Times are
reported at a reference machine speed measured by calibration jobs run
between requests (see Calibration).  The last line of standard output is
the result JSON; the line before it carries sample counts, error_rate,
unscaled values, the per-request detail and the environment.

--trace 0 reports the end-to-end metrics.  --trace 1 sends the workload's
fixed traced request count untraced, with the tracer installed, and
untraced again, reports the per-layer metrics and asserts the zero/non-zero
pattern in tracing.LAYERS; its spans go to perfbench/out/.  Timings are per
process only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 0.5

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
]

TIMING_SCOPE = ("per-process timings only (perf_counter, process_time, "
                "getrusage): no machine-wide tracing, no cache dropping, "
                "no CPU frequency pinning")


def mixed_job(buffers: dict) -> None:
    """An interpreter loop plus gathers of vertex flags over 500 k edge rows,
    like the healthy-count pass of InfectionState set-up."""
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) & 0xFFFF
    np.take(buffers["flags"], buffers["rows"], out=buffers["gathered"])
    np.sum(buffers["gathered"], axis=1, out=buffers["counts"])


def memory_job(buffers: dict) -> None:
    """Random gathers from a 32 MB array: bound by memory latency."""
    for _ in range(8):
        np.take(buffers["big"], buffers["index"], out=buffers["picked"])


def objects_job(buffers: dict) -> None:
    """Many small numpy objects made from the interpreter (seed hashing and
    bit-generator construction): bound by call and allocation overhead."""
    for i in range(3_000):
        np.random.Philox(i)


def _mixed_buffers(rng) -> dict:
    edges, vertices = 500_000, 20_000
    return {"flags": rng.random(vertices) < 0.1,
            "rows": rng.integers(0, vertices, size=(edges, 3), dtype=np.int32),
            "gathered": np.empty((edges, 3), dtype=bool),
            "counts": np.empty(edges, dtype=np.int64)}


def _memory_buffers(rng) -> dict:
    return {"big": rng.random(4_000_000),
            "index": rng.integers(0, 4_000_000, 300_000),
            "picked": np.empty(300_000)}


# name -> (job, its buffers, its time in seconds at the reference speed).
# None of them runs hyperboot code, so a change to hyperboot cannot move them.
CALIBRATION_JOBS = {
    "mixed": (mixed_job, _mixed_buffers, 0.035),
    "memory": (memory_job, _memory_buffers, 0.037),
    "objects": (objects_job, lambda rng: {}, 0.037),
}


class Calibration:
    """Times calibration jobs to track the machine's speed during a run.

    On a shared box the speed of the same code drifts by tens of percent over
    minutes, and not by the same amount for all code.  A workload names the
    jobs whose drift tracked its own best in paired runs (every job timed at
    every sample), with exponents summing to 1: a sample's slowdown is the
    product of each job's time over its reference time raised to its
    exponent.  A time measured between two samples is divided by their mean
    slowdown, which reports it at the reference speed.
    """

    def __init__(self, weights: dict):
        rng = np.random.default_rng(0)
        self.jobs = []
        for name, weight in weights.items():
            job, make_buffers, ref_s = CALIBRATION_JOBS[name]
            buffers = make_buffers(rng)
            job(buffers)                 # first call faults the pages in
            self.jobs.append((job, buffers, ref_s, weight))
        self.weights = weights
        self.samples: list = []          # slowdown of each sample

    def sample(self) -> float:
        """Time every job once; return the wall time taken.

        The cyclic collector is off meanwhile so that a collection, whose
        cost depends on what the workload holds live, is not timed.
        """
        slowdown, took = 1.0, 0.0
        gc.disable()
        try:
            for job, buffers, ref_s, weight in self.jobs:
                t = perf_counter()
                job(buffers)
                dt = perf_counter() - t
                slowdown *= (dt / ref_s) ** weight
                took += dt
        finally:
            gc.enable()
        self.samples.append(slowdown)
        return took

    def factor(self, first: int, last: int) -> float:
        """Mean slowdown of the samples first..last."""
        return statistics.mean(self.samples[first:last + 1])

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples)


@dataclass
class Outcome:
    key: str
    latency_s: float      # the library call
    cost_s: float         # the call plus rendering and checking its output
    cpu_s: float
    units: int
    digest: str
    ok: bool
    factor: float = 1.0   # machine slowdown while it ran


@dataclass
class Body:
    requests: list              # the Request objects, in the order sent
    outcomes: list
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def seconds(self, scaled: bool = True) -> float:
        return sum(o.cost_s / (o.factor if scaled else 1.0)
                   for o in self.outcomes)


def run_body(requests, seconds: float, min_requests: int, refs: dict,
             on_request=None, calibration=None) -> Body:
    """Closed loop: send the next request only when the previous one ended.

    With a calibration, its jobs run before the first request, then between
    requests at most every CALIBRATE_EVERY_S, and once at the end; each
    request gets the slowdown of the two samples around it.  Calibration
    time is not body time.
    """
    sent, outcomes, failures, marks = [], [], [], []
    t0 = perf_counter()
    paused = 0.0
    next_calibration = t0
    while (len(sent) < min_requests
           or perf_counter() - t0 - paused < seconds):
        if calibration is not None and perf_counter() >= next_calibration:
            paused += calibration.sample()
            next_calibration = perf_counter() + CALIBRATE_EVERY_S
        req = next(requests)
        if on_request is not None:
            on_request(len(sent))
        sent.append(req)
        if calibration is not None:
            marks.append(len(calibration.samples) - 1)
        start, cpu = perf_counter(), process_time()
        try:
            out = req.run()
        except Exception:
            latency = perf_counter() - start
            failures.append(f"{req.key}: {traceback.format_exc()}")
            outcomes.append(Outcome(req.key, latency, latency,
                                    process_time() - cpu, 0, "", False))
            continue
        latency = perf_counter() - start
        data, units = req.render(out)
        got = digest(data)
        ok = refs.get(req.key) == got
        if not ok:
            failures.append(f"{req.key}: digest {got} != reference "
                            f"{refs.get(req.key)}")
        outcomes.append(Outcome(req.key, latency, perf_counter() - start,
                                process_time() - cpu, units, got, ok))
    if calibration is not None:
        calibration.sample()
        for o, k in zip(outcomes, marks):
            o.factor = calibration.factor(k, k + 1)
    return Body(sent, outcomes, failures)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hyperboot").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "timing_scope": TIMING_SCOPE,
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict          # name -> (value, unit, samples)
    detail: dict

    def lines(self) -> list:
        final = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _n) in self.metrics.items()},
        }
        detail = dict(self.detail)
        detail["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                             for k, (v, u, n) in self.metrics.items()}
        return [json.dumps(detail, sort_keys=True), json.dumps(final)]


def _setup(workload, seed: int, repeats: int, calibration=None):
    """Build the workload's state repeats times.

    Returns the state and the raw build times, and with a calibration also
    the times scaled to the reference speed (else None).
    """
    times, marks, state = [], [], None
    for _ in range(repeats):
        state = None            # drop the previous host before the next build
        if calibration is not None:
            calibration.sample()
            marks.append(len(calibration.samples) - 1)
        t = perf_counter()
        state = workload.setup(seed)
        times.append(perf_counter() - t)
    if calibration is None:
        return state, times, None
    calibration.sample()
    return state, times, [t / calibration.factor(k, k + 1)
                          for t, k in zip(times, marks)]


def _extra_checks(workload, state, body: Body) -> dict:
    """Untimed: the scan's first request gives the same bytes at 2 workers."""
    if not hasattr(workload, "render_two_workers"):
        return {}
    two = digest(workload.render_two_workers(state, body.requests[0]))
    return {"scan_bytes_workers_1_eq_2": two == body.outcomes[0].digest}


def _summary(body: Body, setup_s: float, scaled: bool) -> dict:
    """End-to-end values of one body, scaled to the reference speed or raw."""
    def f(o):
        return o.factor if scaled else 1.0
    n = len(body.outcomes)
    busy = body.seconds(scaled)
    lat_ms = [o.latency_s * 1e3 / f(o) for o in body.outcomes]
    return {
        "setup_s": setup_s,
        "requests_per_s": n / busy,
        "items_per_s": sum(o.units for o in body.outcomes) / busy,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "cpu_ms_per_request": sum(o.cpu_s / f(o) for o in body.outcomes)
        * 1e3 / n,
    }


def run_untraced(workload, seed: int, seconds: float, refs: dict,
                 min_requests: int = 1) -> Result:
    cal = Calibration(workload.calibration)
    state, raw_setup, setup_times = _setup(workload, seed, SETUP_REPEATS, cal)
    body = run_body(workload.sequence(state, seed), seconds, min_requests,
                    refs, calibration=cal)
    checks = _extra_checks(workload, state, body)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(body.outcomes)
    values = _summary(body, statistics.median(setup_times), scaled=True)
    raw = _summary(body, statistics.median(raw_setup), scaled=False)
    metrics = {name: (values[name], unit,
                      len(setup_times) if name == "setup_s" else n)
               for name, unit in END_TO_END if name in values}
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    return _result(workload, seed, "untraced", body, checks, metrics, {
        "raw_unscaled": raw,
        "calibration": {"jobs": cal.weights,
                        "median_slowdown": cal.slowdown,
                        "samples": len(cal.samples)},
        "body_s": {"raw": body.seconds(False), "scaled": body.seconds()},
        "setup_times_s": {"raw": raw_setup, "scaled": setup_times},
        "requests": [[o.key, round(o.latency_s * 1e3 / o.factor, 3), o.units]
                     for o in body.outcomes],
        "samples_beyond_p90": sum(
            o.latency_s * 1e3 / o.factor > values["latency_p90_ms"]
            for o in body.outcomes),
    })


def run_traced(workload, seed: int, refs: dict) -> Result:
    """Per-layer metrics over the workload's fixed traced request count.

    The count does not depend on speed, so for one seed every count metric
    repeats exactly and two versions of the program can be compared on it.
    """
    from tracing import LAYERS, Tracer, pattern_violations
    cal = Calibration(workload.calibration)
    tracer = Tracer()
    with tracer.installed():
        state, _, _ = _setup(workload, seed, 1)
    # the same requests untraced, traced, untraced again; the overhead is
    # measured against both untraced passes so warm-up favours neither side
    plain = run_body(workload.sequence(state, seed), 0.0,
                     workload.trace_requests, refs, calibration=cal)
    with tracer.installed():
        traced = run_body(iter(plain.requests), 0.0, len(plain.requests),
                          refs, on_request=lambda i: setattr(tracer, "request", i),
                          calibration=cal)
    again = run_body(iter(plain.requests), 0.0, len(plain.requests), refs,
                     calibration=cal)
    checks = _extra_checks(workload, state, plain)
    k = traced.seconds(False) / traced.seconds()
    values = {metric: tracer.value(metric) / k if unit == "s"
              else tracer.value(metric) for metric, unit, *_ in LAYERS}
    untraced_s = (plain.seconds() + again.seconds()) / 2.0
    values["trace.overhead_ratio"] = traced.seconds() / untraced_s
    violations = pattern_violations(workload.name, values)
    checks["trace_pattern"] = not violations
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()))
    n = len(traced.outcomes)
    metrics = {metric: (values[metric], unit, n)
               for metric, unit, *_ in LAYERS}
    passes = (plain, traced, again)
    body = Body(sum((b.requests for b in passes), []),
                sum((b.outcomes for b in passes), []),
                sum((b.failures for b in passes), []))
    return _result(workload, seed, "traced", body, checks, metrics, {
        "calibration": {"jobs": cal.weights,
                        "traced_pass_slowdown": k,
                        "median_slowdown": cal.slowdown,
                        "samples": len(cal.samples)},
        "pass_s_scaled": [b.seconds() for b in passes],
        "trace_file": str(trace_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "pattern_violations": violations,
    })


def _result(workload, seed, mode, body: Body, checks: dict, metrics: dict,
            extra: dict) -> Result:
    attempted, failed = len(body.outcomes), body.failed
    detail = {
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "loop": "closed loop, one client, one request at a time, workers=1",
        "work_item": workload.item,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "checks": checks,
        "failures": body.failures[:10],
        "environment": environment(),
        **extra,
    }
    correct = failed == 0 and all(checks.values())
    return Result(correct, attempted, failed, metrics, detail)


def load_references(scale: str) -> dict:
    return json.loads(REFERENCE.read_text())[scale]


def write_references(scale: str) -> None:
    """Recompute the digest of every pool request at one scale."""
    from workloads import SCALES
    table = {}
    for name, workload in SCALES[scale].items():
        start = perf_counter()
        for index in range(workload.n_states):
            state = workload.setup(index)
            for req in workload.pool(state):
                table[req.key] = digest(req.render(req.run())[0])
        print(f"{scale}/{name}: {perf_counter() - start:.1f} s",
              file=sys.stderr)
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[scale] = dict(sorted(table.items()))
    REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")


def smoke() -> list:
    """Run every workload on tiny lifts and check the harness itself.

    Returns the list of problems found: a missing or mis-unitized metric, a
    wrong reference digest that error_rate does not count, or a traced
    zero/non-zero pattern that does not hold.
    """
    from tracing import LAYERS
    from workloads import SMOKE
    refs = load_references("smoke")
    problems = []
    for name, workload in SMOKE.items():
        res = run_untraced(workload, 3, 0.0, refs, workload.trace_requests)
        if not res.correct:
            problems.append(f"{name}: untraced run failed {res.detail['failures']}"
                            f" {res.detail['checks']}")
        units = {k: u for k, (_v, u, _n) in res.metrics.items()}
        if units != dict(END_TO_END):
            problems.append(f"{name}: end-to-end metrics {units}")
        if any(v <= 0 for v, _u, _n in res.metrics.values()):
            problems.append(f"{name}: an end-to-end metric is not positive")

        first = next(workload.sequence(workload.setup(3), 3)).key
        broken = dict(refs, **{first: "0" * 16})
        bad = run_untraced(workload, 3, 0.0, broken, workload.trace_requests)
        if (bad.correct or bad.failed != 1
                or bad.detail["error_rate"] != 1 / bad.attempted):
            problems.append(f"{name}: wrong reference for {first} not counted")

        tr = run_traced(workload, 3, refs)
        if not tr.correct:
            problems.append(f"{name}: traced run failed "
                            f"{tr.detail['pattern_violations']} "
                            f"{tr.detail['failures']}")
        if {k: u for k, (_v, u, _n) in tr.metrics.items()} != {
                m: u for m, u, *_ in LAYERS}:
            problems.append(f"{name}: per-layer metric names or units differ")
    return problems


def _check_sources() -> str:
    """Why the hyperboot sources of this checkout cannot be used, or ''."""
    try:
        import hyperboot
    except ImportError as exc:
        return f"cannot import hyperboot from {SRC}: {exc}"
    where = Path(hyperboot.__file__).resolve().parent
    if where != SRC / "hyperboot":
        return f"hyperboot imported from {where}, not from {SRC}"
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check the harness on tiny lifts and exit")
    ap.add_argument("--write-references", choices=("full", "smoke"),
                    help="recompute reference.json for one scale and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    problem = _check_sources()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.write_references:
        write_references(args.write_references)
        return 0
    if args.smoke:
        problems = smoke()
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        print("smoke: ok" if not problems else "smoke: FAILED")
        return 1 if problems else 0
    from workloads import FULL
    if args.workload not in FULL:
        ap.error(f"--workload must be one of {sorted(FULL)}")
    refs = load_references("full")
    workload = FULL[args.workload]
    if args.trace:
        res = run_traced(workload, args.seed, refs)
    else:
        res = run_untraced(workload, args.seed, args.seconds, refs)
    for line in res.lines():
        print(line, flush=True)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
