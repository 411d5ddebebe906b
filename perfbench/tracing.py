"""In-memory tracing of hyperboot's public functions, from outside the package.

Tracer.installed() swaps each function in PATCHES for a wrapper at the
binding its caller actually looks up: ``experiments.closure`` (experiments
imports closure by name), ``processes.derive_constants`` and the phase
functions in ``processes`` (full_pipeline calls them through its own
globals), methods on the ``InfectionState`` and ``Hypergraph`` classes, and
``rng`` module attributes (callers use ``rng_mod.value_at``).  Patching the
defining module instead would leave those call sites untouched and the
span would silently record nothing; LAYERS asserts the expected
zero/non-zero pattern per workload to catch exactly that.

Coarse calls are kept as spans (id, name, start, end, parent span, request).
Hot leaf calls (coin draws, infect, remove_edge, incidence lookups) are only
aggregated, so a traced run of several hundred thousand reveals stays small
in memory.  Self time is a call's duration minus the time of its traced
children, leaves included.
"""

from __future__ import annotations

import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from hyperboot import builders, census, engine, experiments, hypergraph
from hyperboot import processes, rng

SCAN, PIPE, DIEOUT, CENSUS = ("scan_k200", "pipeline_k120", "dieout_k200",
                              "census_k120")
ALL = {SCAN, PIPE, DIEOUT, CENSUS}


def _closure_active(tr, result, token, args, kwargs):
    active = args[2] if len(args) > 2 else kwargs.get("active")
    tr.counts["engine.closure.active_edges"] += (
        args[0].num_edges if active is None else len(active))


def _ps_steps(args, kwargs):
    return args[0].m


def _phase1_after(tr, result, before, args, kwargs):
    tr.counts["processes.phase1.steps"] += args[0].m - before


def _ps_sampled(args, kwargs):
    return len(args[0].sampled)


def _drain_after(tr, result, before, args, kwargs):
    tr.counts["processes.drain.reveals"] += len(args[0].sampled) - before


def _pipeline_after(tr, res, token, args, kwargs):
    tr.counts["processes.reveals"] += res.sampled_count
    tr.counts["processes.successes"] += sum(res.coins.drawn.values())


def _copies_after(tr, result, token, args, kwargs):
    tr.counts["census.copies_found"] += (
        result if isinstance(result, int) else len(result))


def _lift_after(tr, L, token, args, kwargs):
    tr.counts["builders.lift.edges"] += L.num_edges


def _mc_after(tr, result, token, args, kwargs):
    tr.counts["experiments.trial_evals"] += result.trials


# (owner, attribute, span name, kind, before hook, after hook); kind is
# "span" (kept as a span record), "leaf" (aggregated) or "count" (calls only)
PATCHES = [
    (rng, "value_at", "rng.value_at", "leaf", None, None),
    (rng, "substream", "rng.substream", "span", None, None),
    (experiments, "closure", "engine.closure", "span", None, _closure_active),
    (engine.InfectionState, "__init__", "engine.state_init", "span", None, None),
    (engine.InfectionState, "infect", "engine.infect", "leaf", None, None),
    (engine.InfectionState, "remove_edge", "engine.remove_edge", "leaf",
     None, None),
    (processes, "full_pipeline", "processes.full_pipeline", "span", None,
     _pipeline_after),
    (processes, "phase1_run", "processes.phase1_run", "span", _ps_steps,
     _phase1_after),
    (processes, "subcritical_round", "processes.subcritical_round", "span",
     None, None),
    (processes, "supercritical_round", "processes.supercritical_round", "span",
     None, None),
    (processes, "drain", "processes.drain", "span", _ps_sampled, _drain_after),
    (processes, "derive_constants", "theory.derive_constants", "span",
     None, None),
    (census, "count_pendant_stars", "census.count_pendant_stars", "span",
     None, _copies_after),
    (census, "count_general_stars", "census.count_general_stars", "span",
     None, _copies_after),
    (census, "rooted_copies", "census.rooted_copies", "span", None,
     _copies_after),
    (builders, "enumerate_copies", "builders.enumerate_copies", "span",
     None, None),
    (builders, "bootstrap_lift", "builders.bootstrap_lift", "span", None,
     _lift_after),
    (hypergraph.Hypergraph, "from_rows", "hypergraph.from_rows", "span",
     None, None),
    (hypergraph.Hypergraph, "incident_edges", "hypergraph.incident_edges",
     "count", None, None),
    (experiments, "threshold_scan", "experiments.threshold_scan", "span",
     None, None),
    (experiments, "percolation_probability_mc",
     "experiments.percolation_probability_mc", "span", None, _mc_after),
]

# Per-layer metric, unit, the end-to-end metric (and workload) it should
# move, workloads where it must be non-zero, workloads where it must be zero.
LAYERS = [
    ("rng.value_at.calls", "count", "items_per_s@pipeline_k120", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("rng.value_at.s", "s", "items_per_s@pipeline_k120", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("rng.substream.calls", "count", "items_per_s@scan_k200", {SCAN, PIPE, DIEOUT}, {CENSUS}),
    ("rng.substream.s", "s", "items_per_s@scan_k200", {SCAN, PIPE, DIEOUT}, {CENSUS}),
    ("engine.closure.calls", "count", "items_per_s@scan_k200", {SCAN}, {PIPE, DIEOUT, CENSUS}),
    ("engine.closure.s", "s", "items_per_s@scan_k200", {SCAN}, {PIPE, DIEOUT, CENSUS}),
    ("engine.closure.active_edges", "count", "items_per_s@scan_k200", {SCAN}, {PIPE, DIEOUT, CENSUS}),
    ("engine.state_init.calls", "count", "requests_per_s@dieout_k200", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("engine.state_init.s", "s", "requests_per_s@dieout_k200", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("engine.infect.calls", "count", "items_per_s@pipeline_k120", {PIPE}, {SCAN, CENSUS}),
    ("engine.infect.s", "s", "items_per_s@pipeline_k120", {PIPE}, {SCAN, CENSUS}),
    ("engine.remove_edge.calls", "count", "items_per_s@pipeline_k120", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("engine.remove_edge.s", "s", "items_per_s@pipeline_k120", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("processes.phase1_run.s", "s", "items_per_s@pipeline_k120", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("processes.phase1.steps", "count", "items_per_s@pipeline_k120", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("processes.supercritical_round.calls", "count", "items_per_s@pipeline_k120", {PIPE}, {SCAN, DIEOUT, CENSUS}),
    ("processes.supercritical_round.s", "s", "items_per_s@pipeline_k120", {PIPE}, {SCAN, DIEOUT, CENSUS}),
    ("processes.subcritical_round.calls", "count", "requests_per_s@dieout_k200", {DIEOUT}, {SCAN, PIPE, CENSUS}),
    ("processes.subcritical_round.s", "s", "requests_per_s@dieout_k200", {DIEOUT}, {SCAN, PIPE, CENSUS}),
    ("processes.drain.s", "s", "items_per_s@pipeline_k120", {PIPE}, {SCAN, CENSUS}),
    # the paper predicts a small drain; on some supercritical runs it is empty
    ("processes.drain.reveals", "count", "items_per_s@pipeline_k120", set(), {SCAN, CENSUS}),
    ("processes.reveals", "count", "items_per_s@pipeline_k120", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("processes.coin_success_ratio", "ratio", "items_per_s@pipeline_k120", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("processes.full_pipeline.self_s", "s", "requests_per_s@dieout_k200", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("theory.derive_constants.calls", "count", "requests_per_s@dieout_k200", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("theory.derive_constants.s", "s", "requests_per_s@dieout_k200", {PIPE, DIEOUT}, {SCAN, CENSUS}),
    ("census.count_pendant_stars.calls", "count", "requests_per_s@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("census.count_pendant_stars.s", "s", "latency_p50_ms@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("census.count_general_stars.calls", "count", "requests_per_s@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("census.count_general_stars.s", "s", "latency_p50_ms@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("census.rooted_copies.calls", "count", "requests_per_s@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("census.rooted_copies.s", "s", "latency_p90_ms@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("census.copies_found", "count", "latency_p50_ms@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("builders.enumerate_copies.calls", "count", "requests_per_s@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("builders.enumerate_copies.s", "s", "requests_per_s@census_k120", {CENSUS}, {SCAN, PIPE, DIEOUT}),
    ("builders.bootstrap_lift.s", "s", "setup_s@all", ALL, set()),
    ("builders.lift.edges", "count", "setup_s@all", ALL, set()),
    ("hypergraph.from_rows.s", "s", "setup_s@all", ALL, set()),
    ("hypergraph.incident_edges.calls", "count", "requests_per_s@census_k120", {PIPE, CENSUS}, {SCAN}),
    ("experiments.percolation_probability_mc.calls", "count", "items_per_s@scan_k200", {SCAN}, {PIPE, DIEOUT, CENSUS}),
    ("experiments.percolation_probability_mc.s", "s", "items_per_s@scan_k200", {SCAN}, {PIPE, DIEOUT, CENSUS}),
    ("experiments.self_s", "s", "items_per_s@scan_k200", {SCAN}, {PIPE, DIEOUT, CENSUS}),
    ("experiments.closures_per_trial_eval", "ratio", "items_per_s@scan_k200", {SCAN}, {PIPE, DIEOUT, CENSUS}),
    ("trace.overhead_ratio", "ratio", "none (measurement check)", ALL, set()),
]


class Tracer:
    """Spans and counters for one traced run, kept in memory until the end."""

    def __init__(self):
        self.spans: list = []          # (id, name, start, end, parent, request)
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = -1              # -1 while setting up
        self._stack = [[0.0, 0]]       # frames: [child seconds, span id]
        self._next_id = 1

    def _wrap(self, name: str, kind: str, fn, before, after):
        tr, stack, spans = self, self._stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        if kind == "count":
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        record = kind == "span"

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            parent = stack[-1]
            if record:
                sid = tr._next_id
                tr._next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent[0] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if record:
                    spans.append((sid, name, start, end, parent[1], tr.request))
            if after:
                after(tr, result, token, args, kwargs)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding in PATCHES for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, kind, before, after in PATCHES:
                raw = (owner.__dict__[attr] if inspect.isclass(owner)
                       else getattr(owner, attr))
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, kind, fn, before, after)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(owner, attr, wrapped)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def value(self, metric: str) -> float:
        if metric == "processes.coin_success_ratio":
            reveals = self.counts["processes.reveals"]
            return self.counts["processes.successes"] / reveals if reveals else 0.0
        if metric == "experiments.closures_per_trial_eval":
            evals = self.counts["experiments.trial_evals"]
            return self.calls["engine.closure"] / evals if evals else 0.0
        if metric == "experiments.self_s":
            return (self.self_time["experiments.threshold_scan"]
                    + self.self_time["experiments.percolation_probability_mc"])
        if metric.endswith(".self_s"):
            return self.self_time[metric[:-len(".self_s")]]
        if metric.endswith(".calls"):
            return self.calls[metric[:-len(".calls")]]
        if metric.endswith(".s"):
            return self.total[metric[:-len(".s")]]
        return self.counts[metric]

    def dump(self) -> dict:
        """Everything recorded, with span times relative to the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        return {
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "request"],
            "spans": [[i, n, a - t0, b - t0, p, r]
                      for i, n, a, b, p, r in self.spans],
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }


def pattern_violations(workload: str, values: dict) -> list:
    """Per-layer metrics that break the expected zero/non-zero pattern."""
    bad = []
    for metric, _unit, _moves, nonzero, zero in LAYERS:
        v = values[metric]
        if workload in nonzero and v == 0:
            bad.append(f"{metric} is 0, expected non-zero on {workload}")
        if workload in zero and v != 0:
            bad.append(f"{metric} is {v}, expected 0 on {workload}")
    return bad
