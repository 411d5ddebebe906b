"""Monte Carlo percolation experiments with deterministic parallel streams.

Every trial owns a counter-based substream keyed by (master seed, trial
index), so results never depend on execution order or worker count; the
initial-infection and coin uniforms are drawn once per trial and compared
against the thresholds p and q afterwards, which couples every evaluation
of the percolation profile monotonically across p, q and c.  Percolation
per trial is decided by the deterministic closure of {v : u_v < p} on the
trial's success host (the edges whose coin succeeded, with their own CSR).

A trial's uniforms and success host do not depend on p, so a threshold
scan or a bisection draws each trial once and reuses it at every grid point
or step.  It keeps drawn trials while their arrays (uniforms, success rows
and CSR, and the infected mask and edge counts of one closure) take no more
bytes in total than the host's own rows and CSR, so their success hosts
never hold more edges than the host; a trial past that bound is drawn and
closed again at each p.  The seed sets {v : u_v < p} are nested in p, so a
kept trial also keeps its closure at the highest p where it failed and the
lowest p where it percolated: a query at or past either is answered without
work, and one between them grows the failed closure by the new seeds
instead of closing from scratch.  A scan thus runs one closure per kept
trial.  A lone evaluation keeps nothing.  Worker threads take the trials
of an evaluation from one queue and all read and fill the one trial set,
so a multi-worker scan or bisection also draws each trial once; the trial
set owns the one thread pool that all its evaluations use.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import __version__, hypergraph
from . import rng as rng_mod
from .builders import bootstrap_lift, complete_uniform, load_pattern
from .census import count_pendant_stars, pendant_star_config
from .engine import closure, count_dtype, sample_edge_set
from .hypergraph import (Hypergraph, check_probability, is_count, is_number,
                         json_float, json_int, record_field)
from .processes import ProcessState, full_pipeline
from .theory import (BoundaryError, ModelParams, classify_criticality,
                     derive_constants, star_density)

WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile

MODES = ("percolation_prob", "pc_bisect", "scan", "trajectory")


def wilson_interval(successes: int, trials: int) -> tuple:
    """Wilson score interval for a binomial fraction, at z = WILSON_Z."""
    if trials < 1:
        raise ValueError("interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    z = WILSON_Z
    f = successes / trials
    denom = 1.0 + z * z / trials
    center = (f + z * z / (2 * trials)) / denom
    half = z * math.sqrt(f * (1 - f) / trials
                         + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _check_count(name: str, value) -> None:
    if not is_count(value) or value < 1:
        raise ValueError(f"{name}={value!r} must be an integer of at least 1")


def _check_positive(name: str, value) -> None:
    if not (is_number(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name}={value} must be positive and finite")


# -- model recipes and experiment specs ---------------------------------------

@dataclass(frozen=True)
class ModelRecipe:
    """How to obtain the host hypergraph: inline, complete, or a lift.

    kind "inline" embeds the hypergraph itself; "complete" is the complete
    k-uniform hypergraph on n vertices; "lift" builds the pattern-copy
    hypergraph of complete_uniform(n, pattern.r) (vertices are its edges).
    The pattern is a library name or an inline hypergraph.
    """
    kind: str
    n: Optional[int] = None
    k: Optional[int] = None
    pattern: Union[str, Hypergraph, None] = None
    hypergraph: Optional[Hypergraph] = None

    def __post_init__(self):
        if self.kind == "inline":
            if self.hypergraph is None:
                raise ValueError("inline recipe needs a hypergraph")
        elif self.kind == "complete":
            if self.n is None or self.k is None:
                raise ValueError("complete recipe needs n and k")
        elif self.kind == "lift":
            if self.n is None or self.pattern is None:
                raise ValueError("lift recipe needs n and a pattern")
        else:
            raise ValueError(f"unknown recipe kind {self.kind!r}")

    def build(self) -> Hypergraph:
        if self.kind == "inline":
            return self.hypergraph
        if self.kind == "complete":
            return complete_uniform(self.n, self.k)
        pat = (load_pattern(self.pattern) if isinstance(self.pattern, str)
               else self.pattern)
        return bootstrap_lift(complete_uniform(self.n, pat.r), pat)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.n is not None:
            out["n"] = self.n
        if self.k is not None:
            out["k"] = self.k
        if isinstance(self.pattern, str):
            out["pattern"] = self.pattern
        elif self.pattern is not None:
            out["pattern"] = hypergraph.to_dict(self.pattern)
        if self.hypergraph is not None:
            out["hypergraph"] = hypergraph.to_dict(self.hypergraph)
        return out

    @staticmethod
    def from_dict(obj: dict) -> "ModelRecipe":
        def pattern(value):   # a library name or an inline hypergraph record
            return value if isinstance(value, str) else hypergraph.from_dict(value)
        return ModelRecipe(
            kind=record_field(obj, "kind"),
            n=record_field(obj, "n", json_int, None),
            k=record_field(obj, "k", json_int, None),
            pattern=record_field(obj, "pattern", pattern, None),
            hypergraph=record_field(obj, "hypergraph", hypergraph.from_dict,
                                    None))


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serializable description of one experiment run.

    trials is the trial count per evaluation (percolation_prob, pc_bisect,
    scan) or the number of recorded traces (trajectory).  grid holds the
    initial-density constants c to scan.  The worker count is deliberately
    not part of the spec: results must not depend on it.
    """
    model: ModelRecipe
    params: ModelParams
    trials: int
    seed: int
    mode: str
    grid: tuple = ()
    tol: float = 0.01
    trace_stride: Optional[int] = None
    star_indices: tuple = ()
    star_vertices: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not one of {MODES}")
        _check_count("trials", self.trials)
        if self.mode == "scan" and not self.grid:
            raise ValueError("scan mode needs a nonempty grid")
        rng_mod.check_seed(self.seed)
        _check_positive("tol", self.tol)
        if self.trace_stride is not None:
            _check_count("trace_stride", self.trace_stride)
        if not is_count(self.star_vertices) or self.star_vertices < 0:
            raise ValueError(f"star_vertices={self.star_vertices!r} must be "
                             "a nonnegative integer")

    def to_dict(self) -> dict:
        out = {
            "model": self.model.to_dict(),
            "params": self.params.to_dict(),
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "tol": self.tol,
        }
        if self.grid:
            out["grid"] = list(self.grid)
        if self.trace_stride is not None:
            out["trace_stride"] = self.trace_stride
        if self.star_indices:
            out["star_indices"] = [list(ij) for ij in self.star_indices]
            out["star_vertices"] = self.star_vertices
        return out

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentSpec":
        def params(par):
            return ModelParams(
                r=record_field(par, "r", json_int),
                c=record_field(par, "c", json_float),
                alpha=record_field(par, "alpha", json_float),
                d=record_field(par, "d", json_float),
                K=record_field(par, "K", json_float, 100.0),
                n_vertices=record_field(par, "n_vertices", json_int, None))

        def star_indices(pairs):
            return tuple(tuple(json_int(x) for x in ij) for ij in pairs)
        return ExperimentSpec(
            model=record_field(obj, "model", ModelRecipe.from_dict),
            params=record_field(obj, "params", params),
            trials=record_field(obj, "trials", json_int),
            seed=record_field(obj, "seed", json_int),
            mode=record_field(obj, "mode"),
            grid=record_field(obj, "grid",
                              lambda cs: tuple(json_float(c) for c in cs), ()),
            tol=record_field(obj, "tol", json_float, 0.01),
            trace_stride=record_field(obj, "trace_stride", json_int, None),
            star_indices=record_field(obj, "star_indices", star_indices, ()),
            star_vertices=record_field(obj, "star_vertices", json_int, 0))


# -- Monte Carlo percolation probability --------------------------------------

@dataclass(frozen=True)
class MCResult:
    p: float
    q: float
    trials: int
    successes: int

    @property
    def fraction(self) -> float:
        return self.successes / self.trials

    @property
    def ci(self) -> tuple:
        return wilson_interval(self.successes, self.trials)

    def to_dict(self) -> dict:
        lo, hi = self.ci
        return {"p": self.p, "q": self.q, "trials": self.trials,
                "successes": self.successes, "fraction": self.fraction,
                "ci_low": lo, "ci_high": hi}


def _nbytes(H: Hypergraph) -> int:
    """Bytes of a hypergraph's edge rows and CSR."""
    indptr, incident = H.incidence
    return H.edges_array.nbytes + indptr.nbytes + incident.nbytes


class _Trial:
    """One drawn trial: its vertex uniforms u, its success host, and what
    its queries so far settled.  lo is its closure at lo_p, the highest p
    queried where it failed to percolate, and hi the lowest p queried where
    it percolated."""

    __slots__ = ("u", "host", "lo", "lo_p", "hi")

    def __init__(self, u: np.ndarray, host: Hypergraph):
        self.u, self.host = u, host
        self.lo, self.lo_p, self.hi = None, -math.inf, math.inf

    @property
    def nbytes(self) -> int:
        """Bytes of the uniforms, the success host's rows and CSR, and one
        closure's infected mask and edge counts."""
        host = self.host
        return (self.u.nbytes + _nbytes(host) + host.n
                + host.num_edges * count_dtype(host.r).itemsize)

    def percolates(self, p: float) -> bool:
        """Whether the closure of {v : u_v < p} on the success host is every
        vertex.  These seed sets are nested in p, so the answer is settled at
        p >= hi or p <= lo_p; between them the first query closes the seeds
        and a later one grows a copy of lo by them."""
        if p >= self.hi:
            return True
        if p <= self.lo_p:
            return False
        seeds = self.u < p
        state = (closure(self.host, seeds) if self.lo is None
                 else self.lo.copy().grow(seeds))
        if len(state) == self.host.n:
            self.hi = p
            return True
        self.lo, self.lo_p = state, p
        return False


class _TrialSet:
    """The Monte Carlo trials of one (H, q, seed), each drawn once if kept.

    Trial k is its vertex uniforms, substream(seed, TRIAL, k, VERTEX_DRAW)
    .random(H.n), and its success host: the edges of H whose Bernoulli(q)
    coin from substream(seed, TRIAL, k, EDGE_COIN) succeeds, with their own
    CSR.  Neither depends on p.  A trial is kept when it is drawn, unless
    the kept trials' _Trial.nbytes would then sum past H's own rows and
    CSR; a trial not kept is drawn and closed again for each p.  Threads may
    share a set while each trial index is asked by one thread at a time; a
    lock makes the check and charge of the room one step.  The set is a
    context manager: count starts one thread pool and keeps it for every
    later count at the same thread count, and leaving the context (or
    close) shuts it down, so a scan or bisection starts its threads once.
    """

    def __init__(self, H: Hypergraph, q: float, seed: int):
        rng_mod.check_seed(seed)
        self.H, self.q, self.seed = H, q, seed
        self.kept: dict = {}
        self._room = _nbytes(H)
        self._lock = threading.Lock()
        self._pool = None   # (threads, ThreadPoolExecutor) once count needs it

    def __enter__(self) -> "_TrialSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down: queued trials are cancelled, running ones are
        waited for."""
        if self._pool is not None:
            self._pool[1].shutdown(cancel_futures=True)
            self._pool = None

    def _draw(self, k: int) -> _Trial:
        H, seed = self.H, self.seed
        u = rng_mod.substream(seed, rng_mod.TRIAL, k,
                              rng_mod.VERTEX_DRAW).random(H.n)
        won = sample_edge_set(H, self.q, rng_mod.substream(
            seed, rng_mod.TRIAL, k, rng_mod.EDGE_COIN))
        rows = H.edges_array.take(np.flatnonzero(won), axis=0)
        return _Trial(u, Hypergraph.from_rows(H.n, H.r, rows, canonical=True))

    def percolates(self, k: int, p: float, keep: bool) -> bool:
        """Whether trial k percolates at initial density p.  A kept trial is
        asked as it is; one drawn here is kept only when keep is set."""
        trial = self.kept.get(k)
        if trial is None:
            trial = self._draw(k)
            if keep:
                size = trial.nbytes
                with self._lock:
                    if size <= self._room:
                        self._room -= size
                        self.kept[k] = trial
        return trial.percolates(p)

    def count(self, p: float, trials: int, threads: int, keep: bool) -> int:
        """How many of trials 0..trials-1 percolate at p.  One thread counts
        them in the calling thread; more take them from the set's pool.  An
        error or Ctrl-C leaves the set's context, whose close cancels the
        queued trials, so the count ends once the running ones return."""
        if threads == 1:
            return sum(self.percolates(k, p, keep) for k in range(trials))
        if self._pool is None or self._pool[0] != threads:
            self.close()
            self._pool = (threads, ThreadPoolExecutor(max_workers=threads))
        futures = [self._pool[1].submit(self.percolates, k, p, keep)
                   for k in range(trials)]
        return sum(f.result() for f in as_completed(futures))


def percolation_probability_mc(H: Hypergraph, p: float, q: float,
                               trials: int, seed: int, workers: int = 1, *,
                               trial_set: Optional[_TrialSet] = None
                               ) -> MCResult:
    """Fraction of independent trials whose sampled instance percolates.

    A trial draws the initial infection Bernoulli(p) per vertex and a coin
    Bernoulli(q) per edge, then asks the closure whether everything gets
    infected.  min(workers, trials, os.cpu_count()) threads share the
    trials: one thread counts them in the calling thread, more take them
    from one executor queue (_TrialSet.count).  Totals are sums, so any
    thread count gives the identical result.  trial_set, the _TrialSet of
    this (H, q, seed), keeps the trials that every thread draws, and its
    pool, for later calls at other p; without it the call keeps nothing.
    """
    _check_count("trials", trials)
    _check_count("workers", workers)
    check_probability("p", p)
    check_probability("q", q)
    threads = min(workers, trials, os.cpu_count() or 1)
    if trial_set is None:
        with _TrialSet(H, q, seed) as lone:
            successes = lone.count(p, trials, threads, keep=False)
    elif (trial_set.H is not H or trial_set.q != q
          or trial_set.seed != seed):
        raise ValueError("trial set was drawn for another host, q or seed")
    else:
        successes = trial_set.count(p, trials, threads, keep=True)
    return MCResult(p=p, q=q, trials=int(trials), successes=int(successes))


# -- critical-density estimation -----------------------------------------------

@dataclass(frozen=True)
class PcEstimate:
    """Bisection output: a point estimate inside a surviving p-interval.

    ci_low/ci_high is the bracket still containing the threshold when the
    run stopped; stop_reason is "tol" when the bracket shrank below
    tolerance and "ambiguous" when the Wilson interval of the last
    evaluation straddled 1/2, in which case p_hat is that evaluation point
    itself.  evaluations holds every Monte Carlo evaluation in the order
    performed; each is reproducible from (seed, p) alone.
    """
    p_hat: float
    ci_low: float
    ci_high: float
    scaled: float
    evaluations: tuple
    stop_reason: str

    def to_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "scaled": self.scaled,
            "stop_reason": self.stop_reason,
            # every evaluation reads one trial set with one trial count, so
            # successes never fall as p grows and neither Wilson bound falls
            # as successes grow: no interval lies wholly above a later one,
            # the one thing a warning reported.  The key stays, always
            # empty, so the output format holds.
            "warnings": [],
            "evaluations": [ev.to_dict() for ev in self.evaluations],
        }


def estimate_pc_bisection(H: Hypergraph, q: float, seed: int,
                          trials: int = 50, tol: float = 0.01,
                          d: Optional[float] = None,
                          workers: int = 1) -> PcEstimate:
    """Bisect the initial density for the 1/2 percolation probability level.

    Percolation probability is nondecreasing in p (the trials reuse one set
    of uniforms across evaluations, so the empirical profile is monotone by
    construction, not just in expectation).  The endpoints are pinned at
    probability 0 and 1 and never evaluated.  scaled reports
    p_hat * d^(1/(r-1)) with d defaulting to the host's maximum degree; d
    must be positive and finite.  Every evaluation reads one trial set, so
    each trial is drawn and closed once within the memory bound of the
    module docstring, and later steps only grow its closure.
    """
    if not is_count(trials) or trials < 20:
        raise ValueError("bisection needs an integer of at least 20 trials "
                         f"per evaluation, got {trials!r}")
    _check_count("workers", workers)
    check_probability("q", q)
    _check_positive("tol", tol)
    if d is None:
        d = float(H.max_degree())
    _check_positive("degree scale d", d)
    lo, hi = 0.0, 1.0
    evals = []
    stop_reason = "tol"
    p_hat = None
    with _TrialSet(H, q, seed) as trial_set:
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            res = percolation_probability_mc(H, mid, q, trials, seed, workers,
                                             trial_set=trial_set)
            evals.append(res)
            ci_lo, ci_hi = res.ci
            if ci_lo <= 0.5 <= ci_hi:
                stop_reason = "ambiguous"
                p_hat = mid
                break
            if res.fraction >= 0.5:
                hi = mid
            else:
                lo = mid
    if p_hat is None:
        p_hat = (lo + hi) / 2.0
    return PcEstimate(
        p_hat=p_hat, ci_low=lo, ci_high=hi,
        scaled=p_hat * d ** (1.0 / (H.r - 1)),
        evaluations=tuple(evals), stop_reason=stop_reason)


# -- threshold scans -----------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    c: float
    result: MCResult
    predicted: str

    def to_dict(self) -> dict:
        out = self.result.to_dict()
        out["c"] = self.c
        out["predicted"] = self.predicted
        return out


def threshold_scan(H: Hypergraph, grid: Iterable[float], alpha: float,
                   d: float, trials: int, seed: int,
                   workers: int = 1) -> list:
    """Percolation fraction at p = c.d^(-1/(r-1)) for each c in the grid.

    Each row carries the side of the critical constant the theory predicts
    for that c ("subcritical", "supercritical", or "boundary" inside the
    numerical dead-band).  All rows read one trial set, so the fractions
    are nondecreasing in c exactly, and each trial is drawn and closed once
    within the memory bound of the module docstring.
    """
    _check_count("workers", workers)
    cs = []
    for c in grid:
        if not is_number(c):
            raise ValueError(f"grid value c={c} is a {type(c).__name__}, "
                             "not a number")
        cs.append(float(c))
    if not cs:
        raise ValueError("scan needs a nonempty grid")
    grid_params = [ModelParams(r=H.r, c=c, alpha=alpha, d=d) for c in cs]
    rows = []
    # q does not depend on c
    with _TrialSet(H, grid_params[0].q, seed) as trial_set:
        for params in grid_params:
            res = percolation_probability_mc(H, params.p, params.q, trials,
                                             seed, workers,
                                             trial_set=trial_set)
            rows.append(ScanRow(c=params.c, result=res,
                                predicted=classify_criticality(params).value))
    return rows


# -- trajectory recording ------------------------------------------------------

@dataclass(frozen=True)
class StarSample:
    """Mean pendant-star count over sampled vertices at one time point."""
    t: float
    i: int
    j: int
    mean: float
    predicted: float
    vertices: int

    def to_dict(self) -> dict:
        return {"t": self.t, "i": self.i, "j": self.j, "mean": self.mean,
                "predicted": self.predicted, "vertices": self.vertices}


@dataclass(frozen=True)
class TrajectoryTrace:
    index: int
    percolated: bool
    infected_count: int
    sampled_count: int
    rows: tuple
    stars: tuple = ()

    def to_dict(self) -> dict:
        """The run's summary: everything but its trace rows and reveals."""
        return {"index": self.index, "percolated": self.percolated,
                "infected_count": self.infected_count,
                "stars": [s.to_dict() for s in self.stars]}


def _star_samples(H: Hypergraph, infected, live, t: float,
                  indices: Sequence, sample: np.ndarray,
                  params: ModelParams) -> list:
    out = []
    for (i, j) in indices:
        mean = float(np.mean([
            count_pendant_stars(H, infected, int(v), i, j, active=live)
            for v in sample]))
        pred = (star_density(t, i, j, params)
                * params.d ** (1.0 - i / (params.r - 1)))
        out.append(StarSample(t=t, i=i, j=j, mean=mean, predicted=pred,
                              vertices=len(sample)))
    return out


def record_trajectory(H: Hypergraph, params: ModelParams, seed: int,
                      index: int = 0, trace_stride: Optional[int] = None,
                      star_indices: Sequence = (),
                      star_vertices: int = 0) -> TrajectoryTrace:
    """One full process run with its trace, plus optional star sampling.

    Process run `index` under master `seed` is full_pipeline under the
    first word of the stream key of (seed, TRIAL, index).  Each star index
    is a pair (i, j) of integers in pendant_star_config's ranges for H.r.
    Star counts are taken against the live (not yet revealed) edges at the
    start and at the end of the single-reveal phase.
    """
    if not is_count(star_vertices) or star_vertices < 0:
        raise ValueError(f"star_vertices={star_vertices!r} must be a "
                         "nonnegative integer")
    for ij in star_indices:
        if not (isinstance(ij, (tuple, list)) and len(ij) == 2
                and all(map(is_count, ij))):
            raise ValueError(f"star index {ij!r} is not a pair (i, j) of "
                             "integers")
        pendant_star_config(H.r, *ij)
    trial_seed = int(rng_mod.stream_key(seed, rng_mod.TRIAL, index)[0])
    stars: list = []
    observe = None
    if star_vertices > 0 and star_indices:
        picker = rng_mod.substream(trial_seed, rng_mod.INSTANCE)
        sample = picker.choice(H.n, size=min(star_vertices, H.n),
                               replace=False)

        def observe(ps: ProcessState) -> None:
            stars.extend(_star_samples(H, ps.state.infected, ps.state.live,
                                       ps.m / H.n, star_indices, sample,
                                       ps.params))

    res = full_pipeline(H, params, trial_seed, trace_stride, observe)
    return TrajectoryTrace(
        index=index, percolated=res.percolated,
        infected_count=res.infected_count, sampled_count=res.sampled_count,
        rows=tuple(res.trace), stars=tuple(stars))


# -- reports -------------------------------------------------------------------

def _constants_dict(params: ModelParams, n_vertices: int) -> dict:
    try:
        return derive_constants(params.bind(n_vertices)).to_dict()
    except (BoundaryError, ValueError, RuntimeError) as exc:
        return {"error": str(exc)}


def build_report(spec: ExperimentSpec, result: dict, H: Hypergraph) -> dict:
    """Assemble the full report; content depends only on spec and seed."""
    return {
        "spec": spec.to_dict(),
        "host": {"n": H.n, "r": H.r, "num_edges": H.num_edges},
        "constants": _constants_dict(spec.params, H.n),
        "environment": {"seed": spec.seed, "version": __version__},
        "result": result,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class RunOutcome:
    """A JSON-ready report plus the trace objects trajectory mode produced."""
    report: dict
    traces: tuple = ()


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> RunOutcome:
    """Dispatch one spec to its mode and wrap the outcome in a report."""
    H = spec.model.build()
    params = spec.params
    params.check_uniformity(H.r)
    traces: tuple = ()
    if spec.mode == "percolation_prob":
        res = percolation_probability_mc(H, params.p, params.q, spec.trials,
                                         spec.seed, workers)
        result = {"mode": spec.mode, **res.to_dict()}
    elif spec.mode == "pc_bisect":
        est = estimate_pc_bisection(H, params.q, spec.seed,
                                    trials=spec.trials, tol=spec.tol,
                                    d=params.d, workers=workers)
        result = {"mode": spec.mode, **est.to_dict()}
    elif spec.mode == "scan":
        rows = threshold_scan(H, spec.grid, params.alpha, params.d,
                              spec.trials, spec.seed, workers)
        result = {"mode": spec.mode, "rows": [row.to_dict() for row in rows]}
    else:
        traces = tuple(
            record_trajectory(H, params, spec.seed, index=k,
                              trace_stride=spec.trace_stride,
                              star_indices=spec.star_indices,
                              star_vertices=spec.star_vertices)
            for k in range(spec.trials))
        result = {"mode": spec.mode, "traces": [
            {**tr.to_dict(), "final_fraction": tr.infected_count / H.n}
            for tr in traces]}
    return RunOutcome(report=build_report(spec, result, H), traces=traces)
