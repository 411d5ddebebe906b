"""The four benchmark workloads and the requests they send.

Every request comes from a fixed pool whose output digests are stored in
reference.json, so each output a run produces can be checked.  The run seed
only picks and orders pool entries (and, for the census, which of a few
stored infection states is used); it never makes an input with no stored
reference.

Library entry points are looked up through their module at call time
(``processes.full_pipeline``, not a name imported from it), so the tracer's
patches on those bindings see every call the benchmark makes.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from hyperboot import builders, census, experiments, processes
from hyperboot.theory import ModelParams

ALPHA = 1.0   # edge constant alpha; with r = 3 the critical c* is 0.25


@dataclass(frozen=True)
class Request:
    """One library call and how to turn its output into checkable bytes.

    key names the pool entry in the reference table; render returns the
    canonical output bytes and the number of work items the call did.
    """
    key: str
    run: Callable[[], object]
    render: Callable[[object], tuple]


def triangle_lift(n: int):
    """Triangle lift of K_n: one vertex per edge of K_n, one edge per triangle."""
    return builders.bootstrap_lift(builders.complete_uniform(n, 2),
                                   builders.load_pattern("k3"))


def _call(module, name: str, *args, **kwargs):
    # resolve at call time so a patched binding is the one that runs
    return getattr(module, name)(*args, **kwargs)


def cycle(items: list, seed: int) -> Iterator:
    """The items in an order drawn from seed, repeated without end."""
    order = np.random.default_rng(seed).permutation(len(items))
    while True:
        for i in order:
            yield items[i]


class Scan:
    """threshold_scan over a grid straddling c*; one request is one scan."""

    n_states = 1
    calibration = {"memory": 1.0}     # closure is bound by memory latency

    def __init__(self, name: str, n: int, grid: tuple, trials: int,
                 pool: int, trace_requests: int):
        self.name, self.n, self.grid, self.trials = name, n, grid, trials
        self.pool_size, self.trace_requests = pool, trace_requests
        self.item = "trial evaluations (grid points x trials)"

    def setup(self, seed: int):
        return triangle_lift(self.n)

    def scan(self, H, seed: int, workers: int = 1) -> list:
        return experiments.threshold_scan(H, self.grid, ALPHA,
                                          float(H.max_degree()), self.trials,
                                          seed, workers=workers)

    @staticmethod
    def render(rows: list) -> tuple:
        text = json.dumps([row.to_dict() for row in rows], sort_keys=True)
        return text.encode(), sum(row.result.trials for row in rows)

    def pool(self, H) -> list:
        return [Request(f"{self.name}/{k}", partial(self.scan, H, k),
                        self.render) for k in range(self.pool_size)]

    def sequence(self, H, seed: int) -> Iterator[Request]:
        return cycle(self.pool(H), seed)

    def render_two_workers(self, H, request: Request) -> bytes:
        """The request's scan rendered from a run with workers=2."""
        seed = int(request.key.rsplit("/", 1)[1])
        return self.render(self.scan(H, seed, workers=2))[0]


class Pipeline:
    """full_pipeline runs at a fixed c; one request is one run."""

    n_states = 1

    def __init__(self, name: str, n: int, c: float, pool: int,
                 trace_requests: int, calibration: dict):
        self.name, self.n, self.c = name, n, c
        self.calibration = calibration
        self.pool_size, self.trace_requests = pool, trace_requests
        self.item = "reveals (PipelineResult.sampled_count)"

    def setup(self, seed: int):
        H = triangle_lift(self.n)
        return H, ModelParams(r=H.r, c=self.c, alpha=ALPHA,
                              d=float(H.max_degree()))

    @staticmethod
    def render(res) -> tuple:
        buf = io.StringIO()
        processes.write_trace_csv(res.trace, buf)
        buf.write(f"percolated={res.percolated},infected={res.infected_count},"
                  f"sampled={res.sampled_count}\n")
        return buf.getvalue().encode(), res.sampled_count

    def pool(self, state) -> list:
        H, params = state
        return [Request(f"{self.name}/{k}",
                        partial(_call, processes, "full_pipeline", H, params, k),
                        self.render) for k in range(self.pool_size)]

    def sequence(self, state, seed: int) -> Iterator[Request]:
        return cycle(self.pool(state), seed)


@dataclass
class CensusState:
    index: int
    H: object
    infections: dict      # state name -> (infected mask, live-edge mask or None)
    vertices: np.ndarray


class Census:
    """Census counters on two infection states, plus one generic-pattern lift.

    One request is one counter call or the lift.  Each sampled vertex gets
    the same fixed list of calls on both states, so every prefix of a run
    has the same mix of call kinds.
    """

    CALLS = (("count_pendant_stars", 0, 1), ("count_pendant_stars", 0, 2),
             ("count_pendant_stars", 1, 1), ("count_general_stars", 0, 1),
             ("count_general_stars", 0, 2), ("count_general_stars", 1, 1),
             ("count_rooted_copies", 0, 1))

    calibration = {"objects": 1.0}    # the matchers are call-overhead bound

    def __init__(self, name: str, n: int, sparse_c: float, dense_p: float,
                 dense_live: float, states: int, vertices: int, lift: tuple,
                 trace_requests: int):
        self.name, self.n = name, n
        self.sparse_c, self.dense_p, self.dense_live = sparse_c, dense_p, dense_live
        self.n_states, self.n_vertices, self.lift = states, vertices, lift
        self.trace_requests = trace_requests
        self.item = "counter calls (the lift is a request, not a counter call)"

    def setup(self, seed: int) -> CensusState:
        H = triangle_lift(self.n)
        index = seed % self.n_states
        rng = np.random.default_rng(index)
        p = ModelParams(r=H.r, c=self.sparse_c, alpha=ALPHA,
                        d=float(H.max_degree())).p
        sparse = rng.random(H.n) < p
        dense = rng.random(H.n) < self.dense_p
        live = rng.random(H.num_edges) < self.dense_live
        vertices = rng.choice(H.n, size=self.n_vertices, replace=False)
        return CensusState(index, H, {"sparse": (sparse, None),
                                      "dense": (dense, live)}, vertices)

    def lift_request(self) -> Request:
        n, pattern = self.lift

        def run():
            return builders.bootstrap_lift(builders.complete_uniform(n, 2),
                                           builders.load_pattern(pattern))

        def render(L) -> tuple:
            head = f"{L.n},{L.r},{L.num_edges}\n".encode()
            return head + L.edges_array.tobytes(), 0

        return Request(f"{self.name}/lift/{n}/{pattern}", run, render)

    def vertex_requests(self, st: CensusState, v: int) -> list:
        out = []
        for state_name, (infected, live) in st.infections.items():
            for fn, i, j in self.CALLS:
                if fn == "count_rooted_copies":
                    args = (st.H, infected, census.pendant_star_config(st.H.r, i, j),
                            [v], live)
                else:
                    args = (st.H, infected, v, i, j, live)
                out.append(Request(
                    f"{self.name}/{st.index}/{state_name}/{v}/{fn}/{i}{j}",
                    partial(_call, census, fn, *args),
                    lambda count: (str(count).encode(), 1)))
        return out

    def pool(self, st: CensusState) -> list:
        reqs = [self.lift_request()]
        for v in st.vertices:
            reqs.extend(self.vertex_requests(st, int(v)))
        return reqs

    def sequence(self, st: CensusState, seed: int) -> Iterator[Request]:
        yield self.lift_request()
        per_vertex = [self.vertex_requests(st, int(v)) for v in st.vertices]
        for reqs in cycle(per_vertex, seed):
            yield from reqs


# K_200 and K_120 triangle lifts as in the issue, except the supercritical
# pipeline: one K_200 run takes 20-26 s on a 2-core box, longer than a run,
# so it runs on K_120 (about 5 s and 130-140 k reveals per run).
FULL = {
    "scan_k200": Scan("scan_k200", n=200, grid=(0.125, 0.25, 0.375, 0.5),
                      trials=2, pool=8, trace_requests=3),
    # long runs mix large-container bookkeeping with per-coin call overhead;
    # short ones are dominated by the healthy-count pass of InfectionState set-up
    "pipeline_k120": Pipeline("pipeline_k120", n=120, c=0.5, pool=8,
                              trace_requests=2,
                              calibration={"memory": 0.5, "objects": 0.5}),
    "dieout_k200": Pipeline("dieout_k200", n=200, c=0.1, pool=512,
                            trace_requests=100, calibration={"mixed": 1.0}),
    "census_k120": Census("census_k120", n=120, sparse_c=0.5, dense_p=0.3,
                          dense_live=0.8, states=4, vertices=16,
                          lift=(20, "c4"), trace_requests=29),
}

# The same workload code on tiny lifts; every pool entry runs.
SMOKE = {
    "scan_k200": Scan("scan_k200", n=20, grid=(0.125, 0.25, 0.375, 0.5),
                      trials=2, pool=2, trace_requests=2),
    "pipeline_k120": Pipeline("pipeline_k120", n=70, c=0.5, pool=2,
                              trace_requests=2,
                              calibration={"memory": 0.5, "objects": 0.5}),
    "dieout_k200": Pipeline("dieout_k200", n=40, c=0.1, pool=16,
                            trace_requests=16, calibration={"mixed": 1.0}),
    "census_k120": Census("census_k120", n=20, sparse_c=0.5, dense_p=0.3,
                          dense_live=0.8, states=1, vertices=2, lift=(8, "c4"),
                          trace_requests=29),
}

SCALES = {"full": FULL, "smoke": SMOKE}
