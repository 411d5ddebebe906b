"""Randomized revelation processes driving the infection dynamics.

Each hyperedge carries a single Bernoulli(q) coin that is revealed at most
once, when the edge is first sampled; the coin's value is a pure function of
(seed, edge id), so no schedule can change it.  Phase 1 reveals one uniformly
random open edge per step, stopping if the open set empties; the state is
then absorbing.  Its index draws come from the choice stream, read only
through the process's rng.IndexDraws, which draws exactly what
choice.integers would.  Phase 2 reveals in rounds: subcritically every
open edge at once, supercritically a per-vertex budgeted prefix followed by
saturation sweeps.  Because coins are per-edge, the final infected set of any
schedule that exhausts the open set equals the deterministic closure under
the coin success set; that coupling is the central correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import log
from typing import Callable, Iterable, Optional

import numpy as np

from . import rng as rng_mod
from .engine import InfectionState, _word_test, sample_vertex_set
from .hypergraph import Hypergraph, check_probability, is_count
from .theory import (Criticality, ModelParams, derive_constants,
                     open_edge_density)

PHASE1 = "phase1"
PHASE2_SUB = "phase2_sub"
PHASE2_SUPER = "phase2_super"
QUIESCENT = "quiescent"

TRACE_HEADER = "m,t,Q,I,gamma_pred,phase"


# Coins are read from the stream in aligned blocks of this many edges.  A
# subcritical run uses a few hundred coins scattered over ~1e6 edges, one or
# two per block, so a short block reads few unused words; a re-key is cheap
# enough that a long run's extra blocks cost little.  A block reads one
# 4-word Philox block per coin and compares its first raw word with a bound.
COIN_BLOCK = 128


class CoinOracle:
    """Lazy memoized per-edge Bernoulli(q) coins on a counter-based stream.

    outcome(e) is whether the uniform at position e of the keyed stream is
    below q, a function of (key, e) alone, decided bit for bit on the raw
    word at e (see rng.value_at) with sample_edge_set's integer bound
    (engine._word_test).  The first read in a block reads the whole aligned
    COIN_BLOCK of words in one value_at call, which re-keys the oracle's own
    Philox at the block's counter instead of building a generator, and keeps
    its coins.  outcomes reveals the coins of a list of edges at once.
    drawn records the coins revealed so far, in reveal order; it is a
    process's one reveal log, and a process reveals each edge once.
    success_mask computes every coin at once without revealing any, which
    is how the closure oracle recovers the exact edge subset the process
    was coupled to.
    """

    def __init__(self, q: float, master_seed: int, *path: int):
        check_probability("q", q)
        self.q = q
        self._test, self._bound = _word_test(q)
        self._key = rng_mod.stream_key(master_seed, *path)
        # re-keyed by every block read instead of building a Philox per read
        self._gen = np.random.Generator(np.random.Philox(key=self._key))
        self._blocks: dict = {}
        self.drawn: dict = {}

    def _block(self, b: int) -> np.ndarray:
        block = self._blocks.get(b)
        if block is None:
            block = self._test(rng_mod.value_at(
                self._key, b * COIN_BLOCK, COIN_BLOCK, self._gen), self._bound)
            self._blocks[b] = block
        return block

    def outcome(self, e: int) -> bool:
        b, i = divmod(e, COIN_BLOCK)
        block = self._blocks.get(b)
        if block is None:
            block = self._block(b)
        got = self.drawn[e] = bool(block[i])
        return got

    def outcomes(self, edges: list) -> np.ndarray:
        """Coins of a list of edge ids, each equal to outcome(e); reads every
        missing block once and records exactly these coins in drawn, keyed
        by the given id objects."""
        b, i = np.divmod(np.array(edges, dtype=np.int64), COIN_BLOCK)
        needed, which = np.unique(b, return_inverse=True)
        blocks = [self._block(k) for k in needed.tolist()]
        got = np.stack(blocks)[which, i] if blocks else np.zeros(0, dtype=bool)
        del b, i, which, blocks     # before drawn may grow its table
        self.drawn.update(zip(edges, got.tolist()))
        return got

    def success_mask(self, num_edges: int) -> np.ndarray:
        return self._test(rng_mod.value_at(self._key, 0, num_edges,
                                           self._gen), self._bound)


@dataclass
class TraceRow:
    m: int
    t: float
    open_count: int
    infected_count: int
    gamma_pred: float
    phase: str


def write_trace_csv(rows: Iterable[TraceRow], fh) -> None:
    """Trace CSV: header m,t,Q,I,gamma_pred,phase; floats at 17 sig digits."""
    fh.write(TRACE_HEADER + "\n")
    for row in rows:
        fh.write(f"{row.m},{row.t:.17g},{row.open_count},{row.infected_count},"
                 f"{row.gamma_pred:.17g},{row.phase}\n")


class ProcessState:
    """An InfectionState plus the process bookkeeping around it.

    draws holds the phase-1 index draws on the choice stream, None without
    one; phase 1 split over several phase1_run calls draws what one would.
    The run's reveals are the coins its oracle has revealed, so each
    ProcessState owns a fresh CoinOracle.
    """

    def __init__(self, H: Hypergraph, infected0, coins: CoinOracle,
                 choice: Optional[np.random.Generator] = None,
                 params: Optional[ModelParams] = None):
        self.H = H
        self.state = InfectionState(H, infected0)
        self.coins = coins
        self.draws = None if choice is None else rng_mod.IndexDraws(choice)
        self.params = params
        self.m = 0          # phase-1 steps taken
        self.rounds = 0     # phase-2 rounds taken
        self.trace: list = []

    @property
    def sampled(self) -> list:
        """The revealed edge ids in reveal order, as a new list."""
        return list(self.coins.drawn)

    def _gamma_pred(self, t: float) -> float:
        if self.params is None:
            return float("nan")
        return open_edge_density(t, self.params) * self.H.n

    def record(self, phase: str) -> None:
        t = self.m / self.H.n
        self.trace.append(TraceRow(self.m, t, self.state.open_count,
                                   self.state.infected_count,
                                   self._gamma_pred(t), phase))


def phase1_run(ps: ProcessState, steps: int, trace_stride: int) -> bool:
    """Reveal one uniform open edge per step, for at most `steps` steps, a
    non-negative integer; a bool is refused as a budget or a stride.

    Stops early, recording quiescence, the moment the open set empties; an
    empty open set is absorbing, so nothing after it could act.  Trace rows
    are emitted at step 0, every `trace_stride` steps, and at the end.
    Returns True when the run went quiescent before exhausting its budget.
    """
    if not is_count(steps) or steps < 0:
        raise ValueError(f"step budget {steps!r} must be a non-negative "
                         "integer")
    if ps.draws is None:
        raise ValueError("phase 1 needs a choice stream")
    if not is_count(trace_stride) or trace_stride < 1:
        raise ValueError(f"trace stride {trace_stride!r} must be an "
                         "integer of at least 1")
    draw = ps.draws.draw
    if ps.m == 0:
        ps.record(PHASE1)
    open_list = ps.state.open_list
    for _ in range(steps):
        if not open_list:
            ps.record(QUIESCENT)
            return True
        _reveal_one(ps, open_list[draw(len(open_list))])
        ps.m += 1
        if ps.m % trace_stride == 0:
            ps.record(PHASE1)
    if ps.m % trace_stride != 0:
        ps.record(PHASE1)
    return False


def subcritical_round(ps: ProcessState) -> int:
    """One simultaneous round: reveal every open edge, then apply infections.

    The open set is snapshotted first, so infections triggered by this
    round's successes do not feed back into it; every snapshotted edge is
    removed, which forces the next open set to be disjoint from this one.
    Returns the number of successful reveals.
    """
    successes = _reveal_batch(ps, sorted(ps.state.open_list))
    ps.rounds += 1
    return successes


def _reveal_one(ps: ProcessState, e: int) -> None:
    """Reveal one open edge, a phase-1 or drain step: remove it, which
    checks that it is open and returns its healthy vertex, then reveal its
    coin and on a hit infect that vertex."""
    st = ps.state
    u = st.remove_edge(e)
    if ps.coins.outcome(e):
        st.infect(u)


def _reveal_batch(ps: ProcessState, edges: list) -> int:
    """Reveal a batch of distinct open edges, then infect the vertices they
    hit.

    One remove_open_edges call checks the batch whole before anything
    changes, removes it and returns each edge's healthy vertex, all read
    before any infection, so the batch acts simultaneously; then every
    edge's coin is revealed and the hit vertices are infected one by one in
    batch order, skipping repeats.  With _reveal_one, the only place a coin
    is revealed.  drawn keeps the given id objects, so a batch taken from
    open_list allocates no new ones.  Returns the number of successful
    reveals.
    """
    st = ps.state
    healthy = st.remove_open_edges(edges)
    hit = ps.coins.outcomes(edges)
    for u in healthy[hit].tolist():
        if not st.infected[u]:
            st.infect(u)
    return int(hit.sum())


def supercritical_budget(n_vertices: int, round_index: int) -> int:
    """Per-vertex reveal budget ceil((log N)^((3/2)^m)) for round m >= 1."""
    if round_index < 1:
        raise ValueError("budget applies from round 1 on")
    return int(math.ceil(log(n_vertices) ** (1.5 ** round_index)))


def saturation_threshold(params: ModelParams) -> int:
    """Open-degree level ceil(d^(1/(r-1) + 1/10)) that triggers a full sweep."""
    return int(math.ceil(params.d ** (1.0 / (params.r - 1) + 0.1)))


def supercritical_round(ps: ProcessState) -> None:
    """One budgeted round followed by saturation sweeps.

    Round 0 reveals the whole open set.  Later rounds reveal, per healthy
    vertex, the lowest-id prefix of its open edges up to the doubling budget,
    simultaneously.  Afterwards, any healthy vertex holding at least the
    saturation threshold of open edges gets its entire open set revealed,
    repeatedly, until no vertex qualifies.
    """
    if ps.params is None:
        raise ValueError("supercritical rounds need model params")
    st = ps.state
    if ps.rounds == 0:
        chosen = sorted(st.open_list)
    else:
        budget = supercritical_budget(ps.H.n, ps.rounds)
        vertices, edges = st.open_by_vertex()
        # rank of each edge among its vertex's edges: offset from the first
        rank = np.arange(len(edges)) - np.searchsorted(vertices, vertices)
        chosen = edges[rank < budget].tolist()
    _reveal_batch(ps, chosen)
    # saturation sweeps, lowest qualifying vertex first
    threshold = saturation_threshold(ps.params)
    while (saturated := st.lowest_saturated(threshold)) is not None:
        _reveal_batch(ps, saturated[1].tolist())
    ps.rounds += 1


def drain(ps: ProcessState) -> None:
    """Reveal open edges (deterministic order) until none remain."""
    st = ps.state
    while st.open_count:
        _reveal_one(ps, st.open_list[-1])


@dataclass
class PipelineResult:
    percolated: bool
    trace: list
    infected_count: int
    initial_infected: np.ndarray
    coins: CoinOracle
    sampled_count: int


def full_pipeline(H: Hypergraph, params: ModelParams, seed: int,
                  trace_stride: Optional[int] = None,
                  observe: Optional[Callable[[ProcessState], None]] = None
                  ) -> PipelineResult:
    """Draw the initial infection, run both phases, then drain to a verdict.

    Phase lengths come from the derived constants of the bound parameters;
    the regime picks the round type.  The terminal drain makes percolation
    decidable at any scale: it cannot create infections the round phase
    would not eventually have found, by the per-edge-coin coupling.
    observe, if given, is called with the process state after set-up and
    again at the end of phase 1.
    """
    params.check_uniformity(H.r)
    bound = params.bind(H.n)
    if bound.p > 1.0:
        raise ValueError(f"initial density p={bound.p:.4g} exceeds 1")
    if bound.q > 1.0:
        raise ValueError(f"edge probability q={bound.q:.4g} exceeds 1")
    constants = derive_constants(bound)
    vertex_stream = rng_mod.substream(seed, rng_mod.VERTEX_DRAW)
    choice_stream = rng_mod.substream(seed, rng_mod.PROCESS_CHOICE)
    coins = CoinOracle(bound.q, seed, rng_mod.EDGE_COIN)
    init = sample_vertex_set(H, bound.p, vertex_stream)
    ps = ProcessState(H, init, coins, choice_stream, bound)
    if observe is not None:
        observe(ps)
    if trace_stride is None:
        trace_stride = max(1, constants.phases.steps // 50)
    quiet = phase1_run(ps, constants.phases.steps, trace_stride)
    if observe is not None:
        observe(ps)
    if not quiet:
        subcritical = constants.criticality is Criticality.SUBCRITICAL
        round_fn = subcritical_round if subcritical else supercritical_round
        phase_tag = PHASE2_SUB if subcritical else PHASE2_SUPER
        for _ in range(constants.phases.rounds):
            round_fn(ps)
            ps.record(phase_tag)
            if not ps.state.open_count:
                break
        drain(ps)
        ps.record(QUIESCENT)
    return PipelineResult(
        percolated=ps.state.infected_count == H.n,
        trace=ps.trace,
        infected_count=ps.state.infected_count,
        initial_infected=init,
        coins=coins,
        sampled_count=len(coins.drawn))
