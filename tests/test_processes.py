"""Two-phase revelation processes, coin coupling, trace contract."""

import hashlib
import io
import math

import numpy as np
import pytest

from conftest import assert_open_by_vertex, edge_lists, random_hypergraph
from hyperboot import rng as rng_mod
from hyperboot.builders import bootstrap_lift, complete_uniform, load_pattern
from hyperboot.engine import closure
from hyperboot.hypergraph import Hypergraph
from hyperboot.processes import (COIN_BLOCK, PHASE1, PHASE2_SUB,
                                 PHASE2_SUPER, QUIESCENT, TRACE_HEADER,
                                 CoinOracle, ProcessState,
                                 _reveal_batch, drain, full_pipeline,
                                 phase1_run, saturation_threshold,
                                 subcritical_round, supercritical_budget,
                                 supercritical_round, write_trace_csv)
from hyperboot.theory import ModelParams
from oracles import (open_by_vertex_oracle, open_edges_oracle,
                     reveal_batch_oracle, run_to_quiescence)

TWO_EDGE = Hypergraph.from_rows(5, 3, [[0, 1, 2], [2, 3, 4]])


def _coins(q, seed=0):
    return CoinOracle(q, seed, rng_mod.EDGE_COIN)


def _choice(seed=0):
    return rng_mod.substream(seed, rng_mod.PROCESS_CHOICE)


def test_coin_oracle_is_a_pure_function_of_seed_and_edge():
    a = _coins(0.4, seed=5)
    b = _coins(0.4, seed=5)
    # draw in different orders; outcomes must agree edge by edge
    left = [a.outcome(e) for e in range(40)]
    right = [b.outcome(e) for e in reversed(range(40))][::-1]
    assert left == right
    assert list(a.success_mask(40)) == left
    assert _coins(0.0).success_mask(30).sum() == 0
    assert _coins(1.0).success_mask(30).sum() == 30
    # block reads equal the words read one at a time, across block edges
    # and past m, and each word makes the variate at its position
    key = rng_mod.stream_key(5, rng_mod.EDGE_COIN)
    gen = np.random.Generator(np.random.Philox(key=key))
    for start, size in [(0, 300), (255, 3), (256, 1), (257, 10), (43, 600)]:
        block = rng_mod.value_at(key, start, size, gen)
        assert block.dtype == np.uint64
        assert block.tolist() == [_word(key, start + j) for j in range(size)]
        assert ((block >> np.uint64(11)) * 2.0 ** -53).tolist() == [
            _variate(key, start + j) for j in range(size)]
    H = bootstrap_lift(complete_uniform(12, 2), load_pattern("k3"))
    order = np.random.default_rng(3).permutation(H.num_edges).tolist()
    c = _coins(0.4, seed=5)
    got = {e: c.outcome(e) for e in order}
    assert got == {e: _variate(key, e) < 0.4 for e in order}
    assert c.drawn == got
    assert list(c.success_mask(H.num_edges)) == [got[e] for e in
                                                 range(H.num_edges)]
    # success_mask computes coins without revealing them
    fresh = _coins(0.4, seed=5)
    fresh.success_mask(H.num_edges)
    assert fresh.drawn == {}


def _fresh_generator(key, start):
    bg = np.random.Philox(key=key)
    bg.advance(start)
    return np.random.Generator(bg)


def _variate(key, index):
    """The variate at position index of a keyed stream, from a fresh
    advanced Philox."""
    return _fresh_generator(key, index).random()


def _word(key, index):
    """The raw 64-bit word at position index of a keyed stream, from a
    fresh advanced Philox."""
    return int(_fresh_generator(key, index).bit_generator.random_raw())


def test_value_at_equals_a_fresh_advanced_philox():
    gen = np.random.Generator(np.random.Philox(key=rng_mod.stream_key(9, 9)))
    for seed in (5, 6):
        key = rng_mod.stream_key(seed, rng_mod.EDGE_COIN)
        for start in (0, 1, 127, 128, 255, 256, 12_800, 280_576):
            for size in (1, COIN_BLOCK, 256):
                want = _fresh_generator(key, start).bit_generator.random_raw(
                    4 * size)[::4]
                # a reused generator, re-keyed from another stream's state
                got = rng_mod.value_at(key, start, size, gen)
                assert np.array_equal(got, want), (seed, start, size)
                # a generator left with a partly used 4-word buffer
                gen.random()
                assert 0 < gen.bit_generator.state["buffer_pos"] < 4
                got = rng_mod.value_at(key, start, size, gen)
                assert np.array_equal(got, want), (seed, start, size)
    # a partly consumed generator is re-keyed whole, a half word included
    gen.integers(7)
    assert gen.bit_generator.state["has_uint32"] == 1
    key = rng_mod.stream_key(5, rng_mod.EDGE_COIN)
    fresh = _fresh_generator(key, 3)
    assert (rng_mod.value_at(key, 3, 1, gen).tolist()
            == fresh.bit_generator.random_raw(4)[::4].tolist())
    assert gen.integers(7, size=9).tolist() == fresh.integers(7, size=9).tolist()


def test_coins_equal_value_at_below_q_across_block_edges():
    """Coins decided on raw words against the word bound equal the fresh
    variate below q, at both ends of [0, 1] and next to them."""
    key = rng_mod.stream_key(5, rng_mod.EDGE_COIN)
    edges = [e + k * COIN_BLOCK for k in range(4) for e in (-1, 0, 1)][1:]
    edges += list(range(2 * COIN_BLOCK + 2, 3 * COIN_BLOCK - 1))
    for q in (0.0, 2.0 ** -60, 0.3, np.nextafter(1.0, 0.0), 1.0):
        want = [_variate(key, e) < q for e in edges]
        scalar, batch = _coins(q, seed=5), _coins(q, seed=5)
        assert [scalar.outcome(e) for e in reversed(edges)] == want[::-1]
        assert batch.outcomes(edges).tolist() == want
        assert batch.drawn == scalar.drawn == dict(zip(edges, want))
        mask = _coins(q, seed=5).success_mask(max(edges) + 1)
        assert mask[edges].tolist() == want


def test_coin_outcomes_match_scalar_outcomes():
    ref = _coins(0.4, seed=5)
    c = _coins(0.4, seed=5)
    # across block edges, out of order
    first = [511, 3, 255, 256, 257, 512, 1000, 0]
    assert c.outcomes(first).tolist() == [ref.outcome(e) for e in first]
    assert list(c.drawn.items()) == [(e, ref.outcome(e)) for e in first]
    # already-drawn edges keep their coin and their place in drawn
    second = [256, 2000, 3, 700, 2001]
    assert c.outcomes(second).tolist() == [ref.outcome(e) for e in second]
    assert list(c.drawn) == first + [2000, 700, 2001]
    assert c.drawn == {e: ref.outcome(e) for e in c.drawn}
    assert all(c.outcome(e) == ref.outcome(e) for e in range(1200))
    assert c.outcomes([]).size == 0
    assert len(c.drawn) == 1200 + 2


def test_coin_oracle_rejects_bad_probability():
    with pytest.raises(ValueError):
        _coins(1.5)


def test_phase1_with_dead_coins_only_removes_edges():
    H = bootstrap_lift(complete_uniform(10, 2), load_pattern("k3"))
    infected0 = [0, 1, 2, 3]
    # budget below the initial open count: exactly that many removals
    ps = ProcessState(H, infected0, _coins(0.0, 11), _choice(11))
    q0 = ps.state.open_count
    assert q0 > 3
    went_quiet = phase1_run(ps, 3, trace_stride=1)
    assert not went_quiet
    assert len(ps.sampled) == 3 and ps.m == 3
    assert ps.state.infected_count == len(infected0)
    # budget above: stops at quiescence after q0 removals
    ps2 = ProcessState(H, infected0, _coins(0.0, 11), _choice(11))
    went_quiet = phase1_run(ps2, 10 ** 6, trace_stride=50)
    assert went_quiet
    assert len(ps2.sampled) == q0 and ps2.m == q0
    assert ps2.state.infected_count == len(infected0)
    assert ps2.trace[-1].phase == QUIESCENT


def test_phase1_rejects_a_bad_step_budget_before_acting():
    H = bootstrap_lift(complete_uniform(8, 2), load_pattern("k3"))
    for steps in (-5, -1, 2.5, 3.0, "3", None, True, False, np.bool_(True)):
        ps = ProcessState(H, [0, 1, 2], _coins(0.5, 3), _choice(3))
        with pytest.raises(ValueError, match="step budget"):
            phase1_run(ps, steps, trace_stride=2)
        assert ps.trace == [] and ps.sampled == [] and ps.m == 0
    for stride in (0, -2, 2.0, None, True, np.bool_(True), np.bool_(False)):
        ps = ProcessState(H, [0, 1, 2], _coins(0.5, 3), _choice(3))
        with pytest.raises(ValueError, match="trace stride"):
            phase1_run(ps, 3, trace_stride=stride)
        assert ps.trace == [] and ps.sampled == [] and ps.m == 0
    ps = ProcessState(H, [0, 1, 2], _coins(0.5, 3), _choice(3))
    assert not phase1_run(ps, np.int64(0), trace_stride=np.int64(2))
    assert [row.m for row in ps.trace] == [0]


def test_phase1_with_sure_coins_reaches_closure():
    rng = np.random.default_rng(2)
    for _ in range(10):
        H = random_hypergraph(rng, 12, 3, 25)
        infected0 = sorted(int(v) for v in rng.choice(12, 3, replace=False))
        ps = ProcessState(H, infected0, _coins(1.0), _choice())
        phase1_run(ps, 10 ** 6, trace_stride=10)
        assert closure(H, infected0) == set(
            np.flatnonzero(ps.state.infected).tolist())


def test_subcritical_round_on_empty_open_set_is_noop():
    ps = ProcessState(complete_uniform(4, 3), [], _coins(1.0))
    hits = subcritical_round(ps)
    assert hits == 0
    assert ps.state.infected_count == 0
    assert ps.sampled == []


def test_subcritical_round_reveals_snapshot_simultaneously():
    # both edges are open at vertex 2 and get revealed in the same round
    st0 = ProcessState(TWO_EDGE, [0, 1, 3, 4], _coins(1.0))
    assert_open_by_vertex(st0.state, {2: {0, 1}})
    hits = subcritical_round(st0)
    assert hits == 2
    assert st0.state.infected_count == 5
    assert st0.state.open_count == 0


def test_subcritical_rounds_have_disjoint_open_sets():
    rng = np.random.default_rng(8)
    for _ in range(10):
        H = random_hypergraph(rng, 14, 3, 40)
        infected0 = sorted(int(v) for v in rng.choice(14, 4, replace=False))
        ps = ProcessState(H, infected0, _coins(0.6, int(rng.integers(2**32))))
        seen_before = set()
        for _ in range(6):
            snapshot = set(ps.state.open_list)
            assert snapshot.isdisjoint(seen_before)
            subcritical_round(ps)
            seen_before |= snapshot
            if not ps.state.open_count:
                break


def test_supercritical_budget_example():
    n = int(round(math.e ** 10))
    assert supercritical_budget(n, 2) == 178
    with pytest.raises(ValueError):
        supercritical_budget(n, 0)


def test_saturation_threshold_example():
    params = ModelParams(r=3, c=0.5, alpha=1.0, d=10_000.0)
    assert saturation_threshold(params) == 252


def test_supercritical_round_zero_reveals_whole_open_set():
    params = ModelParams(r=3, c=0.5, alpha=1.0, d=3.0)
    ps = ProcessState(TWO_EDGE, [0, 1, 3, 4], _coins(1.0), params=params)
    supercritical_round(ps)
    assert ps.rounds == 1
    assert ps.state.infected_count == 5
    assert ps.state.open_count == 0


def test_supercritical_round_respects_budget_prefix():
    # two healthy vertices with open degrees between the round budget and
    # the saturation threshold; round 1 takes each one's lowest-id prefix
    n = 60
    edges = [[0, a, a + 1] for a in range(1, 24, 2)]          # 12 at vertex 0
    edges += [[b, b + 1, 59] for b in range(25, 35, 2)]       # 5 at vertex 59
    H = Hypergraph.from_rows(n, 3, edges)
    infected0 = [v for v in range(1, 59)]
    params = ModelParams(r=3, c=0.5, alpha=1.0, d=64.0).bind(n)
    budget = supercritical_budget(n, 1)
    threshold = saturation_threshold(params)
    assert budget == 9 and threshold == 13
    ps = ProcessState(H, infected0, _coins(0.0, 3), params=params)
    ps.rounds = 1   # skip the full reveal of round zero
    vertices, edges = ps.state.open_by_vertex()
    open_at_0, open_at_59 = (edges[vertices == v].tolist() for v in (0, 59))
    assert len(open_at_0) == 12 and len(open_at_59) == 5
    supercritical_round(ps)
    assert ps.sampled == open_at_0[:budget] + open_at_59
    vertices, edges = ps.state.open_by_vertex()
    assert edges.tolist() == open_at_0[budget:]
    assert (vertices == 0).all()


def test_run_to_quiescence_equals_closure_under_success_set():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(6, 16))
        H = random_hypergraph(rng, n, 3, int(rng.integers(5, 35)))
        k = int(rng.integers(0, n // 2 + 1))
        infected0 = sorted(int(v) for v in rng.choice(n, k, replace=False))
        coins = _coins(float(rng.random()), int(rng.integers(2 ** 32)))
        got = run_to_quiescence(H, infected0, coins)
        succ = [e for e in range(H.num_edges) if coins.outcome(e)]
        assert got == closure(H, infected0, succ)


def test_run_to_quiescence_with_dead_coins_is_initial_set():
    H = complete_uniform(5, 3)
    assert run_to_quiescence(H, [1, 4], _coins(0.0)) == {1, 4}


def test_pipeline_saturated_density_percolates():
    H = bootstrap_lift(complete_uniform(8, 2), load_pattern("k3"))
    d = 6.0
    params = ModelParams(r=3, c=d ** 0.5, alpha=1.0, d=d)   # p = 1 exactly
    for seed in (0, 1, 2):
        res = full_pipeline(H, params, seed)
        assert res.percolated
        assert res.infected_count == H.n
        assert len(res.initial_infected) == H.n


def test_pipeline_vanishing_density_dies():
    H = bootstrap_lift(complete_uniform(8, 2), load_pattern("k3"))
    params = ModelParams(r=3, c=0.0, alpha=1.0, d=6.0)   # p = 0 exactly
    for seed in (0, 1, 2):
        res = full_pipeline(H, params, seed)
        assert not res.percolated
        assert res.infected_count == 0
        assert res.trace[-1].phase == QUIESCENT


def test_pipeline_final_state_matches_coin_closure():
    H = bootstrap_lift(complete_uniform(30, 2), load_pattern("k3"))
    for c, seed in [(0.1, 0), (0.5, 1), (0.9, 2), (1.5, 3)]:
        params = ModelParams(r=3, c=c, alpha=1.0, d=28.0)
        res = full_pipeline(H, params, seed)
        succ = np.flatnonzero(res.coins.success_mask(H.num_edges))
        want = closure(H, res.initial_infected, succ)
        assert res.infected_count == len(want)
        assert res.percolated == (len(want) == H.n)


def test_pipeline_subcritical_lift_rarely_percolates():
    H = bootstrap_lift(complete_uniform(100, 2), load_pattern("k3"))
    params = ModelParams(r=3, c=0.1, alpha=1.0, d=98.0)
    hits = 0
    fractions = []
    for seed in range(30):
        res = full_pipeline(H, params, seed)
        hits += res.percolated
        fractions.append(res.infected_count / H.n)
    assert hits / 30 <= 0.2
    assert sum(fractions) / len(fractions) <= 0.2


def test_pipeline_validates_inputs():
    H = complete_uniform(4, 3)
    with pytest.raises(ValueError):
        full_pipeline(H, ModelParams(r=4, c=0.5, alpha=1.0, d=3.0), 0)
    with pytest.raises(ValueError):
        # c so large the initial density leaves [0, 1]
        full_pipeline(H, ModelParams(r=3, c=10.0, alpha=1.0, d=3.0), 0)
    with pytest.raises(ValueError):
        full_pipeline(H, ModelParams(r=3, c=0.5, alpha=10.0, d=3.0), 0)


def test_trace_rows_are_consistent():
    H = bootstrap_lift(complete_uniform(40, 2), load_pattern("k3"))
    for c in (0.1, 0.9):
        params = ModelParams(r=3, c=c, alpha=1.0, d=38.0)
        res = full_pipeline(H, params, 5)
        rows = res.trace
        assert rows[0].m == 0
        assert rows[0].gamma_pred == pytest.approx(c ** 2 * H.n)
        order = {PHASE1: 0, PHASE2_SUB: 1, PHASE2_SUPER: 1, QUIESCENT: 2}
        ranks = [order[row.phase] for row in rows]
        assert ranks == sorted(ranks)
        infected = [row.infected_count for row in rows]
        assert infected == sorted(infected)
        for row in rows:
            assert row.t == row.m / H.n
        assert rows[-1].phase == QUIESCENT
        assert rows[-1].open_count == 0
        assert rows[-1].infected_count == res.infected_count


def test_trace_csv_round_trip():
    H = bootstrap_lift(complete_uniform(20, 2), load_pattern("k3"))
    params = ModelParams(r=3, c=0.4, alpha=1.0, d=18.0)
    res = full_pipeline(H, params, 9)
    buf = io.StringIO()
    write_trace_csv(res.trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == TRACE_HEADER == "m,t,Q,I,gamma_pred,phase"
    assert len(lines) == len(res.trace) + 1
    for line, row in zip(lines[1:], res.trace):
        m, t, q, i, gp, phase = line.split(",")
        assert int(m) == row.m
        assert float(t) == row.t            # 17 digits survive the round trip
        assert int(q) == row.open_count
        assert int(i) == row.infected_count
        assert float(gp) == row.gamma_pred
        assert phase == row.phase


def test_open_set_bookkeeping_during_process_run():
    rng = np.random.default_rng(33)
    H = random_hypergraph(rng, 15, 3, 45)
    edges = edge_lists(H)
    ps = ProcessState(H, [0, 1, 2, 3], _coins(0.5, 7))
    choice = _choice(7)
    checks = 0
    while ps.state.open_count:
        k = int(choice.integers(ps.state.open_count))
        _reveal_batch(ps, [ps.state.open_list[k]])
        infected = {int(v) for v in np.flatnonzero(ps.state.infected)}
        live = [int(e) for e in np.flatnonzero(ps.state.live)]
        assert set(ps.state.open_list) == open_edges_oracle(
            edges, infected, live)
        assert_open_by_vertex(ps.state,
                              open_by_vertex_oracle(edges, infected, live))
        checks += 1
    assert checks > 0


def _process_pair(H, infected0, q, seed):
    return (ProcessState(H, infected0, _coins(q, seed)),
            ProcessState(H, infected0, _coins(q, seed)))


def _assert_same_process_state(a: ProcessState, b: ProcessState) -> None:
    assert a.state.open_list == b.state.open_list
    # a position means something only at an open edge
    opened = a.state.open_list
    assert np.array_equal(a.state.open_pos[opened], b.state.open_pos[opened])
    assert a.sampled == b.sampled
    assert list(a.coins.drawn.items()) == list(b.coins.drawn.items())
    assert np.array_equal(a.state.infected, b.state.infected)
    assert a.state.infected_count == b.state.infected_count
    assert np.array_equal(a.state.healthy_count, b.state.healthy_count)


def _batch(kind: str, ps: ProcessState, rng) -> list:
    st = ps.state
    opened = sorted(st.open_list)
    if kind == "whole":
        return opened if rng.random() < 0.5 else list(st.open_list)
    if kind == "subset":
        return [e for e in opened if rng.random() < 0.5]
    if kind == "prefix":
        vertices, edges = st.open_by_vertex()
        rank = np.arange(len(edges)) - np.searchsorted(vertices, vertices)
        return edges[rank < int(rng.integers(1, 4))].tolist()
    if kind == "single":
        return [opened[int(rng.integers(len(opened)))]]
    # hits that repeat a vertex: every successful open edge of the vertex
    # with the most of them, mixed with a few other open edges
    win = ps.coins.success_mask(ps.H.num_edges)
    vertices, edges = st.open_by_vertex()
    hit = win[edges]
    if not hit.any():
        return [e for e in opened if rng.random() < 0.3]
    v = np.bincount(vertices[hit]).argmax()
    repeat = edges[hit & (vertices == v)].tolist()
    others = [e for e in opened if e not in repeat and rng.random() < 0.3]
    return rng.permutation(repeat + others).tolist()


def test_reveal_batch_matches_per_edge_oracle():
    rng = np.random.default_rng(44)
    kinds = ["whole", "subset", "prefix", "single", "repeat"]
    seen, repeats = set(), 0
    for trial in range(80):
        r = 3 if trial % 2 else 4
        n = int(rng.integers(8, 24))
        H = random_hypergraph(rng, n, r, int(rng.integers(20, 120)))
        infected0 = rng.choice(n, size=int(rng.integers(r - 1, n // 2 + 1)),
                               replace=False)
        q = float(rng.choice([0.3, 0.7, 1.0]))
        a, b = _process_pair(H, infected0, q, int(rng.integers(2 ** 32)))
        while a.state.open_count:
            kind = kinds[int(rng.integers(len(kinds)))]
            batch = _batch(kind, a, rng)
            if not batch:
                continue
            win = a.coins.success_mask(H.num_edges)
            vertices, edges = a.state.open_by_vertex()
            healthy = dict(zip(edges.tolist(), vertices.tolist()))
            hit_at = [healthy[e] for e in batch if win[e]]
            repeats += len(hit_at) > len(set(hit_at))
            hits = reveal_batch_oracle(b, batch)
            assert _reveal_batch(a, batch) == hits
            _assert_same_process_state(a, b)
            seen.add(kind)
    assert seen == set(kinds)
    assert repeats > 20


def test_reveal_batch_rejects_bad_batches_before_revealing():
    H = complete_uniform(6, 3)
    ps = ProcessState(H, [0, 1, 2], _coins(1.0))
    opened = sorted(ps.state.open_list)
    closed = next(e for e in range(H.num_edges)
                  if ps.state.healthy_count[e] == 0)
    for bad in ([opened[0], closed], [opened[1], opened[0], opened[1]]):
        with pytest.raises(ValueError):
            _reveal_batch(ps, bad)
    # corrupt the state: infect the one vertex of an open edge outside 0, 1
    # and 2, its largest
    ps.state.infected[H.edges_array[opened[2]].max()] = True
    with pytest.raises(AssertionError):
        _reveal_batch(ps, opened)
    # nothing was revealed or removed by the rejected batches
    assert ps.sampled == [] and ps.coins.drawn == {}
    assert ps.state.live.all() and len(ps.state.open_list) == len(opened)


def _poison(ps: ProcessState, rng) -> None:
    """Write garbage over every non-open edge's position: int32 min (a read
    of it as an index raises), the old -1 sentinel, or an index into
    open_list (a read of it moves the wrong edge)."""
    st = ps.state
    shut = np.flatnonzero(st.healthy_count != 1)
    garbage = rng.integers(-2, max(st.open_count, 1), size=shut.size)
    garbage[garbage == -2] = np.iinfo(np.int32).min
    st.open_pos[shut] = garbage


def test_positions_are_read_only_at_open_edges():
    """A state whose open_pos holds garbage at every non-open edge, written
    again before every step, runs step for step as a clean one through
    phase 1, both round kinds and the drain."""
    rng = np.random.default_rng(23)
    rounds = {subcritical_round: 0, supercritical_round: 0}
    for trial in range(30):
        r = 3 if trial % 2 else 4
        n = int(rng.integers(10, 30))
        H = random_hypergraph(rng, n, r, int(rng.integers(30, 150)))
        infected0 = rng.choice(n, size=int(rng.integers(r - 1, n // 2 + 1)),
                               replace=False)
        q = float(rng.choice([0.3, 0.7, 1.0]))
        seed = int(rng.integers(2 ** 32))
        params = ModelParams(r=r, c=0.5, alpha=1.0, d=4.0).bind(n)
        clean, dirty = (ProcessState(H, infected0, _coins(q, seed),
                                     _choice(seed), params) for _ in range(2))

        def both(act):
            _poison(dirty, rng)
            got = act(clean)
            assert act(dirty) == got
            assert dirty.state.open_list == clean.state.open_list
            assert list(dirty.coins.drawn.items()) == list(
                clean.coins.drawn.items())
            assert np.array_equal(dirty.state.infected, clean.state.infected)
            return got

        for _ in range(int(rng.integers(0, H.num_edges // 2 + 1))):
            if both(lambda ps: phase1_run(ps, 1, 1)):
                break
        round_fn = supercritical_round if trial % 3 else subcritical_round
        for _ in range(3):
            if not clean.state.open_count:
                break
            both(round_fn)
            rounds[round_fn] += 1
        both(drain)
        assert dirty.trace == clean.trace
    assert min(rounds.values()) > 5


def _phase1_reference(ps: ProcessState, choice, steps: int,
                      trace_stride: int) -> bool:
    """phase1_run as a call of the choice Generator and a one-edge batch
    reveal per step."""
    if ps.m == 0:
        ps.record(PHASE1)
    for _ in range(steps):
        if not ps.state.open_list:
            ps.record(QUIESCENT)
            return True
        k = int(choice.integers(len(ps.state.open_list)))
        _reveal_batch(ps, [ps.state.open_list[k]])
        ps.m += 1
        if ps.m % trace_stride == 0:
            ps.record(PHASE1)
    if ps.m % trace_stride != 0:
        ps.record(PHASE1)
    return False


def _trace_csv(ps: ProcessState) -> str:
    buf = io.StringIO()
    write_trace_csv(ps.trace, buf)
    return buf.getvalue()


def test_phase1_run_matches_per_step_reference():
    rng = np.random.default_rng(71)
    hosts = [bootstrap_lift(complete_uniform(10, 2), load_pattern("k3"))]
    hosts += [random_hypergraph(rng, int(rng.integers(12, 30)), r,
                                int(rng.integers(40, 200)))
              for r in (2, 3, 4) for _ in range(4)]
    quiet = 0
    for trial, H in enumerate(hosts):
        infected0 = rng.choice(H.n, size=int(rng.integers(H.r - 1, H.n // 3)),
                               replace=False).tolist()
        q = float(rng.choice([0.1, 0.4, 0.9]))
        stride = [10 ** 6, 1, 3, 7][trial % 4]
        a = ProcessState(H, infected0, _coins(q, trial), _choice(trial))
        b, choice = ProcessState(H, infected0, _coins(q, trial)), _choice(trial)
        # one budget split over several calls, a zero budget among them
        for steps in [0, 1, 4, 0, 9, 30, 10 ** 4]:
            went_quiet = phase1_run(a, steps, stride)
            assert went_quiet == _phase1_reference(b, choice, steps, stride)
            quiet += went_quiet
            _assert_same_process_state(a, b)
            assert a.m == b.m
            assert _trace_csv(a) == _trace_csv(b)
    assert quiet >= len(hosts)


def test_phase1_needs_a_choice_stream():
    ps = ProcessState(complete_uniform(6, 3), [0, 1], _coins(1.0))
    assert ps.draws is None
    with pytest.raises(ValueError, match="choice stream"):
        phase1_run(ps, 3, 1)
    assert ps.sampled == [] and ps.m == 0


def test_removed_edges_are_exactly_the_sampled_ones():
    rng = np.random.default_rng(52)
    for trial in range(20):
        r = 3 if trial % 2 else 4
        n = int(rng.integers(8, 24))
        H = random_hypergraph(rng, n, r, int(rng.integers(20, 120)))
        infected0 = rng.choice(n, size=int(rng.integers(r - 1, n // 2 + 1)),
                               replace=False)
        ps = ProcessState(H, infected0, _coins(float(rng.random()), trial),
                          _choice(trial))
        phase1_run(ps, int(rng.integers(0, H.num_edges + 1)), 10)
        drain(ps)
        assert ps.state.open_count == 0
        assert np.flatnonzero(~ps.state.live).tolist() == sorted(ps.sampled)


def test_drain_reaches_quiescence():
    H = complete_uniform(6, 3)
    ps = ProcessState(H, [0, 1], _coins(1.0))
    drain(ps)
    assert ps.state.open_count == 0
    assert ps.state.infected_count == 6


# sha256 of the trace CSV, the verdict line and the reveal order of
# full_pipeline on triangle lifts of K_k (alpha 1, d = k - 2).  Pinned from
# the per-coin, per-edge implementation; any engine or coin change must
# reproduce them byte for byte.
PIPELINE_DIGESTS = {
    (40, 0.5, 0): "8a92123db7d1601a867ea65d3bfc4c6427c33d1a12bfd8263645618f3df081e5",
    (40, 0.5, 1): "7377ef9e32fa9186468843fbd06f39c6fb0360b013db3983366702d9836d02f6",
    (40, 0.5, 2): "dca9beadeaf127eb7c4977ba1628c4ae983613a3160e9f27359b0aca629ae68e",
    (40, 0.1, 0): "eeb7221d9f8929a562c9c927d5595039baaba2944f3e0f1d254e66eac6df02a1",
    (40, 0.1, 1): "a8bab48b3bc8539adff242b38d7f2e088237f14a04d2bd762d969dddd97bd569",
    (40, 0.1, 2): "60d99674bfa5aecdd6043551340ec2ab625e5b9d3c2e35aa55dd43d12e314be1",
    # these reach supercritical rounds; the K_80 one percolates after one
    # saturation sweep, the K_100 one stops short after 63 sweeps
    (60, 0.5, 1): "c1e508ac66349ffc857d9178a5f150442a5d99e35c735a0860eae4e40f8da8b6",
    (80, 0.5, 0): "d617a3b9b02eae708e38b6907e2f61bbea2a0db73e0e42841cd453c87262db86",
    (100, 0.5, 1): "ae4a0f3b524735aa037ca90bb715e725818f70e2c3eac08d6aa19e086fd949b4",
}


def test_pipeline_outputs_match_pinned_digests():
    lifts = {}
    for (k, c, seed), want in PIPELINE_DIGESTS.items():
        if k not in lifts:
            lifts[k] = bootstrap_lift(complete_uniform(k, 2), load_pattern("k3"))
        seen = []
        res = full_pipeline(lifts[k], ModelParams(r=3, c=c, alpha=1.0,
                                                  d=k - 2.0),
                            seed, observe=seen.append)
        buf = io.StringIO()
        write_trace_csv(res.trace, buf)
        buf.write(f"percolated={res.percolated},infected={res.infected_count},"
                  f"sampled={res.sampled_count}\n")
        buf.write(",".join(map(str, seen[0].sampled)) + "\n")
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert got == want, (k, c, seed)
