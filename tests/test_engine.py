"""Deterministic closure and the incremental infection state."""

import math
from collections import Counter
from collections.abc import MutableSet, Set
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_open_by_vertex, edge_lists, random_hypergraph
from hyperboot import engine
from hyperboot.builders import complete_uniform
from hyperboot.engine import (InfectionState, closure, sample_edge_set,
                              sample_vertex_set)
from hyperboot.hypergraph import Hypergraph
from oracles import (closure_oracle, open_by_vertex_oracle, open_edges_oracle,
                     open_list_oracle)

PATH_HOST = Hypergraph.from_rows(5, 3, [[0, 1, 2], [0, 2, 3], [0, 3, 4]])


def test_closure_complete_4_3():
    H = complete_uniform(4, 3)
    assert closure(H, [0, 1]) == {0, 1, 2, 3}
    assert closure(H, [2, 3]) == {0, 1, 2, 3}
    assert closure(H, [0]) == {0}
    assert closure(H, [3]) == {3}
    assert closure(H, []) == set()


def test_closure_cascades_along_path_host():
    assert closure(PATH_HOST, [1, 2]) == {0, 1, 2, 3, 4}


def test_closure_respects_active_subset():
    H = complete_uniform(4, 3)
    # with only one live edge the cascade stops after a single infection
    assert closure(H, [0, 1], active=[0]) == {0, 1, 2}
    assert closure(H, [0, 1], active=[]) == {0, 1}


def test_filters_reject_bad_ids():
    H = complete_uniform(4, 3)
    for infected, active in (([-1], None), ([4], None), ([0.5], None),
                             ([0, True], None), ([0], [-1]), ([0], [4]),
                             ([0], [1.5]), ([0], np.ones(3, dtype=bool))):
        with pytest.raises(ValueError):
            closure(H, infected, active)
        if active is None:
            with pytest.raises(ValueError):
                InfectionState(H, infected)


def test_closure_idempotent_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        H = random_hypergraph(rng, 10, 3, 16)
        small = set(int(v) for v in rng.choice(10, size=3, replace=False))
        big = small | {int(rng.integers(10))}
        cs = closure(H, small)
        assert closure(H, cs) == cs
        assert cs <= closure(H, big)


def _vertex_filter(form: str, ids: list, n: int):
    """ids as a list, a set or a mask, or an empty list."""
    if form == "mask":
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
        return mask
    return {"list": ids, "set": set(ids), "empty": []}[form]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_closure_matches_rescan_oracle(data):
    """Differential test over random hosts, every filter form and both
    hit-counting paths (one bincount per round, or a sort per round)."""
    r = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(r, 14))
    m = data.draw(st.integers(0, 60))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    H = random_hypergraph(rng, n, r, m) if m else Hypergraph.from_rows(n, r, [])
    # initial ids with repeats, as a list, a set, a mask or empty
    ids = rng.integers(n, size=data.draw(st.integers(0, n))).tolist()
    vertex_form = data.draw(st.sampled_from(["list", "set", "mask", "empty"]))
    infected0 = _vertex_filter(vertex_form, ids, n)
    form = data.draw(st.sampled_from(["none", "mask", "ids", "empty"]))
    keep = np.flatnonzero(rng.random(H.num_edges) < 0.6)
    active = {"none": None, "mask": np.isin(np.arange(H.num_edges), keep),
              "ids": rng.permutation(keep).tolist() + keep[:1].tolist(),
              "empty": []}[form]
    want = closure_oracle(edge_lists(H), [] if vertex_form == "empty" else ids,
                          {"none": None, "empty": []}.get(form, keep.tolist()))
    masks = [(x, x.copy()) for x in (infected0, active)
             if isinstance(x, np.ndarray)]
    for dense_round in (engine.CLOSURE_DENSE_ROUND, 0, H.num_edges + 1):
        with mock.patch.object(engine, "CLOSURE_DENSE_ROUND", dense_round):
            assert closure(H, infected0, active) == want
    for x, before in masks:
        assert np.array_equal(x, before)


def test_closure_deep_cascade_takes_one_round_per_vertex():
    # a tight path: each edge opens only after the previous one infected
    n = 300
    edges = [(i, i + 1, i + 2) for i in range(n - 2)]
    H = Hypergraph.from_rows(n, 3, edges)
    assert closure(H, [0, 1]) == closure_oracle(edges, [0, 1]) == set(range(n))
    # a missing edge stops the cascade there
    keep = [i for i in range(n - 2) if i != 150]
    assert (closure(H, [0, 1], active=keep)
            == closure_oracle(edges, [0, 1], keep) == set(range(152)))


def test_closure_two_edges_opening_one_vertex_in_one_round():
    # edges 0 and 1 both open vertex 4; edge 2 must lose one healthy vertex
    # for 4, not two, and then open 5
    edges = [(0, 1, 4), (2, 3, 4), (0, 4, 5)]
    H = Hypergraph.from_rows(7, 3, edges)
    want = closure_oracle(edges, [0, 1, 2, 3])
    assert want == {0, 1, 2, 3, 4, 5}
    assert closure(H, [0, 1, 2, 3]) == want


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_closure_grow_matches_closing_the_union(data):
    """closure(H, A, act).grow(B) == closure(H, A | B, act) against the
    rescan oracle, over both hit-counting paths and in one or two grows.  A
    grown state's counts are the healthy counts of its active edges, none
    at 1, and a copy taken before grows on its own."""
    r = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(r, 14))
    m = data.draw(st.integers(0, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    H = random_hypergraph(rng, n, r, m) if m else Hypergraph.from_rows(n, r, [])
    a, b1, b2 = (rng.integers(n, size=data.draw(st.integers(0, n))).tolist()
                 for _ in range(3))
    keep = np.flatnonzero(rng.random(H.num_edges) < 0.6)
    active, live = data.draw(st.sampled_from(
        [(None, None), (keep.tolist(), keep.tolist())]))
    edges = edge_lists(H)
    want_a = closure_oracle(edges, a, live)
    want = closure_oracle(edges, a + b1 + b2, live)
    rows = [edges[e] for e in (range(H.num_edges) if live is None else live)]
    b1_mask = np.zeros(n, dtype=bool)
    b1_mask[b1] = True
    for dense_round in (engine.CLOSURE_DENSE_ROUND, 0, H.num_edges + 1):
        with mock.patch.object(engine, "CLOSURE_DENSE_ROUND", dense_round):
            state = closure(H, a, active)
            branch = state.copy()
            assert state.grow(b1_mask) is state
            assert state.grow(b2) == want and len(state) == len(want)
            assert branch == want_a and len(branch) == len(want_a)
            assert branch.grow(b1 + b2) == want
        counts = state._counts
        assert counts.tolist() == [sum(v not in want for v in e) for e in rows]
        assert not (counts == 1).any()


def test_closure_is_a_read_only_set_view():
    # 0 and 1 open vertex 4 through edge 0, then 5 through edge 2
    H = Hypergraph.from_rows(7, 3, [(0, 1, 4), (2, 3, 4), (0, 4, 5)])
    got = closure(H, np.array([1, 0]))
    assert isinstance(got, Set) and not isinstance(got, MutableSet)
    assert not hasattr(got, "add") and not hasattr(got, "discard")
    assert list(got) == sorted(got) == [0, 1, 4, 5]
    assert all(type(v) is int for v in got) and len(got) == 4
    assert 4 in got and np.int64(5) in got
    assert all(v not in got for v in (2, -1, 7, 2.5, "4", None))
    assert got == {0, 1, 4, 5} and {0, 1, 4, 5} == got and got != {0, 1, 4}
    assert got <= {0, 1, 4, 5} and got < set(range(7)) and got >= {0, 5}
    assert got == closure(H, [0, 1, 5]) and got != closure(H, [0])
    for combined, want in ((got | {6}, {0, 1, 4, 5, 6}), (got & {1, 2}, {1}),
                           ({1, 2} & got, {1}), (got - {0}, {1, 4, 5}),
                           (got ^ {0, 6}, {1, 4, 5, 6})):
        assert type(combined) is set and combined == want
    with pytest.raises(TypeError):
        hash(got)
    # a copy shares no mask or counts with its source
    branch = got.copy()
    branch.grow([2])
    assert branch == set(range(6)) and got == {0, 1, 4, 5}
    assert len(got) == 4 and not (got._counts == 1).any()


def test_closure_leaves_input_masks_unchanged():
    H = complete_uniform(6, 3)
    infected0 = np.zeros(H.n, dtype=bool)
    infected0[[0, 1]] = True
    active = np.ones(H.num_edges, dtype=bool)
    active[0] = False
    inf_before, act_before = infected0.copy(), active.copy()
    assert closure(H, infected0, active) == set(range(H.n))
    assert np.array_equal(infected0, inf_before)
    assert np.array_equal(active, act_before)


def test_initial_open_set_example():
    st0 = InfectionState(PATH_HOST, [1, 2])
    assert list(st0.open_list) == [0]
    assert_open_by_vertex(st0, {0: {0}})
    assert st0.remove_edge(0) == 0
    assert st0.open_list == [] and st0.healthy_count.tolist() == [-1, 2, 3]


def test_infect_opens_downstream_edge():
    st0 = InfectionState(PATH_HOST, [1, 2])
    st0.infect(0)
    assert set(st0.open_list) == {1}
    assert_open_by_vertex(st0, {3: {1}})    # none left at infected vertex 0
    assert st0.remove_edge(1) == 3


def test_remove_edge_fails_loudly_without_one_healthy_vertex():
    st0 = InfectionState(PATH_HOST, [1, 2])
    st0.infected[0] = True      # corrupt the state behind the engine's back
    with pytest.raises(AssertionError):
        st0.remove_edge(0)
    # refused before any write
    assert st0.open_list == [0] and st0.healthy_count.tolist() == [1, 2, 3]


def _snapshot(st0: InfectionState) -> tuple:
    """Everything a refused removal must leave as it was: the counts, the
    open list, the positions at open edges and lowest_saturated's answers
    at every threshold up to one above the highest open degree."""
    answers = []
    for threshold in range(1, st0.open_count + 2):
        got = st0.lowest_saturated(threshold)
        answers.append(None if got is None else (got[0], got[1].tolist()))
    return (st0.healthy_count.tolist(), list(st0.open_list),
            st0.open_pos[st0.open_list].tolist(), answers)


def test_remove_edge_refuses_an_edge_that_is_not_open():
    # with 0, 1 and 3 infected: [0, 1, 2] and [0, 1, 6] are open (at 2 and
    # 6), [0, 1, 3] is closed, [1, 2, 4] and [2, 4, 5] wait
    H = Hypergraph.from_rows(7, 3, [[0, 1, 2], [0, 1, 3], [1, 2, 4],
                                    [2, 4, 5], [0, 1, 6]])
    st0 = InfectionState(H, [0, 1, 3])
    edges = edge_lists(H)
    first, second = edges.index((0, 1, 2)), edges.index((0, 1, 6))
    _snapshot(st0)      # from here on removals feed the saturation log
    assert st0.remove_edge(second) == 6
    assert st0.open_list == [first] and st0.healthy_count[second] == -1
    before = _snapshot(st0)
    assert before[3][0] == (2, [first])
    for e in (edges.index((1, 2, 4)), edges.index((2, 4, 5)),
              edges.index((0, 1, 3)), second):
        with pytest.raises(ValueError, match=f"edge {e} is not open"):
            st0.remove_edge(e)
        assert _snapshot(st0) == before
    assert st0.remove_edge(first) == 2
    assert st0.open_list == [] and st0.lowest_saturated(1) is None


def test_remove_open_edges_checks_the_whole_batch():
    H = complete_uniform(6, 3)
    st0, st1 = (InfectionState(H, [0, 1, 2]) for _ in range(2))
    opened = sorted(st0.open_list)
    closed = next(e for e in range(H.num_edges) if st0.healthy_count[e] == 0)
    assert st0.remove_edge(opened[1]) == st1.remove_edge(opened[1])
    for bad in ([opened[0], closed], [opened[1]], [opened[0], opened[0]]):
        with pytest.raises(ValueError):
            st0.remove_open_edges(np.array(bad, dtype=np.int64))
    # a batch is the per-edge removals in batch order, read first
    batch = opened[:1] + opened[:1:-2]
    assert st0.remove_open_edges(batch).tolist() == [
        st1.remove_edge(e) for e in batch]
    assert st0.open_list == st1.open_list
    assert np.array_equal(st0.healthy_count, st1.healthy_count)
    # the one vertex of an open edge outside 0, 1 and 2 is its largest
    e = st0.open_list[0]
    st0.infected[H.edges_array[e].max()] = True     # corrupt the state
    before = (list(st0.open_list), st0.healthy_count.tolist())
    with pytest.raises(AssertionError):
        st0.remove_open_edges(st0.open_list[::-1])
    assert (st0.open_list, st0.healthy_count.tolist()) == before


def test_remove_open_edges_refuses_a_batch_that_is_not_all_open():
    H = Hypergraph.from_rows(5, 3, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
    # edge 2 waits (two healthy vertices) beside one open edge, then beside
    # two, alone and with an open edge (a batch as long as the open set);
    # a repeated open edge as long as the open set
    for infected0, bad in (([0, 1], [2]), ([0, 1, 3], [2]),
                           ([0, 1, 3], [0, 0]), ([0, 1, 3], [1, 2])):
        st0 = InfectionState(H, infected0)
        before = (list(st0.open_list), st0.healthy_count.copy())
        with pytest.raises(ValueError):
            st0.remove_open_edges(bad)
        assert (st0.open_list, st0.healthy_count.tolist()) == (
            before[0], before[1].tolist())
    st0.remove_edge(0)
    with pytest.raises(ValueError):
        st0.remove_open_edges([0])
    assert st0.remove_open_edges([1]).tolist() == [2]
    assert st0.open_list == [] and st0.healthy_count.tolist() == [-1, -1, 2]


def _open_degrees_oracle(edges, st0: InfectionState) -> dict:
    infected = {int(v) for v in np.flatnonzero(st0.infected)}
    live = [int(e) for e in np.flatnonzero(st0.live)]
    return open_by_vertex_oracle(edges, infected, live)


def _saturated_oracle(edges, st0: InfectionState, threshold: int):
    by_vertex = _open_degrees_oracle(edges, st0)
    full = sorted(v for v, es in by_vertex.items() if len(es) >= threshold)
    return (full[0], sorted(by_vertex[full[0]])) if full else None


def _lowest_saturated_list(st0: InfectionState, threshold: int):
    got = st0.lowest_saturated(threshold)
    return None if got is None else (got[0], got[1].tolist())


def test_lowest_saturated_vertex_ties_at_the_threshold():
    # vertices 9, 12 and 15 each hold three open edges, vertex 6 two
    rows = [[0, 1, 9], [0, 2, 9], [1, 2, 9], [3, 4, 12], [3, 5, 12],
            [4, 5, 12], [0, 3, 15], [1, 4, 15], [2, 5, 15], [0, 4, 6],
            [1, 5, 6]]
    H = Hypergraph.from_rows(16, 3, rows)
    st0 = InfectionState(H, range(6))
    edges = edge_lists(H)
    for threshold, v in ((1, 6), (2, 6), (3, 9), (4, None)):
        want = _saturated_oracle(edges, st0, threshold)
        assert _lowest_saturated_list(st0, threshold) == want
        assert (want and want[0]) == v
    st0.remove_edge(edges.index((0, 1, 9)))
    assert _lowest_saturated_list(st0, 3)[0] == 12
    with pytest.raises(ValueError):
        st0.lowest_saturated(0)


def test_lowest_saturated_matches_open_by_vertex_oracle():
    rng = np.random.default_rng(17)
    ties = 0
    for trial in range(60):
        n = int(rng.integers(6, 16))
        r = 3 if trial % 2 else 4
        H = random_hypergraph(rng, n, r, int(rng.integers(20, 80)))
        edges = edge_lists(H)
        infected0 = rng.choice(n, size=int(rng.integers(1, n - 1)),
                               replace=False)
        st0 = InfectionState(H, infected0)
        # about a fifth of the open edges removed before the first query
        for e in [e for e in st0.open_list if rng.random() < 0.2]:
            st0.remove_edge(e)
        for _ in range(6):
            sizes = Counter(len(es) for es in
                            _open_degrees_oracle(edges, st0).values())
            # thresholds at every open degree present, ties included, and
            # one above them all
            ties += sum(1 for k in sizes.values() if k > 1)
            for threshold in sorted(sizes) + [max(sizes, default=0) + 1]:
                assert (_lowest_saturated_list(st0, threshold)
                        == _saturated_oracle(edges, st0, threshold))
            # between queries: infect a vertex, remove an open edge and a
            # batch of open edges
            healthy = np.flatnonzero(~st0.infected)
            if not healthy.size:
                break
            st0.infect(int(rng.choice(healthy)))
            if st0.open_list:
                st0.remove_edge(int(rng.choice(st0.open_list)))
            batch = [e for e in st0.open_list if rng.random() < 0.2]
            st0.remove_open_edges(np.array(batch, dtype=np.int64))
    assert ties > 20


def test_infect_rejects_repeat_and_remove_rejects_dead():
    st0 = InfectionState(PATH_HOST, [1, 2])
    with pytest.raises(ValueError):
        st0.infect(1)
    st0.remove_edge(0)
    with pytest.raises(ValueError):
        st0.remove_edge(0)
    # a removed edge stays removed when a vertex of it is infected
    st0.infect(0)
    assert st0.healthy_count.tolist() == [-1, 1, 2]
    assert st0.live.tolist() == [False, True, True]
    with pytest.raises(ValueError):
        st0.remove_edge(0)


def _assert_state_matches_scratch(st0: InfectionState, edges) -> None:
    infected = {int(v) for v in np.flatnonzero(st0.infected)}
    live = [int(e) for e in np.flatnonzero(st0.live)]
    want_open = open_edges_oracle(edges, infected, live)
    assert set(st0.open_list) == want_open
    assert st0.open_count == len(want_open)
    # a position means something only at an open edge
    assert st0.open_pos[st0.open_list].tolist() == list(range(st0.open_count))
    assert_open_by_vertex(st0, open_by_vertex_oracle(edges, infected, live))
    assert st0.infected_count == len(infected)
    for e in live:
        healthy = len(set(edges[e]) - infected)
        assert st0.healthy_count[e] == healthy


def test_incremental_state_equals_scratch_recomputation():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(5, 21))
        r = 3 if trial % 2 else 4
        H = random_hypergraph(rng, n, r, int(rng.integers(5, 40)))
        edges = edge_lists(H)
        k = int(rng.integers(0, n // 2 + 1))
        infected0 = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        st0 = InfectionState(H, infected0)
        # every third trial first removes a random subset of the open edges
        if trial % 3 == 0:
            gone = [e for e in st0.open_list if rng.random() < 0.4]
            for e in gone:
                st0.remove_edge(e)
            assert np.flatnonzero(~st0.live).tolist() == sorted(gone)
        _assert_state_matches_scratch(st0, edges)
        for _ in range(40):
            healthy = np.flatnonzero(~st0.infected)
            live = np.flatnonzero(st0.live)
            moves = []
            if len(healthy):
                moves.append("infect")
            if st0.open_list:
                moves.append("remove")
            if not moves:
                break
            move = moves[int(rng.integers(len(moves)))]
            infected = {int(v) for v in np.flatnonzero(st0.infected)}
            if move == "infect":
                v = int(healthy[int(rng.integers(len(healthy)))])
                # live edges at v in ascending id order: one healthy vertex
                # (v) closes, two opens
                ops = [(e, len(set(edges[e]) - infected) == 2)
                       for e in live.tolist() if v in edges[e]
                       and len(set(edges[e]) - infected) <= 2]
                want = open_list_oracle(st0.open_list, ops)
                st0.infect(v)
            else:
                e = st0.open_list[int(rng.integers(st0.open_count))]
                (u,) = set(edges[e]) - infected
                want = open_list_oracle(st0.open_list, [(e, False)])
                assert st0.remove_edge(e) == u
            assert st0.open_list == want
            _assert_state_matches_scratch(st0, edges)


def _assert_setup_matches_rows(st0: InfectionState, H: Hypergraph) -> None:
    want = H.r - st0.infected[H.edges_array].sum(axis=1)
    assert np.array_equal(st0.healthy_count, want)
    opened = np.flatnonzero(want == 1)
    assert st0.open_list == opened.tolist()
    assert st0.open_pos[opened].tolist() == list(range(opened.size))
    assert st0.infected_count == int(st0.infected.sum())


def test_state_setup_matches_counts_read_off_the_rows():
    """Set-up from the initial vertices' CSR slices against each edge's
    healthy count read off its row: random small hosts with the empty, a
    random and the all-infected initial set."""
    rng = np.random.default_rng(16)
    for trial in range(80):
        n = int(rng.integers(2, 16))
        r = int(rng.integers(2, min(n, 5) + 1))
        m = int(rng.integers(0, 40))
        H = random_hypergraph(rng, n, r, m) if m else Hypergraph.from_rows(
            n, r, [])
        ids = rng.integers(n, size=int(rng.integers(1, n + 1))).tolist()
        for infected0 in ([], ids, np.ones(n, dtype=bool)):
            st0 = InfectionState(H, infected0)
            assert st0.healthy_count.dtype == np.int8
            _assert_setup_matches_rows(st0, H)


def test_state_counts_hold_a_uniformity_above_int8():
    """Two 130-vertex edges: counts from 130 down to -1 need int16."""
    H = Hypergraph.from_rows(131, 130, [range(130), range(1, 131)])
    edges = edge_lists(H)
    for infected0 in ([], range(1, 130), np.ones(131, dtype=bool)):
        st0 = InfectionState(H, infected0)
        assert st0.healthy_count.dtype == np.int16
        _assert_setup_matches_rows(st0, H)
    st0 = InfectionState(H, [])
    assert st0.healthy_count.tolist() == [130, 130]
    for v in range(1, 129):
        st0.infect(v)
    assert st0.healthy_count.tolist() == [2, 2]
    _assert_setup_matches_rows(st0, H)
    st0.infect(129)
    assert st0.open_list == [0, 1]
    _assert_state_matches_scratch(st0, edges)
    st0.remove_edge(1)
    st0.infect(0)
    assert st0.healthy_count.tolist() == [0, -1]
    assert st0.open_list == []
    _assert_state_matches_scratch(st0, edges)


def test_closure_accepts_numpy_and_duplicate_ids():
    H = complete_uniform(4, 3)
    assert closure(H, np.array([0, 1, 1])) == {0, 1, 2, 3}


EDGE_QS = (0.0, 1e-300, 2.0 ** -53, 0.071, 0.5, float(np.nextafter(1.0, 0.0)),
           1.0)


@pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64])
def test_edge_sample_equals_uniforms_below_q(bitgen):
    # the sampler reads only num_edges; sizes around one and two blocks
    for q in EDGE_QS:
        for m in (0, 1, 65535, 65537, 200003):
            gen, ref = (np.random.Generator(bitgen(m)) for _ in range(2))
            gen.integers(7), ref.integers(7)    # buffer a half word
            mask = sample_edge_set(SimpleNamespace(num_edges=m), q, gen)
            assert np.array_equal(mask, ref.random(m) < q)
            # the stream goes on as after random(m), the half word included
            assert np.array_equal(gen.integers(2 ** 32, size=3),
                                  ref.integers(2 ** 32, size=3))
    with pytest.raises(ValueError, match="MT19937"):
        sample_edge_set(SimpleNamespace(num_edges=3), 0.5,
                        np.random.Generator(np.random.MT19937(0)))


def test_edge_sample_at_the_bound_words():
    # Philox serves its buffered 64-bit words first: here the words on
    # either side of the bound ceil(q * 2**53) << 11 and the extremes
    for q in EDGE_QS:
        bound = math.ceil(q * 2.0 ** 53) << 11
        words = [w for w in (0, bound - 1, bound, 2 ** 64 - 1)
                 if 0 <= w < 2 ** 64]
        words += [2 ** 63] * (4 - len(words))
        gen, ref = (np.random.Generator(np.random.Philox(0)) for _ in range(2))
        for g in (gen, ref):
            state = g.bit_generator.state
            state["buffer"] = np.array(words, dtype=np.uint64)
            state["buffer_pos"] = 0
            g.bit_generator.state = state
        mask = sample_edge_set(SimpleNamespace(num_edges=4), q, gen)
        assert mask.tolist() == [w < bound for w in words]
        assert np.array_equal(mask, ref.random(4) < q)


def test_samplers_degenerate_and_deterministic():
    H = complete_uniform(5, 3)
    rng = np.random.default_rng(7)
    assert len(sample_vertex_set(H, 0.0, rng)) == 0
    assert len(sample_vertex_set(H, 1.0, rng)) == H.n
    assert not sample_edge_set(H, 0.0, rng).any()
    assert sample_edge_set(H, 1.0, rng).all()
    a = sample_vertex_set(H, 0.4, np.random.default_rng(99))
    b = sample_vertex_set(H, 0.4, np.random.default_rng(99))
    assert np.array_equal(a, b)
