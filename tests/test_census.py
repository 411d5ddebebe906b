"""Configuration copy counting: generic matcher, fast counters, secondaries."""

import hashlib
import json

import numpy as np
import pytest

from conftest import edge_lists, random_hypergraph
from hyperboot import census
from hyperboot.builders import (bootstrap_lift, complete_uniform,
                                enumerate_copies, load_pattern)
from hyperboot.census import (Configuration, canonical_config_key,
                              count_general_stars, count_pendant_stars,
                              count_rooted_copies, enumerate_secondary,
                              general_star_family, pendant_star_config,
                              rooted_copies, saturated_edge_config)
from hyperboot.hypergraph import Hypergraph
from oracles import (count_copies_oracle, general_stars_oracle,
                     pendant_stars_oracle, saturated_edges_oracle)

PATH_HOST = Hypergraph.from_rows(5, 3, [[0, 1, 2], [0, 2, 3], [0, 3, 4]])
TWO_EDGE = Hypergraph.from_rows(5, 3, [[0, 1, 2], [2, 3, 4]])


def count_saturated(H, infected, S, active=None):
    """Edges containing S whose other vertices are all infected."""
    return count_rooted_copies(H, infected, saturated_edge_config(H.r, len(S)),
                               S, active)


def test_configuration_roles_validated():
    F = Hypergraph.from_rows(3, 3, [[0, 1, 2]])
    with pytest.raises(ValueError):
        Configuration(F, frozenset([0]), frozenset([0]))
    with pytest.raises(ValueError):
        Configuration(F, frozenset([5]), frozenset())
    lonely = Hypergraph.from_rows(4, 3, [[0, 1, 2]])   # vertex 3 uncovered
    with pytest.raises(ValueError):
        Configuration(lonely, frozenset([0]), frozenset())


def test_configuration_dict_round_trip():
    cfg = pendant_star_config(3, 1, 1)
    again = Configuration.from_dict(cfg.to_dict())
    assert canonical_config_key(again) == canonical_config_key(cfg)
    assert again.roots == cfg.roots and again.marked == cfg.marked


def test_single_edge_config_counts_degree():
    cfg = pendant_star_config(3, 0, 0)
    for v in range(PATH_HOST.n):
        assert (count_rooted_copies(PATH_HOST, [], cfg, [v])
                == PATH_HOST.degrees()[v])


def test_pendant_star_path_example():
    # central edges at 0 with one infected non-root vertex
    assert count_pendant_stars(PATH_HOST, [2], 0, 1, 0) == 2
    cfg = pendant_star_config(3, 1, 0)
    assert count_rooted_copies(PATH_HOST, [2], cfg, [0]) == 2


def test_marked_configs_need_infections():
    cfg = pendant_star_config(3, 1, 0)
    assert count_rooted_copies(PATH_HOST, [], cfg, [0]) == 0
    assert count_pendant_stars(PATH_HOST, [], 0, 1, 0) == 0


def test_star_with_zero_marks_is_live_degree():
    rng = np.random.default_rng(4)
    H = random_hypergraph(rng, 10, 3, 20)
    for v in range(10):
        assert count_pendant_stars(H, [], v, 0, 0) == H.degrees()[v]
    live = [e for e in range(H.num_edges) if e % 2 == 0]
    for v in range(10):
        want = sum(1 for e in live if v in H.edge(e))
        assert count_pendant_stars(H, [], v, 0, 0, active=live) == want


def test_star_with_full_marks_counts_open_edges():
    rng = np.random.default_rng(6)
    H = random_hypergraph(rng, 10, 3, 24)
    infected = [0, 1, 2, 3]
    for v in range(4, 10):
        want = sum(1 for e in range(H.num_edges)
                   if v in H.edge(e)
                   and all(x in infected or x == v for x in H.edge(e)))
        assert count_pendant_stars(H, infected, v, H.r - 1, 0) == want


def test_pendant_star_with_one_pendant_example():
    assert count_pendant_stars(TWO_EDGE, [3, 4], 0, 0, 1) == 1
    cfg = pendant_star_config(3, 0, 1)
    assert count_rooted_copies(TWO_EDGE, [3, 4], cfg, [0]) == 1


def test_saturated_edge_examples():
    # S covering a whole edge: present or not
    assert count_saturated(PATH_HOST, [], [0, 1, 2]) == 1
    assert count_saturated(PATH_HOST, [], [1, 2, 3]) == 0
    # S={0,3}: only the edge whose free vertex is infected counts
    assert count_saturated(PATH_HOST, [4], [0, 3]) == 1
    assert count_saturated(PATH_HOST, [2, 4], [0, 3]) == 2
    cfg = saturated_edge_config(3, 2)
    assert count_rooted_copies(PATH_HOST, [4], cfg, [0, 3]) == 1


def test_general_stars_with_no_pendants_match_pendant_stars():
    rng = np.random.default_rng(12)
    for _ in range(10):
        H = random_hypergraph(rng, 9, 3, 18)
        infected = sorted(int(v) for v in rng.choice(9, 4, replace=False))
        for v in range(9):
            for i in range(3):
                assert (count_general_stars(H, infected, v, i, 0)
                        == count_pendant_stars(H, infected, v, i, 0))


def test_general_stars_dominate_pendant_stars():
    rng = np.random.default_rng(13)
    for _ in range(10):
        H = random_hypergraph(rng, 9, 3, 20)
        infected = sorted(int(v) for v in rng.choice(9, 5, replace=False))
        for v in range(9):
            for i in range(3):
                for j in range(3 - i):
                    assert (count_general_stars(H, infected, v, i, j)
                            >= count_pendant_stars(H, infected, v, i, j))


def test_counts_monotone_in_infections():
    rng = np.random.default_rng(14)
    for _ in range(8):
        H = random_hypergraph(rng, 10, 3, 22)
        small = set(int(v) for v in rng.choice(10, 3, replace=False))
        big = small | {int(rng.integers(10))}
        for v in range(10):
            for i in range(3):
                for j in range(3 - i):
                    assert (count_pendant_stars(H, big, v, i, j)
                            >= count_pendant_stars(H, small, v, i, j))
                    assert (count_general_stars(H, big, v, i, j)
                            >= count_general_stars(H, small, v, i, j))
            assert (count_saturated(H, big, [v])
                    >= count_saturated(H, small, [v]))


def test_fast_counters_match_generic_matcher():
    # each counter against its direct reference over the (active) edge
    # list, against the generic matcher on its named configuration, and on
    # small patterns against subset enumeration
    rng = np.random.default_rng(15)
    for trial in range(60):
        r = 3 if trial % 2 == 0 else 4
        n = int(rng.integers(r + 2, 13))
        H = random_hypergraph(rng, n, r, int(rng.integers(4, 26)))
        k = int(rng.integers(0, n))
        infected = sorted(int(x) for x in rng.choice(n, k, replace=False))
        v = int(rng.integers(n))
        ssize = int(rng.integers(1, r + 1))
        S = sorted(int(x) for x in rng.choice(n, ssize, replace=False))
        active = rng.random(H.num_edges) < 0.7 if trial % 4 >= 2 else None
        edges = [e for e, a in zip(edge_lists(H), active if active is not None
                                   else [True] * H.num_edges) if a]
        cfg = saturated_edge_config(r, ssize)
        got = count_rooted_copies(H, infected, cfg, S, active)
        assert got == saturated_edges_oracle(edges, infected, S)
        assert got == count_copies_oracle(
            edges, cfg.pattern.edges_array.tolist(), cfg.roots,
            cfg.marked, S, infected)
        for i in range(r):
            for j in range(r - i):
                cfg = pendant_star_config(r, i, j)
                got = count_pendant_stars(H, infected, v, i, j, active)
                assert got == pendant_stars_oracle(edges, infected, v, i, j)
                assert got == count_rooted_copies(H, infected, cfg, [v], active)
                family = general_star_family(r, i, j)
                copies = [set(map(tuple, rooted_copies(
                              H, infected, m, [v], active).tolist()))
                          for m in family]
                total = sum(len(s) for s in copies)
                union = set().union(*copies) if copies else set()
                assert len(union) == total     # family members are disjoint
                got = count_general_stars(H, infected, v, i, j, active)
                assert got == total
                assert got == general_stars_oracle(edges, infected, v, i, j)
                for m, found in zip(family, copies):
                    if m.pattern.n <= 5:
                        assert len(found) == count_copies_oracle(
                            edges, m.pattern.edges_array.tolist(),
                            m.roots, m.marked, [v], infected)



def test_fast_counters_match_oracles_at_wide_edges():
    # the join's column loops run over G.r columns: r = 5 and 6 hosts around
    # a planted two-pendant star at v, an edge filter on every other trial;
    # count_copies_oracle takes the one-edge patterns
    rng = np.random.default_rng(24)
    pendant_total = 0
    for trial in range(4):
        r = 5 + trial % 2
        n = 3 * r
        star = pendant_star_config(r, 0, 2)
        place = rng.permutation(n)
        rows = (place[star.pattern.edges_array].tolist()
                + [rng.choice(n, r, replace=False).tolist()
                   for _ in range(int(rng.integers(10, 16)))])
        H = Hypergraph.from_rows(n, r, rows)
        v = int(place[0])
        infected = sorted(set(place[sorted(star.marked)].tolist())
                          | set(rng.choice(n, r, replace=False).tolist()))
        active = rng.random(H.num_edges) < 0.8 if trial >= 2 else None
        edges = [e for e, a in zip(edge_lists(H), active if active is not None
                                   else [True] * H.num_edges) if a]
        e = H.edge(int(H.incident_edges(v)[0]))
        for S in ([v], sorted([v, next(x for x in e if x != v)])):
            cfg = saturated_edge_config(r, len(S))
            got = count_rooted_copies(H, infected, cfg, S, active)
            assert got == saturated_edges_oracle(edges, infected, S)
            assert got == count_copies_oracle(
                edges, cfg.pattern.edges_array.tolist(), cfg.roots,
                cfg.marked, S, infected)
        for i in range(r):
            cfg = pendant_star_config(r, i, 0)
            assert count_pendant_stars(H, infected, v, i, 0, active) == (
                count_copies_oracle(edges, cfg.pattern.edges_array.tolist(),
                                    cfg.roots, cfg.marked, [v], infected))
            for j in range(min(2, r - 1 - i) + 1):
                got = count_pendant_stars(H, infected, v, i, j, active)
                assert got == pendant_stars_oracle(edges, infected, v, i, j)
                assert count_general_stars(H, infected, v, i, j, active) == (
                    general_stars_oracle(edges, infected, v, i, j))
                pendant_total += got * (j == 2)
    assert pendant_total > 0       # two-pendant copies were found

# sha256 of every counter at 5 vertices of the K_30 triangle lift, as a
# JSON list, pinned on the recursive matcher and the hand-written counters
# that the level-wise join replaced
COUNTER_DIGESTS = {
    "sparse": "b96a616b9a52d3cc3e6d428a8cea7eb8b07f30ba991f371967ea192b1713fa9c",
    "dense": "d89b600cf11b9b222acebf80ce7932f635d65101ca59424e6bdb0e1a2a1d31c3",
}


def test_counter_digests_pinned_on_k30_lift():
    H = bootstrap_lift(complete_uniform(30, 2), load_pattern("k3"))
    rng = np.random.default_rng(30)
    sparse = rng.random(H.n) < 0.05
    dense = rng.random(H.n) < 0.3
    live = rng.random(H.num_edges) < 0.8
    vertices = [int(v) for v in rng.choice(H.n, size=5, replace=False)]
    configs = [pendant_star_config(3, i, j)
               for i in range(3) for j in range(3 - i)]
    configs += [c for c in enumerate_secondary(3) if len(c.roots) == 1]
    states = {"sparse": (sparse, None), "dense": (dense, live)}
    for name, (infected, active) in states.items():
        counts = []
        for v in vertices:
            e = H.edge(int(H.incident_edges(v)[0]))
            for S in ([v], [v, next(x for x in e if x != v)], list(e)):
                counts.append(count_saturated(H, infected, S, active))
            for i in range(3):
                for j in range(3 - i):
                    counts.append(count_pendant_stars(H, infected, v, i, j,
                                                      active))
                    counts.append(count_general_stars(H, infected, v, i, j,
                                                      active))
            for cfg in configs:
                counts.append(count_rooted_copies(H, infected, cfg, [v],
                                                  active))
        digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
        assert digest == COUNTER_DIGESTS[name], name


def test_generic_matcher_against_subset_oracle():
    rng = np.random.default_rng(16)
    mask_rng = np.random.default_rng(17)
    for _ in range(12):
        H = random_hypergraph(rng, 8, 3, 10)
        edges = edge_lists(H)
        infected = sorted(int(x) for x in rng.choice(8, 3, replace=False))
        v = int(rng.integers(8))
        for cfg in (pendant_star_config(3, 1, 0), pendant_star_config(3, 0, 1),
                    pendant_star_config(3, 1, 1), saturated_edge_config(3, 1)):
            pattern_edges = cfg.pattern.edges_array.tolist()
            want = count_copies_oracle(edges, pattern_edges, cfg.roots,
                                       cfg.marked, [v], infected)
            assert count_rooted_copies(H, infected, cfg, [v]) == want
            # under an edge filter the oracle sees only the active edges
            active = mask_rng.random(H.num_edges) < 0.7
            kept = [e for e, a in zip(edges, active) if a]
            want = count_copies_oracle(kept, pattern_edges, cfg.roots,
                                       cfg.marked, [v], infected)
            assert count_rooted_copies(H, infected, cfg, [v], active) == want
    # unrooted, unmarked copies: the lift's enumerator
    for F in (Hypergraph.from_rows(5, 3, [[0, 1, 2], [2, 3, 4]]),
              Hypergraph.from_rows(4, 3, [[0, 1, 2], [1, 2, 3]]),
              load_pattern("loose_triangle_3")):
        pattern_edges = F.edges_array.tolist()
        for _ in range(4):
            H = random_hypergraph(mask_rng, 7, 3, 9)
            want = count_copies_oracle(edge_lists(H), pattern_edges, (), (),
                                       [], [])
            assert len(enumerate_copies(H, F)) == want


def test_general_star_family_shapes():
    # no pendants: the family is the single pendant-star pattern
    fam = general_star_family(3, 1, 0)
    assert len(fam) == 1
    assert canonical_config_key(fam[0]) == canonical_config_key(
        pendant_star_config(3, 1, 0))
    # with pendants the disjoint shape is always present
    fam = general_star_family(3, 0, 2)
    keys = {canonical_config_key(c) for c in fam}
    assert canonical_config_key(pendant_star_config(3, 0, 2)) in keys
    assert len(fam) > 1


def test_general_star_family_is_derived_once():
    # each call gets its own list of the cached family
    first, second = general_star_family(3, 0, 2), general_star_family(3, 0, 2)
    built = list(census._general_star_family.__wrapped__(3, 0, 2))
    assert first == second == built
    assert first is not second
    first.append(pendant_star_config(3, 0, 0))
    assert second == built
    assert general_star_family(3, 0, 2) == built


def test_canonical_key_invariant_under_relabeling():
    rng = np.random.default_rng(18)
    for cfg in general_star_family(3, 1, 1) + enumerate_secondary(3)[:10]:
        F = cfg.pattern
        perm = rng.permutation(F.n)
        edges = [[int(perm[x]) for x in e] for e in F.edges_array.tolist()]
        rng.shuffle(edges)
        relabeled = Configuration(
            Hypergraph.from_rows(F.n, F.r, edges),
            frozenset(int(perm[x]) for x in cfg.roots),
            frozenset(int(perm[x]) for x in cfg.marked))
        assert canonical_config_key(relabeled) == canonical_config_key(cfg)


def test_secondary_family_structure():
    for r in (3, 4):
        fam = enumerate_secondary(r)
        assert fam, "family must be nonempty"
        keys = {canonical_config_key(c) for c in fam}
        assert len(keys) == len(fam)   # genuinely distinct classes
        for cfg in fam:
            F = cfg.pattern
            assert 1 <= F.num_edges <= 3
            # no vertex lies in three edges
            assert (F.degrees() <= 2).all()
            neutral = set(range(F.n)) - cfg.roots - cfg.marked
            # some central edge has a root and a neutral vertex and meets
            # every other edge in a neutral vertex
            def central_ok(eid):
                e = set(F.edge(eid))
                if not (e & cfg.roots and e & neutral):
                    return False
                return all(set(F.edge(o)) & e & neutral
                           for o in range(F.num_edges) if o != eid)
            assert any(central_ok(eid) for eid in range(F.num_edges))
            # root multiplicity or overlap justifies the configuration
            pair_overlap = any(
                len(set(F.edge(a)) & set(F.edge(b))) > 1
                for a in range(F.num_edges) for b in range(a + 1, F.num_edges))
            assert len(cfg.roots) >= 2 or pair_overlap or F.num_edges == 3


def test_secondary_two_edge_double_overlap_present():
    fam = enumerate_secondary(3)
    assert any(
        cfg.pattern.num_edges == 2
        and len(set(cfg.pattern.edge(0)) & set(cfg.pattern.edge(1))) == 2
        for cfg in fam)


def test_secondary_remark_closure():
    for r in (3, 4):
        fam = enumerate_secondary(r)
        keys = {canonical_config_key(c) for c in fam}
        for cfg in fam:
            for w in sorted(cfg.marked):
                unmarked = Configuration(cfg.pattern, cfg.roots,
                                         cfg.marked - {w})
                promoted = Configuration(cfg.pattern, cfg.roots | {w},
                                         cfg.marked - {w})
                assert canonical_config_key(unmarked) in keys
                assert canonical_config_key(promoted) in keys


def test_secondary_family_counts_are_stable():
    fam = enumerate_secondary(3)
    by_edges = {}
    for cfg in fam:
        by_edges[cfg.pattern.num_edges] = by_edges.get(
            cfg.pattern.num_edges, 0) + 1
    assert by_edges == {1: 1, 2: 21, 3: 55}
    assert len(fam) == 77


def test_secondary_range_guard():
    with pytest.raises(ValueError):
        enumerate_secondary(2)
    with pytest.raises(ValueError):
        enumerate_secondary(7)


def test_secondary_subdominance_on_large_lift():
    # one-root, fully neutral secondaries stay an order of magnitude under
    # the d^((|V|-1)/(r-1)) primary scale; the lift is vertex-transitive,
    # so a couple of sampled roots already speak for all of them
    H = bootstrap_lift(complete_uniform(500, 2), load_pattern("k3"))
    d = 498.0
    fam = [c for c in enumerate_secondary(3)
           if len(c.roots) == 1 and not c.marked]
    assert len(fam) == 4
    sample = np.random.default_rng(0).choice(H.n, size=2, replace=False)
    for cfg in fam:
        bound = 0.1 * d ** ((cfg.pattern.n - 1) / 2)
        worst = max(count_rooted_copies(H, [], cfg, [int(v)])
                    for v in sample)
        assert worst <= bound


def test_counters_validate_arguments():
    H = complete_uniform(4, 3)
    with pytest.raises(ValueError):
        count_pendant_stars(H, [], 0, 3, 0)
    with pytest.raises(ValueError):
        count_pendant_stars(H, [], 0, 1, 2)
    with pytest.raises(ValueError):
        count_saturated(H, [], [0, 1, 2, 3])
    with pytest.raises(ValueError):
        count_rooted_copies(H, [], pendant_star_config(4, 0, 0), [0])
    # no infected set is refused, with marked vertices or without
    for cfg in (pendant_star_config(3, 1, 0), pendant_star_config(3, 0, 0)):
        with pytest.raises(ValueError, match="infected"):
            count_rooted_copies(H, None, cfg, [0])
    with pytest.raises(ValueError, match="infected"):
        count_general_stars(H, None, 0, 0, 1)
    # edge and vertex filters are range-checked, not wrapped or clipped
    cfg = saturated_edge_config(3, 1)
    m = TWO_EDGE.num_edges
    for bad in (-1, m):
        for call in (lambda: count_saturated(TWO_EDGE, [3, 4], [2],
                                                   active=[bad]),
                     lambda: count_pendant_stars(TWO_EDGE, [], 2, 0, 1,
                                                 active=[bad]),
                     lambda: count_general_stars(TWO_EDGE, [], 2, 0, 1,
                                                 active=[bad]),
                     lambda: count_rooted_copies(TWO_EDGE, [], cfg, [2],
                                                 active=[bad])):
            with pytest.raises(ValueError):
                call()
    for bad in (-1, TWO_EDGE.n):
        with pytest.raises(ValueError):
            count_saturated(TWO_EDGE, [bad], [2])
        with pytest.raises(ValueError):
            count_rooted_copies(TWO_EDGE, [bad], cfg, [2])
    # root images are vertex ids, never rounded onto one
    with pytest.raises(ValueError):
        count_rooted_copies(TWO_EDGE, [], cfg, [0.5])
