"""Complete hosts, lifted instances, balance analysis, pattern library."""

import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import edge_lists, random_hypergraph
from hyperboot import builders
from hyperboot.builders import (SizeGuardError, bootstrap_lift,
                                complete_uniform, enumerate_copies,
                                k_balance_analysis, load_pattern,
                                pattern_names)
from hyperboot.hypergraph import Hypergraph
from oracles import kbalance_oracle

K3 = Hypergraph.from_rows(3, 2, [[0, 1], [0, 2], [1, 2]])
PATH3 = Hypergraph.from_rows(3, 2, [[0, 1], [1, 2]])


def test_complete_4_3_shape():
    H = complete_uniform(4, 3)
    assert H.num_edges == 4
    assert (H.degrees() == 3).all()


def test_complete_6_3_pair_codegrees():
    H = complete_uniform(6, 3)
    assert H.num_edges == 20
    for u in range(6):
        for v in range(u + 1, 6):
            assert H.edges_containing([u, v]).size == 4


def test_complete_rejects_bad_parameters():
    with pytest.raises(ValueError):
        complete_uniform(3, 1)
    with pytest.raises(ValueError):
        complete_uniform(2, 3)


def test_triangle_lift_of_k4():
    H = bootstrap_lift(complete_uniform(4, 2), K3)
    assert (H.n, H.num_edges) == (6, 4)
    assert (H.degrees() == 2).all()


def test_triangle_lift_of_k5():
    H = bootstrap_lift(complete_uniform(5, 2), K3)
    assert (H.n, H.num_edges) == (10, 10)
    assert (H.degrees() == 3).all()


def test_triangle_lift_fast_path_matches_generic():
    # the closed form on complete hosts must agree with the copy join, down
    # to hosts with fewer vertices than the pattern spans (an empty lift)
    check_closed_form_matches_join()


@pytest.mark.parametrize("block", [1, 5])
def test_lift_block_cuts_match_generic(monkeypatch, block):
    # a block of 1 subset holds one first position; blocks of 5 also join
    # the last two positions (3 + 1 or 4 + 1 subsets at v = 3, 4).  Each
    # fills the same rows, and n < v still gives no block at all
    monkeypatch.setattr(builders, "LIFT_BLOCK_SUBSETS", block)
    check_closed_form_matches_join()


def test_k200_lift_build_peaks_near_its_arrays():
    # the build holds little more than the rows and CSR it returns: no
    # whole-length int64 sort order or position column (numpy reports its
    # buffers to tracemalloc)
    G, F = complete_uniform(200, 2), load_pattern("k3")
    tracemalloc.start()
    try:
        L = bootstrap_lift(G, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    indptr, incident = L.incidence
    assert peak <= 1.5 * (L.edges_array.nbytes + indptr.nbytes
                          + incident.nbytes)


def check_closed_form_matches_join():
    cases = [(load_pattern(name), range(3, 13)) for name in pattern_names()
             if name != "loose_triangle_3"]
    cases.append((load_pattern("loose_triangle_3"), range(5, 10)))
    small = range(2, 9)
    cases += [(Hypergraph.from_rows(5, 2, [[1, 2], [1, 3], [2, 3]]), small),
              (Hypergraph.from_rows(4, 2, [[0, 1], [2, 3]]), small)]
    rng, drawn = np.random.default_rng(12), []
    while len(drawn) < 40:
        r = int(rng.integers(2, 4))
        F = random_hypergraph(rng, int(rng.integers(r + 1, 7)), r,
                              int(rng.integers(2, 7)))
        if F.num_edges >= 2:
            drawn.append(F)
    cases += [(F, range(F.r, 9 if F.r == 2 else 8)) for F in drawn]
    for F, hosts in cases:
        v = np.unique(F.edges_array).size
        for n in hosts:
            G = complete_uniform(n, F.r)
            L = bootstrap_lift(G, F)
            assert (L.n, L.r) == (G.num_edges, F.num_edges)
            assert edge_lists(L) == [tuple(c) for c in
                                     enumerate_copies(G, F).tolist()], (F, n)
            assert n >= v or not L.num_edges


def test_copies_map_only_the_vertices_edges_span():
    # a triangle plus an isolated vertex: no injective map of all four
    # vertices into three exists, yet the one triangle of K_3 is a copy
    F = Hypergraph.from_rows(4, 2, [[0, 1], [1, 2], [0, 2]])
    G = complete_uniform(3, 2)
    assert enumerate_copies(G, F).tolist() == [[0, 1, 2]]
    assert edge_lists(bootstrap_lift(G, F)) == [(0, 1, 2)]


def test_triangle_lift_of_incomplete_graph():
    # hosts other than complete graphs go through the generic matcher
    rng = np.random.default_rng(21)
    for _ in range(5):
        G = random_hypergraph(rng, 12, 2, 30)
        ids = {e: i for i, e in enumerate(edge_lists(G))}
        want = [(ids[a, b], ids[a, c], ids[b, c])
                for a, b, c in combinations(range(12), 3)
                if {(a, b), (a, c), (b, c)} <= ids.keys()]
        assert edge_lists(bootstrap_lift(G, K3)) == want


def test_lift_with_overlapping_triples_pattern():
    G = complete_uniform(5, 3)
    F = Hypergraph.from_rows(4, 3, [[0, 1, 2], [1, 2, 3]])
    H = bootstrap_lift(G, F)
    copies = {frozenset(c) for c in enumerate_copies(G, F)}
    assert H.n == G.num_edges
    assert {frozenset(e) for e in edge_lists(H)} == copies
    # each copy is a pair of triples sharing exactly two vertices
    assert all(len(c) == 2 for c in copies)


# sha256 of edges_array for the generic lifts of K_8..K_14, and of the
# loose-triangle lift of complete_uniform(8, 3), pinned on the recursive
# matcher that the level-wise join replaced
LIFT_DIGESTS = {
    ("c4", 8): "38bd7a2455a8cde7cc36dd849472017f7ec84157a57ec43aa082fef025d5ba3d",
    ("c4", 9): "a33a04fab59d9a069c484d7aa92360c72d90a9c231b4b2a19fbaffdf60925d0a",
    ("c4", 10): "ab90dc421f61051f1ff64b77e6d183807ed74114943d93aaa82f755c5dd49146",
    ("c4", 11): "2a5fed7739122e80c7e2335b3d50deac9e26cdf64d81e619ad2eaee23ae7d21b",
    ("c4", 12): "c06f8e1e532c182e8c89f4943799f73ae2c6b37018624b839e4a3c4f617dbf8b",
    ("c4", 13): "db157cbede0c8363f2a911ffe9f10dc429e962692f5b7e82e56b697b3b76ddb3",
    ("c4", 14): "c872f6c9c66810cff4d36e0cfc7e322504e415ecb31d7b909d7cf81689a8191a",
    ("k4", 8): "675646562f54806c36b2cc45a9224d95c992c8983d5d556bac4f1945f94c72d6",
    ("k4", 9): "6cf36ec0f6d9342777b10270011ca135dfb83f3b1563c085e3b8cce73e249aca",
    ("k4", 10): "e71d43401cd5a2508ba66b8d52d0f278b751ceb92ae017690af210c79f746028",
    ("k4", 11): "183aff1fa858acc82306a807a1d54445a1e1a214d3c9242c75c00622628926ec",
    ("k4", 12): "023b179260d3f0ac36d599056e6eb42005992794c8f1b7f3358888fb6c74f3c5",
    ("k4", 13): "475a55235cc36681904f1a0155e8ef983a17b6d4ebecb33e2f16aa54bf959948",
    ("k4", 14): "8afc49c0075bb71f7e3c885c993f25a11b4cc9dcebaf81d6f7c88947fbbb2ba4",
    ("triangle_pendant", 8):
        "892cac9e33cc9334cc79c4c17bbdf51f1d317d34cc1a4cb26bf0942e9d40b0a5",
    ("triangle_pendant", 9):
        "9f02fdb4f69f63eaef4708cba183d6f1a7b5d52db9da686ad5c3876cb1130990",
    ("triangle_pendant", 10):
        "fccab4357cee716a0cdaac1ac62e9064544acad86ed121e55f1f8e9d8e4ccf21",
    ("triangle_pendant", 11):
        "3305de416056c153510000ad0ed23efd2289b58a73073aee6db5d9e91a34c230",
    ("triangle_pendant", 12):
        "d9d1ed59eb056f7d917df2541e35dffe4d726db6aaed487f343b4775217368d9",
    ("triangle_pendant", 13):
        "72c1254ff4b6ab351feb13c4ce9a4cdc7540ba42fc3ecb32cd1cc615b902e5c3",
    ("triangle_pendant", 14):
        "52f00bccf4b35774a7463baa229310602adfe8bf4f2057dc8d8a9ec8b7dde8c2",
    ("loose_triangle_3", 8):
        "05c7923f46545e14a4c4d3234d95c3acce84bad38e786bac9c29b7f1c825744b",
}


def test_generic_lift_digests_pinned():
    for (name, n), want in LIFT_DIGESTS.items():
        k = 3 if name == "loose_triangle_3" else 2
        L = bootstrap_lift(complete_uniform(n, k), load_pattern(name))
        got = hashlib.sha256(L.edges_array.tobytes()).hexdigest()
        assert got == want, (name, n)


def test_lift_regular_degree_examples():
    for n, F, degree in ((4, K3, 2), (20, K3, 18), (5, PATH3, 6)):
        degs = bootstrap_lift(complete_uniform(n, 2), F).degrees()
        assert degs.min() == degs.max() == degree


def test_lift_of_complete_graph_is_regular():
    for n in (4, 9, 17, 33, 60):
        G = complete_uniform(n, 2)
        H = bootstrap_lift(G, K3)
        degs = H.degrees()
        assert degs.min() == degs.max() == n - 2


def test_lift_rejects_uniformity_below_three():
    # a single-edge pattern would produce a 1-uniform lift
    F = Hypergraph.from_rows(2, 2, [[0, 1]])
    with pytest.raises(ValueError):
        bootstrap_lift(complete_uniform(5, 2), F)


def test_generic_lift_size_guard():
    G = complete_uniform(1100, 2)   # 604450 host edges, over the generic limit
    F = Hypergraph.from_rows(4, 2, [[0, 1], [1, 2], [2, 3]])
    # the closed form guards the lift's edge count, here 12 * C(1100, 4)
    with pytest.raises(SizeGuardError, match="lift would have"):
        bootstrap_lift(G, F)
    # a host that is not complete goes through the join, which guards G
    G = Hypergraph.from_rows(G.n, 2, G.edges_array[1:], canonical=True)
    with pytest.raises(SizeGuardError, match="604449 host edges"):
        bootstrap_lift(G, F)


def test_balance_quartet():
    r_k3 = k_balance_analysis(load_pattern("k3"))
    assert (r_k3.density, r_k3.strictly_balanced) == (Fraction(2), True)

    r_k4 = k_balance_analysis(load_pattern("k4"))
    assert (r_k4.density, r_k4.strictly_balanced) == (Fraction(5, 2), True)

    r_tp = k_balance_analysis(load_pattern("triangle_pendant"))
    assert r_tp.density == Fraction(3, 2)
    assert not r_tp.strictly_balanced
    assert r_tp.witness_density == Fraction(2)
    witness = {frozenset(e) for e in r_tp.witness_edges}
    assert witness == {frozenset(e) for e in edge_lists(K3)}

    r_lt = k_balance_analysis(load_pattern("loose_triangle_3"))
    assert (r_lt.density, r_lt.strictly_balanced) == (Fraction(2, 3), True)


def test_balance_default_k_is_uniformity():
    assert k_balance_analysis(load_pattern("loose_triangle_3")).k == 3
    assert k_balance_analysis(load_pattern("k3")).k == 2


def test_balance_matches_subset_enumeration():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 25:
        n = int(rng.integers(4, 8))
        m = int(rng.integers(2, 7))
        F = random_hypergraph(rng, n, 2, m)
        if F.num_edges < 2:
            continue
        spanned = set()
        for e in edge_lists(F):
            spanned.update(e)
        if len(spanned) <= 2:
            continue
        report = k_balance_analysis(F, k=2)
        density, strict, worst = kbalance_oracle(edge_lists(F), 2)
        assert report.density == density
        assert report.strictly_balanced == strict
        if not strict:
            assert report.witness_density == worst
        checked += 1


def test_balance_guards():
    with pytest.raises(ValueError):
        k_balance_analysis(Hypergraph.from_rows(3, 2, [[0, 1]]))
    big = complete_uniform(8, 2)   # 28 edges > analysis limit
    with pytest.raises(SizeGuardError):
        k_balance_analysis(big)


def test_pattern_library_round_trip():
    names = pattern_names()
    assert names == sorted(names)
    assert {"k3", "k4", "c4", "triangle_pendant", "loose_triangle_3"} <= set(names)
    for name in names:
        F = load_pattern(name)
        assert F.num_edges >= 2
    with pytest.raises(ValueError):
        load_pattern("nonesuch")
