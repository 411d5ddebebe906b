"""Core hypergraph container: degrees, codegrees, link overlaps, checks,
round trips."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_lists, random_hypergraph
from hyperboot import hypergraph
from hyperboot.builders import bootstrap_lift, complete_uniform, load_pattern
from hyperboot.hypergraph import (Hypergraph, SizeGuardError,
                                  check_well_behaved, csr_incidence,
                                  from_json, from_text,
                                  loads, max_neighbourhood_intersection,
                                  to_json)
from oracles import (codegree_oracle, degree_oracle, max_codegree_oracle,
                     max_codegree_witness_oracle, max_nbhd_intersection_oracle,
                     nbhd_intersection_oracle)

PATH_HYPERGRAPH = [[0, 1, 2], [0, 2, 3], [0, 3, 4]]


def test_build_sorts_vertices_within_edge():
    H = Hypergraph.from_rows(3, 3, [[2, 0, 1]])
    assert H.num_edges == 1
    assert H.edge(0) == (0, 1, 2)


def test_build_collapses_duplicate_edges():
    H = Hypergraph.from_rows(4, 3, [[0, 1, 2], [2, 1, 0], [1, 2, 3]])
    assert H.num_edges == 2
    assert edge_lists(H) == [(0, 1, 2), (1, 2, 3)]


def test_build_rejects_bad_edges():
    # ids are integers as given: no float, string or bool, and the range
    # is checked before the int32 cast could wrap 2**32 + 2 onto 2
    for rows in ([[0, 1, 1]], [[0, 1, 3]], [[0, 1]], [[0, 1, 2], [0, 1]], 7,
                 [[0, 1, 2.0]], [["0", "1", "2"]], [[True, False, True]],
                 np.array([[0, 1, 2 ** 32 + 2]])):
        with pytest.raises(ValueError, match="edge"):
            Hypergraph.from_rows(3, 3, rows)


def test_complete_5_3_degrees_and_codegree():
    H = complete_uniform(5, 3)
    assert H.num_edges == 10
    assert (H.degrees() == 6).all()
    assert H.edges_containing([0, 1]).size == 3


def test_path_host_degree_and_max_codegree():
    H = Hypergraph.from_rows(5, 3, PATH_HYPERGRAPH)
    assert H.degrees()[0] == 3
    assert H.max_codegree_witness(2)[0] == 2


def test_neighbourhood_intersection_examples():
    H = Hypergraph.from_rows(4, 3, [[0, 1, 2], [1, 2, 3]])
    assert max_neighbourhood_intersection(H) == (1, (0, 3))
    K43 = complete_uniform(4, 3)
    assert max_neighbourhood_intersection(K43)[0] == 1
    Hd = Hypergraph.from_rows(6, 3, [[0, 1, 2], [3, 4, 5]])
    assert max_neighbourhood_intersection(Hd) == (0, None)


def test_well_behaved_lifted_complete_20():
    H = bootstrap_lift(complete_uniform(20, 2), complete_uniform(3, 2))
    report = check_well_behaved(H, d=18, rho=0.25, nu=190)
    assert report.passes
    assert all(c.ok for c in report.conditions)


def test_well_behaved_rejects_zero_overlap_budget():
    H = complete_uniform(4, 3)
    report = check_well_behaved(H, d=3, rho=0.0, nu=10)
    assert not report.passes
    failing = {c.name for c in report.conditions if not c.ok}
    assert any(name.startswith("c:") for name in failing)


def test_well_behaved_trivial_budgets_pass_abe():
    rng = np.random.default_rng(9)
    for n, m in [(8, 12), (10, 25)]:
        H = random_hypergraph(rng, n, 3, m)
        report = check_well_behaved(H, d=H.max_degree(), rho=1.0, nu=H.n)
        by_name = {c.name: c.ok for c in report.conditions}
        assert by_name["a:max_degree"]
        assert by_name["b:min_degree"]
        assert by_name["e:vertex_count"]


def test_well_behaved_bounds_are_non_strict():
    # the lift is 18-regular on 190 vertices, so conditions a and e sit
    # exactly on their bounds and still pass
    H = bootstrap_lift(complete_uniform(20, 2), complete_uniform(3, 2))
    report = check_well_behaved(H, d=18, rho=0.25, nu=190)
    assert report.passes
    by_name = {c.name: c for c in report.conditions}
    assert by_name["a:max_degree"].measured == by_name["a:max_degree"].bound
    assert by_name["e:vertex_count"].measured == by_name["e:vertex_count"].bound


def test_codegree_bound_monotone_in_level():
    rng = np.random.default_rng(17)
    for _ in range(10):
        H = random_hypergraph(rng, 10, 4, 20)
        levels = [H.max_codegree_witness(l)[0] for l in range(1, 4)]
        assert levels == sorted(levels, reverse=True)


def test_handshake_identity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        H = random_hypergraph(rng, 12, 3, 30)
        assert H.degrees().sum() == H.r * H.num_edges


def test_incident_edges_ascending_on_both_sides_of_16_bit_ids():
    # ids up to 2^16 - 1 are sorted as 16-bit keys, larger hosts as they are
    rng = np.random.default_rng(5)
    for n in (40, 1 << 16, (1 << 16) + 1):
        H = random_hypergraph(rng, n, 3, 60)
        H = Hypergraph.from_rows(n, 3, edge_lists(H) + [(0, n - 2, n - 1)])
        edges = edge_lists(H)
        for v in {0, n - 2, n - 1} | {x for e in edges[:20] for x in e}:
            assert H.incident_edges(v).tolist() == [
                i for i, e in enumerate(edges) if v in e]


@pytest.mark.parametrize("n", [40, 1 << 16, (1 << 16) + 1])
def test_block_placement_matches_single_sort(monkeypatch, n):
    # with the sizes shrunk, every row array, even an empty one, is placed
    # five rows at a time; vertex 1 is in no row, ids reach n - 1, and the
    # ids at both ends recur, so buckets span blocks
    rng = np.random.default_rng(n)
    pool = np.unique(np.r_[2:min(n, 12), max(2, n - 10):n])
    for m in (0, 1, 5, 7, 10, 13, 48):
        rows = np.array([[0, n - 2, n - 1]] + [
            sorted(rng.choice(pool, 3, replace=False))
            for _ in range(m - 1)], dtype=np.int32)[:m].reshape(m, 3)
        want = csr_incidence(n, rows)
        with monkeypatch.context() as patch:
            patch.setattr(hypergraph, "CSR_SORT_ROWS", -1)
            patch.setattr(hypergraph, "CSR_BLOCK_ROWS", 5)
            indptr, incident = csr_incidence(n, rows)
        assert indptr.dtype == want[0].dtype and incident.dtype == want[1].dtype
        assert np.array_equal(indptr, want[0])
        assert np.array_equal(incident, want[1])
        edges = rows.tolist()
        for v in {0, 1, n - 2, n - 1} | {x for e in edges for x in e}:
            assert incident[indptr[v]:indptr[v + 1]].tolist() == [
                i for i, e in enumerate(edges) if v in e]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_statistics_match_brute_force(data):
    n = data.draw(st.integers(3, 10))
    r = data.draw(st.integers(2, min(4, n)))
    m = data.draw(st.integers(1, 18))
    seed = data.draw(st.integers(0, 2**32 - 1))
    H = random_hypergraph(np.random.default_rng(seed), n, r, m)
    edges = edge_lists(H)
    assert H.degrees().tolist() == [degree_oracle(edges, v) for v in range(n)]
    for l in range(1, r + 1):
        assert H.max_codegree_witness(l)[0] == max_codegree_oracle(edges, l)
        assert H.max_codegree_witness(l) == max_codegree_witness_oracle(edges, l)
    assert (max_neighbourhood_intersection(H)
            == max_nbhd_intersection_oracle(edges))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in pairs[:12]:
        assert (H.edges_containing([u, v]).size
                == codegree_oracle(edges, [u, v]))


def test_max_neighbourhood_intersection_matches_pair_scan():
    rng = np.random.default_rng(31)
    H = random_hypergraph(rng, 9, 3, 22)
    edges = edge_lists(H)
    best, pair = max_neighbourhood_intersection(H)
    brute = max(nbhd_intersection_oracle(edges, u, v)
                for u in range(9) for v in range(u + 1, 9))
    assert best == brute
    assert nbhd_intersection_oracle(edges, *pair) == best


def test_link_intersection_pair_budget(monkeypatch):
    # each 2-set of K_4^(3) extends to two edges: one pair event apiece
    H = complete_uniform(4, 3)
    assert max_neighbourhood_intersection(H) == (1, (0, 3))
    monkeypatch.setattr(hypergraph, "LINK_PAIR_LIMIT", 5)
    with pytest.raises(SizeGuardError):
        max_neighbourhood_intersection(H)
    with pytest.raises(SizeGuardError):
        check_well_behaved(H, d=3, rho=1.0, nu=4)
    monkeypatch.setattr(hypergraph, "LINK_PAIR_LIMIT", 6)
    assert max_neighbourhood_intersection(H) == (1, (0, 3))


# sha256 of check_well_behaved(...).to_dict() as sorted-key JSON, witnesses
# included, pinned before the audit moved from dict counts to sort-and-group
CHECK_DIGESTS = {
    "k3_lift_20":
        "80c0d53bfbd8dc1c74fc4c9d4ff0c8689e8caee0619072b1b0f6ef628c93ebd1",
    "k3_lift_40":
        "17d48cfba6814a7803a6a07d4400fdfde14f6ca7e097a52d3e3182a8c2548aae",
    "loose_triangle_lift_12":
        "c4c8a112465f3c0804d211a324e3d298b2d39a6d191c68d60c435f8336313ee5",
    "complete_9_4":
        "19b150a5ffdaf93c06d7b71ff0df968ce902c51d48cfd5f513fa37f468fc5bc3",
}


def _audit_hosts():
    for n in (20, 40):
        H = bootstrap_lift(complete_uniform(n, 2), load_pattern("k3"))
        yield f"k3_lift_{n}", H, (n - 2, (n - 2) ** -0.5, H.n)
    H = bootstrap_lift(complete_uniform(12, 3), load_pattern("loose_triangle_3"))
    yield "loose_triangle_lift_12", H, (H.max_degree(), 0.25, H.n)
    # every l-set and every vertex pair ties
    H = complete_uniform(9, 4)
    yield "complete_9_4", H, (H.max_degree(), 1.0, 9)


def test_check_report_digests_pinned():
    for name, H, (d, rho, nu) in _audit_hosts():
        report = check_well_behaved(H, d=float(d), rho=rho, nu=float(nu))
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == CHECK_DIGESTS[name]


def test_json_round_trip_is_bit_exact():
    H = Hypergraph.from_rows(5, 3, [[4, 3, 2], [0, 1, 2], [0, 2, 3]])
    blob = to_json(H)
    assert blob.endswith("\n")
    obj = json.loads(blob)
    assert set(obj) == {"n", "r", "edges"}
    again = to_json(from_json(blob))
    assert again == blob


def test_json_bytes_pinned():
    assert to_json(complete_uniform(4, 3)) == (
        '{"n": 4, "r": 3, "edges": '
        '[[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}\n')
    assert to_json(Hypergraph.from_rows(3, 2, [])) == (
        '{"n": 3, "r": 2, "edges": []}\n')


@pytest.mark.parametrize("key", ["n", "r", "edges"])
def test_from_json_names_a_missing_key(key):
    obj = {"n": 3, "r": 2, "edges": [[0, 1]]}
    del obj[key]
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        from_json(json.dumps(obj))


# the path host in the text format: header 'r n m', then one edge a line
PATH_TEXT = "3 5 3\n0 1 2\n0 2 3\n0 3 4\n"


def test_text_round_trip_and_header():
    H = Hypergraph.from_rows(5, 3, PATH_HYPERGRAPH)
    assert from_text(PATH_TEXT) == H
    assert from_text("3 5 3\n\n4 3 0\n0 1 2\n2 0 3\n") == H
    with pytest.raises(ValueError, match="promises 4 edges, found 3"):
        from_text(PATH_TEXT.replace("3 5 3", "3 5 4"))
    with pytest.raises(ValueError, match="not 'r n m'"):
        from_text("3 5\n0 1 2\n")


def test_loads_autodetects_format():
    H = Hypergraph.from_rows(5, 3, PATH_HYPERGRAPH)
    assert loads(to_json(H)) == H
    assert loads(PATH_TEXT) == H
    with pytest.raises(ValueError):
        loads("")


def test_report_to_dict_shape():
    H = complete_uniform(4, 3)
    d = check_well_behaved(H, d=3, rho=1.0, nu=4).to_dict()
    assert {"passes", "d", "rho", "nu", "conditions"} <= set(d)
    for cond in d["conditions"]:
        assert {"name", "measured", "bound", "ok"} <= set(cond)
