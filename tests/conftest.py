import numpy as np

from hyperboot.hypergraph import Hypergraph


def random_hypergraph(rng: np.random.Generator, n: int, r: int,
                      m: int) -> Hypergraph:
    """Random r-uniform instance; duplicate draws collapse on build."""
    rows = [sorted(int(x) for x in rng.choice(n, size=r, replace=False))
            for _ in range(m)]
    return Hypergraph.from_rows(n, r, rows)


def edge_lists(H: Hypergraph) -> list:
    return [tuple(e) for e in H.edges_array.tolist()]


def assert_open_by_vertex(st, want: dict) -> None:
    """An InfectionState's open set grouped by healthy vertex equals `want`,
    a map from healthy vertex to its set of open edges: open_by_vertex
    sorted by (vertex, edge id)."""
    vertices, edges = st.open_by_vertex()
    assert list(zip(vertices.tolist(), edges.tolist())) == sorted(
        (v, e) for v, es in want.items() for e in es)
