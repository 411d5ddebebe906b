"""Deterministic closure and the mutable infection state for process runs.

closure() computes the least fixed point of the infection rule: a healthy
vertex becomes infected as soon as some (active) edge has it as its unique
healthy vertex.  It runs in numpy rounds over the compacted active edges and
their vertex-to-edge CSR: every edge with one healthy vertex left infects it
in the same round, and only the edges around the new vertices are
recounted.  InfectionState supports the incremental operations the
revelation processes need: O(1) uniform sampling from the open-edge set
(swap-remove array plus position index) and infect/remove updates
proportional to the degree of the touched vertex.  The open edges of a
vertex, or all of them grouped by their healthy vertex, are derived on
demand from the healthy counts.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .hypergraph import Hypergraph, as_mask, csr_incidence


def closure(H: Hypergraph, infected0: Iterable[int], active=None) -> set:
    """Infected set after exhausting the infection rule over active edges.

    active restricts the rule to a sub-edge-set (mask or id list); edges
    outside it are ignored entirely.  Works on a compacted copy of the
    active edges, so sparse filters cost what they select, not what exists.
    Each round infects the healthy vertex of every edge with healthy count 1
    at once and recounts only the edges around the new vertices; the least
    fixed point does not depend on the order of infections.  The input
    masks are not written to.
    """
    act = as_mask(active, H.num_edges, "active edge")
    E = H.edges_array if act is None else H.edges_array[np.flatnonzero(act)]
    infected = as_mask(infected0, H.n, "infected vertex").copy()
    indptr, incident = csr_incidence(H.n, E)
    counts = H.r - infected[E].sum(axis=1)
    frontier = np.flatnonzero(counts == 1)
    while frontier.size:
        rows = E[frontier]
        new = np.unique(rows[~infected[rows]])
        infected[new] = True
        # the CSR slices of the new vertices, gathered as one index array
        deg = indptr[new + 1] - indptr[new]
        shift = indptr[new] - (np.cumsum(deg) - deg)
        slots = np.arange(deg.sum()) + np.repeat(shift, deg)
        touched, hits = np.unique(incident[slots], return_counts=True)
        counts[touched] -= hits
        frontier = touched[counts[touched] == 1]
    return set(np.flatnonzero(infected).tolist())


def percolates(H: Hypergraph, infected0: Iterable[int], active=None) -> bool:
    return len(closure(H, infected0, active)) == H.n


def sample_vertex_set(H: Hypergraph, p: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(p) vertex sample, ascending ids; one uniform per vertex."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"density p={p} outside [0, 1]")
    return np.flatnonzero(rng.random(H.n) < p).astype(np.int64)


def sample_edge_set(H: Hypergraph, q: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(q) edge sample as a boolean mask over edge ids."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability q={q} outside [0, 1]")
    return rng.random(H.num_edges) < q


class InfectionState:
    """Incrementally maintained infection/open-edge state over a fixed H.

    An edge is live until explicitly removed; it is open when it is live and
    has exactly one healthy vertex.  The open set supports O(1) uniform
    sampling; open_at and open_by_vertex group it by the healthy vertex on
    demand.  An edge whose healthy count reaches 0 stays live (closed)
    unless removed.
    """

    def __init__(self, H: Hypergraph, infected0: Iterable[int], active=None):
        self.H = H
        n, m = H.n, H.num_edges
        act = as_mask(active, m, "active edge")
        self.live = np.ones(m, dtype=bool) if act is None else act.copy()
        infected = as_mask(infected0, n, "infected vertex").copy()
        # only edges touching an initially infected vertex differ from r
        incidences = np.concatenate([np.zeros(0, dtype=np.int32)] + [
            H.incident_edges(v) for v in np.flatnonzero(infected)])
        touched, hits = np.unique(incidences, return_counts=True)
        counts = np.full(m, H.r, dtype=np.int32)
        counts[touched] -= hits
        if act is not None:
            counts[~act] = -1
        self.infected = infected
        self.healthy_count = counts
        self.infected_count = int(infected.sum())
        self._rows = H.edges_array
        # r >= 2, so an open edge has an infected vertex and is touched
        opened = touched[counts[touched] == 1]
        self.open_list: list = opened.tolist()
        self.open_pos = np.full(m, -1, dtype=np.int64)
        self.open_pos[opened] = np.arange(len(opened))

    def _healthy_of(self, edges) -> np.ndarray:
        """Healthy vertices of one edge id or of an array of edges; for
        edges with exactly one each, the healthy vertex of every edge."""
        rows = self._rows[edges]
        return rows[~self.infected[rows]]

    def _open_add(self, e: int) -> None:
        self.open_pos[e] = len(self.open_list)
        self.open_list.append(e)

    def _open_discard(self, e: int) -> None:
        pos = self.open_pos[e]
        last = self.open_list[-1]
        self.open_list[pos] = last
        self.open_pos[last] = pos
        self.open_list.pop()
        self.open_pos[e] = -1

    @property
    def open_count(self) -> int:
        return len(self.open_list)

    def open_edges(self) -> list:
        """Current open-edge ids (sampling order, not sorted)."""
        return list(self.open_list)

    def open_at(self, v: int) -> set:
        """Open edges whose unique healthy vertex is v."""
        if self.infected[v]:
            return set()
        inc = self.H.incident_edges(v)
        return set(inc[self.healthy_count[inc] == 1].tolist())

    def open_by_vertex(self) -> tuple:
        """(vertices, edges): every open edge and its healthy vertex, sorted
        by vertex, then by edge id."""
        edges = np.array(self.open_list, dtype=np.int64)
        vertices = self._healthy_of(edges)
        order = np.lexsort((edges, vertices))
        return vertices[order], edges[order]

    def unique_healthy_vertex(self, e: int) -> int:
        if self.open_pos[e] < 0:
            raise ValueError(f"edge {e} is not open")
        healthy = self._healthy_of(e)
        if healthy.size != 1:
            raise AssertionError(f"open edge {e} has {healthy.size} healthy "
                                 "vertices")
        return int(healthy[0])

    def infect(self, v: int) -> None:
        """Infect a healthy vertex and update all live edges containing it."""
        if self.infected[v]:
            raise ValueError(f"vertex {v} is already infected")
        self.infected[v] = True
        self.infected_count += 1
        inc = self.H.incident_edges(v)
        inc = inc[self.live[inc]]
        before = self.healthy_count[inc]
        self.healthy_count[inc] = before - 1
        # before 1: v was the unique healthy vertex, the edge closes;
        # before 2: the edge opens.  Applied in incidence order, which fixes
        # the order of open_list.
        moved = before <= 2
        for e, c in zip(inc[moved].tolist(), before[moved].tolist()):
            if c == 1:
                self._open_discard(e)
            else:
                self._open_add(e)

    def remove_edge(self, e: int) -> None:
        """Delete a live edge (consumed by sampling)."""
        if not self.live[e]:
            raise ValueError(f"edge {e} is not live")
        self.live[e] = False
        if self.open_pos[e] >= 0:
            self._open_discard(e)
        self.healthy_count[e] = -1

    def infected_set(self) -> set:
        return set(int(v) for v in np.flatnonzero(self.infected))
