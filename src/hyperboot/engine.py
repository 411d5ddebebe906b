"""Deterministic closure and the mutable infection state for process runs.

closure() computes the least fixed point of the infection rule: a healthy
vertex becomes infected as soon as some (active) edge has it as its unique
healthy vertex.  It runs in numpy rounds over the active edges and their
vertex-to-edge CSR (the host's own, or that of a compacted copy when a
filter is given).  Every edge count starts at r and the initial vertices
are round 0's new vertices, so no edge is counted in full.  Each round
subtracts the hits of the new vertices' edges, then infects at once the
healthy vertex of every edge left with one; only the edges around the new
vertices are recounted.  The result is a Closure: a read-only set view of
the infected vertices that keeps the infected mask and the per-edge healthy
counts, so Closure.grow adds initial vertices and resumes the same rounds
from where the last ones stopped, and Closure.copy branches it.
sample_edge_set draws its Bernoulli(q) edge mask by comparing raw 64-bit
generator words with one integer bound, which gives exactly the mask of
Generator.random() < q without forming the doubles; the process's per-edge
coins are decided on raw words with the same bound (_word_test).

InfectionState supports the incremental operations the revelation processes
need: O(1) uniform sampling from the open-edge set (a swap-remove list),
infection of one vertex, and removal of open edges, the only edges a process
removes: one at a time, or a whole batch with array operations.  Either
removal checks that its edges are open before any write and returns their
healthy vertices, read first.  The per-edge healthy counts are the one store
of edge status, so whether an edge is open is read from its count; they are
kept in count_dtype(r) and set up from the initial vertices' CSR slices
alone.  An open edge's place in the list is kept in a position index that is
allocated unfilled and written only for open edges, so a run pays for the
edges it touches.  infect updates the counts of the touched vertex's edges
in one array step, then applies the open-list appends and swap-removes they
cause one edge at a time, in incidence order.  Scalar reads and writes of
one edge or vertex go through memoryviews of the positions, the healthy
counts and the infected mask.  The open edges grouped by their healthy
vertex, and the open edges of the lowest saturated vertex, are derived on
demand from the healthy counts.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Set
from typing import Iterable

import numpy as np

from .hypergraph import (Hypergraph, _incidences, as_mask, check_probability,
                         csr_incidence)


# A round whose incidences exceed len(E) / CLOSURE_DENSE_ROUND counts its hits
# with one bincount over all active edges; a smaller round sorts its hits.
CLOSURE_DENSE_ROUND = 8
# Raw generator words sample_edge_set reads and compares per block (512 KB).
EDGE_BLOCK = 1 << 16
# Bit generators whose doubles are (w >> 11) * 2**-53 for a raw word w.
_TOP_53_BIT_DOUBLES = (np.random.Philox, np.random.PCG64)


def count_dtype(r: int) -> np.dtype:
    """The narrowest signed integer type that holds -1..r: int8 below
    r = 128.  Per-edge healthy counts are kept in it."""
    return np.dtype(next(t for t in (np.int8, np.int16, np.int32)
                         if np.iinfo(t).max >= r))


def closure(H: Hypergraph, infected0: Iterable[int], active=None) -> "Closure":
    """Infected set after exhausting the infection rule over active edges.

    active restricts the rule to a sub-edge-set (mask or id list); edges
    outside it are ignored entirely.  A filter is applied to a compacted
    copy of the active edges, so sparse filters cost what they select, not
    what exists; without one the host's own CSR is used.  Every edge count
    starts at r and round 0's new vertices are the initial ones.  Each round
    subtracts the new vertices' hits from their edges' counts, then infects
    the healthy vertex of every edge left with count 1 at once; the least
    fixed point does not depend on the order of infections.  The input
    masks are not written to.  Returns a Closure, which grow extends.
    """
    act = as_mask(active, H.num_edges, "active edge")
    if act is None:
        E = H.edges_array
        incidence = H.incidence
    else:
        E = H.edges_array.take(np.flatnonzero(act), axis=0)
        incidence = csr_incidence(H.n, E)
    counts = np.full(len(E), H.r, dtype=count_dtype(H.r))
    return Closure(E, incidence, np.zeros(H.n, dtype=bool), counts,
                   0).grow(infected0)


class Closure(Set):
    """The infected vertices of a closed state, as a read-only set view.

    It keeps the edge rows and CSR the rule ran over, the infected mask and
    every edge's healthy count, so grow can resume the rounds.  Iteration
    yields the vertices as ascending Python ints; len is a stored count.
    Set operations (&, |, -, ^) return plain sets.
    """

    __slots__ = ("_rows", "_incidence", "_infected", "_counts", "_size")

    def __init__(self, rows: np.ndarray, incidence: tuple,
                 infected: np.ndarray, counts: np.ndarray, size: int):
        self._rows, self._incidence = rows, incidence
        self._infected, self._counts, self._size = infected, counts, size

    @classmethod
    def _from_iterable(cls, it) -> set:
        return set(it)

    def __contains__(self, v) -> bool:
        try:
            v = operator.index(v)
        except TypeError:
            return False
        return 0 <= v < self._infected.size and bool(self._infected[v])

    def __iter__(self):
        return iter(np.flatnonzero(self._infected).tolist())

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"Closure({sorted(self)})"

    def copy(self) -> "Closure":
        """An independent copy of the mask and counts; rows and CSR are
        shared, as neither is written."""
        return Closure(self._rows, self._incidence, self._infected.copy(),
                       self._counts.copy(), self._size)

    def grow(self, vertices: Iterable[int]) -> "Closure":
        """Infect vertices (ids or a mask) too and close again; returns self.

        Exactly the closure of the old initial vertices and these: a closed
        state has no edge at count 1, so the rounds resume from the kept
        counts as they would start from all counts at r.
        """
        infected, counts, E = self._infected, self._counts, self._rows
        indptr, incident = self._incidence
        added = as_mask(vertices, infected.size, "infected vertex")
        new = np.flatnonzero(added & ~infected)
        while new.size:
            infected[new] = True
            self._size += new.size
            hit = _incidences(indptr, incident, new)
            if hit.size * CLOSURE_DENSE_ROUND > len(E):
                counts -= np.bincount(hit, minlength=len(E))
                # an edge at 1 before this round had its healthy vertex in
                # new (no edge is at 1 in a closed state, and an edge left at
                # 1 by a round has its healthy vertex in the next round's
                # new), so every edge at 1 now was hit
                frontier = np.flatnonzero(counts == 1)
            else:
                touched, hits = np.unique(hit, return_counts=True)
                counts[touched] -= hits
                frontier = touched[counts[touched] == 1]
            rows = E[frontier]
            # each frontier edge's one healthy vertex, sorted and deduplicated
            new = np.sort(rows[~infected[rows]])
            new = new[np.diff(new, prepend=-1) != 0]
        return self


def sample_vertex_set(H: Hypergraph, p: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(p) vertex sample, ascending ids; one uniform per vertex."""
    check_probability("p", p)
    return np.flatnonzero(rng.random(H.n) < p).astype(np.int64)


def _word_test(q: float) -> tuple:
    """(test, bound): test(w, bound) holds for a raw 64-bit word w exactly
    when the double Generator.random makes from it is below q.

    That double is u = (w >> 11) * 2**-53, and q * 2**53 is exact, so u < q
    holds exactly when w >> 11 < ceil(q * 2**53), that is when
    w < ceil(q * 2**53) << 11.  For q < 1 that bound is at most
    (2**53 - 1) * 2**11 and fits in a uint64; at q = 1 it is 2**64, and
    every word is <= 2**64 - 1.
    """
    bound = math.ceil(q * 2.0 ** 53) << 11
    if bound < 1 << 64:
        return np.less, np.uint64(bound)
    return np.less_equal, np.uint64((1 << 64) - 1)


def sample_edge_set(H: Hypergraph, q: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli(q) edge sample as a boolean mask over edge ids.

    Equal to rng.random(H.num_edges) < q, and leaves rng in the same state,
    without forming a double: each raw word is compared with _word_test's
    integer bound, in blocks of EDGE_BLOCK words.  The bit generator must be
    Philox or PCG64, whose doubles take the top 53 bits of one word; another
    (MT19937, whose doubles take two words) raises ValueError.
    """
    check_probability("q", q)
    bitgen = rng.bit_generator
    if not isinstance(bitgen, _TOP_53_BIT_DOUBLES):
        raise ValueError("edge sampling reads raw Philox or PCG64 words, "
                         f"not {type(bitgen).__name__} ones")
    test, bound = _word_test(q)
    m = H.num_edges
    mask = np.empty(m, dtype=bool)
    for lo in range(0, m, EDGE_BLOCK):
        hi = min(lo + EDGE_BLOCK, m)
        test(bitgen.random_raw(hi - lo), bound, out=mask[lo:hi])
    return mask


class InfectionState:
    """Incrementally maintained infection/open-edge state over a fixed H.

    healthy_count[e] is -1 once e is removed (revealed), else its number of
    healthy vertices: 0 closed, 1 open, 2 or more waiting; its dtype is the
    narrowest signed one that holds -1..r.  Only an open edge is removed,
    its count going from 1 to -1.  open_list, the open set, supports O(1)
    uniform sampling and is updated in place, never rebound.  open_pos[e]
    is e's index in it while healthy_count[e] == 1 and means nothing
    otherwise.  open_by_vertex groups the open set by the healthy vertex on
    demand.
    """

    def __init__(self, H: Hypergraph, infected0: Iterable[int]):
        self.H = H
        n, m = H.n, H.num_edges
        infected = as_mask(infected0, n, "infected vertex").copy()
        # only edges touching an initially infected vertex differ from r
        initial = np.flatnonzero(infected)
        touched, hits = np.unique(_incidences(*H.incidence, initial),
                                  return_counts=True)
        counts = np.full(m, H.r, dtype=count_dtype(H.r))
        counts[touched] -= hits
        self.infected = infected
        self.healthy_count = counts
        self._unsigned = np.dtype(f"u{counts.itemsize}")   # infect's view
        self.infected_count = initial.size
        self._rows = H.edges_array
        # r >= 2, so an open edge has an infected vertex and is touched
        opened = touched[counts[touched] == 1]
        self.open_list: list = opened.tolist()
        # no fill: a position is read only while its edge is open
        self.open_pos = np.empty(m, dtype=np.int32)
        self.open_pos[opened] = np.arange(len(opened))
        # memoryviews for the scalar reads and writes of one edge or vertex:
        # about half the cost of a numpy scalar index, and they yield Python
        # ints and bools.  The arrays are written in place, never rebound,
        # so each view stays on its array's buffer.
        self._pos = memoryview(self.open_pos)
        self._counts = memoryview(self.healthy_count)
        self._infected = memoryview(self.infected)
        # open degree per vertex as of the last lowest_saturated call (None
        # before the first), and the edges opened, or removed while open,
        # since then
        self._degrees = None
        self._opened: list = []
        self._removed: list = []

    def _healthy_of(self, edges: np.ndarray) -> np.ndarray:
        """Healthy vertices of an array of edges; for edges with exactly one
        each, the healthy vertex of every edge."""
        rows = self._rows[edges]
        return rows[~self.infected[rows]]

    def _toggle_open(self, edges: np.ndarray) -> None:
        """For each edge in turn, whose count is already updated, append it
        to open_list if its count is 1, else swap-remove it."""
        ol, pos, counts = self.open_list, self._pos, self._counts
        for e in edges.tolist():
            if counts[e] == 1:
                pos[e] = len(ol)
                ol.append(e)
            else:
                p = pos[e]
                last = ol.pop()
                if last != e:
                    ol[p] = last
                    pos[last] = p

    @property
    def open_count(self) -> int:
        return len(self.open_list)

    @property
    def live(self) -> np.ndarray:
        """Mask of the edges not yet removed."""
        return self.healthy_count >= 0

    def _open_at(self, v: int) -> np.ndarray:
        inc = self.H.incident_edges(v)
        return inc[self.healthy_count[inc] == 1]

    def open_by_vertex(self) -> tuple:
        """(vertices, edges): every open edge and its healthy vertex, sorted
        by vertex, then by edge id."""
        edges = np.array(self.open_list, dtype=np.int64)
        vertices = self._healthy_of(edges)
        order = np.lexsort((edges, vertices))
        return vertices[order], edges[order]

    def lowest_saturated(self, threshold: int):
        """(v, edges) for the lowest healthy vertex v with at least threshold
        open edges, its open edges ascending; None when no vertex has."""
        if threshold < 1:
            raise ValueError(f"saturation threshold {threshold} below 1")
        if self._degrees is None:
            self._degrees = np.zeros(self.H.n, dtype=np.int64)
            self._opened.extend(self.open_list)
        # an edge opened or removed since has the healthy vertex it had
        # then, unless that vertex was infected since: then it has none,
        # and the vertex's degree is 0
        degrees = self._degrees
        for log, sign in ((self._opened, 1), (self._removed, -1)):
            edges = np.array(log, dtype=np.int64)
            degrees += sign * np.bincount(self._healthy_of(edges),
                                          minlength=self.H.n)
            log.clear()
        degrees[self.infected] = 0
        full = np.flatnonzero(degrees >= threshold)
        if not full.size:
            return None
        v = int(full[0])
        return v, self._open_at(v)

    def infect(self, v: int) -> None:
        """Infect a healthy vertex and update the edges holding it."""
        if self._infected[v]:
            raise ValueError(f"vertex {v} is already infected")
        self._infected[v] = True
        self.infected_count += 1
        inc = self.H.incident_edges(v)
        before = self.healthy_count[inc]
        after = before - (before >= 0)      # a removed edge stays at -1
        self.healthy_count[inc] = after
        # after 0: v was the unique healthy vertex, the edge closes; after 1:
        # it opens.  Read as unsigned, -1 is above both.  Applied in
        # incidence order, which fixes the order of open_list.
        moved = after.view(self._unsigned) <= 1
        if self._degrees is not None:
            self._opened.extend(inc[after == 1].tolist())
        self._toggle_open(inc[moved])

    def remove_edge(self, e: int) -> int:
        """Delete one open edge (its coin revealed) and return its healthy
        vertex, read first.  A waiting, closed or removed edge raises
        ValueError, and an open edge without exactly one healthy vertex (a
        corrupted state) AssertionError, before anything changes."""
        counts = self._counts
        if counts[e] != 1:
            raise ValueError(f"edge {e} is not open")
        infected = self._infected
        healthy = 0
        for v in self._rows[e].tolist():
            if not infected[v]:
                u = v
                healthy += 1
        if healthy != 1:
            raise AssertionError(f"open edge {e} has {healthy} healthy "
                                 "vertices")
        counts[e] = -1
        if self._degrees is not None:
            self._removed.append(e)
        pos, ol = self._pos, self.open_list
        p = pos[e]
        last = ol.pop()
        if last != e:
            ol[p] = last
            pos[last] = p
        return u

    def remove_open_edges(self, edges) -> np.ndarray:
        """Delete a batch (list or array) of distinct open edges and return
        their healthy vertices, read first, in batch order.  The batch is
        checked whole before anything changes: a waiting, closed, removed
        or repeated edge raises ValueError, and an open edge without exactly
        one healthy vertex AssertionError, as in remove_edge.  The open_list
        discards run in batch order; a batch of the whole open set empties
        it at once."""
        edges = np.asarray(edges, dtype=np.int64)
        shut = self.healthy_count[edges] != 1
        if shut.any():
            raise ValueError(f"edge {edges[np.argmax(shut)]} is not open")
        # distinct open edges hold distinct open-list positions
        taken = np.zeros(len(self.open_list), dtype=bool)
        taken[self.open_pos[edges]] = True
        if np.count_nonzero(taken) != edges.size:
            raise ValueError("batch repeats an edge")
        rows = self._rows[edges]
        healthy = ~self.infected[rows]
        counts = np.count_nonzero(healthy, axis=1)
        bad = np.flatnonzero(counts != 1)
        if bad.size:
            raise AssertionError(f"open edge {edges[bad[0]]} has "
                                 f"{counts[bad[0]]} healthy vertices")
        self.healthy_count[edges] = -1
        if self._degrees is not None:
            self._removed.extend(edges.tolist())
        if edges.size == len(self.open_list):
            self.open_list.clear()
        else:
            self._toggle_open(edges)
        return rows[healthy]
