"""Model builders: complete hypergraphs, bootstrap lifts, density analysis.

The bootstrap lift of a pattern F over a host G has one vertex per edge of
G and one hyperedge per copy of F in G (a copy is an edge subset of G that
forms a subhypergraph isomorphic to F).  Copies are enumerated by a
backtracking search over F's edges in connectivity order; triangle patterns
over 2-uniform hosts take a listing fast path because they are the workhorse
instance at scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations, permutations
from math import comb
from typing import Optional

import numpy as np

from .hypergraph import Hypergraph, SizeGuardError, build_hypergraph

COMPLETE_EDGE_LIMIT = 50_000_000
GENERIC_LIFT_EDGE_LIMIT = 500_000
KBALANCE_EDGE_LIMIT = 20


def complete_uniform(n: int, k: int) -> Hypergraph:
    """The complete k-uniform hypergraph on n vertices."""
    if k < 2:
        raise ValueError(f"uniformity k={k} must be at least 2")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    m = comb(n, k)
    if m > COMPLETE_EDGE_LIMIT:
        raise SizeGuardError(f"complete hypergraph would have {m} edges")
    rows = np.fromiter(
        (v for e in combinations(range(n), k) for v in e),
        dtype=np.int32, count=m * k).reshape(m, k)
    return Hypergraph.from_rows(n, k, rows, canonical=True)


def _pair_rank_complete(n: int, u, v):
    # lexicographic rank of the pair (u, v), u < v, within combinations(n, 2)
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def _is_complete_graph(G: Hypergraph) -> bool:
    return G.r == 2 and G.num_edges == comb(G.n, 2)


def _is_triangle(F: Hypergraph) -> bool:
    return (F.r == 2 and F.n == 3 and F.num_edges == 3)


def _triangle_lift_complete(G: Hypergraph) -> Hypergraph:
    """Triangles of a complete graph, vectorized; rows come out canonical."""
    n = G.n
    blocks = []
    for u in range(n - 2):
        rest = np.arange(u + 1, n, dtype=np.int64)
        iv, iw = np.triu_indices(len(rest), k=1)
        v = rest[iv]
        w = rest[iw]
        e_uv = _pair_rank_complete(n, u, v)
        e_uw = _pair_rank_complete(n, u, w)
        e_vw = _pair_rank_complete(n, v, w)
        blocks.append(np.column_stack([e_uv, e_uw, e_vw]).astype(np.int32))
    rows = np.vstack(blocks) if blocks else np.zeros((0, 3), dtype=np.int32)
    return Hypergraph.from_rows(G.num_edges, 3, rows, canonical=True)


def _triangle_lift(G: Hypergraph) -> Hypergraph:
    """Triangles of an arbitrary graph via sorted common-neighbour listing."""
    if _is_complete_graph(G):
        return _triangle_lift_complete(G)
    pair_id = {G.edge(i): i for i in range(G.num_edges)}
    nbrs = [set() for _ in range(G.n)]
    for u, v in G.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    rows = []
    for eid in range(G.num_edges):
        u, v = G.edge(eid)
        for w in sorted(nbrs[u] & nbrs[v]):
            if w > v:
                rows.append((eid, pair_id[(u, w)], pair_id[(v, w)]))
    arr = np.array(rows, dtype=np.int32) if rows else np.zeros((0, 3), dtype=np.int32)
    return Hypergraph.from_rows(G.num_edges, 3, arr)


def _edge_order(F: Hypergraph, covered=()) -> list:
    """Edge processing order: greedy, maximizing overlap with covered vertices."""
    remaining = list(range(F.num_edges))
    order = []
    covered = set(covered)
    while remaining:
        best = max(remaining,
                   key=lambda i: (len(covered.intersection(F.edge(i))), -i))
        order.append(best)
        covered.update(F.edge(best))
        remaining.remove(best)
    return order


def match_copies(G: Hypergraph, F: Hypergraph, roots=(), images=(),
                 marked=frozenset(), infected=None, active=None) -> set:
    """Copies of F in G, each a sorted tuple of G-edge ids, under constraints.

    Every bijection of the pattern vertices `roots` onto the host vertices
    `images` is tried; a copy must then map every `marked` pattern vertex to
    a vertex where the bool mask `infected` is set, and use only edges where
    the bool mask `active` is set (all edges when None).  Backtracks over
    F's edges in connectivity order from the roots; copies reached through
    several witness maps collapse because the result is a set.
    """
    if F.r != G.r:
        raise ValueError(
            f"pattern uniformity {F.r} does not match host uniformity {G.r}")
    f_edges = [F.edge(i) for i in _edge_order(F, roots)]
    found: set = set()
    phi: dict = {}
    used: set = set()
    chosen: list = []

    def assign(pos: int):
        if pos == len(f_edges):
            found.add(tuple(sorted(chosen)))
            return
        fe = f_edges[pos]
        anchors = [phi[x] for x in fe if x in phi]
        free = [x for x in fe if x not in phi]
        cand = G.edges_containing(anchors) if anchors else range(G.num_edges)
        for gid in cand:
            gid = int(gid)
            if gid in chosen or (active is not None and not active[gid]):
                continue
            rem = [y for y in G.edge(gid) if y not in anchors]
            if len(rem) != len(free) or any(y in used for y in rem):
                continue
            for perm in permutations(rem):
                if marked and any(x in marked and not infected[y]
                                  for x, y in zip(free, perm)):
                    continue
                phi.update(zip(free, perm))
                used.update(perm)
                chosen.append(gid)
                assign(pos + 1)
                chosen.pop()
                for x in free:
                    used.discard(phi.pop(x))

    for perm in permutations(images):
        phi.update(zip(roots, perm))
        used.update(perm)
        assign(0)
        phi.clear()
        used.clear()
    return found


def enumerate_copies(G: Hypergraph, F: Hypergraph):
    """All copies of F in G, each as a sorted tuple of G-edge ids.

    A copy is an injective vertex map under which every edge of F lands
    exactly on an edge of G; the result is deduplicated at the
    subhypergraph level, so automorphisms of F do not inflate the count.
    """
    copies = match_copies(G, F)
    return copies if F.num_edges else set()


def bootstrap_lift(G: Hypergraph, F: Hypergraph) -> Hypergraph:
    """Lift of host G through pattern F.

    Vertices are G's edge ids (in G's canonical edge order); hyperedges are
    the edge-id sets of copies of F in G.  Uniformity is |E(F)|.
    """
    if F.num_edges < 2:
        raise ValueError("pattern needs at least 2 edges to produce a lift")
    if _is_triangle(F):
        return _triangle_lift(G)
    if G.num_edges > GENERIC_LIFT_EDGE_LIMIT:
        raise SizeGuardError(
            f"generic lift over {G.num_edges} host edges exceeds desk scale")
    copies = enumerate_copies(G, F)
    arr = (np.array(sorted(copies), dtype=np.int32) if copies
           else np.zeros((0, F.num_edges), dtype=np.int32))
    return Hypergraph.from_rows(G.num_edges, F.num_edges, arr, canonical=True)


def lift_regular_degree(G: Hypergraph, F: Hypergraph,
                        lift: Optional[Hypergraph] = None) -> int:
    """Common vertex degree of the lift; error if the lift is irregular."""
    L = lift if lift is not None else bootstrap_lift(G, F)
    if L.n == 0:
        raise ValueError("lift has no vertices")
    degs = L.degrees()
    lo, hi = int(degs.min()), int(degs.max())
    if lo != hi:
        raise ValueError(f"lift is irregular: degrees range {lo}..{hi}")
    return lo


# -- density / balance -----------------------------------------------------

@dataclass
class KBalanceReport:
    k: int
    density: Fraction
    strictly_balanced: bool
    witness_edges: Optional[list]
    witness_density: Optional[Fraction]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "density": [self.density.numerator, self.density.denominator],
            "density_float": float(self.density),
            "strictly_balanced": self.strictly_balanced,
            "witness_edges": self.witness_edges,
            "witness_density": (
                [self.witness_density.numerator, self.witness_density.denominator]
                if self.witness_density is not None else None),
        }


def k_balance_analysis(F: Hypergraph, k: Optional[int] = None) -> KBalanceReport:
    """Exact k-density of F and whether F is strictly k-balanced.

    The k-density of a pattern with edge set E' spanning vertex set V' is
    (|E'| - 1) / (|V'| - k); strict balance requires every proper
    subhypergraph with at least two edges to have strictly smaller density.
    All arithmetic is rational, so ties are decided exactly.
    """
    if k is None:
        k = F.r
    if F.num_edges < 2:
        raise ValueError("density needs at least 2 edges")
    if F.num_edges > KBALANCE_EDGE_LIMIT:
        raise SizeGuardError(
            f"balance analysis over {F.num_edges} edges exceeds desk scale")
    spanned = set()
    for e in F.edges():
        spanned.update(e)
    if len(spanned) <= k:
        raise ValueError(f"pattern spans {len(spanned)} vertices, needs more than k={k}")
    density = Fraction(F.num_edges - 1, len(spanned) - k)
    edges = [F.edge(i) for i in range(F.num_edges)]
    worst: Optional[Fraction] = None
    worst_sub: Optional[list] = None
    for size in range(2, F.num_edges):
        for sub in combinations(range(F.num_edges), size):
            verts = set()
            for i in sub:
                verts.update(edges[i])
            if len(verts) <= k:
                # denser than any finite ratio; cannot happen for distinct
                # k-sets, which always span more than k vertices
                continue
            d_sub = Fraction(size - 1, len(verts) - k)
            if worst is None or d_sub > worst:
                worst = d_sub
                worst_sub = [list(edges[i]) for i in sub]
    strict = worst is None or worst < density
    return KBalanceReport(
        k=k, density=density, strictly_balanced=strict,
        witness_edges=None if strict else worst_sub,
        witness_density=None if strict else worst)


# -- pattern library -------------------------------------------------------

_PATTERNS = {
    "k3": "complete graph on 3 vertices",
    "k4": "complete graph on 4 vertices",
    "c4": "4-cycle",
    "triangle_pendant": "triangle with a pendant edge",
    "loose_triangle_3": "3-uniform loose triangle (three edges pairwise sharing one vertex)",
}


def pattern_names() -> list:
    return sorted(_PATTERNS)


def load_pattern(name: str) -> Hypergraph:
    """Load a named pattern from the bundled library."""
    if name not in _PATTERNS:
        raise ValueError(f"unknown pattern {name!r}; available: {pattern_names()}")
    data = resources.files("hyperboot").joinpath(f"patterns/{name}.json").read_text()
    obj = json.loads(data)
    return build_hypergraph(int(obj["n"]), int(obj["r"]), obj["edges"])
