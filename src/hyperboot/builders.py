"""Model builders: complete hypergraphs, bootstrap lifts, density analysis.

The bootstrap lift of a pattern F over a host G has one vertex per edge of
G and one hyperedge per copy of F in G (a copy is an edge subset of G that
forms a subhypergraph isomorphic to F).  A complete host's lift, the
paper's lift of K_n through F and every instance at scale, is generated in
closed form.  match_copies is the one copy matcher: a level-wise numpy join
over F's edges in connectivity order, used for the lifts of other hosts
and, with roots, marks and edge filters, for every census count.  It finds
a copy once per orbit of F's automorphisms that fix the roots and keep the
marks: the group is searched once per pattern at the edge level, over the
classes of twin vertices, and turned into conditions phi(x) < phi(y) on
the witness maps.  What roots and marks still let repeat is deduped by one
sorted key per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations, permutations
from math import comb
from typing import Optional

import numpy as np

from .hypergraph import (Hypergraph, SizeGuardError, _group_rows,
                         _incidences, _ragged_arange, from_json)

COMPLETE_EDGE_LIMIT = 50_000_000
GENERIC_LIFT_EDGE_LIMIT = 500_000
KBALANCE_EDGE_LIMIT = 20
# candidate edges one pass of the copy join may gather, about 60 bytes each
COPY_CANDIDATE_LIMIT = 1 << 16
# v-subsets _complete_lift ranks in one block
LIFT_BLOCK_SUBSETS = 1 << 16


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


def vertex_classes(F: Hypergraph, roots, marked) -> dict:
    """F's vertices by class: {(incident edge ids, role): vertices ascending},
    the role "r" for a root, "m" for a marked vertex and "n" otherwise.

    The vertices of one class are twins: any permutation of them is an
    automorphism of F that keeps every role.
    """
    classes: dict = {}
    for x in range(F.n):
        role = "r" if x in roots else "m" if x in marked else "n"
        classes.setdefault((tuple(F.incident_edges(x).tolist()), role),
                           []).append(x)
    return classes


def _automorphisms(F: Hypergraph, classes: dict) -> list:
    """F's automorphisms that fix every root and keep the marked set, up to
    twins, given F's vertex_classes: one vertex map (a tuple) per edge
    permutation that maps each class onto a class of the same size and role
    and fixes each class holding a root; the map sends a class onto its
    image in ascending order.

    Edges are placed one at a time, each where it shares with every edge
    placed before what its image shares with their images, so the search
    stays small however many vertices the classes hold.
    """
    m = F.num_edges
    # the kinds of the classes in both edges a and b (a = b: in edge a)
    share = [[sorted((role, len(vs), len(S)) for (S, role), vs in classes.items()
                     if a in S and b in S) for b in range(m)] for a in range(m)]
    group = []

    def place(pi: tuple):
        if len(pi) < m:
            for e in range(m):
                if e not in pi and all(share[len(pi)][i] == share[e][f]
                                       for i, f in enumerate(pi + (e,))):
                    place(pi + (e,))
            return
        sigma = list(range(F.n))
        for (S, role), vs in classes.items():
            image = tuple(sorted(pi[e] for e in S))
            if (len(classes.get((image, role), ())) != len(vs)
                    or role == "r" and image != S):
                return
            for x, y in zip(vs, classes[image, role]):
                sigma[x] = y
        group.append(tuple(sigma))

    place(())
    return group


def _symmetry_conditions(F: Hypergraph, roots, marked) -> list:
    """Pairs (x, y): a join keeps a witness map phi only if phi(x) < phi(y),
    which leaves one witness per orbit of the automorphisms that fix the
    roots and keep the marks (Grochow and Kellis, RECOMB 2007).

    Twins take ascending images.  The least vertices of the classes then
    follow a stabiliser chain of the edge-level group: the least one, x,
    that the group moves must map below every other vertex of its orbit,
    and the chain goes on with the stabiliser of x.
    """
    classes = vertex_classes(F, roots, marked)
    conditions = [pair for (edges, role), vs in classes.items()
                  if edges and role != "r" for pair in zip(vs, vs[1:])]
    group = _automorphisms(F, classes)
    for x in sorted(vs[0] for (edges, _), vs in classes.items() if edges):
        conditions += [(x, y) for y in sorted({g[x] for g in group}) if y != x]
        group = [g for g in group if g[x] == x]
    return conditions


@lru_cache(maxsize=None)
def _join_plan(F: Hypergraph, roots: tuple, marked: frozenset) -> tuple:
    """match_copies' levels, one per pattern edge in _edge_order: (vertices
    mapped before, anchors, free vertices, the orderings of the free
    vertices that their conditions allow, positions of the marked ones,
    conditions against vertices mapped before)."""
    conditions = _symmetry_conditions(F, roots, marked)
    levels, assigned = [], list(roots)
    for e in _edge_order(F, roots):
        free = [x for x in F.edge(e) if x not in assigned]
        inner = [(free.index(x), free.index(y)) for x, y in conditions
                 if x in free and y in free]
        perms = [p for p in permutations(range(len(free)))
                 if all(p[s] < p[t] for s, t in inner)]
        # a condition between a free vertex and one mapped before: (the free
        # vertex's position, the other vertex, whether the free one is below)
        later = [(free.index(x), y, True) if x in free
                 else (free.index(y), x, False) for x, y in conditions
                 if (x in free and y in assigned) or (y in free and x in assigned)]
        levels.append((list(assigned), [x for x in F.edge(e) if x in assigned],
                       free, np.array(perms, np.intp).reshape(len(perms), -1),
                       [t for t, x in enumerate(free) if x in marked], later))
        assigned += free
    return tuple(levels)


def match_copies(G: Hypergraph, F: Hypergraph, roots=(), images=(),
                 marked=frozenset(), infected=None, active=None) -> np.ndarray:
    """Copies of F in G under constraints, as unique rows of G-edge ids.

    Every bijection of the pattern vertices `roots` onto the host vertices
    `images` is tried; a copy must then map every `marked` pattern vertex to
    a vertex where the bool mask `infected` is set, and use only edges where
    the bool mask `active` is set (all edges when None).  Rows are sorted.

    A level-wise join (generic join, Ngo, Porat, Re and Rudra, PODS 2012):
    each row holds a partial map's vertex images, then its edges so far,
    and each level adds one pattern edge in _edge_order to every row.  The
    join keeps one witness map per orbit of F's automorphisms that fix the
    roots and keep the marks, by the conditions of _symmetry_conditions:
    one between two free vertices of a level drops orderings of the new
    edge's vertices up front, one between a free vertex and a vertex mapped
    before drops a candidate's orderings as the level extends its rows.
    A copy can still be found twice, through root bijections that permute
    the roots or through witnesses related by an automorphism that moves a
    marked vertex onto a neutral one, so the rows are deduped at the end.
    Passes of at most COPY_CANDIDATE_LIMIT candidates go depth first.
    """
    if F.r != G.r:
        raise ValueError(
            f"pattern uniformity {F.r} does not match host uniformity {G.r}")
    roots, images = [int(x) for x in roots], [int(y) for y in images]
    if len(roots) != len(images):
        raise ValueError(f"{len(images)} images for {len(roots)} roots")
    for what, ids, size in (("root", roots, F.n), ("image", images, G.n)):
        for x in ids:
            if not 0 <= x < size:
                raise ValueError(f"{what} {x} outside 0..{size - 1}")
            if ids.count(x) > 1:
                raise ValueError(f"{what} {x} repeated")
    k = F.n
    levels = _join_plan(F, tuple(roots), frozenset(marked))
    seeds = np.array(list(permutations(images)), dtype=np.int32)
    phi = np.full((len(seeds), k + len(levels)), -1, dtype=np.int32)
    phi[:, roots] = seeds.reshape(len(seeds), len(roots))
    stack, found = [(0, phi, None)], []
    while stack:
        level, phi, lookup = stack.pop()
        if level == len(levels) or not len(phi):
            found.append(np.sort(phi[:, k:], axis=1))
            continue
        used, anchors, free, perms, marks, later = levels[level]
        lookup = lookup or _candidates(G, phi, anchors, roots, marks,
                                       infected, active)
        if lookup is None:
            # the anchor slices are too many edges for one pass: halve
            stack += [(level, phi[len(phi) // 2:], None),
                      (level, phi[:len(phi) // 2], None)]
            continue
        # extend rows up to the limit (one at least); the rest wait their turn
        base, lo, deg = lookup
        b = max(1, int(np.searchsorted(np.cumsum(deg), COPY_CANDIDATE_LIMIT,
                                       side="right")))
        stack.append((level, phi[b:], (base, lo[b:], deg[b:])))
        src = np.repeat(np.arange(b), deg[:b])
        cand = base[_ragged_arange(deg[:b]) + np.repeat(lo[:b], deg[:b])]
        edge = G.edges_array[cand]
        hit = np.zeros(edge.shape, dtype=bool)
        ok = np.ones(cand.size, dtype=bool)
        # by column: r whole-column ops cost far less than one axis=1 reduction
        for x in used:   # a candidate holds every anchor and no other image
            img, seen = phi[src, x], np.zeros(cand.size, dtype=bool)
            for c in range(G.r):
                eq = edge[:, c] == img
                hit[:, c] |= eq
                seen |= eq
            ok &= seen if x in anchors else ~seen
        src, cand = src[ok], cand[ok]
        rest = edge[ok][~hit[ok]].reshape(cand.size, len(free))
        fits = np.ones((cand.size, len(perms)), dtype=bool)
        if marks:
            inf = infected[rest]
            for t in marks:
                fits &= inf[:, perms[:, t]]
        for t, z, below in later:   # free vertex t against mapped vertex z
            new, old = rest[:, perms[:, t]], phi[src, z, None]
            fits &= (new < old) if below else (new > old)
        ci, pi = np.nonzero(fits)
        phi = phi[src[ci]]
        phi[:, free] = rest[ci[:, None], perms[pi]]
        phi[:, k + level] = cand[ci]
        stack.append((level + 1, phi, None))
    return _unique_rows(np.concatenate(found))


def _candidates(G: Hypergraph, phi: np.ndarray, anchors: list, roots: list,
                marks: list, infected, active):
    """Row i's candidate edges of a join level are edges[lo[i]:][:deg[i]];
    (edges, lo, deg), or None if the anchor slices are over the limit.

    Rows grouped by their least varied anchor's image gather its CSR slice
    once; with a second anchor, a sorted lookup keeps the edges holding it.
    """
    if not anchors or set(anchors) == set(roots):
        # every row has the same anchor images: one candidate group
        inv, ahead = np.zeros(len(phi), dtype=np.intp), []
        base = G.edges_containing(phi[0, anchors])
        group = np.zeros(base.size, dtype=np.intp)
    else:
        indptr, incident = G.incidence
        x0 = min(anchors, key=lambda x: np.unique(phi[:, x]).size)
        ua, inv = np.unique(phi[:, x0], return_inverse=True)
        ahead = [x for x in anchors if x != x0]
        deg = indptr[ua + 1] - indptr[ua]
        if len(phi) > 1 and deg.sum() > COPY_CANDIDATE_LIMIT:
            return None
        group = np.repeat(np.arange(ua.size), deg)
        base = _incidences(indptr, incident, ua)
    keep = np.ones(base.size, dtype=bool) if active is None else active[base]
    if marks:
        count = np.zeros(base.size, dtype=np.uint8)
        for c in range(G.r):
            count += infected[G.edges_array[base, c]]
        keep &= count >= len(marks)
    base, group = base[keep], group[keep]
    if ahead:
        # sorted (group, vertex) keys, one per vertex of each group edge
        keys = group.repeat(G.r) * G.n + G.edges_array[base].ravel()
        want, base = inv * G.n + phi[:, ahead[0]], base.repeat(G.r)
    else:
        keys, want = group, inv
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    lo = np.searchsorted(keys, want)
    return base[order], lo, np.searchsorted(keys, want, side="right") - lo


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of an int array, in lexicographic order."""
    if a.shape[1] == 0:
        return a[:1]
    order, starts, _ = _group_rows(a)
    return a[order[starts]]


def enumerate_copies(G: Hypergraph, F: Hypergraph) -> np.ndarray:
    """All copies of F in G: match_copies' unique sorted rows of G-edge ids.

    A copy is an injective map of the vertices F's edges span under which
    every edge of F lands exactly on an edge of G.  An isolated vertex of F
    is not mapped: it needs no vertex of G and does not multiply the count.
    Copies count at the subhypergraph level: with no roots or marks the
    join keeps one witness map per orbit of F's automorphisms, so it finds
    each edge set once, and the final dedupe finds no repeats.
    """
    if not F.num_edges:
        return np.zeros((0, 0), dtype=np.int32)
    return match_copies(G, F)


def bootstrap_lift(G: Hypergraph, F: Hypergraph) -> Hypergraph:
    """Lift of host G through pattern F.

    Vertices are G's edge ids (in G's canonical edge order); hyperedges are
    the edge-id sets of copies of F in G.  Uniformity is |E(F)|.  A complete
    host of any uniformity takes the closed form; any other, the copy join.
    """
    if F.num_edges < 2:
        raise ValueError("pattern needs at least 2 edges to produce a lift")
    if G.num_edges == comb(G.n, G.r):
        return _complete_lift(G, F)
    if G.num_edges > GENERIC_LIFT_EDGE_LIMIT:
        raise SizeGuardError(
            f"generic lift over {G.num_edges} host edges exceeds desk scale")
    return Hypergraph.from_rows(G.num_edges, F.num_edges,
                                enumerate_copies(G, F), canonical=True)


def _complete_lift(G: Hypergraph, F: Hypergraph) -> Hypergraph:
    """The lift of a complete host, in closed form.

    A copy of F spans v host vertices: the lift is F's shapes (K_v if F is
    complete, else the join's copies in K_v) on every v-subset of G, in
    lexicographic order.  The row array is allocated once and filled a block
    of first positions at a time, about LIFT_BLOCK_SUBSETS subsets each: the
    rows keep 4 bytes an entry, but whole-length position and rank columns
    (some int64) and a stacked copy of them would cost several times that.
    """
    if F.r != G.r:
        raise ValueError(
            f"pattern uniformity {F.r} does not match host uniformity {G.r}")
    n, r, v = G.n, G.r, np.unique(F.edges_array).size
    K = complete_uniform(v, r)
    complete = F.num_edges == K.num_edges
    shapes = np.arange(K.num_edges)[None] if complete else enumerate_copies(K, F)
    if (m := comb(n, v) * len(shapes)) > COMPLETE_EDGE_LIMIT:
        raise SizeGuardError(f"lift would have {m} edges")
    # G's edge a_0 < .. < a_{r-1} has rank |E(G)| - 1 - sum comb(n-1-a_i, r-i),
    # the sum of term[i][a_i]; a_i >= i, so the entries below that stay 0
    term = np.array([[-comb(n - 1 - a, r - i) * (a >= i) for a in range(n)]
                     for i in range(r)], dtype=np.int32)
    term[0] += G.num_edges - 1
    rows = np.empty((comb(n, v), len(shapes), F.num_edges), dtype=np.int32)
    lo = a = 0
    while a <= n - v:   # first positions a..b-1 own subsets lo..hi-1
        b, hi = a, lo
        while b <= n - v and hi - lo < LIFT_BLOCK_SUBSETS:
            b, hi = b + 1, hi + comb(n - 1 - b, v - 1)
        for e, rank in _subset_ranks(n, v, K, term, a, b).items():
            rows[lo:hi, shapes == e] = rank[:, None]
        lo, a = hi, b
    # a complete F's rows come out canonical
    return Hypergraph.from_rows(G.num_edges, F.num_edges,
                                rows.reshape(-1, F.num_edges),
                                canonical=complete)


def _subset_ranks(n: int, v: int, K: Hypergraph, term: np.ndarray,
                  a: int, b: int) -> dict:
    """Each edge of K_v's rank on every v-subset of [n] whose first position
    is in a..b-1, lexicographic: {edge id of K_v: int32 column}.

    Subsets grow a position at a time, and an edge of K_v is ranked once its
    last position is placed.
    """
    pos, ranks = [np.arange(a, b, dtype=np.int32)], {}
    for j in range(1, v):   # a subset's position j is pos[j-1] + 1 .. n-v+j
        count = n - v + j - pos[-1]
        pos = [np.repeat(p, count) for p in pos]
        ranks = {e: np.repeat(c, count) for e, c in ranks.items()}
        pos.append(pos[-1] + 1 + _ragged_arange(count))
        for e in np.flatnonzero(K.edges_array[:, -1] == j):
            ranks[e] = sum(term[i][pos[x]] for i, x in enumerate(K.edge(e)))
    return ranks


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
    spanned = np.unique(F.edges_array).size
    if spanned <= k:
        raise ValueError(f"pattern spans {spanned} vertices, needs more than k={k}")
    density = Fraction(F.num_edges - 1, spanned - k)
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
    return from_json(resources.files("hyperboot").joinpath(
        f"patterns/{name}.json").read_text())
