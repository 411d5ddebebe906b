"""Configuration censuses: rooted copy counts inside a partially infected host.

A configuration is a pattern hypergraph with disjoint root and marked vertex
sets (everything else neutral).  A copy of it in a host H, rooted at S, is a
subhypergraph F' for which some isomorphism maps the pattern onto F', the
roots exactly onto S, and every marked vertex into the infected set; each
qualifying subhypergraph is counted once, no matter how many witness
isomorphisms it has.  Neutral vertices are unconstrained: their images may
or may not be infected.

The families the trajectory theory tracks (saturated edges, pendant stars
and general stars) are named configurations counted by the same matcher.
enumerate_secondary lists the small overlap patterns whose counts must stay
subdominant for the trajectory to concentrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

from . import hypergraph
from .builders import match_copies
from .hypergraph import (Hypergraph, _group_rows, as_mask, json_int,
                         record_field)

SECONDARY_MIN_R = 3
SECONDARY_MAX_R = 6


@dataclass(frozen=True)
class Configuration:
    """Pattern with roles: roots are pinned, marked must land on infected."""
    pattern: Hypergraph
    roots: frozenset
    marked: frozenset

    def __post_init__(self):
        if (self.pattern.degrees() == 0).any():
            raise ValueError("every pattern vertex must lie in some edge")
        for v in self.roots | self.marked:
            if not 0 <= v < self.pattern.n:
                raise ValueError(f"role vertex {v} outside pattern")
        if self.roots & self.marked:
            raise ValueError("roots and marked must be disjoint")

    def to_dict(self) -> dict:
        return {
            "pattern": hypergraph.to_dict(self.pattern),
            "roots": sorted(self.roots),
            "marked": sorted(self.marked),
        }

    @staticmethod
    def from_dict(obj: dict) -> "Configuration":
        def vertex_set(ids):
            return frozenset(json_int(v) for v in ids)
        return Configuration(record_field(obj, "pattern", hypergraph.from_dict),
                             record_field(obj, "roots", vertex_set),
                             record_field(obj, "marked", vertex_set))


def _copies(H: Hypergraph, infected, config: Configuration,
            root_images: Iterable[int], active=None) -> np.ndarray:
    """The copies as unique rows of host edge ids, arguments validated."""
    if infected is None:
        raise ValueError("infected must be a vertex set or mask, not None")
    S = np.flatnonzero(as_mask(root_images, H.n, "root image"))
    if len(S) != len(config.roots):
        raise ValueError(
            f"{len(S)} root images for {len(config.roots)} roots")
    return match_copies(
        H, config.pattern, sorted(config.roots), S, config.marked,
        as_mask(infected, H.n, "infected vertex"),
        as_mask(active, H.num_edges, "active edge"))


def rooted_copies(H: Hypergraph, infected, config: Configuration,
                  root_images: Iterable[int], active=None) -> np.ndarray:
    """match_copies' unique sorted rows of host edge ids; copies found
    through different root bijections or witnesses count once."""
    return _copies(H, infected, config, root_images, active)


def count_rooted_copies(H: Hypergraph, infected, config: Configuration,
                        root_images: Iterable[int], active=None) -> int:
    # via rooted_copies, which a traced run counts; the counters call _copies
    return len(rooted_copies(H, infected, config, root_images, active))


# -- the configurations the trajectory theory tracks --------------------------

def count_pendant_stars(H: Hypergraph, infected, v: int, i: int, j: int,
                        active=None) -> int:
    """Stars at v: a central edge with i marked vertices and j pairwise
    disjoint pendant edges, each meeting the central edge in one neutral
    attachment vertex and otherwise fully infected.

    With j=0 this is the number of (active) edges at v carrying at least i
    infected vertices besides v; the i condition is a lower bound because a
    copy may contain infected vertices beyond the images of marked ones.
    """
    return len(_copies(H, infected, pendant_star_config(H.r, i, j), [v],
                       active))


def count_general_stars(H: Hypergraph, infected, v: int, i: int, j: int,
                        active=None) -> int:
    """Stars at v whose pendants may overlap each other and the central edge.

    Each pendant is fully infected except at its attachment vertex, which
    lies on the central edge and in no other pendant; overlap vertices on the
    central edge count toward its marked budget of exactly i, so a copy needs
    the overlap to fit inside i and at least i infected non-attachment
    vertices on the central edge.  Counted at the subhypergraph level, over
    the union of the copies of the members of general_star_family(r, i, j):
    an edge set reachable through several attachment choices counts once.
    """
    copies = np.concatenate([_copies(H, infected, cfg, [v], active)
                             for cfg in general_star_family(H.r, i, j)])
    return len(_group_rows(copies)[1])


# -- named configurations ----------------------------------------------------

def saturated_edge_config(r: int, i: int) -> Configuration:
    """Single edge with i roots; the other r-i vertices marked."""
    if not 0 <= i <= r:
        raise ValueError(f"root count i={i} outside 0..{r}")
    F = Hypergraph.from_rows(r, r, [list(range(r))])
    return Configuration(F, frozenset(range(i)), frozenset(range(i, r)))


def pendant_star_config(r: int, i: int, j: int) -> Configuration:
    """Central edge (one root, i marked) with j disjoint pendant edges.

    Pendant k attaches at the k-th neutral vertex of the central edge; its
    other r-1 vertices are fresh and marked.
    """
    if not 0 <= i <= r - 1:
        raise ValueError(f"marked count i={i} outside 0..{r - 1}")
    if not 0 <= j <= r - 1 - i:
        raise ValueError(f"pendant count j={j} outside 0..{r - 1 - i}")
    edges = [list(range(r))]          # 0 root, 1..i marked, i+1..r-1 neutral
    marked = set(range(1, i + 1))
    nxt = r
    for k in range(j):
        attach = i + 1 + k
        body = list(range(nxt, nxt + r - 1))
        marked.update(body)
        nxt += r - 1
        edges.append([attach] + body)
    F = Hypergraph.from_rows(nxt, r, edges)
    return Configuration(F, frozenset([0]), frozenset(marked))


def general_star_family(r: int, i: int, j: int) -> list:
    """All isomorphism classes of general stars with parameters (r, i, j).

    Each member has a central edge (one root, exactly i marked) and j
    pendant edges with exactly r-1 marked vertices whose unique neutral
    vertex sits on the central edge; pendants may share marked vertices
    with the central edge and with each other.  count_general_stars counts
    the union of their copy sets.  The family is derived once per (r, i, j)
    in a process; each call returns a new list of the same configurations.
    """
    return list(_general_star_family(r, i, j))


@lru_cache(maxsize=None)
def _general_star_family(r: int, i: int, j: int) -> tuple:
    if not 0 <= i <= r - 1:
        raise ValueError(f"marked count i={i} outside 0..{r - 1}")
    if not 0 <= j <= r - 1 - i:
        raise ValueError(f"pendant count j={j} outside 0..{r - 1 - i}")
    central = list(range(r))          # 0 root, 1..i marked, i+1..r-1 neutral
    central_marked = list(range(1, i + 1))
    attaches = [i + 1 + k for k in range(j)]
    shapes: dict = {}

    def rec(k: int, edges: list, marked: set, nxt: int):
        if k == j:
            F = Hypergraph.from_rows(nxt, r, edges)
            cfg = Configuration(F, frozenset([0]), frozenset(marked))
            shapes.setdefault(canonical_config_key(cfg), cfg)
            return
        pool = sorted(marked)
        for take in range(0, min(r - 1, len(pool)) + 1):
            for old in combinations(pool, take):
                fresh = list(range(nxt, nxt + (r - 1 - take)))
                body = list(old) + fresh
                rec(k + 1, edges + [[attaches[k]] + body],
                    marked | set(fresh), nxt + len(fresh))

    rec(0, [central], set(central_marked), r)
    return tuple(sorted(shapes.values(),
                        key=lambda c: (c.pattern.n, canonical_config_key(c))))


# -- isomorphism-class keys and the secondary family -------------------------

def canonical_config_key(config: Configuration):
    """Complete isomorphism invariant for small configurations.

    A configuration is determined up to isomorphism by the multiset of
    (edge-membership mask, role) vertex signatures, minimized over
    relabelings of the edges; vertices with equal signature are always
    interchangeable.  Exponential in the edge count, intended for patterns
    with at most about six edges.
    """
    F = config.pattern
    k = F.num_edges
    masks = [0] * F.n
    for ei in range(k):
        for x in F.edge(ei):
            masks[x] |= 1 << ei
    role = ["n"] * F.n
    for v in config.roots:
        role[v] = "r"
    for v in config.marked:
        role[v] = "m"
    best = None
    for perm in permutations(range(k)):
        counts: dict = {}
        for v in range(F.n):
            mm = 0
            for ei in range(k):
                if masks[v] >> ei & 1:
                    mm |= 1 << perm[ei]
            key = (mm, role[v])
            counts[key] = counts.get(key, 0) + 1
        item = tuple(sorted((mm, ro, c) for (mm, ro), c in counts.items()))
        if best is None or item < best:
            best = item
    return (k, F.r, best)


def _role_splits(size: int):
    """All (roots, marked, neutral) counts summing to a region size."""
    for nr in range(size + 1):
        for nm in range(size + 1 - nr):
            yield nr, nm, size - nr - nm


def _config_from_regions(r: int, regions: list) -> Configuration:
    """regions: list of (edge-index-set, (nr, nm, nn)); builds vertices."""
    k = max(max(s) for s, _ in regions) + 1
    edges: list = [[] for _ in range(k)]
    roots = []
    marked = []
    nxt = 0
    for edge_set, (nr, nm, nn) in regions:
        for kind, cnt in (("r", nr), ("m", nm), ("n", nn)):
            for _ in range(cnt):
                v = nxt
                nxt += 1
                for ei in edge_set:
                    edges[ei].append(v)
                if kind == "r":
                    roots.append(v)
                elif kind == "m":
                    marked.append(v)
    F = Hypergraph.from_rows(nxt, r, edges)
    return Configuration(F, frozenset(roots), frozenset(marked))


def enumerate_secondary(r: int) -> list:
    """All isomorphism classes of secondary configurations with <= 3 edges.

    A configuration is secondary when some central edge e satisfies: e holds
    a root and a neutral vertex; every other edge meets e in a neutral
    vertex; no vertex lies in three edges; and either there are two or more
    roots, or the shape is one of the two sanctioned overlap shapes (two
    edges sharing more than one vertex, or three edges where the two
    non-central ones each touch e once and also touch each other).
    """
    if not SECONDARY_MIN_R <= r <= SECONDARY_MAX_R:
        raise ValueError(
            f"secondary enumeration supports uniformity {SECONDARY_MIN_R}.."
            f"{SECONDARY_MAX_R}, got {r}")
    out: dict = {}

    def add(regions: list):
        cfg = _config_from_regions(r, regions)
        out.setdefault(canonical_config_key(cfg), cfg)

    # one edge: two or more roots, at least one neutral
    for nr in range(2, r):
        for nn in range(1, r - nr + 1):
            add([({0}, (nr, r - nr - nn, nn))])

    # two edges sharing s vertices; edge 0 is the nominated central one
    for s in range(1, r):
        for sp_i in _role_splits(s):
            if sp_i[2] < 1:
                continue           # shared part must offer a neutral
            for sp_a in _role_splits(r - s):
                if sp_i[0] + sp_a[0] < 1:
                    continue       # central needs a root
                if sp_i[2] + sp_a[2] < 1:
                    continue       # central needs a neutral (always true here)
                for sp_b in _role_splits(r - s):
                    total_roots = sp_i[0] + sp_a[0] + sp_b[0]
                    if total_roots < 2 and s < 2:
                        continue
                    add([({0, 1}, sp_i), ({0}, sp_a), ({1}, sp_b)])

    # three edges, no vertex in all three; edge 0 central
    for a in range(1, r):
        for b in range(1, r):
            for cc in range(0, r + 1):
                x0, x1, x2 = r - a - b, r - a - cc, r - b - cc
                if x0 < 0 or x1 < 0 or x2 < 0:
                    continue
                for sp01 in _role_splits(a):
                    if sp01[2] < 1:
                        continue
                    for sp02 in _role_splits(b):
                        if sp02[2] < 1:
                            continue
                        for sp12 in _role_splits(cc):
                            for sp0 in _role_splits(x0):
                                if sp0[0] + sp01[0] + sp02[0] < 1:
                                    continue
                                if sp0[2] + sp01[2] + sp02[2] < 1:
                                    continue
                                for sp1 in _role_splits(x1):
                                    for sp2 in _role_splits(x2):
                                        roots = (sp0[0] + sp1[0] + sp2[0]
                                                 + sp01[0] + sp02[0] + sp12[0])
                                        if roots < 2 and not (
                                                a == 1 and b == 1 and cc >= 1):
                                            continue
                                        add([({0}, sp0), ({1}, sp1),
                                             ({2}, sp2), ({0, 1}, sp01),
                                             ({0, 2}, sp02), ({1, 2}, sp12)])
    return sorted(out.values(),
                  key=lambda c: (c.pattern.num_edges, canonical_config_key(c)))
