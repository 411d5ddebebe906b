"""r-uniform hypergraphs with the degree/codegree queries used everywhere else.

Edges are stored as a dense (m, r) int32 array whose rows are sorted
ascending and whose row order is lexicographic, so the representation of a
given hypergraph is unique.  Incidence (vertex -> edge ids) is kept in CSR
form.  One stable sort-and-group of int rows, `_group_rows`, finds both the
repeated sub-tuples that the regularity audit counts and duplicate edges.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Optional

import numpy as np

# pair events the link-intersection audit may expand; about 40 bytes each
LINK_PAIR_LIMIT = 20_000_000
# csr_incidence sorts up to CSR_SORT_ROWS rows at once, larger arrays in
# blocks of CSR_BLOCK_ROWS.  Up to the cut one sort is the faster (the K_120
# lift and Monte Carlo success hosts); above it blocks bound the int64 copies
CSR_SORT_ROWS = 1 << 19
CSR_BLOCK_ROWS = 1 << 16


class SizeGuardError(RuntimeError):
    """Raised when a request exceeds the intended desk scale."""


class Hypergraph:
    """Immutable r-uniform hypergraph on vertex set {0..n-1}."""

    __slots__ = ("n", "r", "_edges", "_indptr", "_incident", "_hash")

    def __init__(self, n: int, r: int, edges: np.ndarray, indptr: np.ndarray,
                 incident: np.ndarray):
        self.n = int(n)
        self.r = int(r)
        self._edges = edges
        self._edges.setflags(write=False)
        self._indptr = indptr
        self._incident = incident
        self._hash: Optional[int] = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(n: int, r: int, rows, *, canonical: bool = False
                  ) -> "Hypergraph":
        """The one constructor, from an (m, r) int array or a list of rows of
        vertex ids (empty: no edges); an error names the offending edge.
        With canonical=True the caller asserts rows are already sorted within
        rows, lexicographically ordered, and duplicate-free; only cheap range
        checks run.  Builders that generate edges in canonical order use this
        to skip an O(m log m) sort on multi-million-edge instances.
        """
        if r < 2:
            raise ValueError(f"uniformity r={r} must be at least 2")
        if n < 0:
            raise ValueError(f"vertex count n={n} must be nonnegative")
        try:
            arr = np.asarray(rows)
        except ValueError:                  # ragged rows
            arr = np.asarray(rows, dtype=object)
        if arr.ndim != 2 or arr.shape[1] != r:
            if arr.shape[:1] != (0,):
                e = next((e for e in np.atleast_1d(arr).tolist()
                          if np.shape(e) != (r,)), arr)
                raise ValueError(
                    f"edge {e} has {np.size(e)} vertices, expected {r}")
            arr = np.zeros((0, r), dtype=np.int32)
        if arr.size:
            if not np.issubdtype(arr.dtype, np.integer):
                # name a row with a fractional id if there is one
                bad = (int(np.argmax((arr != np.floor(arr)).any(axis=1)))
                       if np.issubdtype(arr.dtype, np.floating) else 0)
                raise ValueError(f"edge {arr[bad].tolist()}: vertex ids "
                                 f"must be integers, got {arr.dtype}")
            if (isinstance(rows, list)
                    and _holds_bool(chain.from_iterable(rows))):
                e = next(e for e in rows if _holds_bool(e))
                raise ValueError(f"edge {list(e)}: vertex ids must be "
                                 "integers, got a bool")
            if arr.min() < 0 or arr.max() >= n:
                bad = int(np.flatnonzero((arr < 0).any(axis=1)
                                         | (arr >= n).any(axis=1))[0])
                raise ValueError(
                    f"edge {arr[bad].tolist()} has a vertex outside 0..{n - 1}")
        rows = np.ascontiguousarray(arr, dtype=np.int32)
        if not canonical and rows.size:
            rows = np.sort(rows, axis=1)
            if not (np.diff(rows, axis=1) > 0).all():
                bad = int(np.flatnonzero((np.diff(rows, axis=1) <= 0).any(axis=1))[0])
                raise ValueError(f"edge {rows[bad].tolist()} repeats a vertex")
            order, starts, _ = _group_rows(rows)
            rows = rows[order[starts]]
        indptr, incident = csr_incidence(n, rows)
        return Hypergraph(n, r, rows, indptr, incident)

    # -- basic queries -----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self._edges.shape[0]

    @property
    def edges_array(self) -> np.ndarray:
        """(m, r) int32 view; rows sorted, lexicographic order."""
        return self._edges

    def edge(self, i: int) -> tuple:
        return tuple(int(x) for x in self._edges[i])

    def incident_edges(self, v: int) -> np.ndarray:
        """Edge ids containing v, ascending."""
        self._check_vertex(v)
        return self._incident[self._indptr[v]:self._indptr[v + 1]]

    @property
    def incidence(self):
        """Vertex-to-edge CSR: (indptr, edge ids ascending per vertex)."""
        return self._indptr, self._incident

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max_degree undefined on empty vertex set")
        return int(self.degrees().max())

    def edges_containing(self, S: Iterable[int]) -> np.ndarray:
        """Edge ids of all edges containing every vertex of S, ascending."""
        s = sorted(set(int(v) for v in S))
        if not s:
            return np.arange(self.num_edges, dtype=np.int32)
        ids = self.incident_edges(s[0])
        for v in s[1:]:
            ids = np.intersect1d(ids, self.incident_edges(v), assume_unique=True)
            if ids.size == 0:
                break
        return ids

    def max_codegree_witness(self, l: int):
        """(max codegree over l-subsets of edges, witness subset).

        Ties go to the lowest vertex for l = 1, otherwise to the subset seen
        first in the edge rows, each row's l-subsets in combinations order.
        """
        if not 1 <= l <= self.r:
            raise ValueError(f"subset size l={l} must be in 1..{self.r}")
        if self.num_edges == 0:
            return 0, None
        if l == 1:
            degs = self.degrees()
            v = int(degs.argmax())
            return int(degs[v]), (v,)
        cols = list(combinations(range(self.r), l))
        subs = self._edges[:, cols].reshape(-1, l)
        order, starts, counts = _group_rows(subs)
        best = counts.max()
        first = order[starts[counts == best]].min()
        return int(best), tuple(int(x) for x in subs[first])

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph) and self.n == other.n
                and self.r == other.r
                and self._edges.shape == other._edges.shape
                and bool((self._edges == other._edges).all()))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.r, self._edges.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, m={self.num_edges})"


def _group_rows(keys: np.ndarray):
    """Group the equal rows of an (M, k) int array: (order, starts, counts).

    order is a stable lexicographic sort of the rows and group g is
    keys[order[starts[g]:starts[g] + counts[g]]], members in their original
    order, so order[starts] holds each group's first occurrence.
    """
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(keys.shape[0], dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return order, starts, np.diff(starts, append=keys.shape[0])


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """0..c-1 for each c in counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _incidences(indptr: np.ndarray, incident: np.ndarray,
                vertices: np.ndarray) -> np.ndarray:
    """The CSR slices of the given vertices, gathered as one index array."""
    deg = indptr[vertices + 1] - indptr[vertices]
    shift = indptr[vertices] - (np.cumsum(deg) - deg)
    return incident[np.arange(deg.sum()) + np.repeat(shift, deg)]


def csr_incidence(n: int, rows: np.ndarray):
    """Vertex-to-row CSR of an (m, r) row array: (indptr, row ids).

    The result keeps 4 bytes an entry, but an argsort's int64 output and
    bincount's intp copy of its input cost 8.  So vertices are counted
    CSR_BLOCK_ROWS rows at a time, and an array of more than CSR_SORT_ROWS
    rows is also placed a block at a time: each block's sorted vertex
    buckets go to those vertices' next free slots.
    """
    m, r = rows.shape
    counts = np.zeros(n, dtype=np.int64)
    for s in range(0, m, CSR_BLOCK_ROWS):
        counts += np.bincount(rows[s:s + CSR_BLOCK_ROWS].ravel(), minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if m <= CSR_SORT_ROWS:
        order = _bucket_order(n, rows.ravel())
        order //= r
        return indptr, order.astype(np.int32)
    incident = np.empty(m * r, dtype=np.int32)
    free = indptr[:-1].copy()   # each vertex's next free slot
    for s in range(0, m, CSR_BLOCK_ROWS):
        flat = rows[s:s + CSR_BLOCK_ROWS].ravel()
        size = np.bincount(flat, minlength=n)
        # the block's sorted bucket of v starts at cumsum(size)[v] - size[v]
        dest = np.repeat(free - np.cumsum(size) + size, size)
        dest += np.arange(flat.size)
        ids = _bucket_order(n, flat).astype(np.int32)
        ids //= r
        ids += s
        incident[dest] = ids
        free += size
    return indptr, incident


def _bucket_order(n: int, flat: np.ndarray) -> np.ndarray:
    """Stable argsort of vertex ids: positions ascending within each vertex
    bucket.  Ids below 2^16 sort the same way as 16-bit keys, by radix."""
    return np.argsort(flat.astype(np.uint16) if n <= 1 << 16 else flat,
                      kind="stable")


def _holds_bool(values) -> bool:
    """Whether a Python sequence of ids holds a bool, which np.asarray
    reads as 0 or 1 when integers surround it."""
    return not {bool, np.bool_}.isdisjoint(map(type, values))


def as_mask(items, size: int, what: str) -> Optional[np.ndarray]:
    """Coerce a vertex or edge filter to a validated bool mask of length size.

    items is a set, an iterable of ids, an id array or a bool mask; None (no
    filter) stays None.  A bool mask is returned as given, not copied.
    """
    if items is None:
        return None
    if isinstance(items, np.ndarray):
        arr = items
    else:
        items = list(items)
        arr = np.asarray(items)
        if arr.dtype != bool and _holds_bool(items):
            raise ValueError(f"{what} ids must be integers, got a bool")
    if arr.dtype == bool:
        if arr.shape != (size,):
            raise ValueError(f"{what} mask has shape {arr.shape}, "
                             f"expected ({size},)")
        return arr
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{what} ids must be integers, got {arr.dtype}")
    ids = arr.astype(np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise ValueError(f"{what} id outside 0..{size - 1}")
    mask = np.zeros(size, dtype=bool)
    mask[ids] = True
    return mask


def max_neighbourhood_intersection(H: Hypergraph):
    """(max over vertex pairs of |N(u) ∩ N(v)|, witness pair).

    An (r-1)-set T counts for (u, v) when T ∪ {u} and T ∪ {v} are both
    edges, so a T shared by c edges adds one to C(c, 2) pairs.  Taking the
    T by first occurrence and each one's pairs ascending, the witness is
    the first pair to reach the maximum.  More than LINK_PAIR_LIMIT such
    pair events raise SizeGuardError.
    """
    if H.num_edges == 0 or H.n < 2:
        return 0, None
    rows, r = H.edges_array, H.r
    # key k of edge e is row e without column k; its extension is rows[e, k]
    drop = [[j for j in range(r) if j != k] for k in range(r)]
    order, starts, counts = _group_rows(rows[:, drop].reshape(-1, r - 1))
    shared = counts >= 2
    starts, counts = starts[shared], counts[shared]
    events = int((counts * (counts - 1) // 2).sum())
    if events > LINK_PAIR_LIMIT:
        raise SizeGuardError(f"link intersection needs {events} pair events, "
                             f"above {LINK_PAIR_LIMIT}")
    if events == 0:
        return 0, None
    # extensions of the shared keys, keys by first occurrence, each ascending
    by_first = np.argsort(order[starts])
    starts, counts = starts[by_first], counts[by_first]
    group = np.repeat(np.arange(counts.size), counts)
    local = _ragged_arange(counts)
    ext = rows.ravel()[order[starts[group] + local]]
    ext = ext[np.lexsort((ext, group))]
    # each extension pairs with every later one of its key, in that order
    later = counts[group] - 1 - local
    first = np.repeat(np.arange(ext.size), later)
    pairs = np.stack([ext[first], ext[first + 1 + _ragged_arange(later)]], axis=1)
    order, starts, counts = _group_rows(pairs)
    top = counts == counts.max()
    last = order[starts[top] + counts[top] - 1].min()
    return int(counts.max()), (int(pairs[last, 0]), int(pairs[last, 1]))


# -- regularity report -----------------------------------------------------

# non-strict bounds are checked with this relative dead-band so that an
# exactly-on-the-boundary instance (bound an irrational like rho*sqrt(d)
# that only misses in the last ulp) is not rejected by rounding
BOUND_REL_TOL = 1e-12


def _le(measured: float, bound: float) -> bool:
    return measured <= bound + BOUND_REL_TOL * max(abs(measured), abs(bound))


@dataclass
class ConditionResult:
    name: str
    measured: float
    bound: float
    ok: bool
    witness: Optional[tuple] = None


@dataclass
class WellBehavedReport:
    passes: bool
    d: float
    rho: float
    nu: float
    conditions: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passes": self.passes,
            "d": self.d,
            "rho": self.rho,
            "nu": self.nu,
            "conditions": [
                {"name": c.name, "measured": c.measured, "bound": c.bound,
                 "ok": c.ok,
                 "witness": list(c.witness) if c.witness is not None else None}
                for c in self.conditions
            ],
        }


def check_well_behaved(H: Hypergraph, d: float, rho: float, nu: float
                       ) -> WellBehavedReport:
    """Audit the five degree-regularity conditions at scale (d, rho, nu).

    (a) max degree <= d
    (b) min degree >= d(1 - rho)
    (c) max codegree of l-sets <= rho * d^(1 - (l-1)/(r-1)) for 2 <= l <= r-1
    (d) every pair of vertices shares at most rho*d link elements
    (e) at most nu vertices

    Bounds are non-strict; measured values and witnesses are reported for
    every condition so a failure names its offender.  d and nu must be
    positive, rho nonnegative, and all three finite.
    """
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"degree scale d={d} must be positive and finite")
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"codegree slack rho={rho} must be nonnegative "
                         "and finite")
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"size cap nu={nu} must be positive and finite")
    if H.n == 0:
        raise ValueError("regularity check needs a nonempty vertex set")

    conds = []
    degs = H.degrees()
    vmax = int(degs.argmax())
    vmin = int(degs.argmin())
    conds.append(ConditionResult(
        "a:max_degree", float(degs[vmax]), float(d),
        _le(float(degs[vmax]), d), (vmax,)))
    conds.append(ConditionResult(
        "b:min_degree", float(degs[vmin]), float(d * (1 - rho)),
        _le(d * (1 - rho), float(degs[vmin])), (vmin,)))
    for l in range(2, H.r):
        value, witness = H.max_codegree_witness(l)
        bound = rho * d ** (1 - (l - 1) / (H.r - 1))
        conds.append(ConditionResult(
            f"c:codegree_l{l}", float(value), float(bound),
            _le(float(value), bound), witness))
    shared, pair = max_neighbourhood_intersection(H)
    conds.append(ConditionResult(
        "d:link_intersection", float(shared), float(rho * d),
        _le(float(shared), rho * d), pair))
    conds.append(ConditionResult(
        "e:vertex_count", float(H.n), float(nu), _le(float(H.n), nu), None))
    return WellBehavedReport(all(c.ok for c in conds), float(d), float(rho),
                             float(nu), conds)


# -- serialization ---------------------------------------------------------

def to_dict(H: Hypergraph) -> dict:
    """The hypergraph record: keys n, r, edges; edges in canonical order."""
    return {"n": H.n, "r": H.r, "edges": H.edges_array.tolist()}


_REQUIRED = object()


def is_count(value) -> bool:
    """Whether value is an integer and not a bool (np.bool_ is no
    np.integer, but bool is an int); the rule for step budgets, strides and
    trial counts."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def is_number(value) -> bool:
    """Whether value is a real number and not a bool (np.bool_ is no
    numbers.Real, but bool is an int); the rule for probabilities, model
    constants and tolerances."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_probability(name: str, value) -> None:
    """Raise ValueError unless value is a number in [0, 1]; a bool or a NaN
    is refused."""
    if not (is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"probability {name}={value} outside [0, 1]")


def json_int(value) -> int:
    """A JSON integer as it is; a bool, a string or any float, integral
    ones included, raises ValueError rather than being truncated."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_float(value) -> float:
    """A finite JSON number, integer or float, as a float; a bool, a
    string, a NaN, an infinity or an integer past the float range raises
    ValueError."""
    big = sys.float_info.max
    if type(value) not in (int, float) or not -big <= value <= big:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def record_field(obj, key: str, convert=None, default=_REQUIRED):
    """obj[key] of a JSON record through convert; a null value counts as
    missing.  Every way the record can fail raises ValueError naming key."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with key {key!r}")
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"missing key {key!r}")
        return default
    try:
        return value if convert is None else convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def from_dict(obj: dict) -> Hypergraph:
    return Hypergraph.from_rows(record_field(obj, "n", json_int),
                                record_field(obj, "r", json_int),
                                record_field(obj, "edges"))


def to_json(H: Hypergraph) -> str:
    """Canonical JSON of the record, newline-terminated."""
    return json.dumps(to_dict(H)) + "\n"


def from_json(text: str) -> Hypergraph:
    return from_dict(json.loads(text))


def from_text(text: str) -> Hypergraph:
    """Plain text: header 'r n m', then one edge a line of vertex ids."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty hypergraph text")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"header {lines[0]!r} is not 'r n m'")
    r, n, m = (int(x) for x in head)
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = [[int(x) for x in ln.split()] for ln in lines[1:]]
    return Hypergraph.from_rows(n, r, edges)


def loads(text: str) -> Hypergraph:
    """Parse either serialization, autodetected by the first non-space byte."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return from_text(text)
