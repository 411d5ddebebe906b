"""Slow, independent recomputations used as ground truth by the tests.

Everything here is deliberately naive: plain dicts, sets, full rescans and
subset enumeration, sharing no code with the package under test.  The one
exception is reveal_batch_oracle, which replays the package's own scalar
reveal operations edge by edge as the reference for its batch path.  Where
a closed form exists (quadratic roots, binomial means) it is spelled out
from scratch rather than imported.
"""

import itertools
import math
from fractions import Fraction


# -- deterministic closure ---------------------------------------------------

def closure_oracle(edges, infected, active=None):
    """Fixpoint by full rescan: infect the lone healthy vertex of any edge."""
    sets = [frozenset(int(v) for v in e) for e in edges]
    live = range(len(sets)) if active is None else sorted(set(active))
    inf = {int(v) for v in infected}
    changed = True
    while changed:
        changed = False
        for i in live:
            healthy = sets[i] - inf
            if len(healthy) == 1:
                inf |= healthy
                changed = True
    return inf


def open_edges_oracle(edges, infected, live):
    """Ids of live edges with exactly one healthy vertex."""
    inf = {int(v) for v in infected}
    out = set()
    for i in live:
        if len(set(edges[i]) - inf) == 1:
            out.add(i)
    return out


def open_by_vertex_oracle(edges, infected, live):
    """Map healthy vertex -> set of live edges open at it."""
    inf = {int(v) for v in infected}
    out = {}
    for i in live:
        healthy = set(edges[i]) - inf
        if len(healthy) == 1:
            (u,) = healthy
            out.setdefault(u, set()).add(i)
    return out


def open_list_oracle(open_list, ops):
    """open_list after (edge, opens) updates in order: an opening edge is
    appended, a closing one is overwritten by the last entry, which is then
    dropped from the end."""
    out = list(open_list)
    for e, opens in ops:
        if opens:
            out.append(e)
        else:
            i = out.index(e)
            last = out.pop()
            if i < len(out):
                out[i] = last
    return out


def reveal_batch_oracle(ps, edges):
    """The per-edge reveal loop that the batch path replaced.

    For each edge in turn: remove it, keeping the healthy vertex that
    remove_edge returns, and reveal its coin (which records it as sampled);
    then infect the hit vertices in order, skipping repeats.  Built from the
    process state's own scalar operations (remove_edge, outcome, infect), so
    it pins the batch path to the one-edge-at-a-time semantics.
    """
    st = ps.state
    hits = []
    for e in edges:
        u = st.remove_edge(e)
        if ps.coins.outcome(e):
            hits.append(u)
    for u in hits:
        if not st.infected[u]:
            st.infect(u)
    return len(hits)


# -- degrees, codegrees, links ------------------------------------------------

def degree_oracle(edges, v):
    return sum(1 for e in edges if v in e)


def codegree_oracle(edges, subset):
    s = set(subset)
    return sum(1 for e in edges if s <= set(e))


def max_codegree_oracle(edges, size):
    best = 0
    for e in edges:
        for sub in itertools.combinations(sorted(e), size):
            best = max(best, codegree_oracle(edges, sub))
    return best


def max_codegree_witness_oracle(edges, size):
    """(max codegree over size-subsets, witness) by one dict count.

    Ties go to the lowest vertex for size 1 and otherwise to the subset
    counted first, scanning the edges in order and each edge's subsets in
    combinations order.
    """
    counts = {}
    for e in edges:
        for sub in itertools.combinations(sorted(e), size):
            counts[sub] = counts.get(sub, 0) + 1
    if not counts:
        return 0, None
    if size == 1:
        sub = min(counts, key=lambda s: (-counts[s], s))
    else:
        sub = max(counts, key=counts.get)
    return counts[sub], sub


def max_nbhd_intersection_oracle(edges):
    """(max |N(u) ∩ N(v)|, witness pair) through a shared-link multimap.

    Each (r-1)-set T, in order of first occurrence, adds one to every pair
    of its extension vertices, taken ascending; the witness is the first
    pair whose count passes the running maximum.
    """
    links = {}
    for e in edges:
        t = tuple(sorted(e))
        for k in range(len(t)):
            links.setdefault(t[:k] + t[k + 1:], []).append(t[k])
    pair_counts = {}
    best, best_pair = 0, None
    for ext in links.values():
        for pair in itertools.combinations(sorted(ext), 2):
            c = pair_counts.get(pair, 0) + 1
            pair_counts[pair] = c
            if c > best:
                best, best_pair = c, pair
    return best, best_pair


def link_family_oracle(edges, u):
    return {frozenset(e) - {u} for e in edges if u in e}


def nbhd_intersection_oracle(edges, u, v):
    return len(link_family_oracle(edges, u) & link_family_oracle(edges, v))


# -- rational densities --------------------------------------------------------

def kbalance_oracle(edges, k):
    """(density, strict, worst subhypergraph density) by subset enumeration."""
    m = len(edges)
    spanned = set()
    for e in edges:
        spanned.update(e)
    total = Fraction(m - 1, len(spanned) - k)
    worst = None
    for size in range(2, m):
        for combo in itertools.combinations(range(m), size):
            verts = set()
            for i in combo:
                verts.update(edges[i])
            if len(verts) <= k:
                continue
            d_sub = Fraction(size - 1, len(verts) - k)
            if worst is None or d_sub > worst:
                worst = d_sub
    strict = worst is None or worst < total
    return total, strict, worst


# -- scalar theory --------------------------------------------------------------

def gamma_oracle(r, c, alpha, t):
    return (c + alpha * t) ** (r - 1) - t


def phase1_steps_oracle(r, c, alpha, d, K, n, stop_level, cap):
    """First m in 0..cap where (1 + 4*band(m/n)) * density(m/n) falls below
    stop_level, one m at a time, or None."""
    for m in range(cap + 1):
        t = m / n
        band = (t + 1.0) ** (K / 10.0) / math.log(d) ** (K / 5.0)
        if (1 + 4 * band) * gamma_oracle(r, c, alpha, t) < stop_level:
            return m
    return None


def stationary_t_oracle(r, c, alpha):
    return ((1.0 / (alpha * (r - 1))) ** (1.0 / (r - 2)) - c) / alpha


def quadratic_roots_oracle(c, alpha):
    """Roots of (c + alpha*t)^2 - t for the 3-uniform case, or None."""
    A = alpha * alpha
    B = 2.0 * c * alpha - 1.0
    C = c * c
    disc = B * B - 4.0 * A * C
    if disc < 0:
        return None
    s = math.sqrt(disc)
    return (-B - s) / (2.0 * A), (-B + s) / (2.0 * A)


def subcritical_closed_form(r, c, alpha):
    """Sign test on c^(r-2) * alpha against the critical product."""
    return (c ** (r - 2)) * alpha < ((r - 2) ** (r - 2)) / ((r - 1) ** (r - 1))


def critical_constant_oracle(r, alpha):
    return (r - 2) / (alpha ** (1.0 / (r - 2)) * (r - 1) ** ((r - 1) / (r - 2)))


def star_mean_oracle(r, c, alpha, t, i, j):
    return (math.comb(r - 1, i) * math.comb(r - 1 - i, j)
            * (c + alpha * t) ** i * gamma_oracle(r, c, alpha, t) ** j)


def wilson_oracle(successes, trials, z):
    ph = successes / trials
    z2 = z * z
    centre = (ph + z2 / (2 * trials)) / (1 + z2 / trials)
    half = (z / (1 + z2 / trials)) * math.sqrt(
        ph * (1 - ph) / trials + z2 / (4 * trials * trials))
    return centre - half, centre + half


# -- exact percolation probability by total enumeration -------------------------

def percolation_prob_oracle(n, edges, p, q):
    """Sum over all initial sets and coin outcomes; only for tiny hosts."""
    m = len(edges)
    if n + m > 18:
        raise ValueError("oracle is exponential; keep n + m small")
    total = 0.0
    full = set(range(n))
    for vbits in range(1 << n):
        inf0 = [v for v in range(n) if vbits >> v & 1]
        pv = p ** len(inf0) * (1 - p) ** (n - len(inf0))
        if pv == 0.0:
            continue
        for ebits in range(1 << m):
            succ = [i for i in range(m) if ebits >> i & 1]
            pe = q ** len(succ) * (1 - q) ** (m - len(succ))
            if pe == 0.0:
                continue
            if closure_oracle(edges, inf0, succ) == full:
                total += pv * pe
    return total


# -- rooted copy counting by subset enumeration ----------------------------------

def count_copies_oracle(host_edges, pattern_edges, roots, marked,
                        roots_to, infected):
    """Distinct host edge subsets supporting a role-respecting isomorphism.

    Tries every |pattern|-subset of host edges and every bijection of the
    spanned vertex sets; exponential, so callers keep both sides tiny.
    """
    p_sets = [frozenset(e) for e in pattern_edges]
    pverts = sorted(set().union(*p_sets))
    root_set = set(roots)
    marked_set = set(marked)
    target_roots = {int(v) for v in roots_to}
    inf = {int(v) for v in infected}
    count = 0
    for combo in itertools.combinations(range(len(host_edges)), len(p_sets)):
        h_sets = {frozenset(host_edges[i]) for i in combo}
        if len(h_sets) != len(p_sets):
            continue
        hverts = sorted(set().union(*h_sets))
        if len(hverts) != len(pverts):
            continue
        ok = False
        for perm in itertools.permutations(hverts):
            phi = dict(zip(pverts, perm))
            if {phi[x] for x in root_set} != target_roots:
                continue
            if not all(phi[x] in inf for x in marked_set):
                continue
            if {frozenset(phi[x] for x in ps) for ps in p_sets} == h_sets:
                ok = True
                break
        if ok:
            count += 1
    return count


# -- direct counts of the three star-shaped configurations ------------------------
#
# These walk the host edge lists the way the trajectory theory describes the
# configurations, with no pattern matching: the edges at a root, then for
# each attachment vertex the pendant edges it could carry.

def saturated_edges_oracle(edges, infected, S):
    """Edges containing S whose remaining vertices are all infected."""
    s, inf = set(S), set(infected)
    return sum(1 for e in edges
               if s <= set(e) and all(x in inf for x in e if x not in s))


def _star_pendants(edges, e, v, inf, may_touch):
    """For each vertex w of e other than v, the fully infected (apart from w)
    edges at w that are not e, do not hold v and pass may_touch(f, e)."""
    return {w: [f for f in edges
                if w in f and f != e and v not in f and may_touch(set(f), set(e))
                and all(y in inf for y in f if y != w)]
            for w in e if w != v}


def pendant_stars_oracle(edges, infected, v, i, j):
    """Central edges at v with at least i infected vertices off the
    attachments, times the choices of j pairwise disjoint pendants meeting
    the central edge only at j distinct attachment vertices."""
    inf = set(infected)
    total = 0
    for e in edges:
        if v not in e:
            continue
        pend = _star_pendants(edges, e, v, inf,
                              lambda f, c: len(f & c) == 1)
        for W in itertools.combinations([w for w in pend if pend[w]], j):
            if sum(1 for x in e if x != v and x in inf and x not in W) < i:
                continue
            for pick in itertools.product(*(pend[w] for w in W)):
                if len(set().union(*map(set, pick))) == len(e) * len(pick):
                    total += 1
    return total


def general_stars_oracle(edges, infected, v, i, j):
    """Central edges at v with j distinct pendants at distinct attachment
    vertices; a pendant holds no other attachment vertex, and the pendants
    meet the central edge off the attachments in at most i vertices.  Each
    central edge counts its distinct pendant sets once."""
    inf = set(infected)
    total = 0
    for e in edges:
        if v not in e:
            continue
        pend = _star_pendants(edges, e, v, inf, lambda f, c: True)
        seen = set()
        for W in itertools.combinations([w for w in pend if pend[w]], j):
            ws = set(W)
            if sum(1 for x in e if x != v and x in inf and x not in ws) < i:
                continue
            for pick in itertools.product(*(pend[w] for w in W)):
                if len(set(pick)) < j or any(
                        y in ws and y != w for w, f in zip(W, pick) for y in f):
                    continue
                overlap = {y for f in pick for y in f if y in e and y not in ws}
                if len(overlap) <= i:
                    seen.add(frozenset(pick))
        total += len(seen)
    return total
