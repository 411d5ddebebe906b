"""Scalar theory: density trajectory, roots, regimes, derived constants."""

import hashlib
import json
import math
from dataclasses import replace
from math import comb, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperboot import theory
from hyperboot.theory import (BoundaryError, Criticality, ModelParams,
                              PhaseLengths, classify_criticality,
                              critical_initial_constant, derive_constants,
                              error_band, open_edge_density,
                              open_edge_density_prime, star_density,
                              stationary_and_roots)
from oracles import (critical_constant_oracle, gamma_oracle,
                     phase1_steps_oracle, quadratic_roots_oracle,
                     star_mean_oracle, stationary_t_oracle,
                     subcritical_closed_form)

SUB = ModelParams(r=3, c=0.2, alpha=0.5, d=1000.0)
SUPER = ModelParams(r=3, c=0.5, alpha=1.0, d=1000.0)


def test_params_validation_and_scalings():
    with pytest.raises(ValueError):
        ModelParams(r=2, c=0.1, alpha=1.0, d=10.0)
    with pytest.raises(ValueError):
        ModelParams(r=3, c=-0.1, alpha=1.0, d=10.0)
    assert ModelParams(r=3, c=0.0, alpha=1.0, d=10.0).p == 0.0
    with pytest.raises(ValueError):
        ModelParams(r=3, c=0.1, alpha=-1.0, d=10.0)
    with pytest.raises(ValueError):
        ModelParams(r=3, c=0.1, alpha=1.0, d=1.0)
    for key in ("c", "alpha", "d", "K"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{key}={bad}"):
                ModelParams(**{**dict(r=3, c=0.1, alpha=1.0, d=10.0),
                                  key: bad})
    p = ModelParams(r=4, c=0.3, alpha=2.0, d=729.0)
    assert p.p == pytest.approx(0.3 * 729.0 ** (-1 / 3))
    assert p.q == pytest.approx(2.0 * 729.0 ** (-1 / 3))
    assert p.bind(50).n_vertices == 50


def test_density_at_zero_is_c_power():
    for r in (3, 4, 5, 7):
        p = ModelParams(r=r, c=0.37, alpha=1.3, d=50.0)
        assert open_edge_density(0.0, p) == pytest.approx(0.37 ** (r - 1))


def test_density_matches_polynomial_form():
    # r=3, c=0.2, alpha=0.5 expands to 0.25 t^2 - 0.8 t + 0.04
    for t in (0.0, 0.3, 1.6, 4.0):
        assert open_edge_density(t, SUB) == pytest.approx(
            0.25 * t * t - 0.8 * t + 0.04, abs=1e-12)


def test_subcritical_roots_match_quadratic_formula():
    roots = stationary_and_roots(SUB)
    t0, t1 = quadratic_roots_oracle(0.2, 0.5)
    assert roots.stationary_t == pytest.approx(1.6, abs=1e-12)
    assert roots.root_low == pytest.approx(t0, abs=1e-12)
    assert roots.root_high == pytest.approx(t1, abs=1e-12)
    assert roots.root_low == pytest.approx(0.050806661517, abs=1e-9)
    assert roots.root_high == pytest.approx(3.149193338483, abs=1e-9)
    assert abs(open_edge_density(roots.root_low, SUB)) <= 1e-9
    assert abs(open_edge_density(roots.root_high, SUB)) <= 1e-9


def test_supercritical_has_no_roots():
    roots = stationary_and_roots(SUPER)
    assert roots.root_low is None and roots.root_high is None
    assert roots.density_at_stationary > 0
    assert classify_criticality(SUPER) is Criticality.SUPERCRITICAL


def test_stationary_point_is_flat():
    for p in (SUB, SUPER, ModelParams(r=5, c=0.1, alpha=0.7, d=100.0)):
        roots = stationary_and_roots(p)
        assert abs(open_edge_density_prime(roots.stationary_t, p)) <= 1e-9
        assert roots.stationary_t == pytest.approx(
            stationary_t_oracle(p.r, p.c, p.alpha), rel=1e-12)


def test_critical_constant_values():
    assert critical_initial_constant(3, 1.0) == pytest.approx(0.25)
    assert critical_initial_constant(3, 0.5) == pytest.approx(0.5)
    assert critical_initial_constant(4, 1.0) == pytest.approx(2 / 3 ** 1.5)


def test_exact_boundary_is_refused():
    p = ModelParams(r=3, c=0.25, alpha=1.0, d=100.0)
    with pytest.raises(BoundaryError):
        stationary_and_roots(p)
    assert classify_criticality(p) is Criticality.BOUNDARY


@settings(max_examples=120, deadline=None)
@given(r=st.integers(3, 10),
       c=st.floats(0.01, 3.0),
       alpha=st.floats(0.05, 3.0))
def test_classifier_agrees_with_closed_form(r, c, alpha):
    p = ModelParams(r=r, c=c, alpha=alpha, d=500.0)
    cstar = critical_constant_oracle(r, alpha)
    if abs(c - cstar) < 1e-6 * max(1.0, cstar):
        return   # too close to the boundary to have a stable sign
    crit = classify_criticality(p)
    want = (Criticality.SUBCRITICAL if subcritical_closed_form(r, c, alpha)
            else Criticality.SUPERCRITICAL)
    assert crit is want
    assert critical_initial_constant(r, alpha) == pytest.approx(
        cstar, rel=1e-12)
    # roots, when present, really are roots
    roots = stationary_and_roots(p)
    for t in (roots.root_low, roots.root_high):
        if t is not None:
            assert abs(gamma_oracle(r, c, alpha, t)) <= 1e-9


def test_star_density_examples():
    assert star_density(0.0, 0, 0, SUB) == pytest.approx(1.0)
    for (i, j) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
        for t in (0.0, 0.7, 2.4):
            assert star_density(t, i, j, SUB) == pytest.approx(
                star_mean_oracle(3, 0.2, 0.5, t, i, j), rel=1e-12)
    with pytest.raises(ValueError):
        star_density(0.0, 3, 0, SUB)
    with pytest.raises(ValueError):
        star_density(0.0, 1, 2, SUB)


def test_error_band_values():
    p = ModelParams(r=3, c=0.2, alpha=0.5, d=100.0)
    assert error_band(0.0, p) == pytest.approx(log(100.0) ** -20)
    for t in (0.5, 2.0):
        want = (t + 1) ** (p.K / 10) / log(p.d) ** (p.K / 5)
        assert error_band(t, p) == pytest.approx(want, rel=1e-12)
    narrow = ModelParams(r=3, c=0.2, alpha=0.5, d=100.0, K=50.0)
    assert error_band(1.0, narrow) == pytest.approx(
        2 ** 5 / log(100.0) ** 10, rel=1e-12)


def test_subcritical_constants_identities():
    consts = derive_constants(SUB).subcritical
    assert consts.contraction_gap == pytest.approx(0.774597, abs=1e-6)
    assert consts.slack == pytest.approx(0.096825, abs=1e-6)
    assert consts.slack == pytest.approx(min(1 / 9, consts.contraction_gap / 8))
    r, a = SUB.r, SUB.alpha
    lam = consts.slack
    # closed forms of the j=0 caps
    for i in range(r - 1):
        want = (comb(r - 1, i) * ((1 - 4 * lam) / (a * (r - 1))) ** (i / (r - 2))
                + lam / a)
        assert consts.caps[(i, 0)] == pytest.approx(want, rel=1e-12)
    assert consts.caps[(r - 2, 0)] == pytest.approx((1 - 3 * lam) / a)
    cap_max = max(consts.caps[(i, 0)] for i in range(r - 1))
    cap_min = min(consts.caps[(i, 0)] for i in range(r - 1))
    want_zeta = (lam ** 2 * cap_min
                 / (r ** (6 * r + 1) * (1 + a + a ** r) ** 2 * (1 + cap_max) ** 3))
    assert consts.stop_level == pytest.approx(want_zeta, rel=1e-12)
    assert consts.caps[(r - 2, 1)] == pytest.approx(
        (1 + cap_max) * consts.stop_level, rel=1e-12)
    assert consts.caps[(r - 2, 1)] < 1
    for i in range(r - 2):
        for j in range(1, r - i):
            want = (r ** (3 * r) * consts.caps[(i, 0)] * (1 + a ** j)
                    * consts.caps[(r - 2, 1)] ** j)
            assert consts.caps[(i, j)] == pytest.approx(want, rel=1e-12)
            assert consts.caps[(i, j)] < lam ** 2 / (r ** (3 * r + 1) * a ** (j + 1))


def test_subcritical_constants_refused_off_regime():
    assert derive_constants(SUPER).subcritical is None


@settings(max_examples=80, deadline=None)
@given(r=st.integers(3, 8),
       c=st.floats(0.01, 2.0),
       alpha=st.floats(0.05, 3.0))
def test_slack_leaves_room_below_the_gap(r, c, alpha):
    # lambda < 1/8 guarantees the derivative bound at the low root stays
    # strictly under (1 - 4*lambda)/alpha, the margin the caps rely on
    params = ModelParams(r=r, c=c, alpha=alpha, d=1000.0)
    if classify_criticality(params) is not Criticality.SUBCRITICAL:
        return
    consts = derive_constants(params).subcritical
    lam = consts.slack
    assert 0.0 < lam < 1 / 8
    t0 = stationary_and_roots(params).root_low
    deriv = (r - 1) * (c + alpha * t0) ** (r - 2)
    assert deriv < (1 - 4 * lam) / alpha


def test_supercritical_phase_lengths_examples():
    p = ModelParams(r=3, c=0.5, alpha=1.0, d=1000.0).bind(1000)
    lengths = derive_constants(p).phases
    assert lengths.steps == 6000
    assert lengths.horizon == pytest.approx(6.0)

    n = int(round(math.e ** 10))
    p2 = ModelParams(r=3, c=0.5, alpha=1.0, d=10_000.0).bind(n)
    assert derive_constants(p2).phases.rounds == 3


def test_subcritical_phase_lengths_minimality():
    p = SUB.bind(100_000)
    dc = derive_constants(p)
    consts, lengths = dc.subcritical, dc.phases
    m = lengths.steps
    n = p.n_vertices

    def banded(mm):
        t = mm / n
        return (1 + 4 * error_band(t, p)) * open_edge_density(t, p)

    assert banded(m) < consts.stop_level
    assert all(banded(mm) >= consts.stop_level for mm in
               range(max(0, m - 3), m))
    # the stopping time lands essentially at the low root, well before the
    # stationary point
    assert lengths.horizon <= consts.root_low + 2.0 / n
    assert lengths.horizon < stationary_and_roots(p).stationary_t
    want_rounds = 2 * math.ceil(log(n) / -math.log1p(-consts.slack))
    assert lengths.rounds == want_rounds


def test_subcritical_phase_lengths_equal_the_scalar_stopping_loop():
    rng = np.random.default_rng(16)
    checked = ties = 0
    while checked < 500:
        r = int(rng.integers(3, 6))
        alpha = float(np.exp(rng.uniform(-2.0, 2.0)))
        c = critical_initial_constant(r, alpha) * float(rng.uniform(0, 0.98))
        d = float(np.exp(rng.uniform(0.7, 12.0)))
        K = float(rng.choice([1, 10, 100]))
        n = int(np.exp(rng.uniform(math.log(10), math.log(2e5))))
        unbound = ModelParams(r=r, c=c, alpha=alpha, d=d, K=K)
        p = unbound.bind(n)
        try:
            consts = derive_constants(unbound).subcritical
        except (BoundaryError, RuntimeError):
            continue
        cap = math.ceil(consts.root_low * n) + 2
        stops = [consts.stop_level]
        want = phase1_steps_oracle(r, c, alpha, d, K, n, consts.stop_level,
                                   cap)
        if want is not None and checked % 4 == 0:
            # stop levels exactly at the banded value where the rule fires,
            # and one ulp above it
            t = want / n
            at = (1 + 4 * error_band(t, p)) * open_edge_density(t, p)
            stops += [at, math.nextafter(at, math.inf)]
            ties += 1
        for stop in stops:
            want = phase1_steps_oracle(r, c, alpha, d, K, n, stop, cap)
            sub = replace(consts, stop_level=stop)
            if want is None:
                with pytest.raises(RuntimeError, match="did not fire"):
                    theory._phase_lengths(p, Criticality.SUBCRITICAL, sub)
            else:
                got = theory._phase_lengths(p, Criticality.SUBCRITICAL,
                                            sub).steps
                assert got == want, (r, c, alpha, d, K, n, stop)
        checked += 1
    assert ties >= 100


def test_phase_lengths_need_binding():
    assert derive_constants(SUB).phases is None


def test_derive_constants_bundles_everything():
    p = SUB.bind(50_000)
    dc = derive_constants(p)
    assert dc.criticality is Criticality.SUBCRITICAL
    assert dc.critical_constant == pytest.approx(
        critical_constant_oracle(3, 0.5), rel=1e-12)
    assert dc.root_low is not None and dc.subcritical is not None
    assert isinstance(dc.phases, PhaseLengths)
    d = dc.to_dict()
    assert d["criticality"] == "subcritical"
    assert d["phases"]["steps"] == dc.phases.steps

    s = derive_constants(SUPER.bind(1000))
    assert s.criticality is Criticality.SUPERCRITICAL
    assert s.subcritical is None
    assert s.root_low is None


# sha256 of DerivedConstants.to_dict() (JSON, sorted keys), pinned before
# derive_constants reused its own roots for the subcritical constants
DERIVED_DIGESTS = (
    (SUB.bind(50_000),
     "5be1e55722deb73afa75c28639bbf8ae6b519752e89f7537f3d2b6eb4995d9cf"),
    (ModelParams(r=3, c=0.1, alpha=1.0, d=198.0).bind(19_900),
     "c50c9fc8508ba23d1e07b2b9d4b6b6b2f6553ddfff1617af661261aba9c097c6"),
    (ModelParams(r=4, c=0.2, alpha=1.0, d=500.0).bind(10_000),
     "4f4b95ee931602e32b67268616bd04d9e107681f28a395dd65ca5868f0b60944"),
    (SUPER.bind(1000),
     "f678b11b2ea49068f13e88e7b8820cb2a79e3ccd38c437ed9c66610b9b173eb6"),
    (SUB, "306e0c6b63fffe5b007e2486a12435e03d2bbb32d29cc075c5536c25e321064d"),
)


def test_derive_constants_solves_the_roots_once(monkeypatch):
    calls = []
    real = theory.stationary_and_roots

    def counted(p):
        calls.append(p)
        return real(p)
    monkeypatch.setattr(theory, "stationary_and_roots", counted)
    for p, want in DERIVED_DIGESTS:
        calls.clear()
        dc = derive_constants(p)
        assert calls == [p]
        text = json.dumps(dc.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want


def _brent_pair(f, a, b, xtol, rtol):
    """(_brentq's outcome, scipy.optimize.brentq's), each a pair: the root
    or the type of the error raised, and the points where it called f."""
    # the oracle: only the tests import scipy
    from scipy.optimize import brentq
    out = []
    for solve in (theory._brentq, brentq):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)
        try:
            got = solve(counted, a, b, xtol=xtol, rtol=rtol)
        except (ValueError, RuntimeError) as exc:
            got = type(exc)
        out.append((got, calls))
    return out


def test_brentq_equals_scipy_on_density_brackets():
    # both roots of random subcritical densities, bracketed and toleranced
    # as stationary_and_roots does; every root and every probe is equal
    rng = np.random.default_rng(27)
    solved = 0
    while solved < 1000:
        r, alpha = int(rng.integers(3, 8)), float(rng.uniform(0.05, 5.0))
        cstar = critical_initial_constant(r, alpha)
        c = float(rng.uniform(0.0, 0.999)) * cstar
        t_min = stationary_t_oracle(r, c, alpha)

        def g(t):
            return gamma_oracle(r, c, alpha, t)
        if t_min <= 0 or g(t_min) >= 0:
            continue
        hi = t_min + 1.0
        while g(hi) <= 0:
            hi = t_min + 2 * (hi - t_min)
        for a, b in ((0.0, t_min), (t_min, hi)):
            ours, scipys = _brent_pair(g, a, b, 1e-15, 8.9e-16)
            assert isinstance(ours[0], float), (r, c, alpha, a, b)
            assert ours[0].hex() == scipys[0].hex() and ours[1] == scipys[1]
            solved += 1


def test_brentq_keeps_scipys_checks():
    def step(x):
        return 1.0 if x >= 0 else -1.0

    def nan_inside(x):
        return math.nan if abs(x) < 0.5 else x
    cases = [
        (lambda x: x - 1.0, 1.0, 3.0, 1e-15, 8.9e-16, 1.0),     # endpoint root
        (lambda x: x - 1.0, 0.0, 1.0, 1e-15, 8.9e-16, 1.0),
        (lambda x: x - 1.0, 2.0, 3.0, 1e-15, 8.9e-16, ValueError),  # same sign
        (lambda x: math.nan, 0.0, 1.0, 1e-15, 8.9e-16, ValueError),
        (nan_inside, -1.0, 2.0, 1e-15, 8.9e-16, ValueError),   # NaN mid-way
        # a jump at 0 bisects, and the relative tolerance shrinks with x:
        # [-1, 1] down to 1e-300 needs about 1000 halvings
        (step, -1.0, 1.0, 1e-300, 8.9e-16, RuntimeError),
        (step, -1.0, 1.0, 1e-15, 8.9e-16, None),
        # values near 1e-200: the extrapolation's denominator underflows
        # to 0, where brentq.c's step is an infinity and bisects
        (lambda x: 1e-200 * (x - 0.4) ** 3, 0.0, 3.0, 1e-15, 8.9e-16, None),
        (lambda x: 1e-200 * (x - 0.4), -1.0, 2.0, 1e-15, 8.9e-16, None),
        # a wide xtol, where the "- delta" of the short-step test decides
        (lambda x: x * x - 2, -2.4, 0.0, 0.1, 8.9e-16, -1.4162131519274384),
    ]
    for f, a, b, xtol, rtol, want in cases:
        ours, scipys = _brent_pair(f, a, b, xtol, rtol)
        assert ours == scipys
        if want is not None:
            assert ours[0] == want
    # the cap: two endpoint values, then one per iteration
    assert theory.BRENT_MAXITER == 100
    assert len(_brent_pair(step, -1.0, 1.0, 1e-300, 8.9e-16)[0][1]) == 102
