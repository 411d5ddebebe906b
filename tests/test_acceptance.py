"""Release gate: nine numbered criteria, one printed verdict line each.

Run as `pytest -s tests/test_acceptance.py` to watch the lines appear live;
under plain pytest the lines show up in captured output.  Every criterion
also asserts, so a FAIL line always comes with a failing test.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import edge_lists, random_hypergraph
from hyperboot import rng as rng_mod
from hyperboot.builders import (bootstrap_lift, complete_uniform,
                                k_balance_analysis, load_pattern)
from hyperboot.census import (count_general_stars, count_pendant_stars,
                              count_rooted_copies, general_star_family,
                              pendant_star_config, rooted_copies,
                              saturated_edge_config)
from hyperboot.engine import closure
from hyperboot.experiments import (ExperimentSpec, ModelRecipe,
                                   estimate_pc_bisection,
                                   exact_percolation_probability,
                                   percolation_probability_mc, render_report,
                                   run_experiment)
from hyperboot.hypergraph import check_well_behaved
from hyperboot.processes import (CoinOracle, ProcessState, full_pipeline,
                                 phase1_run, run_to_quiescence)
from hyperboot.theory import (Criticality, ModelParams, classify_criticality,
                              critical_initial_constant, open_edge_density,
                              star_density, stationary_and_roots)
from oracles import nbhd_intersection_oracle, saturated_edges_oracle

MASTER_SEED = 2026


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def k200():
    return bootstrap_lift(complete_uniform(200, 2), load_pattern("k3"))


def test_criterion_1_coupling_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(MASTER_SEED)
    mismatches = 0
    for _ in range(1000):
        r = int(rng.choice([3, 4, 5]))
        n = int(rng.integers(r, 31))
        H = random_hypergraph(rng, n, r, int(rng.integers(1, 3 * n + 1)))
        p = float(rng.random())
        q = float(rng.random())
        seed = int(rng.integers(2 ** 63))
        init = np.flatnonzero(rng.random(n) < p)
        coins = CoinOracle(q, seed, rng_mod.EDGE_COIN)
        got = run_to_quiescence(H, init, coins)
        succ = [e for e in range(H.num_edges) if coins.outcome(e)]
        if got != closure(H, init, succ):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    assert _verdict(1, "coupling oracle", ok,
                    f"{mismatches}/1000 mismatches, {elapsed:.1f}s")


def test_criterion_2_exact_probability():
    t0 = time.monotonic()
    H = complete_uniform(4, 3)
    exact = exact_percolation_probability(H, 0.5, 1.0)
    mc = percolation_probability_mc(H, 0.5, 1.0, trials=10000,
                                    seed=MASTER_SEED)
    elapsed = time.monotonic() - t0
    mc_err = abs(mc.fraction - 11 / 16)
    ok = (exact == float(Fraction(11, 16)) and mc_err <= 0.02
          and elapsed < 10.0)
    assert _verdict(2, "exact probability 11/16", ok,
                    f"exact={exact}, mc off by {mc_err:.4f}, {elapsed:.1f}s")


def test_criterion_3_sharp_threshold_crossing(k200):
    t0 = time.monotonic()
    d, cstar = 198.0, 0.25
    q = d ** -0.5
    low = percolation_probability_mc(k200, 0.5 * cstar * q, q, trials=50,
                                     seed=MASTER_SEED)
    high = percolation_probability_mc(k200, 2.0 * cstar * q, q, trials=50,
                                      seed=MASTER_SEED)
    est = estimate_pc_bisection(k200, q=q, seed=MASTER_SEED, trials=50,
                                tol=0.002, d=d)
    elapsed = time.monotonic() - t0
    ok = (low.fraction <= 0.3 and high.fraction >= 0.7
          and 0.5 * cstar <= est.scaled <= 2.0 * cstar
          and elapsed < 900.0)
    assert _verdict(
        3, "sharp-threshold crossing", ok,
        f"frac {low.fraction:.2f}/{high.fraction:.2f}, "
        f"scaled p_hat {est.scaled:.3f}, {elapsed:.0f}s")


def test_criterion_4_classifier_matches_roots():
    rng = np.random.default_rng(MASTER_SEED + 1)
    checked = 0
    bad = 0
    worst_residual = 0.0
    while checked < 1000:
        r = int(rng.integers(3, 9))
        c = float(rng.uniform(0.01, 3.0))
        alpha = float(rng.uniform(0.05, 3.0))
        threshold = (r - 2) ** (r - 2) / (r - 1) ** (r - 1)
        gap = c ** (r - 2) * alpha - threshold
        if abs(gap) < 1e-6:
            continue   # boundary dead-band excluded by construction
        checked += 1
        params = ModelParams(r=r, c=c, alpha=alpha, d=1e6)
        subcritical = classify_criticality(params) is Criticality.SUBCRITICAL
        roots = stationary_and_roots(params)
        has_roots = roots.root_low is not None
        if subcritical != (gap < 0) or has_roots != subcritical:
            bad += 1
            continue
        if has_roots:
            res = max(abs(open_edge_density(roots.root_low, params)),
                      abs(open_edge_density(roots.root_high, params)))
            worst_residual = max(worst_residual, res)
            if res > 1e-9:
                bad += 1
    worst_identity = 0.0
    for r in range(3, 11):
        for alpha in (0.2, 1.0, 2.5):
            cstar = critical_initial_constant(r, alpha)
            drift = abs(cstar ** (r - 2) * alpha
                        - (r - 2) ** (r - 2) / (r - 1) ** (r - 1))
            worst_identity = max(worst_identity, drift)
    ok = bad == 0 and worst_identity <= 1e-12
    assert _verdict(
        4, "criticality classifier", ok,
        f"{bad}/1000 disagreements, residual {worst_residual:.1e}, "
        f"identity drift {worst_identity:.1e}")


def test_criterion_5_trajectory_band(k200):
    params = ModelParams(r=3, c=0.5, alpha=1.0, d=198.0).bind(k200.n)
    horizon_steps = 2 * k200.n
    stride = k200.n // 10
    sums: dict = {}
    for seed in range(20):
        vertex_stream = rng_mod.substream(seed, rng_mod.VERTEX_DRAW)
        choice_stream = rng_mod.substream(seed, rng_mod.PROCESS_CHOICE)
        coins = CoinOracle(params.q, seed, rng_mod.EDGE_COIN)
        init = np.flatnonzero(
            vertex_stream.random(k200.n) < params.p).astype(np.int64)
        ps = ProcessState(k200, init, coins, choice_stream, params)
        phase1_run(ps, horizon_steps, trace_stride=stride)
        for row in ps.trace:
            if row.phase == "phase1":
                sums.setdefault(row.m, []).append(row.open_count)
    max_dev = 0.0
    for m, vals in sorted(sums.items()):
        t = m / k200.n
        if t > 2.0 or len(vals) < 20:
            continue
        gamma = open_edge_density(t, params)
        max_dev = max(max_dev, abs(np.mean(vals) / k200.n - gamma) / gamma)
    ok = max_dev <= 0.20
    assert _verdict(5, "trajectory band", ok,
                    f"max relative deviation {max_dev:.3f}")


def test_criterion_6_configuration_counters():
    rng = np.random.default_rng(MASTER_SEED + 2)
    bad = 0
    for trial in range(500):
        r = int(rng.choice([3, 4]))
        n = int(rng.integers(r + 2, 13))
        H = random_hypergraph(rng, n, r, int(rng.integers(4, 26)))
        infected = sorted(
            int(x) for x in rng.choice(n, int(rng.integers(0, n)),
                                       replace=False))
        v = int(rng.integers(n))
        ssize = int(rng.integers(1, r + 1))
        S = sorted(int(x) for x in rng.choice(n, ssize, replace=False))
        if (saturated_edges_oracle(edge_lists(H), infected, S)
                != count_rooted_copies(H, infected,
                                       saturated_edge_config(r, ssize), S)):
            bad += 1
        i = int(rng.integers(0, r))
        j = int(rng.integers(0, r - i))
        if (count_pendant_stars(H, infected, v, i, j)
                != count_rooted_copies(H, infected,
                                       pendant_star_config(r, i, j), [v])):
            bad += 1
        copies = [rooted_copies(H, infected, member, [v])
                  for member in general_star_family(r, i, j)]
        if count_general_stars(H, infected, v, i, j) != sum(
                len(s) for s in copies):
            bad += 1

    # mean pendant-star counts at time zero on a large regular lift
    big = bootstrap_lift(complete_uniform(500, 2), load_pattern("k3"))
    d = 498.0
    params = ModelParams(r=3, c=0.5, alpha=1.0, d=d).bind(big.n)
    stream = rng_mod.substream(MASTER_SEED, rng_mod.VERTEX_DRAW)
    infected = np.flatnonzero(stream.random(big.n) < params.p)
    picker = rng_mod.substream(MASTER_SEED, rng_mod.INSTANCE)
    sample = picker.choice(big.n, size=200, replace=False)
    worst_rel = 0.0
    for i in (0, 1):
        mean = float(np.mean([count_pendant_stars(big, infected, int(v), i, 0)
                              for v in sample]))
        predicted = star_density(0.0, i, 0, params) * d ** (1.0 - i / 2.0)
        worst_rel = max(worst_rel, abs(mean - predicted) / predicted)
    ok = bad == 0 and worst_rel <= 0.15
    assert _verdict(6, "configuration counters", ok,
                    f"{bad} exact mismatches, star mean off {worst_rel:.3f}")


def test_criterion_7_structural_checks():
    quartet = {
        "k3": (Fraction(2, 1), True),
        "k4": (Fraction(5, 2), True),
        "triangle_pendant": (Fraction(3, 2), False),
        "loose_triangle_3": (Fraction(2, 3), True),
    }
    ok = True
    for name, (density, strict) in quartet.items():
        report = k_balance_analysis(load_pattern(name))
        if report.density != density or report.strictly_balanced != strict:
            ok = False
    pendant_witness = k_balance_analysis(load_pattern("triangle_pendant"))
    if pendant_witness.witness_density != Fraction(2, 1) or len(
            pendant_witness.witness_edges) != 3:
        ok = False

    regular = []
    for n in (20, 40, 60):
        H = bootstrap_lift(complete_uniform(n, 2), load_pattern("k3"))
        report = check_well_behaved(H, d=float(n - 2), rho=(n - 2) ** -0.5,
                                    nu=float(H.n))
        regular.append(report.passes)
    ok = ok and all(regular)

    loose = bootstrap_lift(complete_uniform(12, 3),
                           load_pattern("loose_triangle_3"))
    d = loose.max_degree()
    overlap = nbhd_intersection_oracle(edge_lists(loose), 0, 1)
    ok = ok and overlap >= 0.01 * d
    assert _verdict(
        7, "structural checks", ok,
        f"regular lifts {regular}, loose overlap {overlap} vs "
        f"0.01d={0.01 * d:.0f}")


def test_criterion_8_subcritical_die_out(k200):
    params = ModelParams(r=3, c=0.1, alpha=1.0, d=198.0)
    hits = 0
    fractions = []
    for seed in range(30):
        res = full_pipeline(k200, params, seed)
        hits += res.percolated
        fractions.append(res.infected_count / k200.n)
    mean_fraction = sum(fractions) / len(fractions)
    ok = hits / 30 <= 0.10 and mean_fraction <= 0.2
    assert _verdict(8, "subcritical die-out", ok,
                    f"{hits}/30 percolated, mean fraction {mean_fraction:.3f}")


def test_criterion_9_determinism_across_workers():
    spec = ExperimentSpec(
        model=ModelRecipe(kind="lift", n=200, pattern="k3"),
        params=ModelParams(r=3, c=0.5, alpha=1.0, d=198.0),
        trials=24, seed=MASTER_SEED, mode="scan", grid=(0.125, 0.5))
    texts = [render_report(run_experiment(spec, workers=w).report)
             for w in (1, 1, 4, 8)]
    ok = texts[0] == texts[1] == texts[2] == texts[3]
    assert _verdict(9, "worker determinism", ok,
                    f"{len(texts[0])} bytes x {len(texts)} runs")
