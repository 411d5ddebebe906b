"""Monte Carlo harness: exact oracle, bisection, scans, reports."""

import hashlib
import json
import math
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import edge_lists, random_hypergraph
from hyperboot import experiments
from hyperboot import rng as rng_mod
from hyperboot.builders import (SizeGuardError, bootstrap_lift,
                                complete_uniform, load_pattern)
from hyperboot.engine import closure, sample_edge_set, sample_vertex_set
from hyperboot.experiments import (ExperimentSpec, ModelRecipe,
                                   estimate_pc_bisection,
                                   percolation_probability_mc,
                                   record_trajectory,
                                   render_report, run_experiment,
                                   threshold_scan,
                                   wilson_interval)
from hyperboot.hypergraph import Hypergraph
from hyperboot.processes import CoinOracle, full_pipeline
from hyperboot.theory import ModelParams
from oracles import (exact_percolation_probability, percolation_prob_oracle,
                     wilson_oracle)

SINGLE_EDGE = Hypergraph.from_rows(3, 3, [[0, 1, 2]])


def test_wilson_interval_matches_closed_form():
    for s, t in [(0, 10), (10, 10), (7, 13), (199, 400)]:
        lo, hi = wilson_interval(s, t)
        olo, ohi = wilson_oracle(s, t, 1.959963984540054)
        assert lo == pytest.approx(olo, abs=1e-12)
        assert hi == pytest.approx(ohi, abs=1e-12)
        assert 0.0 <= lo <= hi <= 1.0


def test_wilson_bounds_never_fall_as_successes_grow():
    """Why a bisection has no monotonicity warning: its evaluations share one
    trial set and one trial count, so successes never fall as p grows, and
    neither Wilson bound falls as successes grow at a fixed trial count."""
    for trials in range(1, 501):
        bounds = np.array([wilson_interval(s, trials)
                           for s in range(trials + 1)])
        assert (np.diff(bounds, axis=0) >= 0).all(), trials


def test_mc_degenerate_densities_are_exact():
    H = complete_uniform(4, 3)
    res1 = percolation_probability_mc(H, 1.0, 0.7, trials=200, seed=1)
    assert res1.successes == 200 and res1.fraction == 1.0
    res0 = percolation_probability_mc(H, 0.0, 0.7, trials=200, seed=1)
    assert res0.successes == 0 and res0.fraction == 0.0


def test_mc_single_edge_close_to_half():
    res = percolation_probability_mc(SINGLE_EDGE, 0.5, 1.0, trials=2000,
                                     seed=42)
    lo, hi = res.ci
    assert lo <= 0.5 <= hi
    assert abs(res.fraction - 0.5) < 0.05


def test_mc_keeps_no_reference_to_the_host():
    H = bootstrap_lift(complete_uniform(12, 2), load_pattern("k3"))
    before = sys.getrefcount(H)
    results = [percolation_probability_mc(H, 0.3, 0.5, trials=12, seed=3,
                                          workers=w) for w in (1, 2)]
    assert sys.getrefcount(H) == before
    assert results[0] == results[1]


def test_mc_rejects_zero_trials():
    with pytest.raises(ValueError):
        percolation_probability_mc(SINGLE_EDGE, 0.5, 1.0, trials=0, seed=0)


@pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2"])
def test_mc_worker_count_must_be_a_positive_integer(workers):
    with pytest.raises(ValueError, match="workers"):
        percolation_probability_mc(SINGLE_EDGE, 0.5, 1.0, 10, 1, workers)


@pytest.mark.parametrize("workers", [0, True, 2.5])
def test_scan_and_bisection_check_the_worker_count_up_front(workers):
    # a bisection with tol >= 1 evaluates nothing, and still refuses
    with pytest.raises(ValueError, match="workers"):
        estimate_pc_bisection(SINGLE_EDGE, 0.5, 1, trials=20, tol=2.0,
                              workers=workers)
    with pytest.raises(ValueError, match="workers"):
        threshold_scan(SINGLE_EDGE, [0.5], 1.0, 4.0, 10, 1, workers)


SEED_ENTRIES = {
    "substream": lambda seed: rng_mod.substream(seed, rng_mod.TRIAL),
    "stream_key": lambda seed: rng_mod.stream_key(seed, rng_mod.TRIAL),
    "percolation_probability_mc": lambda seed: percolation_probability_mc(
        SINGLE_EDGE, 0.5, 0.5, 5, seed),
    "threshold_scan": lambda seed: threshold_scan(SINGLE_EDGE, [0.5], 1.0,
                                                  4.0, 5, seed),
    # tol >= 1: no evaluation, so the trial set itself refuses the seed
    "estimate_pc_bisection": lambda seed: estimate_pc_bisection(
        SINGLE_EDGE, 0.5, seed, trials=20, tol=2.0),
    "full_pipeline": lambda seed: full_pipeline(
        SINGLE_EDGE, ModelParams(r=3, c=0.5, alpha=1.0, d=4.0), seed).trace,
    # the full_pipeline seed record_trajectory derives for a later run
    "pipeline_seed": lambda seed: record_trajectory(
        SINGLE_EDGE, ModelParams(r=3, c=0.5, alpha=1.0, d=4.0), seed,
        index=1),
    "record_trajectory": lambda seed: record_trajectory(
        SINGLE_EDGE, ModelParams(r=3, c=0.5, alpha=1.0, d=4.0), seed),
}


@pytest.mark.parametrize("seed", [True, 2.0, np.float64(3.0), "3", -1,
                                  2 ** 64])
@pytest.mark.parametrize("entry", sorted(SEED_ENTRIES))
def test_seed_must_be_an_integer_in_64_bits(entry, seed):
    with pytest.raises(ValueError, match=re.escape(f"seed={seed!r}")):
        SEED_ENTRIES[entry](seed)


@pytest.mark.parametrize("entry", sorted(SEED_ENTRIES))
def test_seed_of_a_numpy_integer_type_is_its_value(entry):
    for seed in (np.uint64(2 ** 64 - 1), np.int64(7)):
        got, want = SEED_ENTRIES[entry](seed), SEED_ENTRIES[entry](int(seed))
        if isinstance(want, np.random.Generator):
            got, want = got.random(4), want.random(4)
        if isinstance(want, np.ndarray):
            got, want = got.tolist(), want.tolist()
        assert got == want


def test_mc_runs_at_most_cpu_count_threads(monkeypatch):
    H = bootstrap_lift(complete_uniform(12, 2), load_pattern("k3"))
    want = percolation_probability_mc(H, 0.3, 0.5, trials=16, seed=3)
    pools, asked = [], []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            pools.append(max_workers)
    percolates = experiments._TrialSet.percolates

    def recorded(trial_set, k, p, keep):
        asked.append((k, threading.get_ident()))
        return percolates(trial_set, k, p, keep)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments._TrialSet, "percolates", recorded)
    # (cores, workers, threads): at most min(workers, trials, cores) threads
    for cores, workers, threads in ((2, 8, 2), (None, 8, 1), (1, 3, 1),
                                    (2, 1, 1), (4, 3, 3), (4, 40, 4)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        pools.clear()
        asked.clear()
        got = percolation_probability_mc(H, 0.3, 0.5, trials=16, seed=3,
                                         workers=workers)
        assert got == want
        assert sorted(k for k, _ in asked) == list(range(16))
        askers = {ident for _, ident in asked}
        if threads == 1:
            # no pool: the caller counts every trial itself
            assert pools == [] and askers == {threading.get_ident()}
        else:
            assert pools == [threads] and len(askers) <= threads


def test_mc_error_in_a_pool_thread_cancels_the_queued_trials(monkeypatch):
    # trial 1 fails in a pool thread; the trials still queued are cancelled
    # instead of counted, so few of the 50 are asked
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    asked = []

    def percolates(trial_set, k, p, keep):
        asked.append(k)
        if k == 1:
            raise RuntimeError("trial 1 failed")
        time.sleep(0.01)
        return False
    monkeypatch.setattr(experiments._TrialSet, "percolates", percolates)
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        percolation_probability_mc(SINGLE_EDGE, 0.5, 1.0, 50, 1, workers=2)
    assert 1 in asked and len(asked) < 10


def test_mc_error_in_one_thread_stops_the_others(monkeypatch):
    # trial 0 fails once another thread is counting; that thread then stops
    # after its current trial instead of counting all 100
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started, counted = threading.Event(), []

    def percolates(trial_set, k, p, keep):
        if k == 0:
            assert started.wait(10)
            raise KeyboardInterrupt
        started.set()
        counted.append(k)
        time.sleep(0.01)
        return False
    monkeypatch.setattr(experiments._TrialSet, "percolates", percolates)
    with pytest.raises(KeyboardInterrupt):
        percolation_probability_mc(SINGLE_EDGE, 0.5, 1.0, 100, 1, workers=2)
    assert 1 <= len(counted) < 10


class _RecordingPool(ThreadPoolExecutor):
    """A ThreadPoolExecutor that logs its creation and its shutdowns."""
    log: list = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.log.append(f"made {max_workers}")

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        self.log.append("shut")


def test_scan_and_bisection_reuse_one_pool(monkeypatch):
    H = bootstrap_lift(complete_uniform(12, 2), load_pattern("k3"))
    runs = {
        "scan": lambda workers: threshold_scan(
            H, [0.25, 0.8, 1.4, 2.0], 1.0, 10.0, 21, 4, workers),
        "bisection": lambda workers: estimate_pc_bisection(
            H, 10.0 ** -0.5, 4, trials=21, tol=0.05, d=10.0,
            workers=workers),
    }
    want = {name: run(1) for name, run in runs.items()}
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "log", [])
    for name, run in runs.items():
        _RecordingPool.log.clear()
        assert run(2) == want[name]
        # one two-thread pool for all the evaluations, shut by the return
        assert _RecordingPool.log == ["made 2", "shut"]
    # an error in a pool thread cancels the queued trials and shuts the pool
    asked = []
    percolates = experiments._TrialSet.percolates

    def failing(trial_set, k, p, keep):
        asked.append(k)
        if len(asked) == 31:   # the tenth call of the second evaluation
            raise RuntimeError("a trial failed")
        time.sleep(0.005)
        return percolates(trial_set, k, p, keep)
    monkeypatch.setattr(experiments._TrialSet, "percolates", failing)
    _RecordingPool.log.clear()
    with pytest.raises(RuntimeError, match="a trial failed"):
        runs["scan"](2)
    assert _RecordingPool.log == ["made 2", "shut"]
    assert len(asked) < 40


def test_exact_oracle_complete_4_3():
    assert exact_percolation_probability(
        complete_uniform(4, 3), 0.5, 1.0) == pytest.approx(11 / 16, abs=1e-12)


def test_exact_oracle_dead_coins_need_full_start():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        H = random_hypergraph(rng, n, 3, 4)
        p = float(rng.uniform(0.1, 0.9))
        assert exact_percolation_probability(H, p, 0.0) == pytest.approx(
            p ** n, abs=1e-12)


def test_exact_oracle_single_edge_cubic():
    for p in (0.0, 0.2, 0.5, 0.8, 1.0):
        want = 3 * p * p - 2 * p ** 3
        assert exact_percolation_probability(
            SINGLE_EDGE, p, 1.0) == pytest.approx(want, abs=1e-12)


def test_exact_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        exact_percolation_probability(complete_uniform(6, 3), 0.5, 0.5)


def test_exact_oracle_matches_total_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(3, 6))
        H = random_hypergraph(rng, n, 3, int(rng.integers(1, 8)))
        p = float(rng.uniform(0.0, 1.0))
        q = float(rng.uniform(0.0, 1.0))
        want = percolation_prob_oracle(n, edge_lists(H), p, q)
        assert exact_percolation_probability(H, p, q) == pytest.approx(
            want, abs=1e-9)


def test_mc_tracks_exact_on_tiny_instances():
    rng = np.random.default_rng(7)
    good = 0
    for k in range(50):
        n = int(rng.integers(4, 9))
        H = random_hypergraph(rng, n, 3, int(rng.integers(2, 10)))
        p = float(rng.uniform(0.2, 0.8))
        q = float(rng.uniform(0.3, 1.0))
        exact = exact_percolation_probability(H, p, q)
        mc = percolation_probability_mc(H, p, q, trials=400, seed=1000 + k)
        if abs(mc.fraction - exact) <= 0.08:
            good += 1
    assert good >= 48


def test_mc_profile_exactly_monotone_in_p():
    # per-trial uniforms are shared across p, so the empirical profile is a
    # pointwise-coupled step function: monotone without any CI slack
    rng = np.random.default_rng(9)
    H = random_hypergraph(rng, 12, 3, 30)
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    for q in (0.4, 1.0):
        fractions = [percolation_probability_mc(H, p, q, trials=150,
                                                seed=5).fraction
                     for p in grid]
        assert fractions == sorted(fractions)


def test_mc_profile_exactly_monotone_in_q():
    rng = np.random.default_rng(10)
    H = random_hypergraph(rng, 12, 3, 30)
    for p in (0.3, 0.6):
        fractions = [percolation_probability_mc(H, p, q, trials=150,
                                                seed=6).fraction
                     for q in (0.2, 0.5, 0.8, 1.0)]
        assert fractions == sorted(fractions)


def test_bisection_single_edge_threshold():
    est = estimate_pc_bisection(SINGLE_EDGE, q=1.0, seed=11, trials=2000,
                                tol=0.02)
    assert 0.48 <= est.p_hat <= 0.52
    assert est.ci_low <= est.p_hat <= est.ci_high
    # every evaluation is reproducible from (seed, p)
    for ev in est.evaluations:
        again = percolation_probability_mc(SINGLE_EDGE, ev.p, 1.0,
                                           trials=ev.trials, seed=11)
        assert again.successes == ev.successes


def test_bisection_rejects_thin_trials():
    with pytest.raises(ValueError):
        estimate_pc_bisection(SINGLE_EDGE, q=1.0, seed=0, trials=10)


def test_bisection_nonincreasing_in_q():
    H = complete_uniform(6, 3)
    tol = 0.005
    hats = [estimate_pc_bisection(H, q=q, seed=13, trials=400, tol=tol).p_hat
            for q in (0.3, 0.6, 1.0)]
    assert hats[0] >= hats[1] - 2 * tol
    assert hats[1] >= hats[2] - 2 * tol


def test_bisection_scaled_estimate():
    est = estimate_pc_bisection(SINGLE_EDGE, q=1.0, seed=11, trials=100,
                                tol=0.02, d=4.0)
    assert est.scaled == pytest.approx(est.p_hat * 2.0)


def test_threshold_scan_crossing_direction():
    H = bootstrap_lift(complete_uniform(60, 2), load_pattern("k3"))
    d = 58.0
    rows = threshold_scan(H, grid=[0.125, 0.5], alpha=1.0, d=d, trials=30,
                          seed=17)
    assert [row.c for row in rows] == [0.125, 0.5]
    low, high = rows
    assert low.result.fraction < high.result.fraction
    assert low.predicted == "subcritical"
    assert high.predicted == "supercritical"
    for row in rows:
        assert row.result.p == pytest.approx(row.c * d ** -0.5)


def test_threshold_scan_calls_closure_once_per_kept_trial(monkeypatch):
    # the benchmark tracer (perfbench/tracing.py) counts these two bindings
    # of the experiments module on scan_k200 and requires both counts
    calls = {"closure": 0, "percolation_probability_mc": 0}
    for name in calls:
        real = getattr(experiments, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    trial_sets = []
    real_set = experiments._TrialSet
    monkeypatch.setattr(experiments, "_TrialSet",
                        lambda *args: trial_sets.append(real_set(*args))
                        or trial_sets[-1])
    H = bootstrap_lift(complete_uniform(20, 2), load_pattern("k3"))
    grid, trials = [0.125, 0.25, 0.5, 1.0, 2.0], 7
    # q = alpha / 2: a kept trial is closed at its first grid point and only
    # grown after; at q = 1 every success host is H and no trial fits
    for alpha, closures in ((0.05, trials), (2.0, len(grid) * trials)):
        for name in calls:
            calls[name] = 0
        threshold_scan(H, grid=grid, alpha=alpha, d=4.0, trials=trials,
                       seed=5)
        assert len(trial_sets.pop().kept) == (trials if alpha < 1 else 0)
        assert calls == {"closure": closures,
                         "percolation_probability_mc": len(grid)}


def _fresh_mc(H, p, q, trials, seed, workers=1, *, trial_set=None):
    """percolation_probability_mc's reference: every (trial, p) drawn afresh
    and closed on H restricted to the success mask."""
    def percolates(k):
        init = sample_vertex_set(H, p, rng_mod.substream(
            seed, rng_mod.TRIAL, k, rng_mod.VERTEX_DRAW))
        won = sample_edge_set(H, q, rng_mod.substream(
            seed, rng_mod.TRIAL, k, rng_mod.EDGE_COIN))
        return len(closure(H, init, won)) == H.n
    return experiments.MCResult(p=p, q=q, trials=trials,
                                successes=sum(map(percolates, range(trials))))


def _kept_edges(trial_set) -> int:
    return sum(trial.host.num_edges for trial in trial_set.kept.values())


def test_scan_and_bisection_match_fresh_draws(monkeypatch):
    rng = np.random.default_rng(21)
    # (host, alpha, d, trials, workers); alpha * d**-0.5 is q at r = 3
    cases = [(random_hypergraph(rng, int(rng.integers(6, 30)), 3,
                                int(rng.integers(5, 60))),
              float(rng.uniform(0.5, 2.0)), 4.0, 25, 1) for _ in range(6)]
    cases += [
        (complete_uniform(7, 3), 2.0, 4.0, 30, 1),          # q = 1
        (Hypergraph.from_rows(6, 3, []), 1.0, 4.0, 20, 1),  # no edges
        (bootstrap_lift(complete_uniform(12, 2), load_pattern("k3")),
         1.0, 10.0, 40, 1),                                # past the bound
        (bootstrap_lift(complete_uniform(12, 2), load_pattern("k3")),
         1.0, 10.0, 21, 2),
    ]
    grid = [0.25, 0.8, 1.4, 2.0]
    for H, alpha, d, trials, workers in cases:
        q = alpha * d ** -0.5
        got_rows = threshold_scan(H, grid, alpha, d, trials, seed=4,
                                  workers=workers)
        got_est = estimate_pc_bisection(H, q, seed=4, trials=trials,
                                        tol=0.05, d=d, workers=workers)
        with monkeypatch.context() as m:
            m.setattr(experiments, "percolation_probability_mc", _fresh_mc)
            want_rows = threshold_scan(H, grid, alpha, d, trials, seed=4)
            want_est = estimate_pc_bisection(H, q, seed=4, trials=trials,
                                             tol=0.05, d=d)
        assert got_rows == want_rows
        assert got_est == want_est


def test_trial_set_keeps_trials_within_the_host_size(monkeypatch):
    H = bootstrap_lift(complete_uniform(12, 2), load_pattern("k3"))
    for q, trials in ((0.3, 40), (1.0, 6), (0.0, 10)):
        trial_set = experiments._TrialSet(H, q, 8)
        for p in (0.1, 0.3, 0.5, 0.3):
            got = percolation_probability_mc(H, p, q, trials, 8,
                                             trial_set=trial_set)
            assert got == _fresh_mc(H, p, q, trials, 8)
            assert _kept_edges(trial_set) <= H.num_edges
        assert len(trial_set.kept) < trials
    # the threads of a multi-worker evaluation share the set; four threads
    # and a short switch interval interleave their charges of its room
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with experiments._TrialSet(H, 0.3, 8) as trial_set:
        draws = []
        draw = trial_set._draw
        monkeypatch.setattr(trial_set, "_draw", lambda k: draws.append(k)
                            or draw(k))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = percolation_probability_mc(H, 0.3, 0.3, 40, 8, workers=8,
                                             trial_set=trial_set)
        finally:
            sys.setswitchinterval(interval)
        assert got == _fresh_mc(H, 0.3, 0.3, 40, 8)
        kept = set(trial_set.kept)
        assert 0 < len(kept) < 40 and trial_set._room >= 0
        # uniforms, success rows and CSR, then the closure's mask and int8
        # counts
        assert experiments._nbytes(H) == trial_set._room + sum(
            t.u.nbytes + experiments._nbytes(t.host) + t.host.n
            + t.host.num_edges for t in trial_set.kept.values())
        # another p draws again exactly the trials that were not kept
        draws.clear()
        got = percolation_probability_mc(H, 0.5, 0.3, 40, 8, workers=2,
                                         trial_set=trial_set)
        assert got == _fresh_mc(H, 0.5, 0.3, 40, 8)
        assert sorted(draws) == sorted(set(range(40)) - kept)
    for host, q, seed in ((complete_uniform(5, 3), 0.3, 8), (H, 0.4, 8),
                          (H, 0.3, 9)):
        with pytest.raises(ValueError, match="trial set"):
            percolation_probability_mc(host, 0.3, q, 10, seed,
                                       trial_set=trial_set)


def _p_orders(rng, ps: list) -> list:
    """ps ascending, descending, and in a random order asked again in
    another, the first three of it twice in a row."""
    first, again = (rng.permutation(ps).tolist() for _ in range(2))
    return [sorted(ps), sorted(ps, reverse=True),
            [p for p in first[:3] for _ in range(2)] + first[3:] + again]


@pytest.mark.parametrize("workers", [1, 2])
def test_trial_set_answers_match_fresh_draws_in_any_p_order(monkeypatch,
                                                             workers):
    # a spare core, so that at two workers a pool thread asks the odd trials
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng = np.random.default_rng(31)
    trials, seed = 10, 6
    hosts = [
        (random_hypergraph(rng, 24, 3, 70), 0.7),
        (bootstrap_lift(complete_uniform(9, 2), load_pattern("k3")), 0.6),
        # vertices 5..7 lie in no edge, so only p above their uniforms
        # percolates
        (Hypergraph.from_rows(8, 3, [[0, 1, 2], [1, 2, 3], [2, 3, 4]]), 0.8),
        (complete_uniform(7, 3), 0.0),
        (complete_uniform(7, 3), 1.0),
        (Hypergraph.from_rows(6, 3, []), 0.5),
        (Hypergraph.from_rows(0, 3, []), 0.5),
    ]
    for H, q in hosts:
        uniforms = np.concatenate([rng_mod.substream(
            seed, rng_mod.TRIAL, k, rng_mod.VERTEX_DRAW).random(H.n)
            for k in range(trials)])
        # p at some trials' vertex uniforms (u < p fails there) and at the
        # next double above each (it holds), plus a grid from 0 to 1
        at = rng.choice(uniforms, size=min(6, uniforms.size), replace=False)
        ps = sorted({*np.linspace(0.0, 1.0, 11).tolist(), *at.tolist(),
                     *np.nextafter(at, 1.0).tolist()})
        want = {p: _fresh_mc(H, p, q, trials, seed) for p in ps}
        # the host's own room keeps some trials; an unbounded one keeps all
        for room in (None, math.inf):
            for order in _p_orders(rng, ps):
                with experiments._TrialSet(H, q, seed) as trial_set:
                    if room is not None:
                        trial_set._room = room
                    for p in order:
                        assert percolation_probability_mc(
                            H, p, q, trials, seed, workers,
                            trial_set=trial_set) == want[p], (H, q, p)
                if room is not None:
                    assert len(trial_set.kept) == trials


def test_scan_draws_each_trial_once_when_all_fit(monkeypatch):
    calls = []
    real = rng_mod.substream

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(rng_mod, "substream", counted)
    # a spare core, so that at two workers a pool thread draws the odd trials
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    H = bootstrap_lift(complete_uniform(40, 2), load_pattern("k3"))
    grid, trials = [0.125, 0.25, 0.5], 5
    for workers in (1, 2):
        calls.clear()
        threshold_scan(H, grid, alpha=0.5, d=38.0, trials=trials, seed=5,
                       workers=workers)
        assert len(calls) == 2 * trials
        calls.clear()
        est = estimate_pc_bisection(complete_uniform(30, 3), 0.04, seed=5,
                                    trials=20, tol=0.05, workers=workers)
        assert len(est.evaluations) > 1 and len(calls) == 2 * 20


@pytest.mark.parametrize("trials", [True, 2.5, 30.0, "30"])
@pytest.mark.parametrize("entry", ["percolation_probability_mc",
                                   "threshold_scan", "estimate_pc_bisection",
                                   "ExperimentSpec"])
def test_trial_count_must_be_an_integer(entry, trials):
    calls = {
        "percolation_probability_mc": lambda: percolation_probability_mc(
            SINGLE_EDGE, 0.5, 1.0, trials, 1),
        "threshold_scan": lambda: threshold_scan(SINGLE_EDGE, [0.5], 1.0,
                                                 4.0, trials, 1),
        "estimate_pc_bisection": lambda: estimate_pc_bisection(
            SINGLE_EDGE, 1.0, 1, trials=trials),
        "ExperimentSpec": lambda: ExperimentSpec(
            model=ModelRecipe(kind="complete", n=4, k=3),
            params=ModelParams(r=3, c=0.5, alpha=1.0, d=3.0), trials=trials,
            seed=0, mode="percolation_prob"),
    }
    with pytest.raises(ValueError, match="trials"):
        calls[entry]()


def test_mc_reports_a_numpy_trial_count_as_an_int():
    res = percolation_probability_mc(SINGLE_EDGE, 0.5, 1.0, np.int64(30), 1)
    assert type(res.trials) is int
    json.dumps(res.to_dict())


def test_threshold_scan_rejects_empty_grid():
    H = complete_uniform(4, 3)
    with pytest.raises(ValueError):
        threshold_scan(H, grid=[], alpha=1.0, d=3.0, trials=30, seed=0)


# sha256 of the threshold_scan rows and of the bisection estimate on the
# triangle lift of K_40 (d = 38).  Pinned from the one-edge-at-a-time queue
# closure; any closure or sampling change must reproduce them byte for byte.
SCAN_DIGESTS = {
    0: "2dadc3edb0e7be3094c2e3d68dc8a451a817bb7b3d555445b77efac510b48863",
    1: "57d761758d70e671ef0fd203e8957ea92a2d7355bce4217f72b9d2f4910e3275",
    2: "51a50665eda84ccc7ecf2a94a0200be4448f09ed6d980643fb8ad19e428bcf35",
}
PC_DIGESTS = {
    0: "e853bef33eccb98b99b281a44584f9f151554ddf619adaccb049eeab1f343df4",
    1: "938f6d5764bca22ce002e55e3a63425fdc4da81edd379552766dfae0180b4b81",
    2: "db90587b0bbf297c60c3424ecb84e2cf883bf6610ccbb1e60c18aa5603e5fc55",
}


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_monte_carlo_outputs_match_pinned_digests():
    H = bootstrap_lift(complete_uniform(40, 2), load_pattern("k3"))
    d = 38.0
    for seed, want in SCAN_DIGESTS.items():
        rows = threshold_scan(H, grid=[0.125, 0.5, 1.0, 2.0], alpha=1.0, d=d,
                              trials=20, seed=seed)
        assert _sha256([row.to_dict() for row in rows]) == want, seed
    for seed, want in PC_DIGESTS.items():
        est = estimate_pc_bisection(H, q=0.5, seed=seed, trials=60, tol=0.02,
                                    d=d)
        assert _sha256(est.to_dict()) == want, seed


def test_record_trajectory_shape_and_predictions():
    H = bootstrap_lift(complete_uniform(40, 2), load_pattern("k3"))
    params = ModelParams(r=3, c=0.5, alpha=1.0, d=38.0)
    trace = record_trajectory(H, params, seed=19, index=0,
                              star_indices=((0, 0), (1, 0)),
                              star_vertices=25)
    assert trace.rows[0].m == 0
    assert trace.rows[0].gamma_pred == pytest.approx(0.25 * H.n)
    assert trace.rows[-1].phase == "quiescent"
    by_time: dict = {}
    for s in trace.stars:
        by_time.setdefault(s.t, {})[(s.i, s.j)] = s
    assert len(by_time) == 2   # time zero and end of the single-reveal phase
    start = by_time[0.0]
    # every vertex sees its full degree of live edges at time zero
    assert start[(0, 0)].mean == pytest.approx(38.0)
    assert start[(0, 0)].predicted == pytest.approx(38.0)
    assert start[(1, 0)].predicted == pytest.approx(2 * 0.5 * 38.0 ** 0.5)
    assert start[(1, 0)].mean == pytest.approx(start[(1, 0)].predicted,
                                               rel=0.4)


def test_record_trajectory_validates_like_the_pipeline():
    H = complete_uniform(6, 3)
    with pytest.raises(ValueError):
        record_trajectory(H, ModelParams(r=4, c=0.5, alpha=1.0, d=10.0), 0)


def test_model_recipe_round_trip():
    for recipe in (ModelRecipe(kind="complete", n=5, k=3),
                   ModelRecipe(kind="lift", n=12, pattern="k3"),
                   ModelRecipe(kind="inline",
                               hypergraph=complete_uniform(4, 3))):
        again = ModelRecipe.from_dict(recipe.to_dict())
        H1, H2 = recipe.build(), again.build()
        assert edge_lists(H1) == edge_lists(H2)
        assert (H1.n, H1.r) == (H2.n, H2.r)


def test_model_recipe_refuses_non_integer_fields():
    blob = {"kind": "complete", "n": 6, "k": 3}
    assert ModelRecipe.from_dict(blob).to_dict() == blob
    # a string, an integral float or a bool is refused, not converted
    for key, bad in (("n", "6"), ("k", 3.0), ("n", True)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            ModelRecipe.from_dict(dict(blob, **{key: bad}))


def test_experiment_spec_validation():
    model = ModelRecipe(kind="complete", n=4, k=3)
    params = ModelParams(r=3, c=0.5, alpha=1.0, d=3.0)
    with pytest.raises(ValueError):
        ExperimentSpec(model=model, params=params, trials=0, seed=0,
                       mode="percolation_prob")
    with pytest.raises(ValueError):
        ExperimentSpec(model=model, params=params, trials=10, seed=0,
                       mode="warp")
    with pytest.raises(ValueError):
        ExperimentSpec(model=model, params=params, trials=10, seed=0,
                       mode="scan", grid=())
    for stride in (0, -1):
        with pytest.raises(ValueError):
            ExperimentSpec(model=model, params=params, trials=10, seed=0,
                           mode="trajectory", trace_stride=stride)
    for stride in (True, 2.5):
        with pytest.raises(ValueError, match="trace_stride"):
            ExperimentSpec(model=model, params=params, trials=10, seed=0,
                           mode="trajectory", trace_stride=stride)
    for count in (-3, 2.5, True):
        with pytest.raises(ValueError, match="star_vertices"):
            ExperimentSpec(model=model, params=params, trials=10, seed=0,
                           mode="trajectory", star_indices=((0, 0),),
                           star_vertices=count)
    for seed in (True, 2.5, -1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec(model=model, params=params, trials=10, seed=seed,
                           mode="percolation_prob")
    spec = ExperimentSpec(model=model, params=params, trials=10, seed=0,
                          mode="trajectory", trace_stride=5)
    blob = spec.to_dict()
    assert ExperimentSpec.from_dict(blob).trace_stride == 5
    for stride in ("x", "5", 5.0):
        with pytest.raises(ValueError, match="'trace_stride'"):
            ExperimentSpec.from_dict(dict(blob, trace_stride=stride))
    spec = ExperimentSpec(model=model, params=params, trials=10, seed=3,
                          mode="percolation_prob")
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            ExperimentSpec(model=model, params=params, trials=10, seed=0,
                           mode="pc_bisect", tol=tol)


def test_experiment_spec_reads_floats_strictly():
    blob = ExperimentSpec(
        model=ModelRecipe(kind="complete", n=4, k=3),
        params=ModelParams(r=3, c=0.5, alpha=1.0, d=3.0), trials=10, seed=0,
        mode="scan", grid=(0.25, 0.5)).to_dict()
    # a JSON integer is a number; read as a float
    spec = ExperimentSpec.from_dict(
        dict(blob, grid=[1, 0.5], tol=1, params=dict(blob["params"], d=3)))
    assert spec.grid == (1.0, 0.5) and spec.tol == 1.0
    assert type(spec.params.d) is float
    for key in ("c", "alpha", "d", "K"):
        for bad in (True, "0.5", math.nan, math.inf, [0.5]):
            params = dict(blob["params"], **{key: bad})
            with pytest.raises(ValueError, match=f"'{key}'"):
                ExperimentSpec.from_dict(dict(blob, params=params))
    for bad in ([True, 0.25], ["0.25"], [math.nan], 0.5):
        with pytest.raises(ValueError, match="'grid'"):
            ExperimentSpec.from_dict(dict(blob, grid=bad))
    for bad in (False, "0.01", -math.inf, 10 ** 400):
        with pytest.raises(ValueError, match="'tol'"):
            ExperimentSpec.from_dict(dict(blob, tol=bad))


def test_run_experiment_report_shape_and_determinism():
    spec = ExperimentSpec(
        model=ModelRecipe(kind="lift", n=30, pattern="k3"),
        params=ModelParams(r=3, c=0.5, alpha=1.0, d=28.0),
        trials=60, seed=23, mode="percolation_prob")
    texts = []
    for workers in (1, 2, 4):
        outcome = run_experiment(spec, workers=workers)
        texts.append(render_report(outcome.report))
    assert texts[0] == texts[1] == texts[2]
    report = json.loads(texts[0])
    assert {"spec", "host", "constants", "environment", "result"} <= set(report)
    assert report["environment"]["seed"] == 23
    assert "version" in report["environment"]
    assert report["result"]["trials"] == 60
    assert texts[0].endswith("\n")


def test_run_experiment_trajectory_mode_emits_traces():
    spec = ExperimentSpec(
        model=ModelRecipe(kind="lift", n=20, pattern="k3"),
        params=ModelParams(r=3, c=0.4, alpha=1.0, d=18.0),
        trials=3, seed=29, mode="trajectory")
    outcome = run_experiment(spec)
    assert len(outcome.traces) == 3
    for idx, trace in enumerate(outcome.traces):
        assert trace.index == idx
        assert trace.rows[-1].phase == "quiescent"
    assert len(outcome.report["result"]["traces"]) == 3


def _never(*args, **kwargs):
    raise AssertionError("reached past the checks")


@pytest.mark.parametrize("mode", experiments.MODES)
def test_run_experiment_refuses_params_of_another_uniformity(mode,
                                                            monkeypatch):
    # a 4-uniform host under r = 3 params would run with r = 3's p, q and
    # constants; it is refused before any mode starts
    for name in ("percolation_probability_mc", "estimate_pc_bisection",
                 "threshold_scan", "record_trajectory"):
        monkeypatch.setattr(experiments, name, _never)
    spec = ExperimentSpec(model=ModelRecipe(kind="complete", n=6, k=4),
                          params=ModelParams(r=3, c=0.4, alpha=1.0, d=10.0),
                          trials=20, seed=0, mode=mode, grid=(0.4,))
    with pytest.raises(ValueError, match=re.escape(
            "hypergraph uniformity 4 != params.r 3")):
        run_experiment(spec, workers=1)


@pytest.mark.parametrize("vertices", [0, 2])
def test_record_trajectory_refuses_bad_star_indices_before_running(
        vertices, monkeypatch):
    H = complete_uniform(6, 3)
    params = ModelParams(r=3, c=0.5, alpha=1.0, d=4.0)
    trace = record_trajectory(H, params, 0, star_indices=(
        (np.int64(1), np.int64(1)),), star_vertices=vertices)
    assert len(trace.stars) == (2 if vertices else 0)
    monkeypatch.setattr(experiments, "full_pipeline", _never)
    for stars, message in [
            (((0, 0, 1),), "star index (0, 0, 1) is not a pair"),
            (((0,),), "star index (0,) is not a pair"),
            ((7,), "star index 7 is not a pair"),
            (((True, 0),), "star index (True, 0) is not a pair"),
            (((0, 0.0),), "star index (0, 0.0) is not a pair"),
            (((0, 0), (9, 9)), "marked count i=9 outside 0..2"),
            (((-1, 0),), "marked count i=-1 outside 0..2"),
            (((1, 2),), "pendant count j=2 outside 0..1")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            record_trajectory(H, params, 0, star_indices=stars,
                              star_vertices=vertices)
    for count in (True, np.bool_(True), -1, 2.5):
        with pytest.raises(ValueError, match="star_vertices"):
            record_trajectory(H, params, 0, star_indices=((0, 0),),
                              star_vertices=count)
    spec = ExperimentSpec(model=ModelRecipe(kind="complete", n=6, k=3),
                          params=params, trials=2, seed=0, mode="trajectory",
                          star_indices=((0, 0, 1),), star_vertices=vertices)
    with pytest.raises(ValueError, match="not a pair"):
        run_experiment(spec)


NUMBER_SITES = {
    "mc_p": (lambda x: percolation_probability_mc(SINGLE_EDGE, x, .5, 5, 0),
             "probability p="),
    "mc_q": (lambda x: percolation_probability_mc(SINGLE_EDGE, .5, x, 5, 0),
             "probability q="),
    "exact_p": (lambda x: exact_percolation_probability(SINGLE_EDGE, x, .5),
                "probability p="),
    "exact_q": (lambda x: exact_percolation_probability(SINGLE_EDGE, .5, x),
                "probability q="),
    "bisection_q": (lambda x: estimate_pc_bisection(SINGLE_EDGE, x, 0,
                                                    trials=20, tol=.3),
                    "probability q="),
    "bisection_tol": (lambda x: estimate_pc_bisection(SINGLE_EDGE, .5, 0,
                                                      trials=20, tol=x),
                      "tol="),
    "bisection_d": (lambda x: estimate_pc_bisection(SINGLE_EDGE, .5, 0,
                                                    trials=20, d=x),
                    "d="),
    "spec_tol": (lambda x: ExperimentSpec(
        model=ModelRecipe(kind="complete", n=4, k=3),
        params=ModelParams(r=3, c=0.5, alpha=1.0, d=3.0), trials=10, seed=0,
        mode="pc_bisect", tol=x), "tol="),
    "vertex_sample": (lambda x: sample_vertex_set(
        SINGLE_EDGE, x, np.random.default_rng(0)), "probability p="),
    "edge_sample": (lambda x: sample_edge_set(
        SINGLE_EDGE, x, np.random.default_rng(0)), "probability q="),
    "coin_oracle": (lambda x: CoinOracle(x, 0, rng_mod.EDGE_COIN),
                    "probability q="),
    "params_c": (lambda x: ModelParams(r=3, c=x, alpha=1.0, d=10.0), "c="),
    "params_alpha": (lambda x: ModelParams(r=3, c=.5, alpha=x, d=10.0),
                     "alpha="),
    "params_d": (lambda x: ModelParams(r=3, c=.5, alpha=1.0, d=x), "d="),
    "params_K": (lambda x: ModelParams(r=3, c=.5, alpha=1.0, d=10.0, K=x),
                 "K="),
    "params_r": (lambda x: ModelParams(r=x, c=.5, alpha=1.0, d=10.0), "r="),
    "scan_grid": (lambda x: threshold_scan(SINGLE_EDGE, [0.5, x], 1.0, 4.0,
                                           5, 0), "c="),
}


@pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=["bool",
                                                             "numpy_bool"])
@pytest.mark.parametrize("site", sorted(NUMBER_SITES))
def test_a_bool_is_refused_where_a_number_is_wanted(site, flag):
    # each would otherwise run with the bool as 1 and report it as true
    call, named = NUMBER_SITES[site]
    with pytest.raises(ValueError, match=re.escape(f"{named}True")):
        call(flag)


def test_a_non_integer_r_and_a_non_number_grid_value_are_refused():
    for r in (3.5, 3.0, np.float64(4.0), "3"):
        with pytest.raises(ValueError, match=re.escape(f"r={r} must be an "
                                                       "integer")):
            ModelParams(r=r, c=.5, alpha=1.0, d=10.0)
    assert ModelParams(r=np.int64(3), c=.5, alpha=1.0, d=10.0).p == (
        ModelParams(r=3, c=.5, alpha=1.0, d=10.0).p)
    with pytest.raises(ValueError, match=re.escape("c=0.5 is a str")):
        threshold_scan(SINGLE_EDGE, ["0.5"], 1.0, 4.0, 5, 0)
