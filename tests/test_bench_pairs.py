"""tools/bench_pairs.py: the gain rule (nine tenths of the pairs won and a
median gap wider than the parent's quartile spread), the reason it gives for
a refused run and its up-front check of the traced workload names."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _row(parent: list, change: list, sign: int) -> dict:
    return {"parent": bench_pairs.summary(parent),
            "change": bench_pairs.summary(change),
            "change_wins": sum(sign * (y - x) > 0
                               for x, y in zip(parent, change))}


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [1.0, 1.1, 1.2, 1.3, 1.0, 1.1, 1.2, 1.3, 1.0, 1.1]
    change = [1.6] * 9 + [0.9]
    got = bench_pairs.gain(_row(parent, change, 1), 1)
    assert (got["change_wins"], got["pairs"], got["verdict"]) == (9, 10, "met")
    change[0] = 0.9
    assert bench_pairs.gain(_row(parent, change, 1), 1)["verdict"] == "not met"


def test_gain_needs_a_gap_wider_than_the_parent_spread():
    # lower is better: every pair won, but by less than the parent's spread
    parent = [10.0, 14.0] * 5
    change = [9.0, 13.0] * 5
    got = bench_pairs.gain(_row(parent, change, -1), -1)
    assert got["change_wins"] == 10 and got["median_gap"] == 1.0
    assert got["parent_quartile_spread"] == 4.0 and got["verdict"] == "not met"
    got = bench_pairs.gain(_row(parent, [5.0, 8.0] * 5, -1), -1)
    assert got["median_gap"] == 5.5 and got["verdict"] == "met"


def test_refusal_names_the_failed_checks_and_first_failures():
    detail = {"checks": {"trace_pattern": False, "scan_bytes_workers_1_eq_2":
                         True, "digests": False},
              "failures": [f"req{k}: digest x != reference y" for k in range(5)],
              "pattern_violations": ["engine.closure.calls is 0"]}
    got = bench_pairs.refusal(detail)
    assert "failed checks ['digests', 'trace_pattern']" in got
    assert "req0" in got and "req2" in got and "req3" not in got
    assert "engine.closure.calls is 0" in got
    assert "scan_bytes" not in got
    assert bench_pairs.refusal({}) == "no detail line"


def test_traced_names_are_checked_before_any_run(monkeypatch, tmp_path,
                                                 capsys):
    def never(*args):
        raise AssertionError("a run started")
    monkeypatch.setattr(bench_pairs, "run", never)
    root = str(_PATH.parents[1])
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", root, root, "--workloads", "scan_k200",
        "--traced", "pipeline_k12", "--out", str(tmp_path / "out.json")])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert "--traced pipeline_k12" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
