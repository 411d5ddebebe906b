"""Checks of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys

import run
from tracing import LAYERS
from workloads import FULL


def test_smoke_finds_no_problems():
    assert run.smoke() == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(FULL)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (metric, unit) for metric, unit, *_ in LAYERS]


def test_every_full_scale_pool_entry_has_a_reference():
    refs = run.load_references("full")
    keys = {f"{name}/{k}" for name in ("scan_k200", "pipeline_k120", "dieout_k200")
            for k in range(FULL[name].pool_size)}
    assert keys <= refs.keys()
    census = FULL["census_k120"]
    assert sum(k.startswith("census_k120/") for k in refs) == (
        1 + census.n_states * census.n_vertices * 2 * len(census.CALLS))


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_k200",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
