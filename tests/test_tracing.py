"""The benchmark tracer's bindings resolve to the functions it times, and
every traced layer is zero or non-zero where the tracer expects.

perfbench/tracing.py swaps each (owner, attribute) of its PATCHES for a
timing wrapper; a binding renamed in the package would leave its traced
layer silently empty, and so would a call path that stops going through a
bound function (an inlined InfectionState.remove_edge, say).
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_binding_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, name, *_ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), (
            f"{name}: {owner.__name__}.{attr} is not a callable")


def test_traced_smoke_workloads_keep_the_layer_pattern(monkeypatch):
    """Each smoke workload's traced run is correct and breaks none of the
    zero/non-zero patterns of tracing.LAYERS; its spans go to the
    git-ignored perfbench/out/."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    from workloads import SMOKE
    refs = run.load_references("smoke")
    for name, workload in SMOKE.items():
        res = run.run_traced(workload, 3, refs)
        assert res.detail["pattern_violations"] == [], name
        assert res.correct, (name, res.detail["checks"],
                             res.detail["failures"])
