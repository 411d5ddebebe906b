"""The benchmark tracer's bindings resolve to the functions it times.

perfbench/tracing.py swaps each (owner, attribute) of its PATCHES for a
timing wrapper; a binding renamed in the package would leave its traced
layer silently empty.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, name, *_ in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), (
            f"{name}: {owner.__name__}.{attr} is not a callable")
