"""The benchmark tracer (benchmarks/tracer.py) patches phaselab by name: every
name it looks up must resolve, or ``benchmarks/run.py --trace 1`` breaks."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("phaselab_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    tracer = _load_tracer()
    import phaselab.cli  # noqa: F401  (Tracer.install imports it, then reads sys.modules)
    from phaselab.operators import DensityOperator

    assert [name for name in tracer.OPERATOR_METHODS
            if not callable(getattr(DensityOperator, name, None))] == []
    assert [layer for layer in tracer.LAYERS if f"phaselab.{layer}" not in sys.modules] == []
    for key in tracer.EVOLVE_FLOWS:
        layer, name = key.split(".")
        assert callable(getattr(sys.modules[f"phaselab.{layer}"], name, None)), key
