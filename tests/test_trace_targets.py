"""The benchmark's tracer wraps package functions by name; a name that no
longer resolves makes the traced run raise, so it has to fail here first."""

import importlib
import importlib.util
from pathlib import Path

from fuzzybisim.lattice import ResiduatedLattice

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _spans()
    for modname, attrs in spans.TARGETS.items():
        module = importlib.import_module(modname)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_lattice_counter_ops_are_class_functions():
    for op in _spans().LatticeCounter.OPS:
        assert callable(ResiduatedLattice.__dict__.get(op)), op
