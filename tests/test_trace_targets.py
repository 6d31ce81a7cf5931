"""The benchmark's tracer wraps package functions by name; a name that no
longer resolves makes the traced run raise, so it has to fail here first."""

import importlib
import importlib.util
from pathlib import Path

from fuzzybisim import GOEDEL, greatest_fuzzy_simulation, serialize_relation
from fuzzybisim.cli import main
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


def test_every_counter_records_on_cli_runs(tmp_path, fixture_dir, aut_a, aut_ap):
    # a counter reads its call's arguments or result, so a changed call shape
    # must fail here and not only in a traced benchmark run
    spans = _spans()
    relation = tmp_path / "sim.json"
    relation.write_text(serialize_relation(
        greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation))
    a, ap = str(fixture_dir / "ex_a.json"), str(fixture_dir / "ex_a_prime.json")
    tracer = spans.Tracer()
    with tracer.installed():
        assert main(["hm-degree", a, ap, "--depth", "1", "--fragment", "sim"]) == 0
        assert main(["verify-preservation", a, ap, "--relation", str(relation),
                     "--max-len", "2"]) == 0
    for name, _count in spans.COUNTERS.values():
        values = tracer.counter_values(name)
        assert values and all(v > 0 for v in values), name
