"""The benchmark's tracer wraps package functions by name; a name that no
longer resolves makes the traced run raise, so it has to fail here first."""

import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from fuzzybisim import GOEDEL, greatest_fuzzy_simulation, serialize_relation
from fuzzybisim.cli import main
from fuzzybisim.lattice import ResiduatedLattice

from conftest import run_python

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


_HM_SPANS = {"hmlogic.hm_degree_bounded", "hmlogic.parse_formula", "hmlogic.eval_formula"}


def check_traced_formula_runs(a, ap):
    """Trace hm-degree and eval-formula through cli.main: the lazily bound hmlogic
    names must record their spans, and be the real functions once the tracer exits."""
    from fuzzybisim import cli
    tracer = _spans().Tracer()
    with tracer.installed(), redirect_stdout(io.StringIO()):
        assert main(["hm-degree", a, ap, "--depth", "1", "--fragment", "sim"]) == 0
        assert main(["eval-formula", a, "--formula", "<s> (0.7 -> T)"]) == 0
    assert _HM_SPANS <= {span[0] for span in tracer.spans}
    from fuzzybisim import hmlogic
    for name in ("eval_formula", "hm_degree_bounded", "parse_formula"):
        assert getattr(cli, name) is getattr(hmlogic, name), name


def test_tracer_wraps_hmlogic_when_it_loads_under_the_tracer(fixture_dir):
    a, ap = str(fixture_dir / "ex_a.json"), str(fixture_dir / "ex_a_prime.json")
    code = (f"import runpy, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            f"check = runpy.run_path({__file__!r})['check_traced_formula_runs']\n"
            f"assert 'fuzzybisim.hmlogic' not in sys.modules\n"
            f"check({a!r}, {ap!r})\n")
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr.decode()


def test_tracer_wraps_hmlogic_when_it_is_already_loaded(fixture_dir):
    from fuzzybisim import cli
    assert callable(cli.eval_formula)    # loads hmlogic and binds cli's names
    check_traced_formula_runs(str(fixture_dir / "ex_a.json"), str(fixture_dir / "ex_a_prime.json"))
