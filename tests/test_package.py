"""`import fuzzybisim` exports its names lazily; its public namespace is pinned here."""

import importlib
import json

import pytest

import fuzzybisim

from conftest import run_python

# the public names of `import fuzzybisim`, by defining submodule; each
# submodule's own name is public too
EXPORTS = {
    "automata": ("FuzzyAutomaton automaton_from_obj automaton_to_obj delta_rel "
                 "lang_degree lang_degree_from_state max_live_word_length parse_automaton "
                 "serialize_automaton"),
    "errors": "InputError NonConvergenceError",
    "fuzzyrel": ("FuzzyRelation FuzzySet compose_rel_rel compose_rel_set compose_set_rel "
                 "compose_set_set converse equality identity_rel is_reflexive is_symmetric "
                 "is_transitive parse_relation pointwise_leq relation_json_array scalar_meet "
                 "serialize_relation subsethood union"),
    "hmlogic": ("TAU And Formula HMAgreementReport Iff Implies Step Tau constant_pool "
                "distinguishing_formula enumerate_formulas eval_formula format_formula "
                "hm_agreement hm_degree_bounded parse_formula"),
    "lattice": ("GOEDEL LUKASIEWICZ ONE PRODUCT ZERO ResiduatedLattice by_name format_degree "
                "parse_degree"),
    "simrel": ("DEFAULT_MAX_ITERS PreservationReport SimReport approx_from_greatest bisim_norm "
               "check_crisp_bisimulation check_crisp_simulation check_fuzzy_bisimulation "
               "check_fuzzy_simulation check_lambda_approx_bisimulation "
               "check_lambda_approx_simulation greatest_fuzzy_bisimulation "
               "greatest_fuzzy_simulation max_approx_lambda preservation_to_obj "
               "refinement_steps report_from_obj report_to_obj resolve_max_iters sim_norm "
               "verify_preservation"),
}
PUBLIC = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names.split())])

_FRESH_NAMESPACE = """
import json, sys
import fuzzybisim
loaded = sorted(m for m in sys.modules if m.startswith("fuzzybisim."))
public_dir = [name for name in dir(fuzzybisim) if not name.startswith("_")]
star = {}
exec("from fuzzybisim import *", star)
print(json.dumps([loaded, public_dir, sorted(set(star) - {"__builtins__"})]))
"""


def test_every_public_name_is_its_submodules_object():
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"fuzzybisim.{module}")
        assert getattr(fuzzybisim, module) is submodule
        for name in names.split():
            assert getattr(fuzzybisim, name) is getattr(submodule, name), name


def test_fresh_import_loads_nothing_and_exposes_the_pinned_names():
    result = run_python(["-c", _FRESH_NAMESPACE])
    assert result.returncode == 0, result.stderr.decode()
    loaded, public_dir, star = json.loads(result.stdout)
    assert loaded == []
    assert public_dir == PUBLIC
    assert star == PUBLIC


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        fuzzybisim.no_such_name
    assert not hasattr(fuzzybisim, "oracle_")
    with pytest.raises(ImportError):
        from fuzzybisim import no_such_name  # noqa: F401
