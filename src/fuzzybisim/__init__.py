"""Exact analysis of fuzzy automata over complete residuated lattices:
languages, simulations, bisimulations, degree-lambda relaxations, and a
Hennessy-Milner style formula calculus.

Names are exported lazily (PEP 562): a submodule is imported on the first
use of a name it defines, so a command loads only the modules it runs."""

# each exported name -> the submodule that defines it; a submodule's own name maps to itself
_SOURCE = {name: module for module, names in {
    "automata": "automata UNBOUNDED FuzzyAutomaton automaton_from_obj automaton_to_obj "
                "delta_rel lang_degree lang_degree_from_state max_live_word_length "
                "parse_automaton serialize_automaton words_up_to",
    "errors": "errors InputError NonConvergenceError",
    "fuzzyrel": "fuzzyrel FuzzyRelation FuzzySet compose_rel_rel compose_rel_set "
                "compose_set_rel compose_set_set converse equality identity_rel "
                "is_reflexive is_symmetric is_transitive parse_relation pointwise_leq "
                "relation_json_array scalar_meet serialize_relation subsethood union",
    "hmlogic": "hmlogic TAU And Formula HMAgreementReport Iff Implies Step Tau "
               "constant_pool distinguishing_formula enumerate_formulas eval_formula "
               "format_formula hm_agreement hm_degree_bounded parse_formula",
    "lattice": "lattice GOEDEL LUKASIEWICZ ONE PRODUCT ZERO ResiduatedLattice by_name "
               "format_degree inf meet join parse_degree sup",
    "simrel": "simrel DEFAULT_MAX_ITERS PreservationReport SimReport approx_from_greatest "
              "bisim_norm check_crisp_bisimulation check_crisp_simulation "
              "check_fuzzy_bisimulation check_fuzzy_simulation "
              "check_lambda_approx_bisimulation check_lambda_approx_simulation "
              "greatest_fuzzy_bisimulation greatest_fuzzy_simulation max_approx_lambda "
              "preservation_to_obj refinement_steps report_from_obj report_to_obj "
              "resolve_max_iters sim_norm verify_preservation",
}.items() for name in names.split()}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_SOURCE[name]}")
    value = module if name == _SOURCE[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_SOURCE))
