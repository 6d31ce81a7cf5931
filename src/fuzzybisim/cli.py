"""Command line front end.

Exit codes: 0 success, 1 failed check, 2 bad input, 3 non-convergence.
All JSON output is deterministic: fixed key order, indent=2, sorted
relation entries, exact rational degree strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .automata import lang_degree, parse_automaton
from .errors import InputError, NonConvergenceError, encode_json
from .fuzzyrel import parse_relation, relation_json_array
from .lattice import _KINDS, by_name, format_degree, parse_degree
from .simrel import (
    _KIND_NAMES,
    _parse_kind,
    _validate_rel,
    bisim_norm,
    check_crisp_bisimulation,
    check_crisp_simulation,
    check_fuzzy_bisimulation,
    check_fuzzy_simulation,
    check_lambda_approx_bisimulation,
    check_lambda_approx_simulation,
    greatest_fuzzy_bisimulation,
    greatest_fuzzy_simulation,
    max_approx_lambda,
    preservation_to_obj,
    report_to_obj,
    sim_norm,
    verify_preservation,
)

# hmlogic's entry points, loaded only by the two formula commands
_HM_NAMES = ("eval_formula", "hm_degree_bounded", "parse_formula")


def _load_hmlogic() -> None:
    """Bind _HM_NAMES as module globals; a name already bound is kept, so a
    wrapper installed over it (bench/spans.py wraps them by name) stays."""
    from . import hmlogic
    for name in _HM_NAMES:
        globals().setdefault(name, getattr(hmlogic, name))


def __getattr__(name: str):
    if name not in _HM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_hmlogic()
    return globals()[name]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lattice", choices=_KINDS, default="godel",
                        help="truth structure to compute in (default: godel)")
    common.add_argument("--output", choices=("json", "text"), default="json",
                        help="output format (default: json)")
    one = argparse.ArgumentParser(add_help=False, parents=[common])
    one.add_argument("automaton")
    pair = argparse.ArgumentParser(add_help=False, parents=[one])
    pair.add_argument("automaton_prime")
    capped = argparse.ArgumentParser(add_help=False, parents=[pair])
    capped.add_argument("--max-iters", type=int, default=None, metavar="N",
                        help="iteration cap for fixpoint sweeps")

    parser = argparse.ArgumentParser(
        prog="fuzzybisim",
        description="Analyze fuzzy automata: languages, simulations, "
                    "bisimulations, and formula degrees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lang", parents=[one],
                       help="degree of a word in an automaton's language")
    p.add_argument("--word", required=True,
                   help="comma-separated symbols; empty string for the empty word")
    p.set_defaults(run=_cmd_lang)

    for cmd, bidir in (("check-sim", False), ("check-bisim", True)):
        noun = _KIND_NAMES[bidir]
        p = sub.add_parser(cmd, parents=[pair],
                           help=f"check whether a relation is a {noun}")
        p.set_defaults(run=_cmd_check, bidir=bidir)
        p.add_argument("--relation", required=True, help="relation JSON file")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--crisp", action="store_true",
                           help="require initial-set coverage as well")
        group.add_argument("--lambda", dest="lam", default=None, metavar="DEGREE",
                           help=f"check the degree-lambda relaxation of the {noun} "
                                "conditions (godel lattice only)")

    for cmd, bidir in (("greatest-sim", False), ("greatest-bisim", True)):
        p = sub.add_parser(cmd, parents=[capped],
                           help=f"compute the greatest fuzzy {_KIND_NAMES[bidir]}")
        p.set_defaults(run=_cmd_greatest, bidir=bidir)

    p = sub.add_parser("norm", parents=[pair],
                       help="how far a relation is from covering the initial sets")
    p.add_argument("--relation", required=True)
    p.add_argument("--kind", choices=("sim", "bisim"), required=True)
    p.set_defaults(run=_cmd_norm)

    p = sub.add_parser("verify-preservation", parents=[pair],
                       help="check language inequalities implied by a relation, "
                            "over all words up to a length bound")
    p.add_argument("--relation", required=True)
    p.add_argument("--kind", choices=("sim", "bisim"), default="sim")
    p.add_argument("--max-len", type=int, required=True, metavar="K")
    p.set_defaults(run=_cmd_verify_preservation)

    p = sub.add_parser("hm-degree", parents=[pair],
                       help="per-pair infimum of formula readouts up to a depth")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--fragment", choices=("sim", "bisim"), required=True)
    p.set_defaults(run=_cmd_hm_degree)

    p = sub.add_parser("eval-formula", parents=[one],
                       help="evaluate a formula on every state of an automaton")
    p.add_argument("--formula", required=True)
    p.set_defaults(run=_cmd_eval_formula)

    p = sub.add_parser("max-lambda", parents=[capped],
                       help="largest lambda admitting a lambda-relaxed relation "
                            "of the chosen kind (godel lattice only)")
    p.add_argument("--kind", choices=("sim", "bisim"), required=True)
    p.set_defaults(run=_cmd_max_lambda)

    return parser


def _load(path: str, parse):
    """parse(text of path); an unreadable file or bad input is named by its path once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        return parse(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_inputs(args) -> list:
    """The files the command names, parsed in order: A, A', then the relation, checked
    against both.  The parsers are module globals read per call: bench/spans.py patches them."""
    inputs = []
    parsers = (("automaton", parse_automaton), ("automaton_prime", parse_automaton),
               ("relation", lambda text: _checked_relation(text, *inputs)))
    for dest, parse in parsers:
        if hasattr(args, dest):
            inputs.append(_load(getattr(args, dest), parse))
    return inputs


def _checked_relation(text: str, a, ap):
    """parse_relation's relation, unless an entry names a state A or A' lacks, at
    any degree: parse_relation drops zero-degree entries, so every entry's names
    are read again off the JSON, whose shape it has checked."""
    phi = parse_relation(text)
    _validate_rel([(e["from"], e["to"]) for e in json.loads(text)], a, ap)
    return phi


def _parse_word(text: str) -> tuple:
    if text == "":
        return ()
    parts = [part.strip() for part in text.split(",")]
    if any(part == "" for part in parts):
        raise InputError(f"word {text!r} has an empty symbol")
    return tuple(parts)


def _emit(args, obj, text) -> None:
    """Print obj as JSON, or as the lines text(obj) reads off its already-formatted values."""
    _print_lines([encode_json(obj)] if args.output == "json" else text(obj))


def _print_lines(lines) -> None:
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: the rest goes to devnull and the command keeps its exit code
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _entry_lines(entries, indent="") -> list:
    """Text lines of a relation_json_array list."""
    return [f"{indent}{e['from']} {e['to']} {e['degree']}" for e in entries]


_VERDICT = {True: "PASS", False: "FAIL"}


def _emit_degree(args, degree) -> int:
    _emit(args, format_degree(degree), lambda text: [text])
    return 0


def _cmd_lang(args, lat, aut) -> int:
    return _emit_degree(args, lang_degree(lat, aut, _parse_word(args.word)))


def _cmd_check(args, lat, a, ap, phi) -> int:
    lam = None
    if args.lam is not None:
        mode = "lambda"
        lam = parse_degree(args.lam)
        check = (check_lambda_approx_bisimulation if args.bidir
                 else check_lambda_approx_simulation)
        ok = check(lat, a, ap, phi, lam)
    elif args.crisp:
        mode = "crisp"
        check = check_crisp_bisimulation if args.bidir else check_crisp_simulation
        ok = check(lat, a, ap, phi)
    else:
        mode = "fuzzy"
        check = check_fuzzy_bisimulation if args.bidir else check_fuzzy_simulation
        ok = check(lat, a, ap, phi)
    obj = {"kind": _KIND_NAMES[args.bidir], "mode": mode, "ok": ok}
    if lam is not None:
        obj["lambda"] = format_degree(lam)
    _emit(args, obj, lambda o: [f"{o['kind']} check ({o['mode']}): {_VERDICT[o['ok']]}"])
    return 0 if ok else 1


def _cmd_greatest(args, lat, a, ap) -> int:
    compute = greatest_fuzzy_bisimulation if args.bidir else greatest_fuzzy_simulation
    obj = report_to_obj(compute(lat, a, ap, max_iters=args.max_iters))
    _emit(args, obj, lambda o: [
        f"greatest fuzzy {o['kind']}", f"norm: {o['norm']}", f"iterations: {o['iterations']}",
        f"converged: {encode_json(o['converged'])}", *_entry_lines(o["relation"], "  ")])
    return 0 if obj["converged"] else 3


def _cmd_norm(args, lat, a, ap, phi) -> int:
    return _emit_degree(args, (bisim_norm if _parse_kind(args.kind) else sim_norm)(lat, a, ap, phi))


def _cmd_verify_preservation(args, lat, a, ap, phi) -> int:
    report = verify_preservation(lat, a, ap, phi, args.max_len, kind=args.kind)
    obj = preservation_to_obj(report)
    _emit(args, obj, lambda o: [f"pointwise: {_VERDICT[o['pointwise_ok']]}",
                                f"global: {_VERDICT[o['global_ok']]}",
                                f"exact: {encode_json(o['exact'])}"])
    return 0 if report.pointwise_ok and report.global_ok else 1


def _cmd_hm_degree(args, lat, a, ap) -> int:
    _load_hmlogic()
    obj = relation_json_array(hm_degree_bounded(lat, a, ap, args.depth, args.fragment))
    _emit(args, obj, lambda entries: _entry_lines(entries) or ["(empty)"])
    return 0


def _cmd_eval_formula(args, lat, aut) -> int:
    _load_hmlogic()
    formula = parse_formula(args.formula)
    values = eval_formula(lat, aut, formula)
    obj = {x: format_degree(values.degree(x)) for x in aut.states}
    _emit(args, obj, lambda degrees: [f"{x}: {d}" for x, d in degrees.items()])
    return 0


def _cmd_max_lambda(args, lat, a, ap) -> int:
    return _emit_degree(args, max_approx_lambda(lat, a, ap, args.kind, max_iters=args.max_iters))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    finally:
        _print_lines(())  # argparse prints --help outside _emit: flush it under the same guard
    try:
        return args.run(args, by_name(args.lattice), *_load_inputs(args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
