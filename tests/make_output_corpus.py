"""Regenerate tests/output_corpus.json: CLI output digests over seeded cases.

    PYTHONPATH=src python3 tests/make_output_corpus.py

Each case is one `fuzzybisim` command line whose input files are stored in
the corpus next to it (the fixture pair is read from tests/fixtures).  A
case's digest is the first 16 hex digits of the sha256 of its exit code,
its stdout and the first line of its stderr, with the input directory
stripped from stderr.  tests/test_output_corpus.py replays every case
in-process through `cli.main` and compares digests, so a change that moves
any output byte of these cases fails there.  Regenerate only on purpose,
when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CORPUS = TESTS / "output_corpus.json"
FIXTURES = TESTS / "fixtures"
FIXTURE_FILES = ("ex_a.json", "ex_a_prime.json")

LATTICES = ("godel", "lukasiewicz", "product")
POOLS = (["0", "1/4", "1/2", "3/4", "1"], ["0.3", "0.5", "0.8", "1"], ["0", "1/3", "2/3", "1"])
# (states of A, symbols of A, states of A', symbols of A'): every pair has a
# symbol only one side knows
SHAPES = ((2, "ab", 3, "a"), (3, "a", 2, "ab"), (3, "ab", 3, "ac"), (4, "ab", 2, "b"),
          (2, "abc", 4, "ab"), (4, "a", 4, "ab"), (3, "b", 3, "ab"), (4, "ab", 3, "bc"))
# a product fixpoint may decay for 10 000 sweeps: most product cases stop it
# early, and one default-cap greatest-sim and greatest-bisim case per pair
# covers the runs that settle into a repeating decay and reach the full cap
PRODUCT_CAP = "50"

MALFORMED = {
    "bad-not-json.json": "{not json",
    "bad-array.json": '["array"]',
    "bad-float.json": json.dumps({"name": "F", "alphabet": ["a"], "states": ["p"],
                                  "initial": {"p": 0.5}, "terminal": {}, "transitions": []}),
    "bad-range.json": json.dumps({"name": "R", "alphabet": ["a"], "states": ["p"],
                                  "initial": {"p": "3/2"}, "terminal": {}, "transitions": []}),
    "bad-missing.json": json.dumps({"name": "M", "alphabet": ["a"], "states": ["p"],
                                    "initial": {}, "terminal": {}}),
    "bad-symbol.json": json.dumps({"name": "S", "alphabet": ["a"], "states": ["p"],
                                   "initial": {}, "terminal": {}, "transitions": [
                                       {"from": "p", "symbol": "z", "to": "p", "degree": "1"}]}),
    "bad-no-states.json": json.dumps({"name": "E", "alphabet": [], "states": [],
                                      "initial": {}, "terminal": {}, "transitions": []}),
    "bad-literal.json": json.dumps({"name": "L", "alphabet": ["a"], "states": ["p"],
                                    "initial": {"p": "abc"}, "terminal": {}, "transitions": []}),
    "bad-exponent.json": json.dumps({"name": "X", "alphabet": ["a"], "states": ["p"],
                                     "initial": {"p": "1e-99999"}, "terminal": {},
                                     "transitions": []}),
    "bad-rel-state.json": json.dumps([{"from": "zz", "to": "u'", "degree": "1/2"}]),
    "bad-rel-dup.json": json.dumps([{"from": "u", "to": "u'", "degree": "1/2"},
                                    {"from": "u", "to": "u'", "degree": "1/3"}]),
    "bad-rel-object.json": json.dumps({"from": "u", "to": "u'", "degree": "1"}),
    "bad-rel-field.json": json.dumps([{"from": "u", "to": "u'", "degree": "1", "w": 1}]),
    "bad-rel-degree.json": json.dumps([{"from": "u", "to": "u'", "degree": "-1/2"}]),
    "bad-utf8.json": "\udcff",
}


def digest(code: int, stdout: str, stderr: str) -> str:
    first = stderr.splitlines()[0] if stderr else ""
    text = json.dumps([code, stdout, first])
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()[:16]


def write_inputs(corpus: dict, directory: Path) -> None:
    """The corpus's input files and the fixture pair, written into directory."""
    for name, text in corpus["inputs"].items():
        (directory / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    for name in FIXTURE_FILES:
        (directory / name).write_bytes((FIXTURES / name).read_bytes())


def run_case(argv: list, directory: Path) -> str:
    """The digest of one case, its "@name" arguments read as files in directory."""
    from fuzzybisim.cli import main
    args = [str(directory / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    prefix = str(directory) + "/"
    return digest(code, out.getvalue(), err.getvalue().replace(prefix, ""))


def _pair_cases(cases: dict, tag: str, a: str, ap: str, rels: dict, formulas, words,
                outputs=("json", "text")) -> None:
    """Every command on the pair (a, ap), in each lattice and output format.
    The lambda notions exist on godel only: elsewhere one case per command
    covers their error."""
    for lat in LATTICES:
        cap = ["--max-iters", PRODUCT_CAP] if lat == "product" else []
        heyting = lat == "godel"
        for out in outputs:
            common = ["--lattice", lat, "--output", out]
            pre = f"{tag}/{lat}/{out}"
            for cmd in ("greatest-sim", "greatest-bisim"):
                cases[f"{pre}/{cmd}"] = [cmd, a, ap, *common, *cap]
                for iters in ("0", "2"):
                    cases[f"{pre}/{cmd}/iters{iters}"] = [cmd, a, ap, *common,
                                                          "--max-iters", iters]
                if cap and out == "json":
                    cases[f"{pre}/{cmd}/default-cap"] = [cmd, a, ap, *common]
            for kind in ("sim", "bisim") if heyting else ("sim",):
                cases[f"{pre}/max-lambda/{kind}"] = ["max-lambda", a, ap, *common,
                                                     "--kind", kind, *cap]
            for rname, rel in rels.items():
                for cmd in ("check-sim", "check-bisim"):
                    base = [cmd, a, ap, "--relation", rel, *common]
                    cases[f"{pre}/{cmd}/{rname}"] = base
                    cases[f"{pre}/{cmd}/{rname}/crisp"] = base + ["--crisp"]
                    if heyting or (rname, cmd) == ("rand", "check-sim"):
                        cases[f"{pre}/{cmd}/{rname}/lambda"] = base + ["--lambda", "1/2"]
                for kind in ("sim", "bisim"):
                    cases[f"{pre}/norm/{kind}/{rname}"] = ["norm", a, ap, "--relation", rel,
                                                           "--kind", kind, *common]
            for kind, rname in (("sim", "gsim"), ("bisim", "gbisim"), ("sim", "rand")):
                cases[f"{pre}/pres/{kind}/{rname}"] = [
                    "verify-preservation", a, ap, "--relation", rels[rname], "--kind", kind,
                    "--max-len", "3", *common]
            for depth in ("0", "1"):
                for fragment in ("sim", "bisim"):
                    cases[f"{pre}/hm/{fragment}/{depth}"] = ["hm-degree", a, ap, "--depth", depth,
                                                             "--fragment", fragment, *common]
            for i, word in enumerate(words):
                cases[f"{pre}/lang/{i}"] = ["lang", a, "--word", word, *common]
            for i, formula in enumerate(formulas):
                cases[f"{pre}/eval/{i}"] = ["eval-formula", a, "--formula", formula, *common]


def build() -> tuple:
    """(inputs, cases): input file texts by name, and argv by case name."""
    from fuzzybisim import GOEDEL, automaton_to_obj, relation_json_array
    from fuzzybisim.automata import parse_automaton
    from fuzzybisim.oracle import random_automaton, random_relation
    from fuzzybisim.simrel import greatest_fuzzy_bisimulation, greatest_fuzzy_simulation

    inputs, cases = dict(MALFORMED), {}
    fixture = [parse_automaton((FIXTURES / name).read_text()) for name in FIXTURE_FILES]
    pairs = [("fix", "@ex_a.json", "@ex_a_prime.json", *fixture)]
    for i, (n, syms, m, syms_p) in enumerate(SHAPES):
        pool = POOLS[i % len(POOLS)]
        a = random_automaton("A", n, list(syms), pool, 100 + i)
        ap = random_automaton("B", m, list(syms_p), pool, 200 + i)
        inputs[f"r{i}-a.json"] = json.dumps(automaton_to_obj(a))
        inputs[f"r{i}-b.json"] = json.dumps(automaton_to_obj(ap))
        pairs.append((f"r{i}", f"@r{i}-a.json", f"@r{i}-b.json", a, ap))

    for k, (tag, pa, pap, a, ap) in enumerate(pairs):
        rels = {}
        for rname, phi in (
                ("gsim", greatest_fuzzy_simulation(GOEDEL, a, ap).relation),
                ("gbisim", greatest_fuzzy_bisimulation(GOEDEL, a, ap).relation),
                ("rand", random_relation(a.states, ap.states, POOLS[k % len(POOLS)],
                                         300 + k).relation)):
            inputs[f"{tag}-{rname}.json"] = json.dumps(relation_json_array(phi))
            rels[rname] = f"@{tag}-{rname}.json"
        sym = a.alphabet[0]
        formulas = [f"<{sym}> T", f"(<{sym}> (1/2 -> T) & T)", f"(2/3 <-> <{sym}> T)"]
        words = ["", ",".join(a.alphabet)]
        # text output formats the same reports: the fixture pair covers it
        outputs = ("json", "text") if k == 0 else ("json",)
        _pair_cases(cases, tag, pa, pap, rels, formulas, words, outputs)

    # the fixture pair's results are never empty: r0's are in godel and product,
    # so these cover the header-only report and hm-degree's "(empty)" line
    for lat in ("godel", "product"):
        common = ["@r0-a.json", "@r0-b.json", "--lattice", lat, "--output", "text"]
        for cmd in ("greatest-sim", "greatest-bisim"):
            cases[f"r0/{lat}/text/{cmd}"] = [cmd, *common]
        cases[f"r0/{lat}/text/hm/sim/3"] = ["hm-degree", *common, "--depth", "3",
                                            "--fragment", "sim"]
    # product preservation on longer words, where back vectors repeat up to scale
    for i in range(len(SHAPES)):
        for kind, rname in (("sim", "gsim"), ("bisim", "gbisim"), ("sim", "rand")):
            cases[f"r{i}/product/json/pres8/{kind}/{rname}"] = [
                "verify-preservation", f"@r{i}-a.json", f"@r{i}-b.json", "--relation",
                f"@r{i}-{rname}.json", "--kind", kind, "--max-len", "8", "--lattice", "product",
                "--output", "json"]

    fa, fap, frel = "@ex_a.json", "@ex_a_prime.json", "@fix-gsim.json"
    for name in MALFORMED:
        bad = f"@{name}"
        if name.startswith("bad-rel"):
            cases[f"bad/{name}/check"] = ["check-sim", fa, fap, "--relation", bad]
            cases[f"bad/{name}/pres"] = ["verify-preservation", fa, fap, "--relation", bad,
                                         "--max-len", "2"]
        else:
            cases[f"bad/{name}/greatest"] = ["greatest-sim", bad, fap]
            cases[f"bad/{name}/prime"] = ["greatest-bisim", fa, bad]
            cases[f"bad/{name}/lang"] = ["lang", bad, "--word", "a"]
    cases.update({
        "bad/missing-file": ["greatest-sim", "@no-such-file.json", fap],
        "bad/relation-missing-file": ["norm", fa, fap, "--relation", "@none.json",
                                      "--kind", "sim"],
        "bad/lambda-literal": ["check-sim", fa, fap, "--relation", frel, "--lambda", "x"],
        "bad/lambda-range": ["check-bisim", fa, fap, "--relation", frel, "--lambda", "2"],
        "bad/max-iters": ["greatest-sim", fa, fap, "--max-iters", "-1"],
        "bad/max-len": ["verify-preservation", fa, fap, "--relation", frel, "--max-len", "-1"],
        "bad/depth": ["hm-degree", fa, fap, "--depth", "-1", "--fragment", "sim"],
        "bad/word": ["lang", fa, "--word", "s,,s"],
        "bad/word-symbol": ["lang", fa, "--word", "zz"],
        "bad/formula-syntax": ["eval-formula", fa, "--formula", "(T &)"],
        "bad/formula-symbol": ["eval-formula", fa, "--formula", "<zz> T"],
        "bad/formula-guard": ["eval-formula", fa, "--formula", "(3/2 -> T)"],
        "bad/formula-deep": ["eval-formula", fa, "--formula", "<s> " * 600 + "T"],
    })
    # degree spellings that Fraction reads only on newer interpreters ("1_0/2_0"
    # from 3.11, "1 / 2" from 3.12); the package reads them on every one
    inputs["spellings.json"] = json.dumps({
        "name": "W", "alphabet": ["a"], "states": ["p", "q"], "initial": {"p": "1 / 2"},
        "terminal": {"q": "+0.5e0"},
        "transitions": [{"from": "p", "symbol": "a", "to": "q", "degree": "1_0/2_0"}]})
    for cmd in ("greatest-sim", "greatest-bisim"):
        cases[f"spellings/{cmd}"] = [cmd, "@spellings.json", "@spellings.json",
                                     "--output", "text"]
    cases["spellings/lang"] = ["lang", "@spellings.json", "--word", "a"]
    cases["spellings/eval-formula"] = ["eval-formula", fa, "--formula", "(1 / 2 -> T)"]
    return inputs, cases


def main() -> int:
    inputs, cases = build()
    corpus = {"inputs": inputs, "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(corpus, directory)
        for name, argv in cases.items():
            corpus["cases"][name] = {"argv": argv, "digest": run_case(argv, directory)}
    # one input file or case per line, so a regenerated corpus diffs by case
    sections = [f' "{name}": {{\n' + ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                                                for key, value in corpus[name].items()) + "\n }"
                for name in ("inputs", "cases")]
    CORPUS.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {len(cases)} cases to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
