import json
import os
import subprocess

import pytest

from fuzzybisim import (
    GOEDEL,
    FuzzyAutomaton,
    greatest_fuzzy_simulation,
    report_from_obj,
    report_to_obj,
    serialize_automaton,
    serialize_relation,
)
from fuzzybisim.cli import main
from fuzzybisim.oracle import random_automaton

from conftest import FIXTURES, run_python

A = str(FIXTURES / "ex_a.json")
AP = str(FIXTURES / "ex_a_prime.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def sim_relation_file(tmp_path, aut_a, aut_ap):
    rel = greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation
    path = tmp_path / "sim.json"
    path.write_text(serialize_relation(rel))
    return str(path)


def test_lang(capsys):
    code, out, _ = run(capsys, "lang", A, "--word", "s")
    assert code == 0
    assert json.loads(out) == "7/10"
    code, out, _ = run(capsys, "lang", A, "--word", "s", "--output", "text")
    assert out == "7/10\n"
    code, out, _ = run(capsys, "lang", A, "--word", "")
    assert json.loads(out) == "0"
    code, out, _ = run(capsys, "lang", A, "--word", "s,s")
    assert json.loads(out) == "0"


def test_lang_product(capsys):
    code, out, _ = run(capsys, "lang", A, "--word", "s", "--lattice", "product")
    assert code == 0
    assert json.loads(out) == "49/125"


def test_lang_bad_inputs(capsys):
    code, _, err = run(capsys, "lang", A, "--word", "t")
    assert code == 2 and "t" in err
    code, _, err = run(capsys, "lang", A, "--word", ",s")
    assert code == 2
    code, _, err = run(capsys, "lang", str(FIXTURES / "missing.json"), "--word", "s")
    assert code == 2 and "missing.json" in err


def test_malformed_automaton_names_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    code, _, err = run(capsys, "lang", str(bad), "--word", "")
    assert code == 2
    assert "bad.json" in err


def _malformed(cls, target):
    """The bytes of a bad automaton or relation file of one malformed class."""
    if cls == "not-utf8":
        return b"\xff\xfe{}"
    if cls == "too-deep":
        return b"[" * 100000 + b"]" * 100000
    degree = {"huge-exponent": '"1e-99999999"', "too-many-digits": "1" * 5000}[cls]
    if target == "automaton":
        text = (FIXTURES / "ex_a.json").read_text().replace('"0.7"', degree, 1)
    else:
        text = f'[{{"from": "u", "to": "u\'", "degree": {degree}}}]'
    return text.encode()


@pytest.mark.parametrize("cls", ["not-utf8", "too-deep", "huge-exponent", "too-many-digits"])
@pytest.mark.parametrize("command", ["lang", "check-sim", "eval-formula"])
def test_malformed_inputs_are_bad_input(capsys, tmp_path, command, cls):
    bad_aut, bad_rel = tmp_path / "a.json", tmp_path / "rel.json"
    bad_aut.write_bytes(_malformed(cls, "automaton"))
    bad_rel.write_bytes(_malformed(cls, "relation"))
    argv = {
        "lang": ["lang", str(bad_aut), "--word", "s"],
        "check-sim": ["check-sim", A, AP, "--relation", str(bad_rel)],
        "eval-formula": (["eval-formula", A, "--formula", "(1e-99999999 -> T)"]
                         if cls == "huge-exponent"
                         else ["eval-formula", str(bad_aut), "--formula", "T"]),
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["check-sim"], ["norm", "--kind", "sim"],
                                  ["verify-preservation", "--max-len", "2"]])
def test_relation_with_unknown_state_names_its_file(capsys, tmp_path, argv):
    rel = tmp_path / "rel.json"
    rel.write_text('[{"from": "zz", "to": "u\'", "degree": "1/2"}]')
    code, out, err = run(capsys, argv[0], A, AP, "--relation", str(rel), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {rel}: relation references unknown state 'zz'")


def test_check_sim(capsys, sim_relation_file):
    code, out, _ = run(capsys, "check-sim", A, AP, "--relation", sim_relation_file)
    assert code == 0
    assert json.loads(out) == {"kind": "simulation", "mode": "fuzzy", "ok": True}
    code, out, _ = run(capsys, "check-sim", A, AP, "--relation", sim_relation_file,
                       "--crisp")
    assert code == 1
    assert json.loads(out)["ok"] is False
    code, out, _ = run(capsys, "check-sim", A, AP, "--relation", sim_relation_file,
                       "--lambda", "3/5")
    assert code == 0
    assert json.loads(out) == {"kind": "simulation", "mode": "lambda",
                               "ok": True, "lambda": "3/5"}


def test_check_bisim_text_mode(capsys, tmp_path, aut_a, aut_ap):
    from fuzzybisim import greatest_fuzzy_bisimulation
    rel = greatest_fuzzy_bisimulation(GOEDEL, aut_a, aut_ap).relation
    path = tmp_path / "bisim.json"
    path.write_text(serialize_relation(rel))
    code, out, _ = run(capsys, "check-bisim", A, AP, "--relation", str(path),
                       "--output", "text")
    assert code == 0
    assert out == "bisimulation check (fuzzy): PASS\n"


def test_check_lambda_needs_godel(capsys, sim_relation_file):
    code, _, err = run(capsys, "check-sim", A, AP, "--relation", sim_relation_file,
                       "--lambda", "1/2", "--lattice", "product")
    assert code == 2
    assert "godel" in err


def test_crisp_and_lambda_are_exclusive(sim_relation_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["check-sim", A, AP, "--relation", sim_relation_file,
              "--crisp", "--lambda", "1/2"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["hm-degree", A, AP, "--depth", "1", "--fragment", "sim"],
    ["lang", A, "--word", "s"],
    ["norm", A, AP, "--relation", A, "--kind", "sim"],
], ids=lambda argv: argv[0])
def test_max_iters_is_bad_input_where_no_fixpoint_runs(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--max-iters", "1"])
    assert excinfo.value.code == 2


def test_greatest_sim(capsys):
    code, out, _ = run(capsys, "greatest-sim", A, AP)
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "simulation"
    assert obj["norm"] == "3/5"
    assert obj["converged"] is True
    assert {"from": "u", "to": "u'", "degree": "7/10"} in obj["relation"]


def test_greatest_sim_iteration_cap(capsys):
    code, out, _ = run(capsys, "greatest-sim", A, AP, "--max-iters", "1")
    assert code == 3
    assert json.loads(out)["converged"] is False


def test_zero_cap_prints_the_terminal_residuum(capsys):
    code, out, _ = run(capsys, "greatest-sim", A, AP, "--max-iters", "0", "--output", "text")
    assert code == 3
    assert out == ("greatest fuzzy simulation\nnorm: 3/5\niterations: 0\nconverged: false\n"
                   "  u u' 1\n  u v' 1\n  u w' 1\n  v v' 1\n  v w' 1\n  w v' 3/5\n  w w' 1\n")


def test_unconverged_report_past_the_digit_limit(capsys, tmp_path):
    # a product self-simulation whose off-diagonal degrees shrink geometrically:
    # their denominators gain 2 bits a sweep and pass 4300 decimal digits, the
    # interpreter's default int/str conversion limit, near sweep 7150
    tenths = [f"{i}/10" for i in range(1, 11)]
    a = random_automaton("A", 3, ["a", "b"], tenths, 18, density=0.4)
    copy = FuzzyAutomaton("A2", a.states, a.alphabet, dict(a.transitions()), a.sigma, a.tau)
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(serialize_automaton(a))
    fb.write_text(serialize_automaton(copy))
    code, out, _ = run(capsys, "greatest-sim", str(fa), str(fb), "--lattice", "product",
                       "--max-iters", "7200")
    assert code == 3
    obj = json.loads(out)
    assert max(len(term) for e in obj["relation"] for term in e["degree"].split("/")) > 4300
    report = report_from_obj(obj)
    assert not report.converged and report.iterations == 7200
    assert report_to_obj(report) == obj


def test_greatest_bisim_text(capsys):
    code, out, _ = run(capsys, "greatest-bisim", A, AP, "--output", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "greatest fuzzy bisimulation"
    assert "norm: 3/5" in lines
    assert "  u u' 3/5" in lines


def test_norm(capsys, sim_relation_file):
    code, out, _ = run(capsys, "norm", A, AP, "--relation", sim_relation_file,
                       "--kind", "sim")
    assert code == 0
    assert json.loads(out) == "3/5"


def test_verify_preservation(capsys, sim_relation_file):
    code, out, _ = run(capsys, "verify-preservation", A, AP,
                       "--relation", sim_relation_file, "--kind", "sim",
                       "--max-len", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"pointwise_ok": True, "global_ok": True, "exact": True,
                   "global_degree": "3/5"}
    code, _, err = run(capsys, "verify-preservation", A, AP,
                       "--relation", sim_relation_file, "--max-len", "-1")
    assert code == 2


def test_hm_degree(capsys):
    code, out, _ = run(capsys, "hm-degree", A, AP, "--depth", "3",
                       "--fragment", "sim")
    assert code == 0
    arr = json.loads(out)
    assert {"from": "u", "to": "u'", "degree": "7/10"} in arr
    assert {"from": "w", "to": "v'", "degree": "3/5"} in arr


def test_eval_formula(capsys):
    code, out, _ = run(capsys, "eval-formula", A, "--formula", "<s> (0.7 -> T)")
    assert code == 0
    assert json.loads(out) == {"u": "4/5", "v": "0", "w": "0"}
    code, _, err = run(capsys, "eval-formula", A, "--formula", "<s> (0.7 -> ")
    assert code == 2


def test_deep_formulas_are_bad_input(capsys):
    # 500 levels is the documented limit: it still evaluates
    code, out, _ = run(capsys, "eval-formula", A, "--formula", "<s> " * 500 + "T")
    assert code == 0 and json.loads(out) == {"u": "0", "v": "0", "w": "0"}
    chain = "(" * 2000 + "T" + " & T)" * 2000
    for formula in ("<s>" * 501 + "T", "<s>" * 1000 + "T", chain):
        code, out, err = run(capsys, "eval-formula", A, "--formula", formula)
        assert code == 2 and out == "" and "500" in err
    result = _run_cli(["eval-formula", A, "--formula", "<s>" * 1000 + "T"])
    assert result.returncode == 2 and b"Traceback" not in result.stderr


def test_max_lambda(capsys):
    code, out, _ = run(capsys, "max-lambda", A, AP, "--kind", "bisim")
    assert code == 0
    assert json.loads(out) == "3/5"
    code, _, err = run(capsys, "max-lambda", A, AP, "--kind", "bisim",
                       "--lattice", "lukasiewicz")
    assert code == 2
    code, _, err = run(capsys, "max-lambda", A, AP, "--kind", "sim",
                       "--max-iters", "1")
    assert code == 3


def _run_cli(args, env_extra=None, stdout=subprocess.PIPE):
    return run_python(["-m", "fuzzybisim", *args], env_extra, stdout)


def test_reruns_are_byte_identical():
    first = _run_cli(["greatest-bisim", A, AP, "--lattice", "product"])
    second = _run_cli(["greatest-bisim", A, AP, "--lattice", "product"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # sanity: non-empty


# an empty PYTHONUNBUFFERED leaves stdout buffered
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,code", [
    (["greatest-bisim", A, AP], 0),
    (["greatest-sim", A, AP, "--max-iters", "0", "--output", "text"], 3),
    (["--help"], 0),
    (["greatest-sim", "--help"], 0),
])
def test_closed_stdout_ends_quietly(unbuffered, argv, code):
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_cli(argv, {"PYTHONUNBUFFERED": unbuffered}, stdout=write_end)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (code, b"")


_AUT = ('{"name": "A", "alphabet": ["s"], "states": ["u", "v"], "initial": %s, '
        '"terminal": {}, "transitions": [%s]}')


@pytest.mark.parametrize("aut,rel,key", [
    (_AUT % ('{"u": "1", "u": "1/2"}', ""), "[]", "u"),
    (_AUT % ("{}", '{"from": "u", "symbol": "s", "to": "v", "degree": "1", "degree": "1/2"}'),
     "[]", "degree"),
    (_AUT % ("{}", ""), '[{"from": "u", "to": "v", "degree": "1", "degree": "1/2"}]', "degree"),
], ids=["initial", "transition", "relation"])
def test_repeated_json_key_is_bad_input(capsys, tmp_path, aut, rel, key):
    aut_file, rel_file = tmp_path / "a.json", tmp_path / "rel.json"
    aut_file.write_text(aut)
    rel_file.write_text(rel)
    code, out, err = run(capsys, "check-sim", str(aut_file), str(aut_file),
                         "--relation", str(rel_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"repeated key {key!r}" in err


@pytest.mark.parametrize("kind", ["relation", "automaton"])
def test_unknown_state_named_does_not_depend_on_hash_seed(tmp_path, kind):
    # several unknown states: the first in sorted order is named, whatever
    # order a set of their names iterates in
    rel, aut = tmp_path / "rel.json", tmp_path / "a.json"
    rel.write_text(json.dumps([{"from": x, "to": "u'", "degree": "1/2"} for x in ("zz", "yy", "xx")]))
    aut.write_text(_AUT % ('{"r": "1", "q": "1", "p": "1"}', ""))
    argv, name = {"relation": (["check-sim", A, AP, "--relation", str(rel)], "xx"),
                  "automaton": (["lang", str(aut), "--word", ""], "p")}[kind]
    for seed in ("0", "4"):     # the seeds put yy and zz first in a set of the three
        result = _run_cli(argv, {"PYTHONHASHSEED": seed})
        assert result.returncode == 2
        assert f"unknown state {name!r}".encode() in result.stderr


_STARTUP_PROBE = """
import contextlib, io, json, sys
from fuzzybisim.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()

for argv in json.loads(sys.argv[1]):
    assert run(argv)[0] == 0, argv
    loaded = sorted({"fuzzybisim.hmlogic", "dataclasses"} & set(sys.modules))
    assert not loaded, (argv[0], loaded)
print(json.dumps([run(argv) for argv in json.loads(sys.argv[2])]))
"""


def test_only_formula_commands_load_hmlogic(capsys, tmp_path, aut_a, aut_ap):
    # a fresh interpreter: pytest itself has loaded dataclasses
    relation = tmp_path / "sim.json"
    relation.write_text(serialize_relation(greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation))
    plain = [["check-sim", A, AP, "--relation", str(relation)],
             ["norm", A, AP, "--relation", str(relation), "--kind", "sim"],
             ["lang", A, "--word", "s"],
             ["greatest-sim", A, AP],
             ["verify-preservation", A, AP, "--relation", str(relation), "--max-len", "2"]]
    formula = [["hm-degree", A, AP, "--depth", "1", "--fragment", "bisim"],
               ["eval-formula", A, "--formula", "<s> (0.7 -> T)"]]
    result = run_python(["-c", _STARTUP_PROBE, json.dumps(plain), json.dumps(formula)])
    assert result.returncode == 0, result.stderr.decode()
    assert json.loads(result.stdout) == [list(run(capsys, *argv)[:2]) for argv in formula]
