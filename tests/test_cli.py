import errno
import hashlib
import itertools
import json
import os
import subprocess

import pytest

from fuzzybisim import (
    GOEDEL,
    PRODUCT,
    FuzzyAutomaton,
    greatest_fuzzy_simulation,
    refinement_steps,
    relation_json_array,
    report_from_obj,
    report_to_obj,
    serialize_automaton,
    serialize_relation,
)
from fuzzybisim.cli import main
from fuzzybisim.oracle import random_automaton

from conftest import FIXTURES, run_python, time_limit

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


def test_lang_bad_inputs(capsys, tmp_path):
    code, _, err = run(capsys, "lang", A, "--word", "t")
    assert code == 2 and "t" in err
    code, _, err = run(capsys, "lang", A, "--word", ",s")
    assert code == 2
    # an unreadable file is named once
    missing, latin = FIXTURES / "missing.json", tmp_path / "latin.json"
    code, _, err = run(capsys, "lang", str(missing), "--word", "s")
    assert code == 2 and err == f"error: cannot read {missing}: {os.strerror(errno.ENOENT)}\n"
    latin.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "lang", str(latin), "--word", "s")
    assert code == 2 and err == (f"error: cannot read {latin}: 'utf-8' codec can't decode "
                                 "byte 0xff in position 0: invalid start byte\n")


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
    for degree in ("1/2", "0"):     # a zero-degree entry is dropped, but not unchecked
        rel.write_text(f'[{{"from": "zz", "to": "u\'", "degree": "{degree}"}}]')
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


def _r1_files(tmp_path) -> list:
    """Corpus pair r1, whose product runs settle into a repeating decay."""
    from make_output_corpus import CORPUS
    inputs = json.loads(CORPUS.read_text())["inputs"]
    for name in ("r1-a.json", "r1-b.json"):
        (tmp_path / name).write_text(inputs[name])
    return [str(tmp_path / "r1-a.json"), str(tmp_path / "r1-b.json")]


def test_product_decay_reaches_a_huge_cap_in_bounded_time(capsys, tmp_path):
    # the jump reaches sweep 60 000 in a few sweeps and prints what 60 000
    # plain sweeps print
    with time_limit(5):
        code, out, _ = run(capsys, "greatest-sim", *_r1_files(tmp_path), "--lattice", "product",
                           "--max-iters", "60000")
    assert code == 3
    obj = json.loads(out)
    assert obj["iterations"] == 60000 and obj["converged"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5fe0e9c394b58240e0e7bd6a620d87eb8e42e1c95f824dccec8d57d40e942093")


def test_product_decay_prints_million_digit_degrees_in_bounded_time(capsys, tmp_path):
    # at sweep 10^6 one degree's terms take 2.3 M bits: printed in halves, not
    # through a quadratic int-to-text conversion, which took about 15 s
    with time_limit(5):
        code, out, _ = run(capsys, "greatest-sim", *_r1_files(tmp_path), "--lattice", "product",
                           "--max-iters", "1000000")
    assert code == 3
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5c077db05d644741640c3a13a9322978c1d01b086b34d0073a6d1375ac321863")


@pytest.mark.parametrize("command", ["greatest-sim", "greatest-bisim"])
def test_product_decay_past_the_jump_bound_is_non_convergence(capsys, tmp_path, command):
    # at 10^12 sweeps r1's degrees would take about 10^12 bits each: the run is
    # proved not to stabilize, so it ends with exit 3 before writing them out
    with time_limit(5):
        code, out, err = run(capsys, command, *_r1_files(tmp_path), "--lattice", "product",
                             "--max-iters", "1000000000000")
    assert (code, out) == (3, "")
    assert err.startswith("error: greatest ") and err.count("\n") == 1
    assert "cannot stabilize within 1000000000000 sweeps" in err


def test_converging_run_past_the_jump_bound_keeps_sweeping(capsys, tmp_path):
    """phi(y, y1') halves every sweep down to phi(y, y3') / 10^6 = 10^-6 and then
    stays.  The policy at sweep 8 holds for the first window, and the cap puts
    its jumped iterate past the bit bound, but the y3' edge it leaves aside
    shrinks slower than the chosen one: the jump is refused, not reported as
    non-convergence, and the run stabilizes."""
    a = FuzzyAutomaton("A", ["x", "y"], ["a"], {("x", "a", "y"): "1", ("y", "a", "y"): "1"},
                       {"x": "1"}, {"x": "1", "y": "1"})
    ap = FuzzyAutomaton("B", ["w'", "x'", "y1'", "y3'"], ["a"],
                        {("w'", "a", "x'"): "1", ("x'", "a", "y1'"): "1",
                         ("y1'", "a", "y1'"): "1/2", ("y1'", "a", "y3'"): "1/1000000",
                         ("y3'", "a", "y3'"): "1"},
                        {"x'": "1"}, {"w'": "1", "x'": "1", "y1'": "1", "y3'": "1"})
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(serialize_automaton(a))
    fb.write_text(serialize_automaton(ap))
    with time_limit(5):
        code, out, err = run(capsys, "greatest-sim", str(fa), str(fb), "--lattice", "product",
                             "--max-iters", "100000000")
    assert (code, err) == (0, "")
    report = report_from_obj(json.loads(out))
    assert report.converged and report.relation == list(refinement_steps(PRODUCT, a, ap))[-1]
    assert report.iterations < 30


@pytest.mark.parametrize("argv, printed", [
    (["greatest-sim", A, AP, "--lattice", "product"], lambda obj: 1 + len(obj["relation"])),
    (["hm-degree", A, AP, "--depth", "2", "--fragment", "sim"], len),
    (["eval-formula", A, "--formula", "<s> (0.7 -> T)"], len),
])
def test_each_printed_degree_is_formatted_once(capsys, monkeypatch, argv, printed):
    # text output reads the JSON object's formatted strings: neither format
    # builds the other, so each printed degree costs one format_degree call
    from fuzzybisim import cli, fuzzyrel, lattice, simrel
    calls = []

    def counted(degree):
        calls.append(degree)
        return lattice.format_degree(degree)

    for module in (cli, fuzzyrel, simrel):
        monkeypatch.setattr(module, "format_degree", counted)
    code, out, _ = run(capsys, *argv)
    degrees = printed(json.loads(out))
    assert code == 0 and degrees > 1 and len(calls) == degrees
    del calls[:]
    code, out, _ = run(capsys, *argv, "--output", "text")
    assert code == 0 and len(calls) == degrees
    assert all(lattice.format_degree(d) in out for d in calls)


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


def test_product_bisim_hm_degree_is_the_first_iterate(capsys, aut_a, aut_ap):
    with time_limit(10):
        code, out, _ = run(capsys, "hm-degree", A, AP, "--lattice", "product",
                           "--depth", "1", "--fragment", "bisim")
    assert code == 0
    iterate = next(itertools.islice(refinement_steps(PRODUCT, aut_a, aut_ap, "bisim"), 1, None))
    assert json.loads(out) == relation_json_array(iterate)


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
    # nor the product jump's module, which only product fixpoints load
    loaded = sorted({"fuzzybisim.hmlogic", "fuzzybisim.policy", "dataclasses"} & set(sys.modules))
    assert not loaded, (argv[0], loaded)
results = [run(argv) for argv in json.loads(sys.argv[2])]
# the formula nodes and reports are NamedTuples: not even hmlogic loads these
loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
assert not loaded, loaded
print(json.dumps(results))
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
