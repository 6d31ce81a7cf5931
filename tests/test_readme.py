"""README's `$ fuzzybisim ...` examples, run against tests/fixtures/ and compared
with the output README shows, so the documentation cannot drift."""

import json
import shlex
from pathlib import Path

from fuzzybisim import GOEDEL, greatest_fuzzy_simulation, serialize_relation
from fuzzybisim.cli import main

ROOT = Path(__file__).parent.parent


def _readme_examples() -> list:
    """(argv, expected stdout) for each example; a trailing backslash continues a command."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    examples, i = [], 0
    while i < len(lines):
        if not lines[i].startswith("$ fuzzybisim "):
            i += 1
            continue
        command = lines[i][2:]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        i += 1
        out = []
        while i < len(lines) and lines[i] and lines[i] != "```" and not lines[i].startswith("$ "):
            out.append(lines[i])
            i += 1
        examples.append((shlex.split(command)[1:], "".join(line + "\n" for line in out)))
    return examples


def test_readme_examples_match_the_cli(capsys, tmp_path, aut_a, aut_ap):
    # the examples name a relation file sim.json: the greatest simulation
    sim = tmp_path / "sim.json"
    sim.write_text(serialize_relation(greatest_fuzzy_simulation(GOEDEL, aut_a, aut_ap).relation))
    examples = _readme_examples()
    assert len(examples) == 5
    for argv, expected in examples:
        argv = [str(ROOT / arg) if arg.startswith("tests/fixtures/")
                else str(sim) if arg == "sim.json" else arg for arg in argv]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


def test_readme_non_convergence_line_matches_the_cli(capsys, tmp_path):
    # README's error example: product greatest-sim on corpus pair r1 at 10^12 sweeps
    from make_output_corpus import CORPUS
    inputs = json.loads(CORPUS.read_text())["inputs"]
    files = []
    for name in ("r1-a.json", "r1-b.json"):
        files.append(tmp_path / name)
        files[-1].write_text(inputs[name])
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    [expected] = [line for line in lines if line.startswith("error: greatest simulation ")]
    assert main(["greatest-sim", *map(str, files), "--lattice", "product",
                 "--max-iters", "1000000000000"]) == 3
    assert capsys.readouterr() == ("", expected + "\n")
