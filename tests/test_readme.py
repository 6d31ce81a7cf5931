"""README's `$ fuzzybisim ...` examples, run against tests/fixtures/ and compared
with the output README shows, so the documentation cannot drift."""

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
