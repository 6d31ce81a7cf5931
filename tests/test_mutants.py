"""The mutant suite's entries (tests/mutants.py) against today's src/; the suite
itself runs as its own CI job."""

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT, mutate


def test_every_mutant_snippet_occurs_once():
    for path, snippet, _replacement, tests in MUTANTS:
        assert (ROOT / "src" / path).read_text(encoding="utf-8").count(snippet) == 1, snippet
        assert tests


def test_every_mutant_test_id_is_collected():
    # mutants.py reads FAILED lines by exact id, so a mistyped id would read as "survived"
    ids = sorted({test for *_entry, tests in MUTANTS for test in tests})
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *ids],
                          cwd=ROOT, capture_output=True, text=True)
    assert [test for test in ids if test not in proc.stdout.splitlines()] == [], proc.stderr


def test_a_stale_snippet_is_an_error(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutate(tmp_path, "m.py", "x = 2", "x = 3")
    assert (tmp_path / "m.py").read_text() == "x = 1\n"
