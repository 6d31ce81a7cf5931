"""The mutant suite's entries (tests/mutants.py) against today's src/; the suite
itself runs as its own CI job."""

import pytest

from mutants import MUTANTS, ROOT, mutate


def test_every_mutant_snippet_occurs_once():
    for path, snippet, _replacement, tests in MUTANTS:
        assert (ROOT / "src" / path).read_text(encoding="utf-8").count(snippet) == 1, snippet
        assert tests


def test_a_stale_snippet_is_an_error(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutate(tmp_path, "m.py", "x = 2", "x = 3")
    assert (tmp_path / "m.py").read_text() == "x = 1\n"
