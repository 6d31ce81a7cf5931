"""Replay tests/output_corpus.json through cli.main: every case must print
exactly what it printed when the corpus was made (see make_output_corpus.py)."""

import json

from make_output_corpus import CORPUS, run_case, write_inputs


def test_output_corpus_replays(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    write_inputs(corpus, tmp_path)
    changed = [name for name, case in corpus["cases"].items()
               if run_case(case["argv"], tmp_path) != case["digest"]]
    assert not changed, f"{len(changed)} cases changed output, first: {changed[:5]}"
