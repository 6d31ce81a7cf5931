"""The mutant suite: deliberate faults in src/, each with the tests that must
catch it.

For each entry the script copies src/ to a temporary directory, replaces the
entry's snippet (which must occur exactly once in its file) and runs only the
entry's tests against that copy.  It fails if a snippet does not match
exactly once, or if one of an entry's tests passes: the mutant survived it.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMREL = "tests/test_simrel.py::"
LATTICE = "tests/test_lattice.py::"

# (file under src/, exact snippet, replacement, test node ids that must fail)
MUTANTS = [
    ("fuzzybisim/policy.py", "period = math.lcm(period, ", "period = max(period, ",
     [SIMREL + "test_product_jump_period_is_the_lcm_of_the_cycles"]),
    ("fuzzybisim/policy.py",
     "any(ratio[b] < rf for _h, b in lower) or any(ratio[b] > rf for _h, b in upper)", "False",
     [SIMREL + "test_product_jump_refuses_a_policy_that_holds_only_up_to_the_cap",
      SIMREL + "test_product_jump_waits_until_the_chosen_edge_stays_largest",
      "tests/test_cli.py::test_converging_run_past_the_jump_bound_keeps_sweeping"]),
    ("fuzzybisim/policy.py", " or any(h * psi[b] > f for h, b in upper):", ":",
     [SIMREL + "test_product_jump_matches_plain_sweeps"]),
    ("fuzzybisim/policy.py", "any(h * psi[b] < f for h, b in lower) or ", "",
     [SIMREL + "test_greatest_simulation_is_monotone_in_a_prime_and_antitone_in_a[product]"]),
    ("fuzzybisim/policy.py", "window[phase]", "window[0]",
     [SIMREL + "test_product_jump_period_is_the_lcm_of_the_cycles"]),
    ("fuzzybisim/policy.py", "    if any(w is None for", "    if False and any(w is None for",
     [SIMREL + "test_product_jump_is_refused_while_the_support_shrinks"]),
    ("fuzzybisim/policy.py", "if all(r == 1 for r in ratio):", "if False:",
     [SIMREL + "test_product_jump_refuses_a_policy_whose_ratios_are_all_1"]),
    ("fuzzybisim/policy.py", "later < best", "later <= best",
     [SIMREL + "test_policy_record_breaks_a_tie_by_the_first_constraint"]),
    ("fuzzybisim/policy.py", "c = max((tnorm(e, phi[j])", "c = min((tnorm(e, phi[j])",
     [SIMREL + "test_policy_reproduces_every_iterate[product]"]),
    ("fuzzybisim/policy.py", "if edges[w][0] * phi[edges[w][1]] > d:", "if False:",
     ["tests/test_policy.py::test_product_jump_waits_while_a_pair_at_1_starts_to_drop"]),
    ("fuzzybisim/hmlogic.py", "sorted(new)[:room]", "sorted(new)[-room:]",
     ["tests/test_hmlogic.py::test_constant_pool"]),
    ("fuzzybisim/simrel.py", "op(t, tp)", "op(tp, t)",
     ["tests/test_cli.py::test_zero_cap_prints_the_terminal_residuum",
      SIMREL + "test_greatest_matches_oracle[godel-one-sided]"]),
    ("fuzzybisim/simrel.py", "for p, q in ((x, n + xp), (n + xp, x))[:1 + bidir]:",
     "for p, q in ((x, n + xp), (n + xp, x))[:1]:",
     [SIMREL + "test_greatest_matches_oracle[godel-one-sided]",
      SIMREL + "test_crisp_checks_match_oracle[godel]"]),
    ("fuzzybisim/simrel.py", "for col, d in succ[p]:", "for col, d in succ[p][:-1]:",
     [SIMREL + "test_greatest_matches_oracle[godel-one-sided]"]),
    ("fuzzybisim/simrel.py", "_joint(lat, a, ap, sigmas, scaled=True)",
     "_joint(lat, a, ap, sigmas[:len(a.sigma.items())], scaled=True)",
     [SIMREL + "test_preservation_matches_word_by_word_evaluation[product]"]),
    ("fuzzybisim/lattice.py", '-p if sign == "-" else p', "p",
     [LATTICE + "test_parse_degree_rejects[-1/2]"]),
    ("fuzzybisim/lattice.py", 'g.replace("_", "") for g in', "g for g in",
     [LATTICE + "test_degree_literal_table"]),
    ("fuzzybisim/lattice.py", "> MAX_EXPONENT:", ">= MAX_EXPONENT:",
     [LATTICE + "test_parse_degree_exponent_bound"]),
    ("fuzzybisim/lattice.py", r"\s*/\s*", "/",
     [LATTICE + "test_degree_literal_table",
      "tests/test_output_corpus.py::test_output_corpus_replays"]),
]


def mutate(src: Path, path: str, snippet: str, replacement: str) -> None:
    """Apply one mutant to the copy at src; ValueError unless its snippet occurs once."""
    target = src / path
    text = target.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        raise ValueError(f"{path}: {snippet!r} occurs {text.count(snippet)} times, not once")
    target.write_text(text.replace(snippet, replacement, 1), encoding="utf-8")


def survivors(path: str, snippet: str, replacement: str, tests: list) -> list:
    """The named tests that pass with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutate(src, path, snippet, replacement)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        # pythonpath overrides pyproject's, so the tests import the mutated copy
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return [test for test in tests if test not in failed]


def main() -> int:
    bad = 0
    for path, snippet, replacement, tests in MUTANTS:
        label = f"{path}: {' '.join(snippet.split())!r} -> {replacement.strip()!r}"
        try:
            alive = survivors(path, snippet, replacement, tests)
        except (ValueError, RuntimeError) as exc:
            print(f"ERROR {label}: {exc}")
            bad += 1
            continue
        print(("SURVIVED " if alive else "killed ") + label + "".join(
            f"\n    passed: {test}" for test in alive))
        bad += bool(alive)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
