import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzybisim
from fuzzybisim import automaton_from_obj

FIXTURES = Path(__file__).parent / "fixtures"


def run_python(args, env_extra=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with args; it imports the package this process imported."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fuzzybisim.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(env_extra or {})
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=env)


def load_automaton(name):
    return automaton_from_obj(json.loads((FIXTURES / name).read_text()))


@pytest.fixture(scope="session")
def aut_a():
    return load_automaton("ex_a.json")


@pytest.fixture(scope="session")
def aut_ap():
    return load_automaton("ex_a_prime.json")


@pytest.fixture()
def fixture_dir():
    return FIXTURES
