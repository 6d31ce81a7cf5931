"""In-process tracing for the benchmark's per-layer numbers.

`Tracer` replaces module attributes that callers look up (for example
`fuzzybisim.cli.greatest_fuzzy_simulation` or `fuzzybisim.simrel.compose_rel_rel`)
with wrappers that record a span (name, layer, start, end, parent, job) in
memory.  A layer is the module that defines the wrapped function.  A target
that no longer exists, or a counter that no longer fits its call, raises:
the metrics built on them must never read 0 because the package changed.

`LatticeCounter` is the separate counting pass: lattice operations run
millions of times, so they get counters and a uniform operand sample, not
spans.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute) pairs to wrap; the span name and layer come from the
# function's own __module__ and __name__
TARGETS = {
    "fuzzybisim.cli": (
        "parse_automaton", "lang_degree", "parse_relation", "relation_json_array",
        "eval_formula", "hm_degree_bounded", "parse_formula",
        "check_fuzzy_simulation", "check_fuzzy_bisimulation",
        "check_crisp_simulation", "check_crisp_bisimulation",
        "check_lambda_approx_simulation", "check_lambda_approx_bisimulation",
        "greatest_fuzzy_simulation", "greatest_fuzzy_bisimulation", "max_approx_lambda",
        "sim_norm", "bisim_norm", "verify_preservation", "report_to_obj",
        "preservation_to_obj",
    ),
    "fuzzybisim.simrel": (
        "compose_rel_rel", "compose_rel_set", "compose_set_rel", "compose_set_set",
        "converse", "pointwise_leq", "subsethood", "relation_json_array",
        "sim_norm", "bisim_norm", "max_live_word_length",
    ),
    "fuzzybisim.automata": ("compose_set_rel", "compose_set_set"),
    "fuzzybisim.hmlogic": ("constant_pool", "_top_atoms"),
}

LAYERS = ("cli", "automata", "fuzzyrel", "simrel", "hmlogic")


def _words(args, kwargs) -> int:
    """Words verify_preservation enumerates: all words up to length k."""
    a, ap, k = args[1], args[2], args[4]
    sigma = len(set(a.alphabet) | set(ap.alphabet))
    return sum(sigma ** i for i in range(k + 1))


# per-function counters recorded from a call's arguments or result
COUNTERS = {
    "simrel.verify_preservation": ("preservation.words", lambda a, k, r: _words(a, k)),
    "hmlogic.constant_pool": ("hm.pool_size", lambda a, k, r: len(r)),
    "hmlogic._top_atoms": ("hm.atoms", lambda a, k, r: len(r)),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.counters: list = []     # (job, counter name, value)
        self._saved: list = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                tracer.counters.append((tracer.job, counter[0], counter[1](args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        import importlib
        try:
            for modname, attrs in TARGETS.items():
                module = importlib.import_module(modname)
                for attr in attrs:
                    fn = getattr(module, attr)
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, f"{layer}.{fn.__name__}", layer))
            yield self
        finally:
            for module, attr, fn in reversed(self._saved):
                setattr(module, attr, fn)
            self._saved.clear()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, e.g. around one cli.main call."""
        span = [name, layer, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list:
        """Per-span self time: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[3] - s[2]) - c for s, c in zip(self.spans, child)]

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for span, st in zip(self.spans, self.self_times()):
            out[span[1]] = out.get(span[1], 0.0) + st
        return out

    def group_time(self, names) -> float:
        """Inclusive time of spans in the group, counting nested members once."""
        names = set(names)
        total = 0.0
        for span in self.spans:
            if span[0] not in names:
                continue
            p = span[4]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][4]
            if p < 0:
                total += span[3] - span[2]
        return total

    def self_time(self, names) -> float:
        names = set(names)
        return sum(st for span, st in zip(self.spans, self.self_times()) if span[0] in names)

    def durations(self, name: str) -> list:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def count(self, prefix: str) -> int:
        return sum(1 for s in self.spans if s[0].startswith(prefix))

    def counter_values(self, name: str) -> list:
        return [v for _job, n, v in self.counters if n == name]


class LatticeCounter:
    """Counts ResiduatedLattice.tnorm/residuum/biresiduum calls and keeps a
    uniform sample of each (kind, op)'s operands over the whole pass.

    The sample is a reservoir (Li's algorithm L, seeded, so a run repeats):
    every call is equally likely to be kept, whether it came early or late in
    the pass, and only the calls that replace a kept operand draw a number."""

    OPS = ("tnorm", "residuum", "biresiduum")
    SAMPLE_MAX = 2048

    def __init__(self):
        self.counts: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self.rng = random.Random(0)
        self._next: dict = {}    # (kind, op) -> call number of the next replacement
        self._w: dict = {}

    def _skip(self, key, n: int) -> None:
        rng, k = self.rng, self.SAMPLE_MAX
        self._w[key] = self._w.get(key, 1.0) * math.exp(math.log(1.0 - rng.random()) / k)
        self._next[key] = n + 1 + int(math.log(1.0 - rng.random()) / math.log1p(-self._w[key]))

    def _offer(self, key, n: int, a, b) -> None:
        sample = self.samples[key]
        if len(sample) < self.SAMPLE_MAX:
            sample.append((a, b))
            if len(sample) == self.SAMPLE_MAX:
                self._skip(key, n)
        elif n == self._next[key]:
            sample[self.rng.randrange(self.SAMPLE_MAX)] = (a, b)
            self._skip(key, n)

    @contextmanager
    def installed(self):
        from fuzzybisim.lattice import ResiduatedLattice
        saved = {op: ResiduatedLattice.__dict__[op] for op in self.OPS}
        counts, nxt, offer = self.counts, self._next, self._offer

        def make(op, orig):
            def wrapper(lat, a, b):
                key = (lat.kind, op)
                n = counts[key] + 1
                counts[key] = n
                if n == nxt.get(key, n):
                    offer(key, n, a, b)
                return orig(lat, a, b)
            return wrapper

        try:
            for op, orig in saved.items():
                setattr(ResiduatedLattice, op, make(op, orig))
            yield self
        finally:
            for op, orig in saved.items():
                setattr(ResiduatedLattice, op, orig)
