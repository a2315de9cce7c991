"""Spans and counters for the traced child, and the per-layer metrics made from them.

`install()` replaces the public cross-module functions of the four layers
with wrappers that record a span (name, start, end, parent) and update
counters at the same boundary. The replacement is made in every loaded
`autbounds` module that holds the function, so calls between modules and
within one module are both seen. Nothing under `src/` changes, and only the
traced child calls `install()`.

A span is recorded only inside a phase, so the benchmark's checks, which run
between phases, leave no spans. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from math import ceil


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str, count=None):
        """`fn` recording a span `name`; `count(counts, args, result)` runs after it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced


def _points(counts, args, result):
    counts["lattice.longest_chain.points"] += len(args[0])


def _pairs(counts, args, result):
    sets = [len(s) for s in args]
    if len(sets) == 2:
        counts["lattice.pair_sum.pairs"] += sets[0] * sets[1]
    else:  # union_midpoint_count(a1, a3, a2) counts a1.a3 and a2.a2
        counts["lattice.pair_sum.pairs"] += sets[0] * sets[1] + sets[2] * sets[2]


def _suite(counts, args, result):
    counts["lemmas.draws"] += sum(row["draws"] for row in result.rows)
    counts["lemmas.admissible"] += result.admissible_count


def _classes(counts, args, result):
    counts["covers.classes"] += len(result)


def _levels(counts, args, result):
    n_star, cert = result
    counts["bounds.universal_n.levels"] += n_star - cert["chain_floor"]["n"] + 1


# (module, function, span name, counter). Several functions may share a span name.
TRACED = (
    ("lattice", "longest_chain", "lattice.longest_chain", _points),
    ("lattice", "midpoint_count", "lattice.pair_sum", _pairs),
    ("lattice", "union_midpoint_count", "lattice.pair_sum", _pairs),
    ("lattice", "arrangement", "lattice.arrangement", None),
    ("lattice", "dimension", "lattice.dimension", None),
    ("lemmas", "run_lemma_suite", "lemmas.suite", _suite),
    ("lemmas", "triple_for_rule", "lemmas.generate", None),
    ("lemmas", "hypothesis_report", "lemmas.hypothesis", None),
    ("lemmas", "verify_lemma", "lemmas.verify", None),
    ("covers", "enumerate_extremal", "covers.enumerate", None),
    ("covers", "branch_data_for", "covers.branch_data_for", _classes),
    ("covers", "canonical_branch", "covers.canonical_branch", None),
    ("covers", "hyperelliptic_witness", "covers.witness", None),
    ("covers", "order2_witnesses", "covers.witness", None),
    ("bounds", "universal_n", "bounds.universal_n", _levels),
    ("bounds", "confirm_universal_n", "bounds.confirm", None),
    ("bounds", "decomposability_margin", "bounds.margin", None),
    ("bounds", "surface_bound", "bounds.surface_bound", None),
    ("bounds", "threefold_constant", "bounds.constant", None),
)


def _trace_aut_builds(tracer: Tracer, group_class) -> None:
    """Record the first `automorphisms()` call per group as a build span.

    Each child is a fresh process, so the first call for a group is the one
    that builds Aut(G), however the layer caches it.
    """
    original = group_class.automorphisms
    built = set()

    @functools.wraps(original)
    def automorphisms(self):
        key = self.invariant_factors
        if key in built or not tracer.stack:
            return original(self)
        built.add(key)
        index = tracer.open("covers.aut_build")
        try:
            result = original(self)
        finally:
            tracer.close(index)
        tracer.counts["covers.aut_elements"] += len(result)
        return result

    group_class.automorphisms = automorphisms


def install() -> Tracer:
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "autbounds" or name.startswith("autbounds.")]
    for module_name, attr, span, count in TRACED:
        original = getattr(sys.modules[f"autbounds.{module_name}"], attr)
        wrapper = tracer.wrap(original, span, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    _trace_aut_builds(tracer, sys.modules["autbounds.covers"].FiniteAbelianGroup)
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("lattice", "lemmas", "covers", "bounds")
CHAIN_RULES = ("2.5", "2.6", "2.7")


def _percentile(values, p):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, ceil(p * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced child, by name."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            child_ns[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start - child_ns[i]) / 1e9

    # a trial of a suite runs from the end of the previous verify_lemma (or
    # the suite's start) to the end of its own verify_lemma
    trials = []
    last_end = {}
    for name, start, end, parent in spans:
        if name == "lemmas.verify" and parent is not None and spans[parent][0] == "lemmas.suite":
            begin = last_end.get(parent, spans[parent][1])
            trials.append((end - begin) / 1e6)
            last_end[parent] = end

    chain_by_rule = {rule: [0, 0.0] for rule in CHAIN_RULES}
    for i, (name, start, end, _) in enumerate(spans):
        phase = spans[root[i]][0]
        if name == "lattice.longest_chain" and phase.startswith("suite-") and phase[6:] in chain_by_rule:
            chain_by_rule[phase[6:]][0] += 1
            chain_by_rule[phase[6:]][1] += (end - start - child_ns[i]) / 1e9

    counts = tracer.counts
    metrics = {
        "lattice.longest_chain.calls": calls["lattice.longest_chain"],
        "lattice.longest_chain.points": counts["lattice.longest_chain.points"],
        "lattice.longest_chain.self_s": self_s["lattice.longest_chain"],
    }
    for rule, (n, s) in chain_by_rule.items():
        metrics[f"lattice.longest_chain.rule{rule}.calls"] = n
        metrics[f"lattice.longest_chain.rule{rule}.self_s"] = s
    draws = counts["lemmas.draws"]
    canonical = calls["covers.canonical_branch"]
    metrics.update({
        "lattice.pair_sum.calls": calls["lattice.pair_sum"],
        "lattice.pair_sum.pairs": counts["lattice.pair_sum.pairs"],
        "lattice.pair_sum.self_s": self_s["lattice.pair_sum"],
        "lattice.arrangement.calls": calls["lattice.arrangement"],
        "lattice.arrangement.self_s": self_s["lattice.arrangement"],
        "lattice.dimension.calls": calls["lattice.dimension"],
        "lattice.dimension.self_s": self_s["lattice.dimension"],
        "lemmas.suite.self_s": self_s["lemmas.suite"],
        "lemmas.generate.calls": calls["lemmas.generate"],
        "lemmas.generate.self_s": self_s["lemmas.generate"],
        "lemmas.hypothesis.calls": calls["lemmas.hypothesis"],
        "lemmas.hypothesis.self_s": self_s["lemmas.hypothesis"],
        "lemmas.verify.calls": calls["lemmas.verify"],
        "lemmas.verify.self_s": self_s["lemmas.verify"],
        "lemmas.draws": draws,
        "lemmas.admissible_per_draw": counts["lemmas.admissible"] / draws if draws else 0.0,
        "lemmas.trial_p50_ms": _percentile(trials, 0.5),
        "lemmas.trial_p90_ms": _percentile(trials, 0.9),
        "lemmas.trial_max_ms": _percentile(trials, 1.0),
        "covers.enumerate.self_s": self_s["covers.enumerate"],
        "covers.branch_data_for.calls": calls["covers.branch_data_for"],
        "covers.branch_data_for.self_s": self_s["covers.branch_data_for"],
        "covers.aut_builds": calls["covers.aut_build"],
        "covers.aut_elements": counts["covers.aut_elements"],
        "covers.aut_build_s": self_s["covers.aut_build"],
        "covers.canonical_branch.calls": canonical,
        "covers.canonical_branch.self_s": self_s["covers.canonical_branch"],
        "covers.classes_per_canonical": counts["covers.classes"] / canonical if canonical else 0.0,
        "covers.witness.calls": calls["covers.witness"],
        "covers.witness.self_s": self_s["covers.witness"],
        "bounds.universal_n.calls": calls["bounds.universal_n"],
        "bounds.universal_n.levels": counts["bounds.universal_n.levels"],
        "bounds.universal_n.self_s": self_s["bounds.universal_n"],
        "bounds.confirm.self_s": self_s["bounds.confirm"],
        "bounds.constant.self_s": self_s["bounds.constant"],
        "bounds.margin.calls": calls["bounds.margin"],
        "bounds.margin.self_s": self_s["bounds.margin"],
        "bounds.surface_bound.calls": calls["bounds.surface_bound"],
        "bounds.surface_bound.self_s": self_s["bounds.surface_bound"],
    })
    layer_self = defaultdict(float)
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_self[layer] / wall_s if wall_s else 0.0
    metrics["trace.spans"] = len(spans)
    metrics["trace.wall_s"] = wall_s
    return metrics


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    if last == "share" or "_per_" in last:
        return "ratio"
    return "count"
