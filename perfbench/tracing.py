"""Span tracing of wallman's layers, installed from outside the package.

`install` replaces the public functions named in LAYERS by wrappers that
record one span per call: name, start, end, parent span and job id.  A
function is patched in every ``wallman.*`` namespace that holds it, since
``from .lattice import is_distributive`` binds the original early.  Methods
and classmethods are patched on their class.  ``FiniteLattice.meet`` and
``join`` are only counted, in a pass of their own: a span per lookup would
swamp the run.

A layer's ``_ms`` metric is the summed self time of its functions' spans,
that is each span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    """One per-layer metric group and the end-to-end metric it should move."""

    ms: str  # self-time metric, e.g. "lattice.build_ms"
    functions: tuple  # "module:qualname" of the wrapped callables
    target: str  # end-to-end metric and workload it should move
    calls: Optional[str] = None  # call-count metric, if reported


LAYERS = (
    Layer(
        "lattice.build_ms",
        (
            "lattice:load_lattice",
            "lattice:FiniteLattice.from_up_rows",
            "lattice:FiniteLattice.from_keys",
            "lattice:chain_lattice",
            "lattice:powerset_lattice",
            "lattice:opposite",
            "lattice:attach_bottom",
        ),
        "jobs_per_s and job_ms.p50 on cli_tables (O(n^3) tables per CLI job); "
        "~0 share on keyed_library, exactly 0 on cert_rank",
        calls="lattice.build_calls",
    ),
    Layer(
        "lattice.predicates_ms",
        (
            "lattice:is_distributive",
            "lattice:is_normal",
            "lattice:is_separative",
            "lattice:is_boolean",
            "lattice:lattice_report",
        ),
        "job_ms.p90 on keyed_library and cli_tables",
        calls="lattice.predicates_calls",
    ),
    Layer(
        "lattice.structure_ms",
        (
            "lattice:atoms",
            "lattice:join_irreducibles",
            "lattice:generated_sublattice",
            "lattice:FiniteLattice.materialize_rows",
        ),
        "jobs_per_s on keyed_library and cli_tables",
    ),
    Layer(
        "filters.enumerate_ms",
        ("filters:enumerate_filters",),
        "job_ms.p50 on cli_tables",
        calls="filters.enumerate_calls",
    ),
    Layer(
        "filters.classify_ms",
        (
            "filters:is_filter",
            "filters:is_ideal",
            "filters:is_prime",
            "filters:is_ultra",
            "filters:is_centered",
            "filters:generated_filter",
            "filters:unique_ultrafilter_extension",
            "filters:ultrafilter_extensions",
        ),
        "jobs_per_s on keyed_library (induced_map runs is_prime per point)",
    ),
    Layer(
        "spaces.build_ms",
        ("spaces:build_space",),
        "jobs_per_s on keyed_library; space/suite jobs of cli_tables",
    ),
    Layer(
        "spaces.closed_family_ms",
        ("spaces:WallmanSpace.closed_family",),
        "jobs_per_s on keyed_library; space/suite jobs of cli_tables",
    ),
    Layer(
        "spaces.separation_ms",
        ("spaces:separation_axioms",),
        "jobs_per_s on keyed_library; space/suite jobs of cli_tables",
    ),
    Layer(
        "spaces.suite_ms",
        ("spaces:theorem_suite",),
        "jobs_per_s on keyed_library; suite jobs of cli_tables",
    ),
    Layer(
        "homs.verify_ms",
        ("homs:verify_hom",),
        "jobs_per_s and job_ms.p50 on keyed_library; 0 on cert_rank",
    ),
    Layer(
        "homs.induced_ms",
        ("homs:induced_map",),
        "jobs_per_s and job_ms.p50 on keyed_library; 0 on cert_rank",
    ),
    Layer(
        "homs.alexandrov_ms",
        ("homs:alexandrov",),
        "jobs_per_s and job_ms.p50 on keyed_library; 0 on cert_rank",
    ),
    Layer(
        "homs.laws_ms",
        (
            "homs:functor_laws",
            "homs:separativity_equivalence",
            "homs:surjectivity_from_kernel",
            "homs:embedding_from_separation",
            "homs:is_separative_hom",
        ),
        "jobs_per_s and job_ms.p50 on keyed_library; 0 on cert_rank",
    ),
    Layer(
        "covers.rank_ms",
        ("covers:stabilized_rank", "covers:max_increasing_chain"),
        "jobs_per_s and job_ms.p90 on cert_rank",
        calls="covers.rank_calls",
    ),
    Layer(
        "covers.centered_ms",
        ("covers:centered_subsets", "covers:centered_poset_rank"),
        "jobs_per_s and job_ms.p90 on cert_rank",
    ),
    Layer(
        "covers.refine_ms",
        ("covers:wiec_refinement", "covers:rosenthal_refinement"),
        "jobs_per_s on cert_rank",
    ),
    Layer(
        "covers.family_ms",
        (
            "covers:CoverFamily.__init__",
            "covers:is_T0_separating",
            "covers:phi_from_witness",
            "covers:ord_count",
        ),
        "job_ms.p50 on cert_rank",
    ),
    Layer(
        "io.load_ms",
        (
            "io:resolve_lattice",
            "io:load_lattice_file",
            "io:builtin_lattice",
            "io:load_family_file",
            "io:load_phi_file",
        ),
        "job_ms.p50 on cli_tables and cert_rank",
    ),
    Layer(
        "io.dump_ms",
        ("io:dump_space", "io:dump_filter", "io:dump_family", "io:dump_lattice"),
        "job_ms.p50 on cli_tables and cert_rank",
    ),
    Layer(
        "cli.self_ms",
        ("cli:main",),
        "job_ms.p50 on cert_rank (argparse, report assembly, JSON emit)",
        calls="cli.calls",
    ),
    Layer(
        "gen.ms",
        (
            "gen:random_poset",
            "gen:downset_lattice",
            "gen:random_downset_lattice",
            "gen:boolean_algebra",
            "gen:random_boolean_hom",
            "gen:random_staged_family",
        ),
        "setup_s (set-up only)",
    ),
)

# Counters read off a wrapped call's arguments and result:
# "module:qualname" -> [(metric, fn(args, result) -> int)]
# Except for filters.candidates these are sizes of results that the inputs
# fix, so they are invariants, not goals: the `better` direction that
# BENCHMARK.json must give them means nothing, and a change in one is a
# correctness signal (the output digests say whether the results changed)
# unless it comes with fewer calls.  The same holds for filters.yield.
COUNTERS = {
    "filters:enumerate_filters": [
        ("filters.candidates", lambda args, res: args[0].n - 1),
        ("filters.found", lambda args, res: len(res)),
    ],
    "spaces:build_space": [("spaces.points", lambda args, res: len(res.points))],
    "spaces:WallmanSpace.closed_family": [
        ("spaces.closed_sets", lambda args, res: len(res))
    ],
    "homs:alexandrov": [
        ("homs.algebra_elements", lambda args, res: res.algebra.n)
    ],
    "covers:centered_subsets": [
        ("covers.centered_sets", lambda args, res: len(res))
    ],
}

COUNTED_METHODS = ("lattice:FiniteLattice.meet", "lattice:FiniteLattice.join")

PACKAGE = "wallman"
SETUP_JOB = -1  # job id of spans made while the inputs are generated


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out.append((layer.ms, "ms"))
        if layer.calls:
            out.append((layer.calls, "count"))
    out.append(("lattice.meet_join_calls", "count"))
    for specs in COUNTERS.values():
        out.extend((metric, "count") for metric, _ in specs)
    out.append(("filters.yield", "ratio"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


@dataclass
class Tracer:
    """Spans of the current pass, kept in memory until the pass ends."""

    job: int = SETUP_JOB
    spans: list = field(default_factory=list)  # [name, start, end, parent, job, self]
    counts: dict = field(default_factory=dict)
    meet_join: int = 0
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)  # (owner, attribute, original)

    def reset(self) -> None:
        self.spans, self.counts, self.meet_join = [], {}, 0

    def wrap(self, fn: Callable, name: str) -> Callable:
        counters = COUNTERS.get(name, ())
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.job, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                dur = rec[2] - rec[1]
                rec[5] += dur  # children have subtracted their durations
                if parent >= 0:
                    spans[parent][5] -= dur
            if self.job != SETUP_JOB:
                for metric, count in counters:
                    self.counts[metric] = self.counts.get(metric, 0) + count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn: Callable, name: str) -> Callable:
        def counted(*args):
            if self.job != SETUP_JOB:
                self.meet_join += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def install(self, count_meet_join: bool = False) -> None:
        """Patch every LAYERS function in place, or with count_meet_join
        only the counted methods: a wrapper on every lookup would add its
        own cost to the self time of whichever layer does the lookups."""
        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        if count_meet_join:
            for name in COUNTED_METHODS:
                self._patch(modules, name, self.counting)
            return
        for layer in LAYERS:
            for name in layer.functions:
                self._patch(modules, name, self.wrap)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, modules, name, make) -> None:
        mod_name, qual = name.split(":")
        mod = sys.modules[f"{PACKAGE}.{mod_name}"]
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__, name)))
            else:
                self._set(cls, attr, make(raw, name))
            return
        orig = getattr(mod, qual)
        new = make(orig, name)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, attr, new)


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of the spans held: gen counts only in set-up,
    every other layer only inside jobs."""
    layer_of = {fn: layer for layer in LAYERS for fn in layer.functions}
    out = {name: 0.0 if unit == "ms" else 0 for name, unit in metric_names()}
    for rec in tracer.spans:
        layer = layer_of[rec[0]]
        if (rec[4] == SETUP_JOB) != (layer.ms == "gen.ms"):
            continue
        out[layer.ms] += rec[5] * 1000.0
        if layer.calls:
            out[layer.calls] += 1
    out.update(tracer.counts)
    return out
