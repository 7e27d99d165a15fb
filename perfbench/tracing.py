"""Traced runs: a span tree over the ``repro.obs`` stream, the
span-to-layer map, and the per-layer metrics.

Spans come from two sources.  The benchmark's own request code
(:mod:`workloads`) opens spans around each request and each call into a
layer's public function; the program's layers emit ``algebra.*``,
``compile.net``, ``engine.*``, ``verify.*`` and ``bench.*`` spans.  Where
a layer emits no span on a path a request takes, :func:`instrumented`
wraps the public function at the place its caller looks it up, for the
duration of a traced pass only.

A span's self time is its duration minus the durations of its child
spans (children run one after another, so they never overlap).  Each
span name maps to exactly one layer; the request span maps to none, so
its self time is the request's unattributed time and the layer self
times plus ``unattributed_ms`` add up to the request wall time.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Any

from repro.obs import metrics as obs

LAYERS = (
    "io",
    "expansion",
    "algebra",
    "compile",
    "explore",
    "parallel",
    "solve",
    "analysis",
    "verify",
    "cache",
    "bench",
)

#: The root span of every traced request; it belongs to no layer.
REQUEST_SPAN = "request"

#: Every span name a traced run may see, mapped to exactly one layer.
SPAN_LAYERS: dict[str, str | None] = {
    REQUEST_SPAN: None,
    # the benchmark's own spans (workloads.py and instrumented())
    "io.load_stg": "io",
    "expansion.expand_cip": "expansion",
    "expansion.compose_all": "expansion",
    "algebra.simplify_against_environment": "algebra",
    "algebra.hide_transition": "algebra",
    "analysis.analyze": "analysis",
    "verify.check_receptiveness": "verify",
    "bench.run_corpus": "bench",
    "cache.load": "cache",
    "cache.store": "cache",
    "solve.marking_unreachable": "solve",
    # spans the program emits
    "algebra.parallel": "algebra",
    "algebra.choice": "algebra",
    "algebra.compose": "algebra",
    "algebra.hide": "algebra",
    "algebra.remove_dead_transitions": "algebra",
    "algebra.trim": "algebra",
    "compile.net": "compile",
    "engine.eager.explore": "explore",
    "engine.product.compare_languages": "explore",
    "engine.product.deterministic_bisimulation": "explore",
    "engine.parallel.explore": "parallel",
    "engine.symbolic.analyze": "solve",
    "verify.receptiveness": "verify",
    "verify.receptiveness.search": "explore",
    "verify.receptiveness.structural": "solve",
    "verify.receptiveness.symbolic": "solve",
    "verify.language.equal": "verify",
    "verify.language.contained": "verify",
    "verify.bisim.strong": "verify",
    "verify.bisim.weak": "verify",
    "verify.conformance.containment": "verify",
    "verify.conformance.receptiveness": "verify",
    "bench.instance": "bench",
    # a corpus cell is one engine run; its body is exploration (or the
    # symbolic analysis, which has its own child span)
    "bench.cell": "explore",
    "cli.info.classify": "analysis",
    "cli.info.behaviour": "analysis",
}

#: Sub-breakdowns of the algebra layer's self time.
ALGEBRA_PARTS = {
    "compose_ms": ("algebra.parallel", "algebra.compose"),
    "hide_ms": ("algebra.hide", "algebra.hide_transition"),
    "trim_ms": ("algebra.trim", "algebra.remove_dead_transitions"),
}

#: Algebra spans that each derive one new net.
DERIVING_SPANS = (
    "algebra.parallel",
    "algebra.compose",
    "algebra.choice",
    "algebra.hide_transition",
    "algebra.trim",
    "algebra.remove_dead_transitions",
)

#: Solve spans whose work the ``engine.symbolic.systems`` counter counts.
SYSTEM_SPANS = ("engine.symbolic.analyze", "verify.receptiveness.symbolic")

#: Per-layer metrics: name -> unit.
UNITS = {
    "io.self_ms": "ms",
    "io.files": "count",
    "io.nodes_per_ms": "nodes/ms",
    "expansion.self_ms": "ms",
    "algebra.self_ms": "ms",
    "algebra.compose_ms": "ms",
    "algebra.hide_ms": "ms",
    "algebra.trim_ms": "ms",
    "algebra.contractions": "count",
    "algebra.derived_transitions": "count",
    "compile.self_ms": "ms",
    "compile.nets": "count",
    "compile.ms_per_net": "ms",
    "explore.self_ms": "ms",
    "explore.states": "count",
    "explore.edges": "count",
    "explore.states_per_ms": "states/ms",
    "explore.enabledness_checks": "count",
    "explore.interner_hit_rate": "ratio",
    "explore.frontier_peak": "count",
    "explore.reduction_ratio": "ratio",
    "parallel.self_ms": "ms",
    "parallel.states": "count",
    "parallel.cross_shard_ratio": "ratio",
    "parallel.batches": "count",
    "solve.self_ms": "ms",
    "solve.systems": "count",
    "solve.constraints": "count",
    "solve.ms_per_system": "ms",
    "solve.conclusive_ratio": "ratio",
    "analysis.self_ms": "ms",
    "verify.self_ms": "ms",
    "verify.obligations": "count",
    "verify.failures": "count",
    "cache.self_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.writes": "count",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "cache.corrupt": "count",
    "bench.self_ms": "ms",
    "bench.cells": "count",
    "unattributed_ms": "ms",
    "trace_overhead_ratio": "ratio",
}

#: Counts that two traced runs with the same seed reproduce exactly; later
#: changes may cite only these.  ``parallel.batches`` and
#: ``parallel.cross_shard_ratio`` depend on how the worker processes are
#: scheduled and hash states, so they are left out.
EXACT = (
    "io.files",
    "algebra.contractions",
    "algebra.derived_transitions",
    "compile.nets",
    "explore.states",
    "explore.edges",
    "explore.enabledness_checks",
    "explore.interner_hit_rate",
    "explore.frontier_peak",
    "explore.reduction_ratio",
    "parallel.states",
    "solve.systems",
    "solve.constraints",
    "solve.conclusive_ratio",
    "verify.obligations",
    "verify.failures",
    "cache.hits",
    "cache.misses",
    "cache.hit_ratio",
    "cache.writes",
    "cache.bytes_read",
    "cache.bytes_written",
    "cache.corrupt",
    "bench.cells",
)


class SpanTree(obs.MetricsRecorder):
    """A recorder that also remembers each span's parent span."""

    def __init__(self, clock=None):
        super().__init__(clock)
        self.parents: list[int | None] = []
        self._open: list[int] = []

    def start_span(self, name: str, meta: dict[str, Any]) -> obs.SpanRecord:
        record = super().start_span(name, meta)
        self.parents.append(self._open[-1] if self._open else None)
        self._open.append(len(self.spans) - 1)
        return record

    def end_span(self, span: obs.SpanRecord) -> None:
        super().end_span(span)
        if self.spans[self._open[-1]] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's durations."""
        own = [span.duration for span in self.spans]
        for span, parent in zip(self.spans, self.parents):
            if parent is not None:
                own[parent] -= span.duration
        return own


def _spanned(name: str, function, describe=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with obs.span(name) as span:
            result = function(*args, **kwargs)
            if describe is not None:
                span.set(**describe(result))
            return result

    return wrapper


@contextmanager
def instrumented():
    """Wrap the un-spanned public functions the requests reach inside
    the program, at the place their callers look them up."""
    from repro.cache.store import ArtifactStore

    # import_module, because packages re-export functions under their
    # submodules' names (``repro.algebra.hide`` the function).
    hide_module = importlib.import_module("repro.algebra.hide")
    corpus_module = importlib.import_module("repro.bench.corpus")
    symbolic_module = importlib.import_module("repro.petri.symbolic")

    def nodes(stg) -> dict:
        return {"nodes": len(stg.net.places) + len(stg.net.transitions)}

    def transitions(net) -> dict:
        return {"transitions_after": len(net.transitions)}

    targets = [
        (corpus_module, "load_stg", "io.load_stg", nodes),
        (hide_module, "hide_transition", "algebra.hide_transition", transitions),
        (ArtifactStore, "load", "cache.load", None),
        (ArtifactStore, "store", "cache.store", None),
        (symbolic_module, "marking_unreachable", "solve.marking_unreachable", None),
    ]
    wrapped = []
    try:
        for owner, attribute, name, describe in targets:
            original = getattr(owner, attribute)
            wrapped.append((owner, attribute, original))
            setattr(owner, attribute, _spanned(name, original, describe))
        yield
    finally:
        for owner, attribute, original in wrapped:
            setattr(owner, attribute, original)


def request_sums(tree: SpanTree) -> dict[str, float]:
    """The additive raw figures of one traced request.

    Raises :class:`KeyError` naming any span the layer map lacks, so new
    spans cannot silently move time into ``unattributed_ms``.
    """
    unknown = sorted({s.name for s in tree.spans} - set(SPAN_LAYERS))
    if unknown:
        raise KeyError(f"spans missing from SPAN_LAYERS: {', '.join(unknown)}")
    roots = [span.name for span, parent in zip(tree.spans, tree.parents) if parent is None]
    if roots != [REQUEST_SPAN]:
        raise ValueError(f"a traced request is one tree under a request span, not {roots}")
    sums: dict[str, float] = {"requests": 1, "wall_s": tree.spans[0].duration}

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0) + value

    for span, own in zip(tree.spans, tree.self_times()):
        layer = SPAN_LAYERS[span.name]
        add(f"self_s.{layer or 'unattributed'}", own)
        add(f"span_self_s.{span.name}", own)
        add(f"spans.{span.name}", 1)
        meta = span.meta
        if span.name == "io.load_stg":
            add("io.nodes", meta.get("nodes", 0))
        elif span.name == "verify.receptiveness":
            add("verify.obligations", meta.get("obligations", 0))
            add("verify.failures", meta.get("failures", 0))
        elif span.name == "bench.cell" and meta.get("engine") in ("onthefly", "por"):
            # Lazy corpus cells publish no engine counters; their
            # finished counts ride on the cell span.
            if not meta.get("cached") and meta.get("outcome") == "ok":
                add("explore.states", meta["states"])
                add("explore.edges", meta["edges"])
        if span.name in DERIVING_SPANS:
            add(
                "algebra.derived_transitions",
                meta.get("transitions_after", meta.get("transitions", 0)),
            )
    counters, gauges = tree.counters, tree.gauges
    for engine in ("eager", "lazy"):
        add("explore.states", counters.get(f"engine.{engine}.states", 0))
        add("explore.edges", counters.get(f"engine.{engine}.edges", 0))
    if "engine.lazy.reduced_states" in counters:
        add("explore.reduced", counters["engine.lazy.reduced_states"])
        add("explore.reduced_base", counters.get("engine.lazy.states", 0))
    sums["explore.frontier_peak"] = max(
        gauges.get("engine.eager.frontier_peak", 0),
        gauges.get("engine.lazy.frontier_peak", 0),
    )
    for name in (
        "engine.lazy.enabledness_checks",
        "engine.lazy.interner_hits",
        "engine.lazy.states",
        "compile.nets",
        "parallel.states",
        "parallel.edges",
        "parallel.cross_shard_states",
        "parallel.batches",
        "engine.symbolic.systems",
        "engine.symbolic.constraints",
        "engine.symbolic.conclusive",
        "engine.symbolic.inconclusive",
        "cache.hits",
        "cache.misses",
        "cache.writes",
        "cache.bytes_read",
        "cache.bytes_written",
        "cache.corrupt",
        "bench.cells",
    ):
        add(name, counters.get(name, 0))
    return sums


def combine(per_request: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-request figures; peaks combine by maximum."""
    total: dict[str, float] = {}
    for sums in per_request:
        for key, value in sums.items():
            if key == "explore.frontier_peak":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(
    total: dict[str, float], traced_s: float, untraced_s: float
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from combined request figures, plus the names of
    those not applicable to the workload (reported as 0).

    Times and counts are per request; ratios are ratios of sums.
    """
    n = total["requests"]
    get = total.get
    metrics: dict[str, float] = {}
    missing: list[str] = []

    def per_request(name: str, value: float) -> None:
        metrics[name] = value / n

    def ratio(name: str, numerator: float, denominator: float) -> None:
        if denominator:
            metrics[name] = numerator / denominator
        else:
            metrics[name] = 0
            missing.append(name)

    def span_ms(*names: str) -> float:
        return 1e3 * sum(get(f"span_self_s.{name}", 0) for name in names)

    for layer in LAYERS:
        if not any(
            get(f"spans.{name}") for name, owner in SPAN_LAYERS.items() if owner == layer
        ):
            missing += [name for name in UNITS if name.startswith(f"{layer}.")]
        per_request(f"{layer}.self_ms", 1e3 * get(f"self_s.{layer}", 0))
    layer_ms = {layer: 1e3 * get(f"self_s.{layer}", 0) for layer in LAYERS}

    per_request("io.files", get("spans.io.load_stg", 0))
    ratio("io.nodes_per_ms", get("io.nodes", 0), layer_ms["io"])
    for part, names in ALGEBRA_PARTS.items():
        per_request(f"algebra.{part}", span_ms(*names))
    per_request("algebra.contractions", get("spans.algebra.hide_transition", 0))
    per_request("algebra.derived_transitions", get("algebra.derived_transitions", 0))
    per_request("compile.nets", get("compile.nets", 0))
    ratio("compile.ms_per_net", layer_ms["compile"], get("compile.nets", 0))
    per_request("explore.states", get("explore.states", 0))
    per_request("explore.edges", get("explore.edges", 0))
    ratio("explore.states_per_ms", get("explore.states", 0), layer_ms["explore"])
    per_request("explore.enabledness_checks", get("engine.lazy.enabledness_checks", 0))
    hits = get("engine.lazy.interner_hits", 0)
    ratio("explore.interner_hit_rate", hits, hits + get("engine.lazy.states", 0))
    metrics["explore.frontier_peak"] = get("explore.frontier_peak", 0)
    ratio("explore.reduction_ratio", get("explore.reduced", 0), get("explore.reduced_base", 0))
    per_request("parallel.states", get("parallel.states", 0))
    ratio(
        "parallel.cross_shard_ratio",
        get("parallel.cross_shard_states", 0),
        get("parallel.edges", 0),
    )
    per_request("parallel.batches", get("parallel.batches", 0))
    per_request("solve.systems", get("engine.symbolic.systems", 0))
    per_request("solve.constraints", get("engine.symbolic.constraints", 0))
    ratio("solve.ms_per_system", span_ms(*SYSTEM_SPANS), get("engine.symbolic.systems", 0))
    conclusive = get("engine.symbolic.conclusive", 0)
    ratio(
        "solve.conclusive_ratio",
        conclusive,
        conclusive + get("engine.symbolic.inconclusive", 0),
    )
    per_request("verify.obligations", get("verify.obligations", 0))
    per_request("verify.failures", get("verify.failures", 0))
    for name in ("hits", "misses", "writes", "bytes_read", "bytes_written", "corrupt"):
        per_request(f"cache.{name}", get(f"cache.{name}", 0))
    cache_hits = get("cache.hits", 0)
    ratio("cache.hit_ratio", cache_hits, cache_hits + get("cache.misses", 0))
    per_request("bench.cells", get("bench.cells", 0))
    per_request("unattributed_ms", 1e3 * get("self_s.unattributed", 0))
    metrics["trace_overhead_ratio"] = traced_s / untraced_s - 1
    return {name: metrics[name] for name in UNITS}, sorted(set(missing))


def closure_error(total: dict[str, float]) -> float:
    """Relative gap between the traced request wall time and the layer
    self times plus unattributed time (0 up to rounding)."""
    parts = sum(total.get(f"self_s.{layer}", 0) for layer in LAYERS)
    parts += total.get("self_s.unattributed", 0)
    return abs(parts - total["wall_s"]) / total["wall_s"]
