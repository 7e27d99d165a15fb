"""Receptiveness verification of composed modules (Section 5.3).

Inputs of a module are controlled by its environment; the module must be
*receptive*: whenever the environment produces an input event, the
module must be ready to synchronize with it.  The rendez-vous
composition masks such failures (the fused transition simply does not
fire), so after composing we check Proposition 5.5:

    A failure can occur iff there exists a marking of ``N1 || N2`` in
    which all input places of the *producer's* part of a synchronization
    transition are marked but not all places of the *consumer's* part.

Proposition 5.5 is stated for a single common transition.  With several
transitions per label (the cross product of Definition 4.7), the check
generalizes per *producer* transition: a failure needs a reachable
marking where some producer transition is ready while **no** consumer
transition of the same action is — pairings that are individually
unready are only the dead cross-product duplicates the paper removes
(Section 5.2), not failures.  By Proposition 5.6 this is sound and
complete for the existence of at least one failure (later failures may
be masked by the first).

For live marked graphs, Theorem 5.7 promises a polynomial check: by the
classical marked-graph reachability characterisation a marking is
reachable iff ``M = M0 + C.sigma`` is solvable with ``M >= 0``, so the
Prop 5.5 systems of :mod:`repro.petri.symbolic` decide every obligation
in exact rational arithmetic instead of enumerating states.  The same
pass screens ``engine="symbolic"`` on any net; obligations it leaves
undecided go to the on-the-fly search.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.algebra.compose import fuse
from repro.obs import metrics as obs
from repro.petri.marking import Marking
from repro.petri.net import disjoint_pair
from repro.stg.signals import signal_of
from repro.stg.stg import (
    Stg,
    reject_common_outputs,
    synchronized_actions,
    with_interface,
)


@dataclass(frozen=True)
class SyncObligation:
    """One receptiveness obligation: a producer transition of a
    synchronized action, together with every same-action consumer
    alternative in the partner module."""

    action: str
    producer: str
    consumer: str
    producer_preset: frozenset[str]
    consumer_presets: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class ReceptivenessFailure:
    """A Proposition 5.5 witness: the producer is ready to emit but no
    consumer alternative is ready to accept.

    When found by the on-the-fly search, ``trace`` holds the action
    labels and ``tids`` the transition ids of a firable path from the
    composite's initial marking to ``marking`` — replayable step by
    step via :mod:`repro.petri.simulation`.  The search discovers
    breadth-first, so the trace is shortest (in the reduced space under
    ``engine="por"``).  Witnesses from the state equation or the
    sharded explorer carry no trace.
    """

    obligation: SyncObligation
    marking: Marking
    trace: tuple[str, ...] | None = None
    tids: tuple[int, ...] | None = None

    def __str__(self) -> str:
        where = (
            f" (after {'.'.join(self.trace) or 'the initial marking'})"
            if self.trace is not None
            else ""
        )
        return (
            f"{self.obligation.producer} can emit"
            f" {self.obligation.action!r} but {self.obligation.consumer}"
            f" is not ready to accept it{where}"
        )


@dataclass
class ReceptivenessReport:
    """Outcome of a receptiveness check.

    ``engine`` records which engine answered (``"onthefly"``,
    ``"por"``, ``"symbolic"``, or ``"-"`` for the structural method);
    ``states_explored`` the number of composite markings it visited
    (``None`` for the structural method).  Under ``engine="por"``,
    ``states_reduced`` counts the markings at which the stubborn-set
    selector expanded a proper subset of the enabled transitions, and
    ``proviso`` records the ignoring-prevention proviso that governed
    the reduced search (:data:`SEARCH_PROVISO`, see
    :mod:`repro.petri.product`).

    ``metrics`` carries the full instrumentation payload of the check
    (schema ``repro.obs/v1``, see ``docs/OBSERVABILITY.md``): spans for
    the composition and the search phase, state throughput, frontier
    high-water mark, interning hit rate and reduction ratio.  It is
    recorded unconditionally — the same events are forwarded to any
    outer recorder (e.g. ``cip verify --profile``), so the two views
    can never disagree.
    """

    composite: Stg
    obligations: list[SyncObligation]
    failures: list[ReceptivenessFailure]
    method: str
    engine: str
    states_explored: int | None = None
    states_reduced: int | None = None
    proviso: str | None = None
    metrics: dict | None = None
    #: Under ``engine="symbolic"``: how the state-equation engine
    #: partitioned the obligations (``safe``/``failed``/``undecided``
    #: counts, solver statistics, ``conclusive`` flag).  ``method`` is
    #: ``"symbolic"`` when every obligation was decided without
    #: enumeration, ``"reachability"`` when the ``undecided`` remainder
    #: fell back to explicit search; ``states_explored`` is ``None`` in
    #: the former case and counts only the fallback in the latter.  A
    #: conclusive ``method="structural"`` report carries no partition.
    symbolic: dict | None = None
    #: ``True`` when this report was served from the verdict memo
    #: (:mod:`repro.cache`); ``engine``/``states_explored`` then
    #: describe the *original* run that produced the entry.
    cached: bool = False

    def is_receptive(self) -> bool:
        return not self.failures

    def failing_actions(self) -> list[str]:
        return sorted({failure.obligation.action for failure in self.failures})

    def __str__(self) -> str:
        if self.is_receptive():
            return (
                f"receptive: {len(self.obligations)} synchronization"
                f" obligations checked ({self.method})"
            )
        lines = [
            f"NOT receptive ({len(self.failures)} failures, {self.method}):"
        ]
        lines += [f"  - {failure}" for failure in self.failures]
        return "\n".join(lines)


def compose_with_obligations(
    stg1: Stg, stg2: Stg
) -> tuple[Stg, list[SyncObligation]]:
    """Circuit-algebra composition that records, for every producer
    transition of a synchronized action, the consumer alternatives."""
    with obs.span("algebra.compose", left=stg1.name, right=stg2.name) as span:
        composite, obligations = _compose_with_obligations(stg1, stg2)
        span.set(
            places=len(composite.net.places),
            transitions=len(composite.net.transitions),
            obligations=len(obligations),
        )
        return composite, obligations


def _compose_with_obligations(
    stg1: Stg, stg2: Stg
) -> tuple[Stg, list[SyncObligation]]:
    """The composite of :func:`repro.stg.stg.compose`, fused the same
    way, without its initial-level check: modules whose shared signals
    start at different levels are still checked."""
    reject_common_outputs(stg1, stg2)
    n1, n2 = disjoint_pair(stg1.net, stg2.net)
    sync_actions = synchronized_actions(stg1, stg2)
    net = fuse(n1, n2, sync_actions)
    obligations: list[SyncObligation] = []
    for action in sorted(sync_actions):
        signal = signal_of(action)
        if signal is not None:
            first_is_producer = signal in (stg1.outputs | stg1.internals)
        else:
            # Channel rendez-vous after CIP relabeling: treat stg1 as the
            # producer by convention (the direction does not affect the
            # fused structure, only failure attribution).
            first_is_producer = True
        parts1 = n1.transitions_with_action(action)
        parts2 = n2.transitions_with_action(action)
        producer_parts, consumer_parts = (
            (parts1, parts2) if first_is_producer else (parts2, parts1)
        )
        producer_name, consumer_name = (
            (stg1.name, stg2.name)
            if first_is_producer
            else (stg2.name, stg1.name)
        )
        for part in producer_parts:
            obligations.append(
                SyncObligation(
                    action=action,
                    producer=producer_name,
                    consumer=consumer_name,
                    producer_preset=part.preset,
                    consumer_presets=tuple(t.preset for t in consumer_parts),
                )
            )
    return with_interface(net, stg1, stg2), obligations


def _first_failures(
    walk: Iterable, obligations: list[SyncObligation], cnet
) -> Iterator[tuple[int, object]]:
    """Scan the ``(dense, state)`` pairs of a breadth-first walk of
    ``cnet`` (a :class:`~repro.petri.compiled.CompiledNet`; see
    :meth:`~repro.petri.compiled.CompiledSpace.walk`) and yield
    ``(obligation index, state)`` for the first state failing each
    obligation — Proposition 5.5's condition: the producer ready, no
    consumer alternative ready.  Stops drawing states once every
    obligation has a witness.

    The initial state (``dense == -1``) is tested against every
    obligation.  Any other state is tested only against the pending
    obligations with a producer or consumer place that ``dense``, the
    transition on its discovery-parent link, consumes from or produces
    into.  The others read the same marked places as at the parent,
    which was scanned earlier: had one failed there, it would no longer
    be pending.  So the witnesses, and where the scan stops, are those
    of testing every pending obligation at every state.

    Obligation presets are lowered once to place masks, and a state's
    marked places are read once through the codec
    (:meth:`~repro.petri.compiled.CompiledNet.marked_mask`), so each test
    is one mask compare."""
    index = cnet.place_index
    mask = cnet.place_mask
    tests = [
        (
            position,
            mask(index[p] for p in obligation.producer_preset),
            tuple(
                mask(index[p] for p in preset)
                for preset in obligation.consumer_presets
            ),
        )
        for position, obligation in enumerate(obligations)
    ]
    readers: list[list[int]] = [[] for _ in range(cnet.num_places)]
    for position, obligation in enumerate(obligations):
        for place in obligation.producer_preset.union(
            *obligation.consumer_presets
        ):
            readers[index[place]].append(position)
    touched = [
        [
            tests[position]
            for position in sorted(
                {position for i in consume + produce for position in readers[i]}
            )
        ]
        for consume, produce in zip(cnet.consume, cnet.produce)
    ]
    pending = set(range(len(tests)))
    marked_mask = cnet.marked_mask
    for dense, state in walk:
        if not pending:
            return
        entries = tests if dense < 0 else touched[dense]
        if not entries:
            continue
        marked = marked_mask(state)
        hits = [
            entry
            for entry in entries
            if entry[0] in pending
            and marked & entry[1] == entry[1]
            and not any(marked & ready == ready for ready in entry[2])
        ]
        pending.difference_update(entry[0] for entry in hits)
        for entry in hits:
            yield entry[0], state


#: The ignoring-prevention proviso of the reduced Prop 5.5 search.
#: Deliberately not ``repro.petri.product.DEFAULT_PROVISO`` ("stack"):
#: the search early-exits once every obligation is witnessed, and
#: witnesses sit shallow, so breadth-first "fresh" discovery wins on
#: failing compositions and reports shortest reduced traces.
SEARCH_PROVISO = "fresh"


def _onthefly_failures(
    composite: Stg,
    obligations: list[SyncObligation],
    max_states: int,
    stop_at_first: bool = False,
    reduce: bool = False,
) -> tuple[list[ReceptivenessFailure], int, int]:
    """Demand-driven Proposition 5.5 search: obligations are checked as
    each composite marking is *discovered*, so exploration stops as soon
    as every obligation has a witness (or, with ``stop_at_first``, at
    the very first failure) — long before a full state-space build on
    failing compositions.  Witnesses come with a firable trace from the
    initial marking (shortest without reduction, where discovery is
    breadth-first).

    The space is walked once, breadth-first, keeping no successor rows
    (:meth:`~repro.petri.product.LazyStateSpace.walk`), and obligation
    presets are lowered once to place masks of the codec, so the
    failure predicate tests packed states directly — no
    :class:`Marking` is materialised until a witness is found (and then
    only for the witnesses themselves).

    With ``reduce`` the space is explored under stubborn-set
    partial-order reduction with :data:`SEARCH_PROVISO`.  The Prop 5.5
    failure predicate only reads the token counts of the obligation
    places (producer and consumer presets), so those are declared as
    *visible places*: every transition that changes one of them is
    visible to the selector, the predicate's value is invariant under
    invisible firings, and a failure marking is reachable in the
    reduced space iff one is reachable in the full space.  Reduced
    edges are real firings of the unreduced net, so witness traces
    replay unchanged.
    """
    from repro.petri.product import LazyStateSpace

    if reduce:
        predicate_places: set[str] = set()
        for obligation in obligations:
            predicate_places |= obligation.producer_preset
            for preset in obligation.consumer_presets:
                predicate_places |= preset
        space = LazyStateSpace(
            composite.net,
            max_states=max_states,
            reduction=True,
            visible_actions=(),
            visible_places=predicate_places,
            proviso=SEARCH_PROVISO,
        )
    else:
        space = LazyStateSpace(composite.net, max_states=max_states)
    failures: list[ReceptivenessFailure] = []
    for position, state in _first_failures(
        space.walk(), obligations, space.compiled_net
    ):
        steps = space.trace_to(state)
        failures.append(
            ReceptivenessFailure(
                obligations[position],
                space.decode(state),
                trace=tuple(action for _, action in steps),
                tids=tuple(tid for tid, _ in steps),
            )
        )
        if stop_at_first:
            break
    space.publish_metrics("engine.lazy")
    return failures, space.num_explored(), space.stats.reduced_states


def _parallel_failures(
    composite: Stg,
    obligations: list[SyncObligation],
    max_states: int,
    workers: int,
) -> tuple[list[ReceptivenessFailure], int]:
    """Prop 5.5 over the sharded parallel explorer.

    The full composite space is explored (sharded workers cannot stop
    early the way the serial on-the-fly engine does), each discovered
    state is tested against every obligation by its owning shard, and
    the canonical (minimum packed key) witness per failing obligation
    is returned.  Verdicts and the set of failing obligations are
    byte-identical to the serial engines; witnesses carry no trace
    (``trace=None``).
    """
    from repro.petri.parallel import parallel_explore

    result = parallel_explore(
        composite.net,
        workers=workers,
        max_states=max_states,
        obligations=[
            (obligation.producer_preset, obligation.consumer_presets)
            for obligation in obligations
        ],
    )
    failures = [
        ReceptivenessFailure(obligations[index], marking)
        for index, marking in sorted(result.failing.items())
    ]
    return failures, result.states


def check_receptiveness(
    stg1: Stg,
    stg2: Stg,
    method: str = "auto",
    max_states: int = 1_000_000,
    engine: str | None = None,
    stop_at_first: bool = False,
    workers: int | None = None,
) -> ReceptivenessReport:
    """Check Propositions 5.5/5.6 on the composition of two modules.

    ``method``:

    * ``"reachability"`` — exhaustive over the composed state space
      (exact for any bounded net);
    * ``"structural"`` — the Theorem 5.7 polynomial check: the exact
      state-equation pass of ``engine="symbolic"``, which decides every
      obligation of a live marked-graph composition without
      enumerating a state.  On other nets the obligations it leaves
      undecided fall back to the search of ``engine``, and the report
      then says ``method="reachability"``;
    * ``"auto"`` — structural on live marked graphs, otherwise
      reachability.

    ``engine`` selects how the reachability method explores: the default
    ``"onthefly"`` checks obligations while the composite state space is
    being *discovered* and stops as soon as every obligation is resolved
    (failure witnesses come with a shortest firable counterexample
    trace); ``"por"`` additionally applies stubborn-set partial-order
    reduction with the obligation places declared visible (under the
    breadth-first :data:`SEARCH_PROVISO`), so the Prop 5.5 verdict is
    unchanged while fewer interleavings are explored; ``"symbolic"``
    first attempts to decide every obligation by state-equation
    reasoning alone (:mod:`repro.petri.symbolic`: exact-rational linear
    feasibility with trap refinement — no marking is ever constructed,
    so ``max_states`` does not bound it), and only the obligations the
    semi-decision procedure leaves INCONCLUSIVE fall back to the
    on-the-fly search; ``report.symbolic`` records the partition.

    ``stop_at_first`` makes the search return after the first failure (the verdict is already decided at
    that point; only the per-obligation attribution of *later* failures
    is lost).

    ``workers`` > 1 routes the reachability method through the sharded
    parallel explorer (:mod:`repro.petri.parallel`): hash-partitioned
    visited sets, full-space exploration, schedule-independent
    verdicts, canonical per-obligation witnesses without traces.  It
    composes with the ``onthefly`` engine only: not with ``por``
    (partial-order reduction is inherently order-sensitive: the
    DFS-stack proviso and sleep sets assume one sequential search
    order), nor with ``symbolic``.  ``stop_at_first`` is ignored on
    this path.  The structural method uses these knobs only for its
    fallback search.

    Every check records its own instrumentation (spans, counters and
    gauges under the ``repro.obs/v1`` schema) on ``report.metrics``; the
    same events are also forwarded to any recorder already active in the
    caller, e.g. the one behind ``cip verify --profile``.
    """
    from repro.petri.product import DEFAULT_ENGINE, resolve_engine

    engine = resolve_engine(
        engine if engine is not None else DEFAULT_ENGINE,
        extra=("symbolic",),
    )
    if workers is None:
        workers = 1
    else:
        from repro.petri.parallel import resolve_workers

        workers = resolve_workers(workers)
    if workers > 1 and engine == "symbolic":
        raise ValueError(
            "engine 'symbolic' does not compose with parallel"
            " exploration: the state-equation engine explores no states,"
            " and its inconclusive fallback is the serial on-the-fly"
            " search; run the workers with engine 'onthefly'"
        )
    if workers > 1 and engine == "por":
        raise ValueError(
            "engine 'por' does not compose with parallel"
            " exploration: partial-order reduction is inherently"
            " order-sensitive (the DFS-stack proviso and sleep sets"
            " depend on one sequential search order that sharded workers"
            " cannot preserve); run engine 'por' serially, or keep the"
            " workers with engine 'onthefly'"
        )
    cache_key = _receptiveness_key(
        stg1, stg2, method, engine, stop_at_first, workers > 1
    )
    if cache_key is not None:
        hit = _receptiveness_restore(cache_key, stg1, stg2, max_states)
        if hit is not None:
            return hit
    with obs.record() as recorder:
        report = _checked_receptiveness(
            stg1,
            stg2,
            method,
            max_states,
            engine,
            stop_at_first,
            recorder,
            workers,
        )
    report.metrics = recorder.to_dict()
    _receptiveness_publish(cache_key, report, max_states, workers)
    return report


def _receptiveness_key(
    stg1: Stg,
    stg2: Stg,
    method: str,
    engine: str,
    stop_at_first: bool,
    sharded: bool,
) -> str | None:
    """Verdict-memo key for a receptiveness check, ``None`` when caching
    is off or either net has opaque guards.

    The verdict is the same under every engine and worker count, but
    the report is not, and a warm run must print what the cold run
    would.  So the key holds, beside the STG content hashes and the
    requested method: the engine, which decides the state count, the
    witnesses and their traces (``por`` reports reduced ones and an
    epilogue); ``stop_at_first``, which decides which failures are
    attributed; and whether more than one worker ran, since the sharded
    explorer reports canonical witnesses without traces, in its own
    order, after a full search.  The number of workers beyond one
    changes nothing and stays provenance.  The trailing ``"exact"``
    retires the entries written while ``structural`` trusted a float
    LP, whose "not receptive" could rest on an unreachable marking."""
    from repro.cache import verdicts
    from repro.cache.content import semantic_key, stg_content_hash

    if not verdicts.memo_enabled(stg1.net, stg2.net):
        return None
    return semantic_key(
        "receptiveness",
        stg_content_hash(stg1),
        stg_content_hash(stg2),
        method,
        engine,
        bool(stop_at_first),
        bool(sharded),
        "exact",
    )


def _receptiveness_restore(
    cache_key: str, stg1: Stg, stg2: Stg, max_states: int
) -> ReceptivenessReport | None:
    """Rebuild a full report from a memo entry (re-running only the
    composition, never the search), or ``None`` on miss/malformed."""
    from repro.cache import verdicts

    entry = verdicts.memo_lookup(verdicts.KIND, cache_key, max_states=max_states)
    if entry is None:
        return None
    result = entry["result"]
    try:
        method = str(result["method"])
        engine = str(result["engine"])
        states = result["states_explored"]
        with obs.record() as recorder:
            with obs.span(
                "verify.receptiveness", method=method, cached=True
            ) as span:
                composite, obligations = compose_with_obligations(stg1, stg2)
                failures = []
                for item in result["failures"]:
                    marking = verdicts.marking_from(item["marking"])
                    if marking is None:
                        raise ValueError("failure entry without a marking")
                    failures.append(
                        ReceptivenessFailure(
                            obligations[int(item["obligation"])],
                            marking,
                            trace=(
                                None
                                if item["trace"] is None
                                else tuple(item["trace"])
                            ),
                            tids=(
                                None
                                if item["tids"] is None
                                else tuple(item["tids"])
                            ),
                        )
                    )
                if states is not None:
                    obs.gauge(
                        "verify.receptiveness.states_explored", int(states)
                    )
                span.set(
                    engine=engine,
                    verdict=not failures,
                    obligations=len(obligations),
                    failures=len(failures),
                )
        report = ReceptivenessReport(
            composite,
            obligations,
            failures,
            method,
            engine=engine,
            states_explored=None if states is None else int(states),
            states_reduced=(
                None
                if result["states_reduced"] is None
                else int(result["states_reduced"])
            ),
            proviso=result["proviso"],
            symbolic=result["symbolic"],
            cached=True,
        )
        report.metrics = recorder.to_dict()
        return report
    except (KeyError, IndexError, TypeError, ValueError):
        return None


def _receptiveness_publish(
    cache_key: str | None,
    report: ReceptivenessReport,
    max_states: int,
    workers: int,
) -> None:
    from repro.cache import verdicts

    if cache_key is None:
        return
    try:
        failures = [
            {
                "obligation": report.obligations.index(failure.obligation),
                "marking": verdicts.marking_items(failure.marking),
                "trace": (
                    None if failure.trace is None else list(failure.trace)
                ),
                "tids": None if failure.tids is None else list(failure.tids),
            }
            for failure in report.failures
        ]
    except ValueError:
        return
    verdicts.memo_store(
        verdicts.KIND,
        cache_key,
        {
            "method": report.method,
            "engine": report.engine,
            "states_explored": report.states_explored,
            "states_reduced": report.states_reduced,
            "proviso": report.proviso,
            "symbolic": report.symbolic,
            "failures": failures,
        },
        conclusive=True,
        floor=report.states_explored or 0,
        proven_at=max_states,
        provenance={"engine": report.engine, "workers": workers},
    )


def _checked_receptiveness(
    stg1: Stg,
    stg2: Stg,
    method: str,
    max_states: int,
    engine: str,
    stop_at_first: bool,
    recorder: obs.MetricsRecorder,
    workers: int = 1,
) -> ReceptivenessReport:
    with obs.span("verify.receptiveness", method=method) as span:
        composite, obligations = compose_with_obligations(stg1, stg2)
        if method == "auto":
            from repro.petri.symbolic import exactness_applies

            method = (
                "structural"
                if exactness_applies(composite.net)
                else "reachability"
            )
        if method not in ("structural", "reachability"):
            raise ValueError(f"unknown method {method!r}")
        symbolic_info: dict | None = None
        search_engine = engine
        pending = obligations
        symbolic_failures: list[ReceptivenessFailure] = []
        if method == "structural" or engine == "symbolic":
            from repro.petri.symbolic import symbolic_receptiveness

            with obs.span("verify.receptiveness.symbolic") as symbolic_span:
                outcome = symbolic_receptiveness(
                    composite.net, obligations
                )
                symbolic_span.set(
                    safe=len(outcome.safe),
                    failed=len(outcome.failed),
                    undecided=len(outcome.undecided),
                    conclusive=outcome.conclusive,
                )
            symbolic_failures = [
                ReceptivenessFailure(obligation, marking)
                for obligation, marking in outcome.failed
            ]
            if engine == "symbolic":
                symbolic_info = {
                    "safe": len(outcome.safe),
                    "failed": len(outcome.failed),
                    "undecided": len(outcome.undecided),
                    "conclusive": outcome.conclusive,
                    "systems": outcome.stats.get("systems", 0),
                    "constraints": outcome.stats.get("constraints", 0),
                    "refinement_rounds": outcome.stats.get(
                        "refinement_rounds", 0
                    ),
                    "exact": outcome.stats.get("exact", False),
                }
            if outcome.conclusive:
                # A conclusive structural report reads as Theorem 5.7's
                # always has: no engine, no state count, no partition.
                structural = method == "structural"
                report = ReceptivenessReport(
                    composite,
                    obligations,
                    symbolic_failures,
                    method if structural else "symbolic",
                    engine="-" if structural else engine,
                    symbolic=None if structural else symbolic_info,
                )
                span.set(
                    method=report.method,
                    engine=report.engine,
                    verdict=not symbolic_failures,
                    obligations=len(obligations),
                    failures=len(symbolic_failures),
                )
                return report
            # Explicit fallback, restricted to the undecided remainder:
            # conclusively-safe obligations need no witness hunt and
            # conclusive failures are already proven.
            method = "reachability"
            pending = outcome.undecided
            if engine == "symbolic":
                search_engine = "onthefly"
        reduced: int | None = None
        proviso = SEARCH_PROVISO if engine == "por" else None
        clock = recorder.clock
        search_start = clock.now()
        with obs.span(
            "verify.receptiveness.search",
            engine=search_engine,
            workers=workers,
            proviso=proviso or "-",
        ) as search:
            if workers > 1:
                failures, explored = _parallel_failures(
                    composite, pending, max_states, workers
                )
            else:
                failures, explored, reduced = _onthefly_failures(
                    composite,
                    pending,
                    max_states,
                    stop_at_first=stop_at_first,
                    reduce=search_engine == "por",
                )
            search.set(states=explored)
        failures = symbolic_failures + failures
        elapsed = clock.now() - search_start
        obs.gauge("verify.receptiveness.states_explored", explored)
        if elapsed > 0:
            obs.gauge(
                "verify.receptiveness.states_per_second",
                round(explored / elapsed, 3),
            )
        if reduced is not None:
            obs.gauge("verify.receptiveness.states_reduced", reduced)
            if explored:
                obs.gauge(
                    "verify.receptiveness.reduction_ratio",
                    round(reduced / explored, 6),
                )
        span.set(
            method=method,
            engine=engine,
            verdict=not failures,
            obligations=len(obligations),
            failures=len(failures),
        )
        return ReceptivenessReport(
            composite,
            obligations,
            failures,
            method,
            engine=engine,
            states_explored=explored,
            states_reduced=reduced,
            proviso=proviso,
            symbolic=symbolic_info,
        )


def check_receptiveness_with_hiding(
    stg1: Stg,
    stg2: Stg,
    max_states: int = 1_000_000,
    engine: str | None = None,
    workers: int | None = None,
) -> ReceptivenessReport:
    """The Section 5.3 refinement: apply ``hide'`` (relabel-to-epsilon)
    to each module's private signals before composing, keeping the
    net structure (and hence the Prop 5.5 check) intact while shrinking
    the visible alphabet.

    Receptiveness must NOT be checked on fully *contracted* modules —
    contraction forgets whether synchronization transitions are reached
    via internal transitions; ``hide'`` keeps dummy transitions instead.
    """
    from repro.stg.stg import hide_signals_to_epsilon

    private1 = stg1.signals() - stg2.signals()
    private2 = stg2.signals() - stg1.signals()
    reduced1 = hide_signals_to_epsilon(stg1, private1)
    reduced2 = hide_signals_to_epsilon(stg2, private2)
    reduced1.net.name = stg1.name
    reduced2.net.name = stg2.name
    return check_receptiveness(
        reduced1,
        reduced2,
        method="reachability",
        max_states=max_states,
        engine=engine,
        workers=workers,
    )
