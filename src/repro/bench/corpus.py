"""Corpus differential harness: every net in a directory, swept through
every exploration engine, with loud disagreement reporting.

The engines answer the same questions by different routes:

* ``onthefly`` — demand-driven
  :class:`~repro.petri.product.LazyStateSpace`, exhausted: the full
  state space, and the reference of the other cells;
* ``por`` — the same lazy space under deadlock-preserving stubborn-set
  reduction (``visible_actions=()``);
* ``symbolic`` — the state-equation semi-decision procedure
  (:mod:`repro.petri.symbolic`): no enumeration, carrying a boundedness
  verdict and the conclusively-dead action set.

Each instance gets one cell per engine.  Agreement rules (checked by
:func:`diff_cells`):

* ``por`` preserves deadlock sets exactly and never explores more
  states/edges than the full space, so on instances where both
  complete, its deadlock set must equal the ``onthefly`` one and its
  counts must not exceed it.  When ``onthefly`` completes, ``por`` must
  too (it explores a subset); the converse is legitimately false under
  a state budget.
* ``symbolic`` CONCLUSIVE claims may never contradict explicit ground
  truth: a conclusive boundedness verdict forbids any ``unbounded``
  explicit outcome, a conclusively-dead action may never appear on an
  explored edge, and (given the net) every explicit deadlock marking
  must stay state-equation feasible.  INCONCLUSIVE is always allowed.

Every instance produces one ``repro.obs/v1`` metrics payload (one span
per matrix cell plus states/edges/deadlocks gauges), validated against
the schema before it is reported.

The fuzz layer (:func:`fuzz_laws`) replays the paper's algebra laws —
Theorem 4.5 (composition), Theorem 4.7 (hiding as contraction) and
Proposition 4.6 (order-independence) — on *parsed corpus nets* instead
of only hypothesis-generated ones, restricted to the set-based fragment
via :mod:`repro.algebra.fragment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.cache import verdicts
from repro.io.formats import FORMATS, load_stg
from repro.obs import metrics as obs
from repro.obs.emit import validate_metrics
from repro.petri.marking import Marking
from repro.petri.net import EPSILON, PetriNet
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError

ENGINES: tuple[str, ...] = ("onthefly", "por", "symbolic")

#: fuzz_laws only touches nets whose full state space fits this budget —
#: language comparison determinises, so corpus-sized nets must stay tiny.
LAW_STATE_BUDGET = 300


class CorpusError(Exception):
    """A corpus-level failure: unreadable directory, unparsable net."""


@dataclass(frozen=True)
class CellResult:
    """One engine's cell of the differential matrix.

    ``outcome`` is ``"ok"``, ``"bound-exceeded"`` (state budget hit),
    ``"unbounded"`` (Karp-Miller strict covering found) or
    ``"inconclusive"`` (symbolic cell that proved nothing); counts and
    the deadlock set are ``None`` unless an exploration completed.

    ``conclusive`` says whether the cell's answer is definitive: an
    enumerating engine is conclusive exactly when it did not hit the
    state budget, the symbolic engine exactly when its state-equation
    verdict is.  ``fired_actions`` (serial lazy cells) and
    ``dead_actions`` (symbolic cell) feed the cross-engine dead-action
    check in :func:`diff_cells`.
    """

    engine: str
    outcome: str
    states: int | None = None
    edges: int | None = None
    deadlocks: frozenset[Marking] | None = None
    conclusive: bool | None = None
    fired_actions: frozenset[str] | None = None
    dead_actions: frozenset[str] | None = None
    #: Provenance only: served from the instance's verdict entry
    #: (:mod:`repro.cache`) instead of explored.  Excluded from
    #: equality so warm and cold cells stay interchangeable values.
    cached: bool = field(default=False, compare=False)

    def summary(self) -> str:
        if self.engine == "symbolic":
            verdict = "bounded" if self.outcome == "ok" else "inconclusive"
            dead = len(self.dead_actions or ())
            return f"{verdict}, {dead} dead action(s)"
        if self.outcome != "ok":
            return self.outcome
        return (
            f"{self.states} states, {self.edges} edges,"
            f" {len(self.deadlocks)} deadlocks"
        )


@dataclass
class InstanceResult:
    """All matrix cells of one corpus net, plus its metrics payload."""

    name: str
    path: str
    cells: list[CellResult]
    disagreements: list[str]
    payload: dict

    @property
    def ok(self) -> bool:
        return not self.disagreements


@dataclass
class CorpusReport:
    """The whole sweep: per-instance results and corpus-level failures."""

    instances: list[InstanceResult] = field(default_factory=list)
    law_violations: list[str] = field(default_factory=list)

    @property
    def disagreements(self) -> list[str]:
        return [
            f"{instance.name}: {message}"
            for instance in self.instances
            for message in instance.disagreements
        ]

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.law_violations

    def state_counts(self) -> dict[str, dict[str, int]]:
        """Explored states per instance name and completed enumerating
        cell, omitting instances with no such cell — the layout of the
        ``benchmarks/BENCH_corpus.json`` trajectory."""
        counts = {
            instance.name: {
                cell.engine: cell.states
                for cell in instance.cells
                if cell.outcome == "ok" and cell.states is not None
            }
            for instance in self.instances
        }
        return {name: cells for name, cells in counts.items() if cells}


def discover(directory: str | Path) -> list[Path]:
    """All net files under ``directory`` (recursive), sorted.

    Files and directories whose name starts with ``_`` are skipped
    (generator scripts, scratch space).
    """
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"no such corpus directory: {root}")
    found = sorted(
        path
        for path in root.rglob("*")
        if path.is_file()
        and path.suffix in FORMATS
        and not any(part.startswith("_") for part in path.relative_to(root).parts)
    )
    if not found:
        raise CorpusError(
            f"no net files ({', '.join(FORMATS)}) under {root}"
        )
    return found


def explore_cell(net: PetriNet, engine: str, max_states: int) -> CellResult:
    """Run one engine over ``net``.

    State, edge and deadlock counts are all derived through each
    engine's *public* marking-domain API, so the comparison covers the
    decoding at every engine's API boundary, not just the packed core.
    """
    if engine == "symbolic":
        return symbolic_cell(net)
    if engine not in ("onthefly", "por"):
        raise CorpusError(f"unknown engine {engine!r}")
    from repro.petri.product import LazyStateSpace

    with obs.span("bench.cell", engine=engine) as handle:
        try:
            space = LazyStateSpace(
                net,
                max_states=max_states,
                reduction=(engine == "por"),
                visible_actions=() if engine == "por" else None,
            )
            markings = list(space.iter_bfs())
            successors = [space.successors(m) for m in markings]
            states = len(markings)
            edges = sum(len(step) for step in successors)
            deadlocks = frozenset(
                m for m, step in zip(markings, successors) if not step
            )
            fired = frozenset(
                action for step in successors for action, _, _ in step
            )
        except UnboundedNetError as error:
            outcome = "unbounded" if error.bound is None else "bound-exceeded"
            cell = CellResult(engine, outcome, conclusive=outcome == "unbounded")
        else:
            cell = CellResult(
                engine,
                "ok",
                states,
                edges,
                deadlocks,
                conclusive=True,
                fired_actions=fired,
            )
        _report_cell(handle, cell)
    return cell


def symbolic_cell(net: PetriNet) -> CellResult:
    """The single non-enumerating matrix cell of an instance.

    Runs :func:`repro.petri.symbolic.analyze`: outcome ``"ok"`` when
    the state-equation boundedness verdict is conclusive (which, by
    construction, always means *bounded* — the procedure never
    concludes unboundedness), ``"inconclusive"`` otherwise.  The
    conclusively-dead action set rides along for the cross-engine
    dead-action check.
    """
    from repro.petri.symbolic import analyze

    with obs.span("bench.cell", engine="symbolic") as handle:
        result = analyze(net)
        conclusive = result["bounded"].conclusive
        cell = CellResult(
            "symbolic",
            "ok" if conclusive else "inconclusive",
            conclusive=conclusive,
            dead_actions=result["dead_actions"],
        )
        _report_cell(handle, cell)
    return cell


def _report_cell(handle, cell: CellResult) -> None:
    """Attach a cell's outcome to its ``bench.cell`` span and emit its
    gauges — the one reporting path of computed and served cells, so a
    warm payload is the cold one plus ``cached`` flags."""
    if cell.engine == "symbolic":
        handle.set(outcome=cell.outcome, conclusive=cell.conclusive)
        obs.gauge("bench.symbolic.dead_actions", len(cell.dead_actions))
        obs.gauge("bench.symbolic.conclusive", int(cell.conclusive))
    elif cell.outcome == "ok":
        handle.set(
            outcome="ok", states=cell.states, edges=cell.edges, conclusive=True
        )
        prefix = f"bench.{cell.engine}"
        obs.gauge(f"{prefix}.states", cell.states)
        obs.gauge(f"{prefix}.edges", cell.edges)
        obs.gauge(f"{prefix}.deadlocks", len(cell.deadlocks))
    else:
        handle.set(outcome=cell.outcome, conclusive=cell.conclusive)
    if cell.cached:
        handle.set(cached=True)


def _cell_record(cell: CellResult) -> dict:
    """A cell as JSON data for the instance's verdict entry."""
    deadlocks = fired = dead = None
    if cell.deadlocks is not None:
        deadlocks = sorted(verdicts.marking_items(m) for m in cell.deadlocks)
    if cell.fired_actions is not None:
        fired = sorted(cell.fired_actions)
    if cell.dead_actions is not None:
        dead = sorted(cell.dead_actions)
    return {
        "engine": cell.engine,
        "outcome": cell.outcome,
        "states": cell.states,
        "edges": cell.edges,
        "deadlocks": deadlocks,
        "fired_actions": fired,
        "dead_actions": dead,
    }


def _cell_from_record(record: dict) -> CellResult:
    """Inverse of :func:`_cell_record`, flagged ``cached``.  Raises
    ``KeyError``, ``TypeError`` or ``ValueError`` on a malformed record."""

    def names(value) -> frozenset[str]:
        if not isinstance(value, list) or not all(
            isinstance(name, str) for name in value
        ):
            raise TypeError("expected a list of action names")
        return frozenset(value)

    engine, outcome = record["engine"], record["outcome"]
    symbolic = engine == "symbolic"
    if outcome not in (
        ("ok", "inconclusive")
        if symbolic
        else ("ok", "unbounded", "bound-exceeded")
    ):
        raise ValueError(f"no {engine!r} cell has outcome {outcome!r}")
    if symbolic:
        return CellResult(
            engine,
            outcome,
            conclusive=outcome == "ok",
            dead_actions=names(record["dead_actions"]),
            cached=True,
        )
    if outcome != "ok":
        return CellResult(
            engine, outcome, conclusive=outcome == "unbounded", cached=True
        )
    fired = record["fired_actions"]
    return CellResult(
        engine,
        "ok",
        int(record["states"]),
        int(record["edges"]),
        frozenset(Marking(dict(items)) for items in record["deadlocks"]),
        conclusive=True,
        fired_actions=None if fired is None else names(fired),
        cached=True,
    )


def _served_cells(
    key: str, engines: tuple[str, ...], max_states: int
) -> list[CellResult] | None:
    """The instance's cells from its verdict entry, re-reported span by
    span, or ``None`` when the entry is missing, unusable at
    ``max_states`` or malformed (the caller then recomputes)."""
    entry = verdicts.memo_lookup(verdicts.KIND, key, max_states=max_states)
    if entry is None:
        return None
    try:
        cells = [_cell_from_record(item) for item in entry["result"]["cells"]]
    except (KeyError, TypeError, ValueError):
        return None
    if tuple(cell.engine for cell in cells) != tuple(engines):
        return None
    for cell in cells:
        with obs.span("bench.cell", engine=cell.engine) as handle:
            _report_cell(handle, cell)
    return cells


def _publish_cells(key: str, cells: list[CellResult], max_states: int) -> None:
    """Persist an instance's cells as one verdict entry.  It is
    conclusive unless a cell hit the state budget; its floor is the
    largest state count any cell needed, or the budget itself when a
    cell proved unboundedness (the strict covering was found within this
    budget; a smaller one might abort first)."""
    floor = max(
        (
            max_states if cell.outcome == "unbounded" else cell.states or 0
            for cell in cells
        ),
        default=0,
    )
    verdicts.memo_store(
        verdicts.KIND,
        key,
        {"cells": [_cell_record(cell) for cell in cells]},
        conclusive=all(cell.outcome != "bound-exceeded" for cell in cells),
        floor=floor,
        proven_at=max_states,
    )


def diff_cells(
    cells: list[CellResult], net: PetriNet | None = None
) -> list[str]:
    """Cross-engine agreement violations (empty = all agree).

    With ``net``, the symbolic cell's claims are additionally checked
    *against the net*: every deadlock marking the ``onthefly`` cell
    reached must remain state-equation feasible (a conclusive
    UNREACHABLE on a witnessed marking is a soundness bug, reported
    loudly here rather than silently tolerated).
    """
    problems: list[str] = []
    by_engine = {cell.engine: cell for cell in cells}

    symbolic = by_engine.get("symbolic")
    if symbolic is not None:
        problems.extend(_symbolic_problems(symbolic, cells, net))

    reference = by_engine.get("onthefly")
    por = by_engine.get("por")
    if reference is None or por is None or reference.outcome != "ok":
        return problems
    if por.outcome != "ok":
        problems.append(
            f"por reports {por.outcome} although the full space completed"
            f" with {reference.summary()}"
        )
        return problems
    if por.deadlocks != reference.deadlocks:
        problems.append(
            "por deadlock set differs from onthefly:"
            f" {len(por.deadlocks)} vs {len(reference.deadlocks)} markings"
        )
    if por.states > reference.states or por.edges > reference.edges:
        problems.append(
            f"por explored more than the full space: {por.summary()} vs"
            f" {reference.summary()}"
        )
    return problems


#: cap on per-instance deadlock feasibility probes — each one is an
#: exact-rational LP over the full net, so probing every deadlock of a
#: deadlock-rich net would dominate the sweep without adding coverage.
MAX_DEADLOCK_PROBES = 3


def _symbolic_problems(
    symbolic: CellResult, cells: list[CellResult], net: PetriNet | None
) -> list[str]:
    """Symbolic-vs-explicit disagreements — every one is a soundness
    bug in the semi-decision procedure, never a tolerable drift.

    Three checks: (1) a conclusive boundedness verdict forbids any
    explicit ``unbounded`` outcome; (2) a conclusively-dead action may
    never appear among the actions an explicit engine actually fired;
    (3) with ``net``, the deadlock markings the ``onthefly`` cell
    reached must stay state-equation feasible (capped at
    :data:`MAX_DEADLOCK_PROBES` probes per instance).
    """
    problems: list[str] = []
    explicit = [cell for cell in cells if cell.engine != "symbolic"]
    if symbolic.conclusive:
        for cell in explicit:
            if cell.outcome == "unbounded":
                problems.append(
                    "symbolic claims the net is bounded but"
                    f" {cell.engine} found a strict covering (unbounded)"
                )
    dead = symbolic.dead_actions or frozenset()
    if dead:
        for cell in explicit:
            if cell.outcome != "ok" or cell.fired_actions is None:
                continue
            witnessed = sorted(dead & cell.fired_actions)
            if witnessed:
                problems.append(
                    "symbolic claims action(s)"
                    f" {', '.join(witnessed)} are dead but"
                    f" {cell.engine} fired them"
                )
    full = next((cell for cell in explicit if cell.engine == "onthefly"), None)
    if net is not None and full is not None and full.deadlocks:
        from repro.petri.symbolic import marking_unreachable

        for marking in list(full.deadlocks)[:MAX_DEADLOCK_PROBES]:
            verdict = marking_unreachable(net, marking)
            if verdict.conclusive and verdict.holds:
                problems.append(
                    "symbolic claims a deadlock marking is"
                    f" unreachable although onthefly reached it: {marking}"
                )
    return problems


def run_instance(
    path: str | Path,
    engines: tuple[str, ...] = ENGINES,
    max_states: int = 200_000,
    stg=None,
) -> InstanceResult:
    """Sweep one net file through the full matrix.

    Returns the per-cell results, any disagreements, and one validated
    ``repro.obs/v1`` payload covering the whole instance.

    ``stg`` accepts an already-parsed module for ``path`` so sweeps
    that need the net elsewhere too (:func:`run_corpus` and its algebra
    laws) parse each file exactly once.  The net is lowered to its
    compiled form once, up front, and every enumerating cell shares
    that single lowering.

    With an artifact store active, an instance is one verdict
    entry (check ``bench``), keyed by the net's content hash, the
    engine tuple and the por proviso, under the budget rule of
    :mod:`repro.cache.verdicts`.  A hit re-reports every cell without
    lowering or exploring anything; a miss runs the cells and publishes
    them once.
    """
    path = Path(path)
    if stg is None:
        try:
            stg = load_stg(str(path))
        except FileNotFoundError:
            raise CorpusError(f"no such file: {path}") from None
        except (ValueError, KeyError) as error:
            raise CorpusError(f"cannot parse {path}: {error}") from None
    net = stg.net
    key = None
    if verdicts.memo_enabled(net):
        from repro.petri.product import DEFAULT_PROVISO

        key = verdicts.semantic_key(
            "bench",
            verdicts.net_content_hash(net),
            list(engines),
            DEFAULT_PROVISO,
        )
    with obs.record() as recorder:
        with obs.span("bench.instance", net=net.name, file=path.name):
            cells = None
            if key is not None:
                cells = _served_cells(key, engines, max_states)
            if cells is None:
                if any(engine != "symbolic" for engine in engines):
                    net.compiled()
                cells = [
                    explore_cell(net, engine, max_states) for engine in engines
                ]
                if key is not None:
                    _publish_cells(key, cells, max_states)
            obs.count("bench.cells", len(cells))
    payload = recorder.to_dict()
    validate_metrics(payload)
    return InstanceResult(
        name=net.name,
        path=str(path),
        cells=cells,
        disagreements=diff_cells(cells, net=net),
        payload=payload,
    )


def run_corpus(
    paths,
    engines: tuple[str, ...] = ENGINES,
    max_states: int = 200_000,
    out_dir: str | Path | None = None,
    check_laws: bool = False,
    progress=None,
) -> CorpusReport:
    """Sweep every net in ``paths`` (files, or a directory to discover).

    With ``out_dir``, one ``<stem>.obs.json`` payload per instance plus
    an ``INDEX.json`` manifest are written there.  With ``check_laws``,
    the algebra-law fuzz layer runs over all parsed nets afterwards.
    ``progress`` is an optional one-line-per-instance callback.
    """
    if isinstance(paths, (str, Path)):
        paths = discover(paths)
    report = CorpusReport()
    nets: list[tuple[str, PetriNet]] = []
    for path in paths:
        # Parse once and share the module with the sweep *and* the law
        # layer — re-parsing every file for the laws doubled the I/O
        # and recompiled every net a second time.
        try:
            stg = load_stg(str(path))
        except FileNotFoundError:
            raise CorpusError(f"no such file: {path}") from None
        except (ValueError, KeyError) as error:
            raise CorpusError(f"cannot parse {path}: {error}") from None
        instance = run_instance(path, engines, max_states, stg=stg)
        report.instances.append(instance)
        if check_laws:
            nets.append((instance.name, stg.net))
        if progress is not None:
            progress(instance)
    if check_laws:
        report.law_violations = fuzz_laws(nets, max_states=50_000)
    if out_dir is not None:
        _write_payloads(report, Path(out_dir))
    return report


def _write_payloads(report: CorpusReport, out_dir: Path) -> None:
    import json

    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for instance in report.instances:
        stem = Path(instance.path).name.replace(".", "_")
        target = out_dir / f"{stem}.obs.json"
        target.write_text(
            json.dumps(instance.payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        index.append(
            {
                "net": instance.name,
                "file": instance.path,
                "payload": target.name,
                "ok": instance.ok,
                "cells": {
                    cell.engine: {
                        "summary": cell.summary(),
                        "conclusive": cell.conclusive,
                        "cached": cell.cached,
                    }
                    for cell in instance.cells
                },
            }
        )
    (out_dir / "INDEX.json").write_text(
        json.dumps(
            {
                "instances": index,
                "disagreements": report.disagreements,
                "law_violations": report.law_violations,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )


# -- cold/warm payload comparison -------------------------------------------


def payload_bench_view(payload: dict) -> dict:
    """The semantic projection of an instance payload: ``bench.*`` spans
    (name + meta, minus cache provenance), counters and gauges — with
    all timing and every ``cache.*`` series dropped.  Two sweeps of the
    same corpus agree on this view regardless of cache temperature, so
    it is what the cold-vs-warm differential (tests and CI) compares.
    """
    spans = []
    for span in payload.get("spans", ()):
        if span.get("name") not in ("bench.cell", "bench.instance"):
            continue
        meta = {
            key: value
            for key, value in (span.get("meta") or {}).items()
            if key != "cached"
        }
        spans.append({"name": span["name"], "meta": meta})
    return {
        "spans": spans,
        "counters": {
            name: value
            for name, value in payload.get("counters", {}).items()
            if name.startswith("bench.")
        },
        "gauges": {
            name: value
            for name, value in payload.get("gauges", {}).items()
            if name.startswith("bench.")
        },
    }


def diff_bench_dirs(left: str | Path, right: str | Path) -> list[str]:
    """Differences between two ``--out`` directories of the same sweep,
    modulo timing and cache provenance (empty = equivalent).  Used by
    the cache-parity CI job to prove warm/``--no-cache`` runs emit the
    same payloads as a cold run."""
    import json

    left, right = Path(left), Path(right)
    problems: list[str] = []
    names_left = sorted(p.name for p in left.glob("*.obs.json"))
    names_right = sorted(p.name for p in right.glob("*.obs.json"))
    if names_left != names_right:
        return [
            f"payload sets differ: {names_left or '(none)'} vs"
            f" {names_right or '(none)'}"
        ]
    for name in names_left:
        view_left = payload_bench_view(
            json.loads((left / name).read_text(encoding="utf-8"))
        )
        view_right = payload_bench_view(
            json.loads((right / name).read_text(encoding="utf-8"))
        )
        if view_left != view_right:
            problems.append(f"{name}: bench views differ")

    def index_view(directory: Path) -> dict | None:
        target = directory / "INDEX.json"
        if not target.is_file():
            return None
        view = json.loads(target.read_text(encoding="utf-8"))
        for instance in view.get("instances", ()):
            for cell in instance.get("cells", {}).values():
                cell.pop("cached", None)
        return view

    if index_view(left) != index_view(right):
        problems.append("INDEX.json differs (modulo cache provenance)")
    return problems


# -- algebra-law fuzzing on corpus nets -------------------------------------


def _law_eligible(net: PetriNet) -> bool:
    """Small enough for exact language comparison (which determinises)."""
    try:
        ReachabilityGraph(net, max_states=LAW_STATE_BUDGET)
    except UnboundedNetError:
        return False
    return True


def _hidable_labels(net: PetriNet) -> list[str]:
    """Labels every transition of which the set-based contraction
    supports (see :mod:`repro.algebra.fragment`)."""
    from repro.algebra.fragment import hidable_transition_ids

    labels = []
    for label in sorted(net.used_actions() - {EPSILON}):
        tids = [t.tid for t in net.transitions_with_action(label)]
        if tids and set(tids) == set(hidable_transition_ids(net, label)):
            labels.append(label)
    return labels


def fuzz_laws(
    named_nets: list[tuple[str, PetriNet]], max_states: int = 50_000
) -> list[str]:
    """Replay Theorems 4.5/4.7 and Proposition 4.6 on parsed nets.

    Returns human-readable violation messages (empty = all laws hold).
    Nets outside the supported fragment, or too large for exact language
    comparison, are skipped per law — the harness reports what it
    checked via the returned messages only on failure, so a silent []
    means "every applicable law held on every eligible net".
    """
    from repro.algebra.compose import parallel
    from repro.algebra.fragment import supported_hide
    from repro.petri.product import (
        LazyStateSpace,
        SynchronousProduct,
        compare_languages,
    )

    violations: list[str] = []
    eligible = [(name, net) for name, net in named_nets if _law_eligible(net)]

    # Theorem 4.5 on consecutive corpus pairs: the net-level parallel
    # composition and the synchronous product of the component spaces
    # have the same language.
    for (left_name, left), (right_name, right) in zip(eligible, eligible[1:]):
        right = right.renamed_places({p: f"r.{p}" for p in right.places})
        composed = parallel(left, right)
        if not _law_eligible(composed):
            continue
        product = SynchronousProduct(
            LazyStateSpace(left),
            LazyStateSpace(right),
            sync=left.actions & right.actions,
        ).to_net()
        result = compare_languages(composed, product, max_states=max_states)
        if not result.verdict:
            violations.append(
                f"Thm 4.5 fails on {left_name} || {right_name}:"
                f" distinguishing trace {result.counterexample}"
            )

    for name, net in eligible:
        labels = _hidable_labels(net)
        # Theorem 4.7: contraction = making the label silent.
        for label in labels[:3]:
            contracted = supported_hide(net, label)
            if contracted is None:
                continue
            result = compare_languages(
                contracted,
                net,
                silent=(EPSILON,),
                silent2={label, EPSILON},
                max_states=max_states,
            )
            if not result.verdict:
                violations.append(
                    f"Thm 4.7 fails hiding {label!r} in {name}:"
                    f" distinguishing trace {result.counterexample}"
                )
        # Proposition 4.6: contraction order does not matter.
        if len(labels) >= 2:
            first, second = labels[0], labels[1]

            def both(a: str, b: str) -> PetriNet | None:
                step = supported_hide(net, a)
                return supported_hide(step, b) if step is not None else None

            one_way = both(first, second)
            other_way = both(second, first)
            if one_way is not None and other_way is not None:
                result = compare_languages(
                    one_way, other_way, max_states=max_states
                )
                if not result.verdict:
                    violations.append(
                        f"Prop 4.6 fails on {name} hiding"
                        f" {{{first!r}, {second!r}}}: distinguishing"
                        f" trace {result.counterexample}"
                    )
    return violations
