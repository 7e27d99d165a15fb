"""On-the-fly product exploration for compositional verification.

A :class:`~repro.petri.reachability.ReachabilityGraph` materialises the
*entire* state space before any question can be asked of it — the
exact blowup the paper's compositional discipline (Theorems 4.5/4.7,
Theorem 5.1) is meant to sidestep.  This module is the demand-driven
counterpart:

* :class:`LazyStateSpace` — a reachability graph whose successor
  relation is computed (and memoised) only when asked, by the packed
  exploration core :class:`~repro.petri.compiled.CompiledSpace`: states
  are packed (one int per marking when the net's token bound is
  certified), enabled sets are maintained *incrementally* (after a
  firing only the transitions it affects are re-checked), and every
  state keeps a parent pointer, so a firable counterexample trace from
  the initial marking can be reconstructed for free.

* :class:`SynchronousProduct` — the lazy synchronous product of two
  state spaces (rendez-vous on a synchronisation alphabet, free
  interleaving elsewhere): the state-space-level reading of
  Definition 4.7 used to cross-check Theorem 4.5.

* :func:`compare_languages` — on-the-fly determinised comparison of two
  nets' visible trace languages (equality or containment) with early
  termination on the first difference and a shortest distinguishing
  trace as counterexample.  Only the parts of either state space that
  the comparison actually reaches are ever constructed.

* :func:`deterministic_bisimulation` — an exact strong-bisimulation
  decision for deterministic systems by synchronous walk (with early
  exit), returning ``None`` when nondeterminism is encountered so the
  caller can fall back to partition refinement over the full graphs.

The second engine, ``engine="por"``, layers stubborn-set partial-order
reduction (:mod:`repro.petri.independence`) on top of the lazy
exploration: at each marking only a sound subset of the enabled
transitions is expanded, preserving deadlock markings, marking
predicates over declared places, and the visible-action language
exactly — so every verification verdict matches the unreduced engine
while independent interleavings collapse.

Both engines run the one core; the differential suites check them
against a naive breadth-first search over markings
(``tests/oracle.py``) and the languages against the minimal DFAs of
:mod:`repro.verify.language`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.obs import metrics as obs
from repro.petri.compiled import CompiledSpace
from repro.petri.independence import IndependenceRelation, StubbornSelector
from repro.petri.marking import Marking, Place
from repro.petri.net import EPSILON, PetriNet

#: The recognised exploration engines; verification entry points accept
#: an ``engine=`` argument drawn from this set.  ``por`` is the
#: on-the-fly engine with stubborn-set partial-order reduction layered
#: on top (see :mod:`repro.petri.independence`).
ENGINES = ("onthefly", "por")

#: Engines available only to entry points that explicitly opt in (see
#: :func:`resolve_engine`'s ``extra``).  ``symbolic`` is the
#: state-equation semi-decision engine (:mod:`repro.petri.symbolic`):
#: it answers without enumeration when conclusive and falls back to an
#: explicit engine otherwise, so only the verify layers that implement
#: that fallback accept it.
EXTRA_ENGINES = ("symbolic",)

#: Engine used by the verification layers when none is requested.
DEFAULT_ENGINE = "onthefly"

#: The recognised ignoring-prevention provisos for the reduced engine.
#: ``stack`` (the default) is the DFS-stack cycle condition with sleep
#: sets (:mod:`repro.petri.dfs`), for exhaustive reduced spaces;
#: ``fresh`` is the strictly more conservative all-targets-new
#: condition, which needs no exploration-order control and so keeps
#: breadth-first discovery — the early-exit witness hunt of
#: :mod:`repro.verify.receptiveness` runs under it.
PROVISOS = ("fresh", "stack")

#: Proviso used when reduction is requested without naming one.
DEFAULT_PROVISO = "stack"


def resolve_engine(engine: str, extra: tuple[str, ...] = ()) -> str:
    """Validate an engine name (raises ``ValueError`` on unknown names).

    ``extra`` names additional engines the calling entry point supports
    beyond the enumerating two — e.g. ``("symbolic",)`` for the
    verify layers that implement the explicit fallback the symbolic
    semi-decision engine requires."""
    if engine not in ENGINES and engine not in extra:
        accepted = ENGINES + tuple(e for e in extra if e not in ENGINES)
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {accepted}"
        )
    return engine


def resolve_proviso(proviso: str | None) -> str:
    """Validate a proviso name, mapping ``None`` to the default."""
    if proviso is None:
        return DEFAULT_PROVISO
    if proviso not in PROVISOS:
        raise ValueError(
            f"unknown proviso {proviso!r}; expected one of {PROVISOS}"
        )
    return proviso


@dataclass
class ExplorationStats:
    """Counters of work actually performed by a lazy exploration.

    ``reduced_states`` counts the states at which partial-order
    reduction actually expanded a proper subset of the enabled
    transitions (always ``0`` for the plain on-the-fly engine);
    ``sleep_skips`` the enabled transitions pruned by sleep sets and
    ``cycle_expansions`` the full expansions forced by the DFS-stack
    proviso (both ``0`` outside ``proviso="stack"``).
    ``enabledness_checks`` counts the transitions whose enabledness
    was re-derived for new states (an interner hit derives nothing).
    ``interner_hits`` counts discoveries that landed on an
    already-interned marking (re-convergent paths); ``frontier_peak``
    is the high-water mark of the BFS queue in
    :meth:`LazyStateSpace.iter_bfs` and :meth:`LazyStateSpace.walk`
    (the DFS stack depth under the stack proviso).
    """

    states: int = 0
    edges: int = 0
    enabledness_checks: int = 0
    reduced_states: int = 0
    interner_hits: int = 0
    frontier_peak: int = 0
    sleep_skips: int = 0
    cycle_expansions: int = 0

    def interner_hit_rate(self) -> float:
        """Fraction of interner lookups that found an existing marking.

        Per-space: every :meth:`CompiledSpace._discover` call fires once
        and performs exactly one lookup, a miss creates a state (and only
        a miss pays for deriving an enabled set, counted in
        ``enabledness_checks``), and the initial marking is interned
        without a lookup — so the lookup count is
        ``interner_hits + states - 1``.
        """
        lookups = self.interner_hits + max(self.states - 1, 0)
        return self.interner_hits / lookups if lookups else 0.0

    def __add__(self, other: "ExplorationStats") -> "ExplorationStats":
        return ExplorationStats(
            self.states + other.states,
            self.edges + other.edges,
            self.enabledness_checks + other.enabledness_checks,
            self.reduced_states + other.reduced_states,
            self.interner_hits + other.interner_hits,
            max(self.frontier_peak, other.frontier_peak),
            self.sleep_skips + other.sleep_skips,
            self.cycle_expansions + other.cycle_expansions,
        )


class LazyStateSpace:
    """Demand-driven reachability over one net.

    Nothing is explored at construction time beyond encoding the
    initial marking; :meth:`successors` expands one state at a time and
    memoises the result.  Exhausting :meth:`iter_bfs` yields exactly the
    states (in exactly the discovery order) of the
    :class:`~repro.petri.reachability.ReachabilityGraph`, including the
    same :class:`UnboundedNetError` behaviour — both are views of the
    same exploration core.

    ``max_states`` aborts with :class:`UnboundedNetError` (with
    ``bound`` and ``frontier`` set), and the Karp-Miller strict-covering
    test along the discovery-parent chain proves unboundedness (skipped
    when compilation certified a bound).

    The exploration runs over the packed integer-indexed core of
    :mod:`repro.petri.compiled` while this class keeps its
    Marking-domain API by translating at the boundary (packed states
    are decoded at most once each).  Callers that can test packed
    states through the codec of :attr:`compiled_net` should use
    :meth:`iter_raw` (or :meth:`walk`, which keeps no successor rows) /
    :meth:`decode` to skip the translation entirely.

    Partial-order reduction (``engine="por"``) is switched on with
    ``reduction=True`` (or an explicit
    :class:`~repro.petri.independence.StubbornSelector`): at each
    marking only a stubborn subset of the enabled transitions is
    expanded.  ``visible_actions`` are the labels the caller observes
    (default: every non-epsilon action — sound for any language
    comparison whose silent set is at most ``{eps}``); transitions
    changing the token count of a place in ``visible_places`` are
    additionally kept visible, which makes any marking predicate over
    those places (e.g. the Proposition 5.5 obligation check) invariant
    under the reduction.  Two guarantees are exact, not approximate:
    the set of reachable *deadlock* markings, and the *visible-action
    trace language* (the ignoring-prevention proviso guarantees every
    cycle of the reduced graph contains a fully expanded state, so no
    enabled transition is postponed forever).

    ``proviso`` names how ignoring is prevented (see
    :mod:`repro.petri.dfs`): the default ``"stack"`` explores the
    reduced space depth-first, fully expanding a state only when one of
    its chosen successors closes a cycle onto the current search stack,
    with sleep sets pruning already-covered commutations on top.
    Because that argument is a property of the whole search, a
    ``"stack"``-reduced space is explored to completion on the first
    demand (``successors``/``iter_bfs`` force it), and failure traces
    are firable but no longer shortest.  ``"fresh"`` is the
    original on-demand proviso — accept a reduced expansion only when
    every reduced successor is new — which keeps per-state laziness
    (and BFS-shortest traces) but re-expands every pure cycle.
    """

    def __init__(
        self,
        net: PetriNet,
        max_states: int = 1_000_000,
        reduction: "StubbornSelector | bool" = False,
        visible_actions: Iterable[str] | None = None,
        visible_places: Iterable[Place] = (),
        proviso: str | None = None,
    ):
        self.net = net
        self.max_states = max_states
        self.stats = ExplorationStats()
        self.visible_actions: frozenset[str] | None = None
        self._selector: StubbornSelector | None = None
        if proviso is not None and not reduction:
            raise ValueError(
                "proviso is a reduction knob; it requires reduction=True"
            )
        self.proviso: str | None = resolve_proviso(proviso) if reduction else None
        if reduction:
            if isinstance(reduction, StubbornSelector):
                self._selector = reduction
            else:
                self.visible_actions = (
                    frozenset(visible_actions)
                    if visible_actions is not None
                    else frozenset(net.actions) - {EPSILON}
                )
                relation = IndependenceRelation(net)
                visible_tids = {
                    tid
                    for tid, t in net.transitions.items()
                    if t.action in self.visible_actions
                }
                visible_tids |= relation.transitions_changing(visible_places)
                self._selector = StubbornSelector(net, visible_tids, relation)
        self.stats.states = 1
        self._succ: dict[Marking, tuple[tuple[str, int, Marking], ...]] = {}
        self._cnet = net.compiled()
        self._core = CompiledSpace(
            self._cnet,
            max_states=max_states,
            stats=self.stats,
            selector=self._selector,
            proviso=self.proviso,
        )
        self.initial = net.initial
        #: Bidirectional packed <-> Marking maps, filled on demand; each
        #: packed state gets one canonical decoded Marking.
        self._mark_of = {self._core.initial: self.initial}
        self._pack_of = {self.initial: self._core.initial}

    # -- packed <-> Marking translation ------------------------------------

    @property
    def compiled_net(self):
        """The :class:`~repro.petri.compiled.CompiledNet` this space
        explores."""
        return self._cnet

    def decode(self, state) -> Marking:
        """The canonical :class:`Marking` of a packed state yielded by
        :meth:`iter_raw`."""
        marking = self._mark_of.get(state)
        if marking is None:
            marking = self._cnet.decode(state)
            self._mark_of[state] = marking
            self._pack_of[marking] = state
        return marking

    def _lookup_packed(self, marking: Marking):
        """The packed form of an already-discovered marking; raises
        ``KeyError`` when the marking was never discovered (or cannot
        even be encoded over this net's places)."""
        packed = self._pack_of.get(marking)
        if packed is not None:
            return packed
        try:
            packed = self._cnet.encode(marking)
        except (KeyError, ValueError):
            raise KeyError(f"{marking!r} has not been discovered") from None
        if not self._core.discovered(packed):
            raise KeyError(f"{marking!r} has not been discovered")
        self._pack_of[marking] = packed
        return packed

    @property
    def is_reduced(self) -> bool:
        """``True`` when stubborn-set partial-order reduction is active."""
        return self._selector is not None

    def successors(self, marking: Marking) -> tuple[tuple[str, int, Marking], ...]:
        """Outgoing edges of a state as ``(action, tid, target)`` triples,
        computed on first request and memoised.

        Under partial-order reduction this expands only the enabled
        members of a stubborn set whenever the selector proposes one
        and the ignoring-prevention proviso accepts it; otherwise every
        enabled transition is followed.  With ``proviso="stack"`` the
        first call forces the full reduced DFS (see the class
        docstring) and every call serves the memoised reduced graph.
        """
        cached = self._succ.get(marking)
        if cached is not None:
            return cached
        packed = self._lookup_packed(marking)
        decode = self.decode
        result = tuple(
            (action, tid, decode(target))
            for action, tid, target in self._core.successors(packed)
        )
        self._succ[marking] = result
        return result

    # -- traversal ---------------------------------------------------------

    def iter_bfs(self) -> Iterator[Marking]:
        """Yield reachable markings in breadth-first discovery order.

        States are yielded as soon as they are *discovered* (before they
        are expanded), so a consumer checking a predicate per state can
        stop strictly earlier than any full construction.  Under the
        stack proviso the reduced graph is explored (depth-first) in
        full first and this is a breadth-first replay of it.
        """
        decode = self.decode
        for state in self.iter_raw():
            yield decode(state)

    def iter_raw(self) -> Iterator:
        """BFS over *packed* states — the allocation-light twin of
        :meth:`iter_bfs` for callers that only test marked places per
        state through the codec (e.g. the Prop 5.5 predicate) and can
        decode the rare interesting state via :meth:`decode`.
        Discovery order is identical to :meth:`iter_bfs`."""
        core = self._core
        core.ensure_explored()
        stats = self.stats
        yield core.initial
        seen = {core.initial}
        queue: deque = deque([core.initial])
        while queue:
            state = queue.popleft()
            for _, _, target in core.successors(state):
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
                    if len(queue) > stats.frontier_peak:
                        stats.frontier_peak = len(queue)
                    yield target

    def walk(self) -> Iterator:
        """Breadth-first exploration that keeps no successor rows:
        :meth:`CompiledSpace.walk <repro.petri.compiled.CompiledSpace.walk>`
        over this space, yielding ``(dense, packed state)`` in the
        discovery order of :meth:`iter_raw`, ``dense`` being the
        transition on the state's discovery-parent link (``-1`` for the
        initial state).  It drives a fresh space, once, for callers that
        only scan states (the Prop 5.5 search) or count them; a state it
        expanded has no row left, so :meth:`successors` on it raises
        ``KeyError``.  Not for ``proviso="stack"`` spaces."""
        return self._core.walk()

    def explore_all(self) -> int:
        """Force full exploration; returns the number of reachable states."""
        for _ in self.iter_raw():
            pass
        return self._core.num_states()

    def num_explored(self) -> int:
        """States discovered so far (== total states after ``explore_all``)."""
        return self._core.num_states()

    # -- observability -----------------------------------------------------

    def publish_metrics(self, prefix: str = "engine.lazy") -> None:
        """Flush the exploration counters to the active obs recorders.

        Counters are additive across spaces (a language comparison
        publishes both sides under the same prefix); the frontier peak
        and hit rate are per-space level measurements, reported as a
        high-water gauge and a last-write gauge respectively.  A no-op
        when no recorder is installed.
        """
        if not obs.active():
            return
        stats = self.stats
        obs.count(f"{prefix}.states", stats.states)
        obs.count(f"{prefix}.edges", stats.edges)
        obs.count(f"{prefix}.enabledness_checks", stats.enabledness_checks)
        obs.count(f"{prefix}.interner_hits", stats.interner_hits)
        obs.gauge_max(f"{prefix}.frontier_peak", stats.frontier_peak)
        obs.gauge(
            f"{prefix}.interner_hit_rate", round(stats.interner_hit_rate(), 6)
        )
        if self._selector is not None:
            obs.count(f"{prefix}.reduced_states", stats.reduced_states)
            obs.count(f"{prefix}.sleep_skips", stats.sleep_skips)
            obs.count(f"{prefix}.cycle_expansions", stats.cycle_expansions)
            if stats.states:
                obs.gauge(
                    f"{prefix}.reduction_ratio",
                    round(stats.reduced_states / stats.states, 6),
                )
            selector = self._selector.stats
            obs.count(f"{prefix}.selector.calls", selector.calls)
            obs.count(f"{prefix}.selector.seeds_tried", selector.seeds_tried)
            obs.count(f"{prefix}.selector.proposals", selector.proposals)

    # -- counterexample reconstruction -------------------------------------

    def trace_to(self, marking) -> tuple[tuple[int, str], ...]:
        """A firable ``(tid, action)`` path from the initial marking to a
        discovered state, via the discovery-parent pointers.

        The argument may be either a :class:`Marking` or a packed state
        from :meth:`iter_raw`.
        """
        packed = (
            self._lookup_packed(marking)
            if isinstance(marking, Marking)
            else marking
        )
        return self._core.trace_to(packed)


# -- synchronous product ------------------------------------------------------


class SynchronousProduct:
    """Lazy synchronous product of two state spaces.

    A product state is a pair of component markings.  An action in
    ``sync`` fires as a rendez-vous (both components step together, all
    pairings of same-label moves); any other action interleaves.  This
    is the LTS-level reading of Definition 4.7: exhausting the product
    of ``L(N1)`` and ``L(N2)`` without ever composing the nets.

    Component spaces may be partial-order reduced: because the product
    trace language is determined by the component trace languages
    (Theorem 4.5), reduction inside a component carries over to the
    product — *provided* the synchronisation actions stay visible in
    every reduced component, which is validated here.  (Product
    deadlocks are not preserved by component-wise reduction; use an
    unreduced product, or reduce the composed net itself, for deadlock
    questions.)
    """

    def __init__(
        self,
        space1: LazyStateSpace,
        space2: LazyStateSpace,
        sync: Iterable[str],
    ):
        self.space1 = space1
        self.space2 = space2
        self.sync = frozenset(sync)
        #: Product-level work: ``states`` discovered by :meth:`iter_bfs`,
        #: ``edges`` returned by :meth:`successors` (component work is
        #: tracked by the component spaces' own stats).
        self.stats = ExplorationStats()
        for space in (space1, space2):
            visible = space.visible_actions
            if space.is_reduced and visible is not None and not self.sync <= visible:
                raise ValueError(
                    "partial-order reduced component spaces must keep every"
                    f" synchronisation action visible; hidden:"
                    f" {sorted(self.sync - visible)}"
                )
        self.initial = (space1.initial, space2.initial)

    def successors(
        self, state: tuple[Marking, Marking]
    ) -> list[tuple[str, tuple[Marking, Marking]]]:
        m1, m2 = state
        edges: list[tuple[str, tuple[Marking, Marking]]] = []
        moves2: dict[str, list[Marking]] = {}
        for action, _, target in self.space2.successors(m2):
            moves2.setdefault(action, []).append(target)
        for action, _, target in self.space1.successors(m1):
            if action in self.sync:
                for partner in moves2.get(action, ()):
                    edges.append((action, (target, partner)))
            else:
                edges.append((action, (target, m2)))
        for action, targets in moves2.items():
            if action in self.sync:
                continue
            for target in targets:
                edges.append((action, (m1, target)))
        self.stats.edges += len(edges)
        return edges

    def iter_bfs(self) -> Iterator[tuple[Marking, Marking]]:
        yield self.initial
        self.stats.states += 1
        seen = {self.initial}
        queue: deque[tuple[Marking, Marking]] = deque([self.initial])
        while queue:
            state = queue.popleft()
            for _, target in self.successors(state):
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
                    if len(queue) > self.stats.frontier_peak:
                        self.stats.frontier_peak = len(queue)
                    self.stats.states += 1
                    yield target

    def publish_metrics(self, prefix: str = "engine.product") -> None:
        """Flush product-level counters (and both components' counters,
        under ``<prefix>.component``) to the active obs recorders."""
        if not obs.active():
            return
        obs.count(f"{prefix}.states", self.stats.states)
        obs.count(f"{prefix}.edges", self.stats.edges)
        obs.gauge_max(f"{prefix}.frontier_peak", self.stats.frontier_peak)
        self.space1.publish_metrics(f"{prefix}.component")
        self.space2.publish_metrics(f"{prefix}.component")

    def to_net(self, name: str = "product-lts") -> PetriNet:
        """Materialise the product LTS as a one-token state-machine net
        (each product state a place, each edge a transition).

        Intended for oracle cross-checks — e.g. Theorem 4.5 is the claim
        that this net and the composed net have the same language.
        """
        index: dict[tuple[Marking, Marking], str] = {}

        def place_of(state: tuple[Marking, Marking]) -> str:
            if state not in index:
                index[state] = f"s{len(index)}"
            return index[state]

        net = PetriNet(name)
        net.add_place(place_of(self.initial), tokens=1)
        for state in self.iter_bfs():
            for action, target in self.successors(state):
                net.add_transition({place_of(state)}, action, {place_of(target)})
        return net


# -- on-the-fly determinised language comparison ------------------------------


class _LazyDfa:
    """Subset construction over a :class:`LazyStateSpace`, one move at a
    time, with epsilon-closure over the silent labels."""

    def __init__(self, space: LazyStateSpace, silent: frozenset[str]):
        self.space = space
        self.silent = silent
        self._moves: dict[frozenset[Marking], dict[str, frozenset[Marking]]] = {}

    def closure(self, states: frozenset[Marking]) -> frozenset[Marking]:
        seen = set(states)
        queue = deque(states)
        while queue:
            marking = queue.popleft()
            for action, _, target in self.space.successors(marking):
                if action in self.silent and target not in seen:
                    seen.add(target)
                    queue.append(target)
        return frozenset(seen)

    def start(self) -> frozenset[Marking]:
        return self.closure(frozenset({self.space.initial}))

    def moves(
        self, subset: frozenset[Marking]
    ) -> dict[str, frozenset[Marking]]:
        cached = self._moves.get(subset)
        if cached is not None:
            return cached
        buckets: dict[str, set[Marking]] = {}
        for marking in subset:
            for action, _, target in self.space.successors(marking):
                if action not in self.silent:
                    buckets.setdefault(action, set()).add(target)
        result = {
            action: self.closure(frozenset(targets))
            for action, targets in buckets.items()
        }
        self._moves[subset] = result
        return result


@dataclass
class LanguageComparison:
    """Outcome of an on-the-fly language comparison.

    ``verdict`` answers the requested question (equality or
    containment); on a negative verdict ``counterexample`` is a
    shortest visible trace in exactly one language ("contained" mode:
    in the left language but not the right).  ``stats`` records the
    exploration work of both sides combined.
    """

    mode: str
    verdict: bool
    counterexample: tuple[str, ...] | None = None
    stats: ExplorationStats = field(default_factory=ExplorationStats)


def compare_languages(
    net1: PetriNet,
    net2: PetriNet,
    mode: str = "equal",
    silent: Iterable[str] = (EPSILON,),
    silent2: Iterable[str] | None = None,
    alphabet: Iterable[str] | None = None,
    max_states: int = 1_000_000,
    reduction: bool = False,
) -> LanguageComparison:
    """Compare visible trace languages without materialising either
    state space: determinise both nets on the fly and walk the pair
    graph breadth-first, stopping at the first difference.

    ``mode`` is ``"equal"`` (language equality) or ``"contained"``
    (``L(net1) <= L(net2)``).  ``silent2`` lets the right-hand net use a
    different silent set (e.g. for Theorem 4.7, where the contracted
    label is silent on the un-contracted side only); it defaults to
    ``silent``.  ``alphabet`` restricts/widens the compared symbol set
    exactly as in :func:`repro.verify.language.dfa_of_net`.

    ``reduction=True`` (the ``engine="por"`` path) explores both sides
    under stubborn-set partial-order reduction with exactly the
    non-silent actions visible — the reduced spaces have the same
    visible languages as the full ones, so the verdict and the
    counterexample stay exact while silent interleavings collapse.
    """
    if mode not in ("equal", "contained"):
        raise ValueError(f"unknown mode {mode!r}")
    silent1_set = frozenset(silent)
    silent2_set = frozenset(silent2) if silent2 is not None else silent1_set
    if alphabet is None:
        universe = frozenset(
            (net1.actions - silent1_set) | (net2.actions - silent2_set)
        )
    else:
        universe = frozenset(alphabet) - (silent1_set | silent2_set)
    space1 = LazyStateSpace(
        net1,
        max_states=max_states,
        reduction=reduction,
        visible_actions=frozenset(net1.actions) - silent1_set,
    )
    space2 = LazyStateSpace(
        net2,
        max_states=max_states,
        reduction=reduction,
        visible_actions=frozenset(net2.actions) - silent2_set,
    )
    dfa1 = _LazyDfa(space1, silent1_set)
    dfa2 = _LazyDfa(space2, silent2_set)

    Sub = frozenset  # a DFA state is a subset of markings; None is the sink
    start = (dfa1.start(), dfa2.start())
    parents: dict[
        tuple[Sub | None, Sub | None],
        tuple[tuple[Sub | None, Sub | None], str] | None,
    ] = {start: None}
    queue: deque[tuple[Sub | None, Sub | None]] = deque([start])

    def mismatch(s1: Sub | None, s2: Sub | None) -> bool:
        if mode == "equal":
            return (s1 is None) != (s2 is None)
        return s1 is not None and s2 is None

    def trace_of(pair: tuple[Sub | None, Sub | None]) -> tuple[str, ...]:
        symbols: list[str] = []
        cursor = pair
        while parents[cursor] is not None:
            cursor, symbol = parents[cursor]  # type: ignore[misc]
            symbols.append(symbol)
        return tuple(reversed(symbols))

    def stats() -> ExplorationStats:
        return space1.stats + space2.stats

    def finish(
        verdict: bool, counterexample: tuple[str, ...] | None
    ) -> LanguageComparison:
        space1.publish_metrics()
        space2.publish_metrics()
        obs.count("engine.product.pairs", len(parents))
        return LanguageComparison(mode, verdict, counterexample, stats())

    with obs.span(
        "engine.product.compare_languages", mode=mode, reduction=reduction
    ) as span:
        while queue:
            s1, s2 = queue.popleft()
            moves1 = dfa1.moves(s1) if s1 is not None else {}
            moves2 = dfa2.moves(s2) if s2 is not None else {}
            for symbol in sorted(set(moves1) | set(moves2)):
                if symbol not in universe:
                    # Labels outside the compared alphabet fall outside the
                    # language on either side (same convention as the
                    # DFA construction of repro.verify.language).
                    continue
                successor = (moves1.get(symbol), moves2.get(symbol))
                if successor in parents:
                    continue
                parents[successor] = ((s1, s2), symbol)
                if mismatch(*successor):
                    span.set(verdict=False, pairs=len(parents))
                    return finish(False, trace_of(successor))
                if successor[0] is not None and successor[1] is not None:
                    # A pair with a sink component is terminal: in "equal"
                    # mode it was a mismatch above, in "contained" mode a
                    # dead left side can never violate containment later.
                    queue.append(successor)
        span.set(verdict=True, pairs=len(parents))
        return finish(True, None)


# -- on-the-fly bisimulation (deterministic fragment) -------------------------


def deterministic_bisimulation(
    net1: PetriNet,
    net2: PetriNet,
    max_states: int = 100_000,
) -> tuple[bool | None, ExplorationStats]:
    """Strong-bisimulation check by synchronous walk, exact on
    deterministic systems.

    Returns ``(True, stats)`` / ``(False, stats)`` when the verdict is
    definite: while every visited state offers at most one successor per
    label on both sides, the synchronised path is forced, so a label-set
    mismatch proves non-bisimilarity and full agreement proves (strong)
    bisimilarity.  Returns ``(None, stats)`` as soon as nondeterminism
    is encountered — the caller must fall back to partition refinement
    over the full graphs.
    """
    space1 = LazyStateSpace(net1, max_states=max_states)
    space2 = LazyStateSpace(net2, max_states=max_states)

    def combined() -> ExplorationStats:
        space1.publish_metrics()
        space2.publish_metrics()
        return space1.stats + space2.stats

    def rows(
        space: LazyStateSpace, marking: Marking
    ) -> dict[str, set[Marking]] | None:
        by_label: dict[str, set[Marking]] = {}
        for action, _, target in space.successors(marking):
            by_label.setdefault(action, set()).add(target)
            if len(by_label[action]) > 1:
                return None
        return by_label

    start = (space1.initial, space2.initial)
    seen = {start}
    queue = deque([start])
    with obs.span("engine.product.deterministic_bisimulation") as span:
        while queue:
            m1, m2 = queue.popleft()
            rows1 = rows(space1, m1)
            rows2 = rows(space2, m2)
            if rows1 is None or rows2 is None:
                span.set(verdict=None)
                return None, combined()
            if set(rows1) != set(rows2):
                span.set(verdict=False)
                return False, combined()
            for label, targets1 in rows1.items():
                pair = (next(iter(targets1)), next(iter(rows2[label])))
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
        span.set(verdict=True)
        return True, combined()
