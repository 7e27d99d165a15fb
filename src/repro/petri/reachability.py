"""Reachability graphs (the dynamics of Definition 2.2).

The reachability graph ``RG(N)`` has the reachable markings as nodes and
an edge ``(M, a, M')`` for every transition firing.  The paper's methods
deliberately *avoid* building this graph for synthesis; here it serves as
the ground truth against which the net-level algebra is validated, and as
the substrate for STG state graphs.

:class:`ReachabilityGraph` works on dense indices: states are numbered in
discovery order and kept packed (:mod:`repro.petri.compiled`), edges are
``(transition, target index)`` pairs, and the structural queries
(Tarjan's SCCs, bound, liveness, reversibility, deadlocks, dead
transitions) run over ints.  :class:`Marking` objects are decoded only
for the callers that read them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.obs import metrics as obs
from repro.petri.marking import Marking
from repro.petri.net import PetriNet, Transition


class UnboundedNetError(Exception):
    """Raised when reachability exploration detects or suspects unboundedness.

    Attributes
    ----------
    witness:
        The marking that triggered the abort — the strictly-covering
        marking on the genuine-unboundedness path, or the first marking
        past the state budget on the resource-abort path.  Never ``None``
        when raised by the exploration engines.
    bound:
        The exceeded ``max_states`` budget on the resource-abort path;
        ``None`` when unboundedness was actually *proven* (covering).
    frontier:
        The frontier marking at which exploration stopped.  Equal to
        ``witness`` for the engines in this package; kept as a separate
        field so callers can rely on it regardless of which path raised.
    """

    def __init__(
        self,
        message: str,
        witness: Marking | None = None,
        bound: int | None = None,
        frontier: Marking | None = None,
    ):
        super().__init__(message)
        self.witness = witness
        self.bound = bound
        self.frontier = frontier if frontier is not None else witness


class _EdgeView:
    """Read-only iterable of a graph's edges as ``(source, action, tid,
    target)`` tuples, decoded on demand from the index rows.

    Rows are kept in discovery order and states are expanded in
    discovery order, so iterating yields the edges in the order the
    exploration found them; nothing is stored twice.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "ReachabilityGraph"):
        self._graph = graph

    def __iter__(self):
        graph = self._graph
        markings = graph._markings()
        actions, tids = graph._cnet.actions, graph._cnet.tids
        for source, row in zip(markings, graph._rows):
            for dense, target in row:
                yield (source, actions[dense], tids[dense], markings[target])

    def __len__(self) -> int:
        return self._graph._num_edges


class ReachabilityGraph:
    """Explicit-state reachability graph of a bounded Petri net.

    An index-based graph over the exploration core
    (:class:`~repro.petri.compiled.CompiledSpace`, the same core the
    on-the-fly engine runs on demand): one breadth-first pass exhausts
    the core and numbers the states in discovery order (children in tid
    order).  The graph keeps the packed states by index and, per state,
    a row of ``(dense transition, target index)`` pairs.  ``bound``,
    ``is_safe``, ``is_live``, ``is_reversible``, ``deadlocks`` and
    ``dead_transitions`` run over those indices and, through the codec
    of :class:`~repro.petri.compiled.CompiledNet`, the packed states.
    :class:`Marking` objects are decoded only when a caller reads
    ``states``, :meth:`successors` or ``edges`` (all at once, then
    kept), and :meth:`deadlocks` decodes just the deadlocks.  The state
    budget, the Karp-Miller covering detection and their
    :class:`UnboundedNetError` messages are the core's; this class only
    keeps the result.

    Parameters
    ----------
    net:
        The net to explore.
    max_states:
        Exploration aborts with :class:`UnboundedNetError` past this many
        states.  This is a resource guard; use
        :mod:`repro.petri.coverability` for a genuine unboundedness test.

    ``states`` is a set-like view of the reachable markings that iterates
    in breadth-first discovery order (children in tid order), so scans
    over it are deterministic and agree with the on-the-fly engine.
    """

    def __init__(self, net: PetriNet, max_states: int = 1_000_000):
        from repro.petri.compiled import CompiledSpace
        from repro.petri.product import ExplorationStats

        with obs.span("engine.eager.explore", net=net.name) as span:
            self.net = net
            self.initial = net.initial
            cnet = net.compiled()
            self._cnet = cnet
            # The core's breadth-first walk hands over each state's row
            # as it is expanded; a target seen for the first time gets
            # the next index, so indices follow discovery order.
            packed = [cnet.initial_state]
            index_of = {packed[0]: 0}
            rows: list[tuple[tuple[int, int], ...]] = []

            def index_row(row: list) -> None:
                indexed = []
                for dense, child in row:
                    target = index_of.get(child)
                    if target is None:
                        target = index_of[child] = len(packed)
                        packed.append(child)
                    indexed.append((dense, target))
                rows.append(tuple(indexed))

            core = CompiledSpace(cnet, max_states, ExplorationStats())
            for _ in core.walk(index_row):
                pass
            self._packed = packed
            self._rows = rows
            self._num_edges = core.stats.edges
            #: High-water mark of the BFS queue during construction.
            self.frontier_peak = core.stats.frontier_peak
            self._scc: tuple[int, list[int]] | None = None
            self._decoded: list[Marking] | None = None
            self._position: dict[Marking, int] | None = None
            self._decoded_rows: list | None = None
            span.set(states=self.num_states(), edges=self._num_edges)
        obs.count("engine.eager.states", self.num_states())
        obs.count("engine.eager.edges", self._num_edges)
        obs.gauge_max("engine.eager.frontier_peak", self.frontier_peak)

    # -- the Marking view --------------------------------------------------

    def _markings(self) -> list[Marking]:
        """Every state decoded, by index (done once, on first need)."""
        if self._decoded is None:
            decode = self._cnet.decode
            markings = [self.initial]
            markings += [decode(state) for state in self._packed[1:]]
            self._decoded = markings
            self._position = {marking: i for i, marking in enumerate(markings)}
            self._decoded_rows = [None] * len(markings)
        return self._decoded

    def _marking_at(self, index: int) -> Marking:
        if self._decoded is not None:
            return self._decoded[index]
        if index == 0:
            return self.initial
        return self._cnet.decode(self._packed[index])

    @property
    def states(self):
        """The reachable markings, a set-like view in discovery order."""
        self._markings()
        return self._position.keys()

    @property
    def edges(self) -> _EdgeView:
        """Edges as ``(source, action, tid, target)`` tuples — a view
        decoded from the index rows (nothing is stored twice)."""
        return _EdgeView(self)

    def successors(self, marking: Marking) -> list[tuple[str, int, Marking]]:
        """Outgoing edges of a state as ``(action, tid, target)`` triples."""
        markings = self._markings()
        index = self._position[marking]
        row = self._decoded_rows[index]
        if row is None:
            actions, tids = self._cnet.actions, self._cnet.tids
            row = [
                (actions[dense], tids[dense], markings[target])
                for dense, target in self._rows[index]
            ]
            self._decoded_rows[index] = row
        return row

    # -- queries -----------------------------------------------------------

    def num_states(self) -> int:
        return len(self._packed)

    def num_edges(self) -> int:
        return self._num_edges

    def marked_places(self) -> set[str]:
        """Places that hold a token in at least one reachable marking."""
        cnet = self._cnet
        marked_mask = cnet.marked_mask
        ever = 0
        for state in self._packed:
            ever |= marked_mask(state)
        names = cnet.place_names
        return {names[i] for i in cnet.mask_indices(ever)}

    def deadlocks(self) -> list[Marking]:
        """Reachable markings with no enabled transition."""
        return [
            self._marking_at(index)
            for index, row in enumerate(self._rows)
            if not row
        ]

    def is_deadlock_free(self) -> bool:
        return all(self._rows)

    def bound(self) -> int:
        """The maximum token count of any place over all reachable markings."""
        return self._cnet.max_count(self._packed)

    def is_safe(self) -> bool:
        """``True`` iff every reachable marking is safe (1-bounded)."""
        return self.bound() <= 1

    def fired_tids(self) -> set[int]:
        """Transition ids that fire on at least one edge."""
        tids = self._cnet.tids
        fired = {dense for row in self._rows for dense, _ in row}
        return {tids[dense] for dense in fired}

    def dead_transitions(self) -> list[Transition]:
        """Transitions that can never fire from any reachable marking (L0)."""
        fired = self.fired_tids()
        return [
            t for tid, t in sorted(self.net.transitions.items()) if tid not in fired
        ]

    def is_live(self) -> bool:
        """L4-liveness: from every reachable marking, every transition can
        eventually fire again.

        From every state some terminal strongly connected component is
        reachable, and from a state in a terminal component exactly the
        transitions firing inside it stay fireable.  So the net is live
        iff every transition fires inside every terminal component.
        """
        total = self._cnet.num_transitions
        if not total:
            return True
        components, scc_of = self._condensation()
        rows = self._rows
        terminal = [True] * components
        if components > 1:
            for source, row in enumerate(rows):
                component = scc_of[source]
                if terminal[component]:
                    for _, target in row:
                        if scc_of[target] != component:
                            terminal[component] = False
                            break
        fired: list[set[int]] = [set() for _ in range(components)]
        for source, row in enumerate(rows):
            component = scc_of[source]
            inside = fired[component]
            if terminal[component] and len(inside) < total:
                inside.update(dense for dense, _ in row)
        return all(
            len(fired[component]) == total
            for component in range(components)
            if terminal[component]
        )

    def is_reversible(self) -> bool:
        """``True`` iff the initial marking is reachable from every state.

        Every state is reachable from the initial one, so this holds iff
        the graph is one strongly connected component."""
        return self.is_strongly_connected()

    def is_strongly_connected(self) -> bool:
        """``True`` iff the reachability graph is one strongly connected component."""
        components, _ = self._condensation()
        return components <= 1

    # -- internals ----------------------------------------------------------

    def _condensation(self) -> tuple[int, list[int]]:
        """Tarjan SCCs of the reachability graph, computed once per graph
        (``is_live``, ``is_reversible`` and ``is_strongly_connected``
        share them): the component count and each state's component."""
        if self._scc is None:
            self._scc = self._tarjan()
        return self._scc

    def _tarjan(self) -> tuple[int, list[int]]:
        """Tarjan SCCs over state indices (iterative).  A visited state
        is on Tarjan's stack exactly while it has no component yet."""
        rows = self._rows
        count = len(rows)
        order = [-1] * count
        low = [0] * count
        scc_of = [-1] * count
        stack: list[int] = []
        components = 0
        counter = 0
        for root in range(count):
            if order[root] >= 0:
                continue
            order[root] = low[root] = counter
            counter += 1
            stack.append(root)
            work = [[root, 0]]
            while work:
                frame = work[-1]
                node, position = frame
                row = rows[node]
                descended = False
                while position < len(row):
                    target = row[position][1]
                    position += 1
                    if order[target] < 0:
                        frame[1] = position
                        order[target] = low[target] = counter
                        counter += 1
                        stack.append(target)
                        work.append([target, 0])
                        descended = True
                        break
                    if scc_of[target] < 0 and order[target] < low[node]:
                        low[node] = order[target]
                if descended:
                    continue
                work.pop()
                if low[node] == order[node]:
                    while True:
                        member = stack.pop()
                        scc_of[member] = components
                        if member == node:
                            break
                    components += 1
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
        return components, scc_of


def firing_sequences(
    net: PetriNet, max_depth: int, from_marking: Marking | None = None
) -> Iterable[tuple[str, ...]]:
    """Yield all firing sequences (as action tuples) up to ``max_depth``.

    The empty sequence is always yielded first; the result enumerates the
    bounded-depth prefix-closed trace set of Definition 4.1.
    """
    start = from_marking if from_marking is not None else net.initial
    queue: deque[tuple[Marking, tuple[str, ...]]] = deque([(start, ())])
    yield ()
    while queue:
        marking, trace = queue.popleft()
        if len(trace) >= max_depth:
            continue
        for transition in net.enabled_transitions(marking):
            successor = net.fire(transition, marking, check=False)
            extended = trace + (transition.action,)
            yield extended
            queue.append((successor, extended))
