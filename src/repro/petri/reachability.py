"""Reachability graphs (the dynamics of Definition 2.2).

The reachability graph ``RG(N)`` has the reachable markings as nodes and
an edge ``(M, a, M')`` for every transition firing.  The paper's methods
deliberately *avoid* building this graph for synthesis; here it serves as
the ground truth against which the net-level algebra is validated, and as
the substrate for STG state graphs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.obs import metrics as obs
from repro.petri.marking import Marking
from repro.petri.net import PetriNet, Transition

if TYPE_CHECKING:
    from repro.petri.compiled import PackedState


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
    target)`` tuples, flattened on demand from the successor map.

    The successor map is keyed in discovery order and states are
    expanded in discovery order, so flattening yields the edges in the
    order the exploration found them; nothing is stored twice.
    """

    __slots__ = ("_successors", "_count")

    def __init__(
        self,
        successors: dict[Marking, list[tuple[str, int, Marking]]],
        count: int,
    ):
        self._successors = successors
        self._count = count

    def __iter__(self):
        for source, edges in self._successors.items():
            for action, tid, target in edges:
                yield (source, action, tid, target)

    def __len__(self) -> int:
        return self._count


class ReachabilityGraph:
    """Explicit-state reachability graph of a bounded Petri net.

    A materialised view over the exploration core
    (:class:`~repro.petri.compiled.CompiledSpace`, the same core the
    on-the-fly engine runs on demand): one breadth-first pass exhausts
    the core, decoding each packed state to a :class:`Marking` once and
    building its edge row as it goes.  The state budget, the
    Karp-Miller covering detection and their :class:`UnboundedNetError`
    messages are the core's; this class only keeps the result.

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
            cnet = net.compiled()
            core = CompiledSpace(cnet, max_states, ExplorationStats())
            self._materialise(net, core.expand)
            span.set(states=len(self.states), edges=self._num_edges)
        obs.count("engine.eager.states", len(self.states))
        obs.count("engine.eager.edges", self._num_edges)
        obs.gauge_max("engine.eager.frontier_peak", self.frontier_peak)

    @classmethod
    def from_packed(
        cls,
        net: PetriNet,
        expand: Callable[[PackedState], Iterable[tuple[str, int, PackedState]]],
    ) -> "ReachabilityGraph":
        """A graph built from an already-explored packed edge relation
        (e.g. the sharded explorer's gathered edge logs): ``expand``
        returns the ``(action, tid, target)`` row of a packed state of
        ``net.compiled()``, and is called once per reachable state."""
        graph = cls.__new__(cls)
        graph._materialise(net, expand)
        return graph

    def _materialise(
        self,
        net: PetriNet,
        expand: Callable[[PackedState], Iterable[tuple[str, int, PackedState]]],
    ) -> None:
        """One breadth-first pass from the initial state: each packed
        state is decoded once, on first sight, and its edge row is
        rebuilt over the decoded markings before the next state is
        expanded."""
        self.net = net
        self.initial = net.initial
        cnet = net.compiled()
        decode = cnet.decode
        start = cnet.initial_state
        mark_of = {start: self.initial}
        self._successors: dict[Marking, list[tuple[str, int, Marking]]] = {
            self.initial: []
        }
        successors = self._successors
        self._num_edges = 0
        #: High-water mark of the BFS queue during construction.
        self.frontier_peak = 0
        self._scc: tuple[list[set[Marking]], dict[Marking, int]] | None = None
        queue: deque = deque([start])
        while queue:
            state = queue.popleft()
            row = successors[mark_of[state]]
            for action, tid, child in expand(state):
                target = mark_of.get(child)
                if target is None:
                    target = decode(child)
                    mark_of[child] = target
                    successors[target] = []
                    queue.append(child)
                    if len(queue) > self.frontier_peak:
                        self.frontier_peak = len(queue)
                row.append((action, tid, target))
            self._num_edges += len(row)
        self.states = successors.keys()

    # -- queries -----------------------------------------------------------

    @property
    def edges(self) -> _EdgeView:
        """Edges as ``(source, action, tid, target)`` tuples — a view
        derived from the successor map (nothing is stored twice)."""
        return _EdgeView(self._successors, self._num_edges)

    def successors(self, marking: Marking) -> list[tuple[str, int, Marking]]:
        """Outgoing edges of a state as ``(action, tid, target)`` triples."""
        return self._successors[marking]

    def num_states(self) -> int:
        return len(self.states)

    def num_edges(self) -> int:
        return self._num_edges

    def deadlocks(self) -> list[Marking]:
        """Reachable markings with no enabled transition."""
        return [m for m in self.states if not self._successors[m]]

    def is_deadlock_free(self) -> bool:
        return not self.deadlocks()

    def bound(self) -> int:
        """The maximum token count of any place over all reachable markings."""
        return max(
            (count for marking in self.states for count in marking.values()),
            default=0,
        )

    def is_safe(self) -> bool:
        """``True`` iff every reachable marking is safe (1-bounded)."""
        return self.bound() <= 1

    def fired_tids(self) -> set[int]:
        """Transition ids that fire on at least one edge."""
        return {tid for _, _, tid, _ in self.edges}

    def dead_transitions(self) -> list[Transition]:
        """Transitions that can never fire from any reachable marking (L0)."""
        fired = self.fired_tids()
        return [
            t for tid, t in sorted(self.net.transitions.items()) if tid not in fired
        ]

    def is_live(self) -> bool:
        """L4-liveness: from every reachable marking, every transition can
        eventually fire again.

        Checked by verifying that every transition fires inside every
        terminal strongly connected component of the reachability graph
        that is reachable from the initial marking (equivalently: from
        every state, every transition remains fireable in the future).
        """
        if not self.net.transitions:
            return True
        # For each state, the set of transitions fireable in its future is
        # the union over its reachable edge set.  Compute per-SCC.
        sccs, scc_of = self._condensation()
        # Transitions firing inside each SCC.
        fires_in_scc: list[set[int]] = [set() for _ in sccs]
        scc_successors: list[set[int]] = [set() for _ in sccs]
        for source, _, tid, target in self.edges:
            s, t = scc_of[source], scc_of[target]
            fires_in_scc[s].add(tid)
            if s != t:
                scc_successors[s].add(t)
        # Propagate future-fireable sets backwards over the condensation
        # (process in reverse topological order).
        order = self._topological_order(len(sccs), scc_successors)
        future: list[set[int]] = [set() for _ in sccs]
        for index in reversed(order):
            fireable = set(fires_in_scc[index])
            for successor in scc_successors[index]:
                fireable |= future[successor]
            future[index] = fireable
        all_tids = set(self.net.transitions)
        return all(future[scc_of[state]] == all_tids for state in self.states)

    def is_reversible(self) -> bool:
        """``True`` iff the initial marking is reachable from every state."""
        sccs, scc_of = self._condensation()
        home = scc_of[self.initial]
        # Reversible iff every state is in an SCC from which home is
        # reachable; since everything is reachable *from* the initial
        # marking, this holds iff the graph is a single SCC or all paths
        # lead back: check that every SCC can reach home.
        scc_successors: list[set[int]] = [set() for _ in sccs]
        for source, _, _, target in self.edges:
            s, t = scc_of[source], scc_of[target]
            if s != t:
                scc_successors[s].add(t)
        reaches_home = {home}
        changed = True
        while changed:
            changed = False
            for index in range(len(sccs)):
                if index in reaches_home:
                    continue
                if scc_successors[index] & reaches_home:
                    reaches_home.add(index)
                    changed = True
        return all(scc_of[state] in reaches_home for state in self.states)

    def is_strongly_connected(self) -> bool:
        """``True`` iff the reachability graph is one strongly connected component."""
        sccs, _ = self._condensation()
        return len(sccs) <= 1

    # -- internals ----------------------------------------------------------

    def _condensation(self) -> tuple[list[set[Marking]], dict[Marking, int]]:
        """Tarjan SCCs of the reachability graph, computed once per graph
        (``is_live``, ``is_reversible`` and ``is_strongly_connected``
        share them)."""
        if self._scc is None:
            self._scc = self._tarjan()
        return self._scc

    def _tarjan(self) -> tuple[list[set[Marking]], dict[Marking, int]]:
        """Tarjan SCCs of the reachability graph (iterative)."""
        index_counter = 0
        stack: list[Marking] = []
        lowlink: dict[Marking, int] = {}
        index: dict[Marking, int] = {}
        on_stack: set[Marking] = set()
        sccs: list[set[Marking]] = []
        scc_of: dict[Marking, int] = {}

        for root in self.states:
            if root in index:
                continue
            work: list[tuple[Marking, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index[node] = index_counter
                    lowlink[node] = index_counter
                    index_counter += 1
                    stack.append(node)
                    on_stack.add(node)
                recursed = False
                successors = self._successors[node]
                for position in range(child_index, len(successors)):
                    _, _, successor = successors[position]
                    if successor not in index:
                        work.append((node, position + 1))
                        work.append((successor, 0))
                        recursed = True
                        break
                    if successor in on_stack:
                        lowlink[node] = min(lowlink[node], index[successor])
                if recursed:
                    continue
                if lowlink[node] == index[node]:
                    component: set[Marking] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        scc_of[member] = len(sccs)
                        if member == node:
                            break
                    sccs.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return sccs, scc_of

    @staticmethod
    def _topological_order(count: int, successors: list[set[int]]) -> list[int]:
        indegree = [0] * count
        for outs in successors:
            for target in outs:
                indegree[target] += 1
        queue = deque(i for i in range(count) if indegree[i] == 0)
        order: list[int] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for target in successors[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    queue.append(target)
        return order

    def to_networkx(self):
        """Export as a ``networkx.MultiDiGraph`` (for external analysis)."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        for state in self.states:
            graph.add_node(state)
        for source, action, tid, target in self.edges:
            graph.add_edge(source, target, action=action, tid=tid)
        return graph


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
