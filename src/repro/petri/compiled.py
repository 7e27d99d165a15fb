"""Compiled integer-indexed net core: packed markings, precomputed firing.

Every exploration engine in this package ultimately asks the same three
questions millions of times: *which transitions are enabled here*,
*what is the successor marking*, and *have we seen it before*.  Answering
them over string-keyed :class:`~repro.petri.marking.Marking` dicts means
re-hashing a frozenset of ``(place, count)`` pairs per state and chasing
string keys per firing.  Mature net tools (cf. Khomenko et al.'s safe-net
translation machinery, PAPERS.md) instead lower the net once to a dense
integer form and explore in that domain.  This module is that lowering:

* :func:`compile_net` / :class:`CompiledNet` — places get dense indices
  ``0..P-1``, transitions dense indices ``0..T-1`` (in tid order, so
  exploration follows the transition relation in tid order).  Each
  transition carries ``(pre, consume, produce)`` index tuples and each
  place its consumer adjacency, both computed once at compile time.

* Packed states — a marking is a token-count vector: ``bytes`` (one
  byte per place, hash cached by CPython) when a static argument bounds
  every reachable count by 255, ``tuple[int, ...]`` otherwise.  Hashing
  is O(1)-amortised and equality is a memcmp, no per-state frozensets.

* Deficit counters — per state, ``deficits[t]`` is the number of empty
  preset places of transition ``t`` (enabled iff 0), stored like the
  state itself: ``bytes`` under the bytes codec (which requires every
  preset to have at most 255 places), a ``tuple`` otherwise.  A firing
  updates only the consumers of places that became empty or became
  marked, so enabledness maintenance is proportional to the *change*,
  not to the net.

* :class:`CompiledSpace` — the one exploration core of this package:
  demand-driven discovery over packed states with the ``max_states``
  budget, the Karp-Miller covering walk and the stubborn-set reduction.
  :class:`~repro.petri.product.LazyStateSpace` wraps it with a
  :class:`Marking`-domain API, and
  :class:`~repro.petri.reachability.ReachabilityGraph` is a view
  materialised from an exhausted one; states are decoded back to
  :class:`Marking` only at those API boundaries.

The codec choice is sound, never heuristic: ``bytes`` is used when the
net is token-conservative (no firing increases the total count) with an
initial total of at most 255, or when a weighted place invariant found
by linear programming bounds the weighted total — and hence every place
count — by 255 (fork/join nets from the rendez-vous composition are not
conservative but almost always admit such a weighting).  Anything else
takes the ``tuple`` codec, which has no count limit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Union

from repro.obs import metrics as obs
from repro.petri.dfs import StackProvisoDfs
from repro.petri.marking import Marking, Place
from repro.petri.net import PetriNet
from repro.petri.reachability import UnboundedNetError

#: A packed marking: a token-count vector indexed by dense place index.
PackedState = Union[bytes, "tuple[int, ...]"]

#: Per-state deficit counters, indexed by dense transition index.
Deficits = Union[bytes, "tuple[int, ...]"]

#: Net sizes for which the weighted-invariant LP is attempted when the
#: cheap conservative test fails.  Below the lower bound the tuple codec
#: costs nothing measurable (and property-based tests compile thousands
#: of tiny nets); above the upper bound the LP itself would dominate.
_LP_MIN_PLACES = 16
_LP_MAX_PLACES = 4096

#: Largest token count (and therefore largest provable bound) the bytes
#: codec can represent.
_BYTES_MAX = 255


#: Denominator grid the LP weights are snapped to before the exact
#: integer re-verification.
_WEIGHT_SCALE = 64


def _weighted_token_bound(
    net: PetriNet, place_order: tuple[Place, ...]
) -> int | None:
    """A sound bound on every reachable place count via a weighted place
    invariant, or ``None`` when no certificate is found.

    Looks for rational place weights ``w >= 1`` with ``w . postset <=
    w . preset`` for every transition: then ``w . M`` never increases,
    so every count is bounded by ``w . M0``.  The LP solution is snapped
    to the 1/64 grid and re-verified in exact integer arithmetic, so
    floating-point slack in the solver can never produce an unsound
    certificate — failure of the exact check just falls back to the
    unbounded-count tuple codec.
    """
    if not (_LP_MIN_PLACES <= len(place_order) <= _LP_MAX_PLACES):
        return None
    transitions = net.sorted_transitions()
    if not transitions or len(transitions) > 2 * _LP_MAX_PLACES:
        return None
    try:
        import numpy as np
        from scipy.optimize import linprog
    except Exception:  # pragma: no cover - scipy is a hard dependency
        return None
    index = {place: i for i, place in enumerate(place_order)}
    rows = np.zeros((len(transitions), len(place_order)))
    for row, transition in enumerate(transitions):
        for place in transition.produce:
            rows[row, index[place]] += 1.0
        for place in transition.consume:
            rows[row, index[place]] -= 1.0
    objective = np.zeros(len(place_order))
    for place, count in net.initial.items():
        objective[index[place]] = float(count)
    result = linprog(
        c=objective,
        A_ub=rows,
        b_ub=np.zeros(len(transitions)),
        bounds=[(1.0, float(_BYTES_MAX))] * len(place_order),
        method="highs",
    )
    if not result.success:
        return None
    scale = _WEIGHT_SCALE
    weights = np.maximum(np.round(result.x * scale), scale).astype(np.int64)
    deltas = np.rint(rows).astype(np.int64)
    if (deltas @ weights > 0).any():
        return None
    weighted_total = 0
    for place, count in net.initial.items():
        weighted_total += int(weights[index[place]]) * count
    return math.ceil(weighted_total / scale)


class CompiledNet:
    """The integer-indexed form of one :class:`PetriNet`.

    Immutable once built; obtained via :meth:`PetriNet.compiled` (which
    caches it and invalidates the cache on net mutation).  All arrays
    are indexed by dense place index ``0..P-1`` (places in sorted name
    order) or dense transition index ``0..T-1`` (transitions in tid
    order — which is what makes every exploration visit states in tid
    order of the firing transition).
    """

    __slots__ = (
        "net",
        "place_names",
        "place_index",
        "tids",
        "tid_index",
        "transitions",
        "actions",
        "pre",
        "consume",
        "produce",
        "consumers",
        "codec",
        "token_bound",
        "bounded_certified",
        "num_places",
        "num_transitions",
        "initial_state",
        "initial_deficits",
        "initial_enabled",
    )

    def __init__(
        self,
        net: PetriNet,
        place_names: tuple[Place, ...],
        codec: str,
        token_bound: int | None,
    ):
        self.net = net
        self.place_names = place_names
        self.place_index = {place: i for i, place in enumerate(place_names)}
        self.codec = codec
        self.token_bound = token_bound
        #: ``token_bound`` comes from a sound non-increasing weighted
        #: total (conservation or an exact-verified LP invariant).  Under
        #: such a certificate no reachable marking can strictly cover an
        #: ancestor (a strict cover has a strictly larger weighted
        #: total), so the Karp-Miller covering walk is provably a no-op
        #: and the explorers skip it.
        self.bounded_certified = token_bound is not None
        self.num_places = len(place_names)
        transitions = net.sorted_transitions()
        self.transitions = transitions
        self.num_transitions = len(transitions)
        self.tids = tuple(t.tid for t in transitions)
        self.tid_index = {tid: d for d, tid in enumerate(self.tids)}
        self.actions = tuple(t.action for t in transitions)
        index = self.place_index
        self.pre = tuple(
            tuple(sorted(index[p] for p in t.preset)) for t in transitions
        )
        self.consume = tuple(
            tuple(sorted(index[p] for p in t.consume)) for t in transitions
        )
        self.produce = tuple(
            tuple(sorted(index[p] for p in t.produce)) for t in transitions
        )
        consumers: list[list[int]] = [[] for _ in place_names]
        for dense, places in enumerate(self.pre):
            for i in places:
                consumers[i].append(dense)
        self.consumers = tuple(tuple(adj) for adj in consumers)
        self.initial_state = self.encode(net.initial)
        self.initial_deficits, self.initial_enabled = self.analyze_state(
            self.initial_state
        )

    # -- state codec -------------------------------------------------------

    def encode(self, marking: Marking | Mapping[Place, int]) -> PackedState:
        """Pack a marking into a token-count vector.

        Raises ``KeyError`` for places the net does not have and
        ``ValueError`` for counts the ``bytes`` codec cannot hold.
        """
        counts = [0] * self.num_places
        index = self.place_index
        for place, count in marking.items():
            counts[index[place]] = count
        if self.codec == "bytes":
            return bytes(counts)
        return tuple(counts)

    def decode(self, state: PackedState) -> Marking:
        """Unpack a token-count vector back into a :class:`Marking`."""
        names = self.place_names
        return Marking._fresh(
            {names[i]: count for i, count in enumerate(state) if count}
        )

    @staticmethod
    def covers(state: PackedState, other: PackedState) -> bool:
        """Strict covering on packed vectors (the Karp-Miller test):
        componentwise ``>=`` and not equal."""
        if state == other:
            return False
        for mine, theirs in zip(state, other):
            if mine < theirs:
                return False
        return True

    # -- enabledness -------------------------------------------------------

    def analyze_state(
        self, state: PackedState
    ) -> tuple[Deficits, tuple[int, ...]]:
        """Full scan of one state: ``(deficits, enabled)`` where
        ``deficits[t]`` counts the empty preset places of transition
        ``t`` and ``enabled`` lists the dense indices with deficit 0,
        ascending.  Used once per exploration (for the initial state);
        everything after is maintained incrementally by
        :meth:`successor`.
        """
        deficits = [0] * self.num_transitions
        enabled: list[int] = []
        for dense, places in enumerate(self.pre):
            deficit = 0
            for i in places:
                if not state[i]:
                    deficit += 1
            deficits[dense] = deficit
            if not deficit:
                enabled.append(dense)
        frozen = bytes(deficits) if self.codec == "bytes" else tuple(deficits)
        return frozen, tuple(enabled)

    def is_enabled(self, dense: int, state: PackedState) -> bool:
        """Direct enabledness of one transition in one packed state."""
        for i in self.pre[dense]:
            if not state[i]:
                return False
        return True

    # -- firing ------------------------------------------------------------

    def fire(self, state: PackedState, dense: int) -> PackedState:
        """The successor vector alone (no enabledness bookkeeping) — for
        probes like the ignoring-prevention proviso that discard the
        result.  The transition must be enabled in ``state``.
        """
        consume = self.consume[dense]
        produce = self.produce[dense]
        if not consume and not produce:
            return state
        if self.codec == "bytes":
            vec = bytearray(state)
            for i in consume:
                vec[i] -= 1
            for i in produce:
                vec[i] += 1
            return bytes(vec)
        vec = list(state)
        for i in consume:
            vec[i] -= 1
        for i in produce:
            vec[i] += 1
        return tuple(vec)

    def successor(
        self,
        state: PackedState,
        deficits: Deficits,
        enabled: tuple[int, ...],
        dense: int,
    ) -> tuple[PackedState, Deficits, tuple[int, ...], int]:
        """Fire ``dense`` (enabled in ``state``) and derive the child's
        deficit counters and enabled set incrementally.

        Returns ``(child, child_deficits, child_enabled, checked)``
        where ``checked`` counts the per-transition deficit updates
        performed — only the consumers of places that became empty or
        became marked are ever touched.
        """
        consume = self.consume[dense]
        produce = self.produce[dense]
        if not consume and not produce:
            return state, deficits, enabled, 0
        newly_empty: list[int] = []
        newly_marked: list[int] = []
        is_bytes = self.codec == "bytes"
        if is_bytes:
            vec = bytearray(state)
            for i in consume:
                count = vec[i] - 1
                vec[i] = count
                if not count:
                    newly_empty.append(i)
            for i in produce:
                count = vec[i] + 1
                vec[i] = count
                if count == 1:
                    newly_marked.append(i)
            child: PackedState = bytes(vec)
        else:
            wide = list(state)
            for i in consume:
                count = wide[i] - 1
                wide[i] = count
                if not count:
                    newly_empty.append(i)
            for i in produce:
                count = wide[i] + 1
                wide[i] = count
                if count == 1:
                    newly_marked.append(i)
            child = tuple(wide)
        if not newly_empty and not newly_marked:
            return child, deficits, enabled, 0
        consumers = self.consumers
        affected: set[int] = set()
        child_deficits = bytearray(deficits) if is_bytes else list(deficits)
        for i in newly_empty:
            for t in consumers[i]:
                child_deficits[t] += 1
                affected.add(t)
        for i in newly_marked:
            for t in consumers[i]:
                child_deficits[t] -= 1
                affected.add(t)
        if not affected:
            return child, deficits, enabled, 0
        merged = [t for t in enabled if t not in affected]
        merged.extend(t for t in affected if not child_deficits[t])
        merged.sort()
        frozen = bytes(child_deficits) if is_bytes else tuple(child_deficits)
        return child, frozen, tuple(merged), len(affected)

    def __repr__(self) -> str:
        return (
            f"CompiledNet({self.net.name!r}, |P|={self.num_places},"
            f" |T|={self.num_transitions}, codec={self.codec!r})"
        )


def compile_net(net: PetriNet) -> CompiledNet:
    """Lower a net to its integer-indexed form (see :class:`CompiledNet`).

    Emits ``compile.net`` span and ``compile.*`` gauges to the active
    obs recorders: compile wall time, chosen codec, the per-state encode
    width in bytes and the proven token bound (when any).
    """
    with obs.span("compile.net", net=net.name) as span:
        place_order = tuple(sorted(net.places))
        if all(
            len(t.produce) <= len(t.consume) for t in net.sorted_transitions()
        ):
            bound: int | None = net.initial.total()
        else:
            bound = _weighted_token_bound(net, place_order)
        max_preset = max(
            (len(t.preset) for t in net.transitions.values()), default=0
        )
        codec = (
            "bytes"
            if bound is not None and bound <= _BYTES_MAX and max_preset <= _BYTES_MAX
            else "wide"
        )
        compiled = CompiledNet(net, place_order, codec, bound)
        span.set(
            places=compiled.num_places,
            transitions=compiled.num_transitions,
            codec=codec,
            token_bound=bound if bound is not None else -1,
        )
    obs.count("compile.nets")
    width = (
        compiled.num_places
        if codec == "bytes"
        else 8 * compiled.num_places  # nominal: one machine word per place
    )
    obs.gauge("compile.encode_width_bytes", width)
    return compiled


class PackedMarkingView(Mapping[Place, int]):
    """Read-only place -> count view of one packed state.

    Just enough of the :class:`Marking` mapping surface for code written
    against markings — in particular the stubborn selector's scapegoat
    choice (``marking[place] > 0``) — to run unchanged on packed states.
    """

    __slots__ = ("_cnet", "_state")

    def __init__(self, cnet: CompiledNet, state: PackedState):
        self._cnet = cnet
        self._state = state

    def __getitem__(self, place: Place) -> int:
        index = self._cnet.place_index.get(place)
        return 0 if index is None else self._state[index]

    def __iter__(self):
        state = self._state
        return iter(
            [name for i, name in enumerate(self._cnet.place_names) if state[i]]
        )

    def __len__(self) -> int:
        return sum(1 for count in self._state if count)


class CompiledSpace:
    """Demand-driven exploration over packed states — the one
    exploration core behind every serial engine.

    :class:`~repro.petri.product.LazyStateSpace` owns one of these and
    translates at its :class:`Marking`-domain API boundary;
    :class:`~repro.petri.reachability.ReachabilityGraph` materialises
    one breadth-first.  Discovery order (breadth-first, children in tid
    order), memoisation, interner-hit accounting, the ``max_states``
    budget, the Karp-Miller covering walk (with witnesses decoded into
    the error) and the stubborn-set reduction decisions live here and
    only here; ``tests/oracle.py`` is the naive reference they are
    checked against.
    """

    __slots__ = (
        "cnet",
        "max_states",
        "stats",
        "initial",
        "proviso",
        "_check_covering",
        "_selector",
        "_parent",
        "_info",
        "_succ",
        "_dfs",
    )

    def __init__(
        self,
        cnet: CompiledNet,
        max_states: int,
        stats,
        selector=None,
        proviso: str | None = None,
    ):
        self.cnet = cnet
        self.max_states = max_states
        self.stats = stats
        self.proviso = proviso
        self._check_covering = not cnet.bounded_certified
        self._selector = selector
        self.initial = cnet.initial_state
        #: state -> (parent state, dense transition index) | None; doubles
        #: as the visited set (insertion order == discovery order).
        self._parent: dict[PackedState, tuple[PackedState, int] | None] = {
            self.initial: None
        }
        #: Per-state (deficits, enabled); dropped once a state is expanded
        #: — except under the stack proviso, whose DFS driver re-reads the
        #: enabled set of finished states on re-walks and wakes.
        self._info: dict[PackedState, tuple[Deficits, tuple[int, ...]]] = {
            self.initial: (cnet.initial_deficits, cnet.initial_enabled)
        }
        self._succ: dict[PackedState, tuple[tuple[str, int, PackedState], ...]] = {}
        self._dfs: StackProvisoDfs | None = None
        if selector is not None and proviso == "stack":
            self._dfs = StackProvisoDfs(self, selector, stats)

    # -- expansion ---------------------------------------------------------

    def _discover(
        self,
        parent: PackedState,
        deficits: Deficits,
        enabled: tuple[int, ...],
        dense: int,
    ) -> PackedState:
        cnet = self.cnet
        child, child_deficits, child_enabled, checked = cnet.successor(
            parent, deficits, enabled, dense
        )
        stats = self.stats
        stats.enabledness_checks += checked
        parents = self._parent
        if child in parents:
            stats.interner_hits += 1
            return child
        if len(parents) >= self.max_states:
            reduced = (
                " (partial-order reduction active: the bound counts"
                " states of the reduced space)"
                if self._selector is not None
                else ""
            )
            decoded = cnet.decode(child)
            raise UnboundedNetError(
                f"more than {self.max_states} reachable states in"
                f" {cnet.net.name!r}; net may be unbounded{reduced}",
                witness=decoded,
                bound=self.max_states,
                frontier=decoded,
            )
        parents[child] = (parent, dense)
        self._info[child] = (child_deficits, child_enabled)
        stats.states += 1
        if self._check_covering:
            covers = cnet.covers
            cursor: PackedState | None = parent
            while cursor is not None:
                if covers(child, cursor):
                    decoded = cnet.decode(child)
                    raise UnboundedNetError(
                        f"net {cnet.net.name!r} is unbounded:"
                        f" {decoded!r} strictly covers ancestor"
                        f" {cnet.decode(cursor)!r}",
                        witness=decoded,
                        frontier=decoded,
                    )
                link = parents[cursor]
                cursor = link[0] if link is not None else None
        return child

    def _all_targets_fresh(
        self, state: PackedState, dense_set: tuple[int, ...]
    ) -> bool:
        """Ignoring-prevention proviso: a reduced expansion is accepted
        only if every reduced successor is a *new* state.  Any cycle of
        the reduced graph therefore contains a fully expanded state (its
        last-expanded state sees an already-discovered successor), so no
        enabled transition can be postponed forever."""
        fire = self.cnet.fire
        parents = self._parent
        for dense in dense_set:
            if fire(state, dense) in parents:
                return False
        return True

    def successors(
        self, state: PackedState
    ) -> tuple[tuple[str, int, PackedState], ...]:
        """Outgoing edges as ``(action, tid, target)`` triples, computed
        on first request and memoised, including the stubborn-set
        reduction."""
        cached = self._succ.get(state)
        if cached is not None:
            return cached
        if self._dfs is not None:
            self.ensure_explored()
            result = self._dfs.successor_edges(state)
        else:
            result = self.expand(state)
        self._succ[state] = result
        return result

    def expand(
        self, state: PackedState
    ) -> tuple[tuple[str, int, PackedState], ...]:
        """Discover the successors of one discovered, not yet expanded
        state and return its edge row *without* memoising it — for a
        caller that expands every state exactly once and keeps its own
        copy (the eager graph's materialisation).  Not for stack-proviso
        spaces, whose DFS walk owns expansion; :meth:`successors` is the
        memoising entry point."""
        cnet = self.cnet
        deficits, enabled = self._info[state]
        expand = enabled
        selector = self._selector
        if selector is not None and len(enabled) > 1:
            tids = cnet.tids
            reduced = selector.reduced_enabled(
                PackedMarkingView(cnet, state),
                tuple(tids[dense] for dense in enabled),
            )
            if reduced is not None:
                tid_index = cnet.tid_index
                dense_set = tuple(tid_index[tid] for tid in reduced)
                if self._all_targets_fresh(state, dense_set):
                    expand = dense_set
                    self.stats.reduced_states += 1
        edges: list[tuple[str, int, PackedState]] = []
        actions = cnet.actions
        tids = cnet.tids
        for dense in expand:
            target = self._discover(state, deficits, enabled, dense)
            edges.append((actions[dense], tids[dense], target))
        result = tuple(edges)
        del self._info[state]
        self.stats.edges += len(result)
        return result

    # -- traversal ---------------------------------------------------------

    def ensure_explored(self) -> None:
        """Force the stack-proviso DFS to completion (no-op when the
        exploration is not stack-driven)."""
        if self._dfs is not None:
            self._dfs.run_to_completion()

    def iter_dfs(self):
        """Packed states in depth-first discovery order: the streaming
        walk of the stack-proviso driver when one is active, otherwise a
        plain depth-first traversal over :meth:`successors`."""
        if self._dfs is not None:
            yield from self._dfs.iterate()
            return
        yield self.initial
        seen = {self.initial}
        stack = [iter(self.successors(self.initial))]
        while stack:
            for _, _, target in stack[-1]:
                if target not in seen:
                    seen.add(target)
                    yield target
                    stack.append(iter(self.successors(target)))
                    break
            else:
                stack.pop()

    # -- queries -----------------------------------------------------------

    def num_states(self) -> int:
        return len(self._parent)

    def discovered(self, state: PackedState) -> bool:
        return state in self._parent

    def trace_to(self, state: PackedState) -> tuple[tuple[int, str], ...]:
        """A firable ``(tid, action)`` path from the initial state to a
        discovered state, via the discovery-parent pointers."""
        cnet = self.cnet
        steps: list[tuple[int, str]] = []
        cursor = state
        while True:
            link = self._parent[cursor]
            if link is None:
                break
            parent, dense = link
            steps.append((cnet.tids[dense], cnet.actions[dense]))
            cursor = parent
        return tuple(reversed(steps))
