"""Sharded parallel state-space exploration.

The compiled core (:mod:`repro.petri.compiled`) made states cheap to
hash, compare and *ship across process boundaries*: a packed marking is
one int (a tuple of counts under the ``wide`` codec) with no
interpreter state attached.  This module cashes that in for the
receptiveness verdict of ``cip verify --parallel N``.  The reachable
state space is partitioned by a stable hash of the packed state's bytes
key: worker ``i`` of ``N`` *owns* every state with
``crc32(key) % N == i``, keeps that shard's visited set (a plain
in-memory ``set`` of keys), and expands only states it owns.
Successors that hash to another shard are buffered per destination and
exchanged in batches over ``multiprocessing`` queues.

Determinism guarantees (see ``docs/PERFORMANCE.md`` §6):

* **Counts and verdicts are schedule-independent.**  Every reachable
  state is owned by exactly one worker and expanded exactly once, so
  the state count, edge count, deadlock set, fired-transition set and
  any per-state predicate verdict (e.g. the Prop 5.5 obligations) are
  identical across worker counts and identical to the serial engines —
  the property the cross-engine parity suite
  (``tests/petri/test_parallel_differential.py``) enforces.
* **Witnesses are canonicalised.**  Discovery *order* does depend on
  the schedule, so per-obligation failure witnesses are chosen as the
  minimum packed state over all matches — again schedule-independent.
* **``workers=1`` degrades to serial.**  A single worker runs the
  sharded loop in-process (no subprocesses, no queues) in exactly the
  serial engines' BFS discovery order.

Termination uses the two-wave counting protocol (Mattern's
double-counting): the coordinator repeatedly probes all workers; each
replies with its cumulative ``(batches sent, batches received)``
counters plus an idle flag (frontier empty *and* all outgoing buffers
flushed).  Termination is declared only after two consecutive waves in
which every worker is idle and the global totals are identical and
balanced (``received == sent + the coordinator's seed``).  A single
balanced wave is *not* enough — counters are read at different moments
per worker, so a newer receiver snapshot can offset a missing sender
snapshot while a message is still in flight; equality across two
waves rules that out (no sends happened between the waves, so every
counted message was also consumed).

The explorer picks a **1-safe bitmask kernel** whenever the compiled
net is eligible (``bits`` codec, no place starting with more than one
token): a state is one bit per place, enabledness one mask compare and
firing two bitwise ops, with no enabled-set bookkeeping at all.  States
it reports (deadlocks, failure witnesses) are spread into
the core's ``field_bits``-wide encoding through a per-byte table.
Eligibility is optimistic: every firing checks that no produced place
is already marked (arcs are structurally unit-weight, so that test is
exactly "a second token"), and on the first violation the whole
exploration restarts transparently on the general packed kernel.
Counts, deadlock sets and verdicts are identical either way; only the
per-obligation witness *tie-break* key is kernel-specific (still
deterministic for a given net across runs and worker counts).

Deliberate non-goals, documented rather than approximated:

* no Karp-Miller covering detection (the serial engines' ancestor
  chains do not exist across shards) — genuinely unbounded nets abort
  via the ``max_states`` budget instead of being *proven* unbounded;
* no counterexample traces (discovery-parent pointers would dangle
  across shards); receptiveness failures carry witness markings only.
"""

from __future__ import annotations

import queue as queue_mod
import struct
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.obs import metrics as obs
from repro.petri.compiled import CompiledNet
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import UnboundedNetError

#: Hard cap on worker processes; above this the exchange fan-out
#: dominates any machine we target.
MAX_WORKERS = 64

#: Cross-shard successors buffered per destination before a batch is
#: shipped (larger batches amortise pickling; smaller bound latency).
BATCH_SIZE = 512

#: Frontier states expanded between inbox drains, so cross-shard
#: batches and termination probes keep flowing while a worker has
#: local work (this bounds probe-reply latency).
CHUNK = 512

#: Seconds an idle worker blocks on its inbox per poll.
_IDLE_POLL = 0.02

#: Coordinator pause between probe waves while workers are busy.
_WAVE_PAUSE = 0.005


def resolve_workers(workers: int | None) -> int:
    """Validate a worker count, mapping ``None`` to 1 (serial)."""
    if workers is None:
        return 1
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"worker count must be an integer, got {workers!r}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(
            f"worker count must be between 1 and {MAX_WORKERS},"
            f" got {workers}"
        )
    return workers


def pack_wide_key(state: "tuple[int, ...]") -> bytes:
    """A canonical bytes key for a wide (tuple) packed state.

    Little-endian signed 64-bit per place: injective, order-preserving
    per component, and cheap (one ``struct.pack`` call).
    """
    return struct.pack(f"<{len(state)}q", *state)


def _shard_of(key: bytes, nworkers: int) -> int:
    """Stable shard assignment: hash-randomisation-free, identical in
    every process regardless of start method or ``PYTHONHASHSEED``."""
    return zlib.crc32(key) % nworkers


# -- kernels -----------------------------------------------------------------
#
# A kernel is the per-worker exploration core: it rebuilds from a plain
# picklable spec, expands one node at a time, and maps nodes to stable
# bytes keys (for sharding and the visited set) and wire forms (for
# cross-shard batches).  The general kernel runs over the packed states
# of the compiled net; the bitmask kernel is a 1-safe fast path over the
# same arrays that the explorer selects automatically and abandons — by
# restarting on the general packed kernel — the moment a firing would
# put a second token anywhere.


class _BitmaskOverflow(Exception):
    """A bitmask-kernel firing produced a second token in some place:
    the net is not 1-safe, the bit-vector representation is invalid
    from here on, and the exploration must restart on the general
    packed kernel.  Raised per worker, handled by the coordinator."""


def _spread_table(field_bits: int) -> tuple[int, ...]:
    """byte -> its 8 bits spread one per ``field_bits``-wide field (bit
    ``i`` of the byte becomes bit ``i * field_bits``): one lookup turns
    8 places of a bitmask state into the core's ``bits`` encoding."""
    return tuple(
        sum(1 << (bit * field_bits) for bit in range(8) if value >> bit & 1)
        for value in range(256)
    )


def _bitmask_eligible(cnet: CompiledNet) -> bool:
    """Static half of the 1-safe check: the ``bits`` codec and no place
    starting with more than one token.  (Arc weights are structurally
    1: transitions are preset/postset *sets*.)  The dynamic half is the
    per-firing overflow test in :meth:`_BitmaskKernel.expand`."""
    return cnet.codec == "bits" and cnet.max_count([cnet.initial_state]) <= 1


class _BitmaskKernel:
    """1-safe fast path (eligible nets only).

    A node is a single int — bit ``i`` set iff place ``i`` is marked —
    so enabledness is one mask compare, firing is two bitwise ops, and
    the wire form is the int itself.  Soundness rests on the running
    1-safety invariant: states start <=1-token and every firing checks
    that no produced place is already marked (``produce`` is disjoint
    from ``preset`` by construction, so ``state & produce_mask != 0``
    is exactly a second token), raising :class:`_BitmaskOverflow`
    otherwise.
    """

    __slots__ = ("trans", "init_mask", "key_width", "stride", "spread", "obligations")

    def __init__(self, spec):
        self.trans, self.init_mask, self.key_width, field_bits = spec
        #: Bits of the core encoding that one byte of a node spans.
        self.stride = 8 * field_bits
        self.spread = _spread_table(field_bits)
        self.obligations: list[tuple[int, int, tuple[int, ...]]] = []

    @staticmethod
    def spec_of(cnet: CompiledNet):
        trans = tuple(
            (
                dense,
                sum(1 << i for i in cnet.pre[dense]),
                sum(1 << i for i in cnet.consume[dense]),
                sum(1 << i for i in cnet.produce[dense]),
            )
            for dense in range(cnet.num_transitions)
        )
        init_mask = sum(1 << i for i in cnet.marked_indices(cnet.initial_state))
        key_width = max(1, (cnet.num_places + 7) // 8)
        return (trans, init_mask, key_width, cnet.field_bits)

    def load_obligations(self, lowered) -> None:
        self.obligations = [
            (
                index,
                sum(1 << i for i in producer),
                tuple(
                    sum(1 << i for i in preset) for preset in consumers
                ),
            )
            for index, producer, consumers in lowered
        ]

    def seed_wire(self):
        return self.init_mask

    def node_of_wire(self, wire):
        return wire

    def wire_of_node(self, node):
        return node

    def key_of_node(self, node) -> bytes:
        return node.to_bytes(self.key_width, "little")

    def state_of_node(self, node) -> int:
        spread = self.spread
        stride = self.stride
        state = 0
        for position, byte in enumerate(node.to_bytes(self.key_width, "little")):
            if byte:
                state |= spread[byte] << (position * stride)
        return state

    def expand(self, node) -> list:
        """One child per enabled transition, in dense-index order."""
        children = []
        for dense, pre_mask, consume_mask, produce_mask in self.trans:
            if node & pre_mask == pre_mask:
                if node & produce_mask:
                    raise _BitmaskOverflow(dense)
                children.append((node ^ consume_mask) | produce_mask)
        return children

    def failing_obligations(self, node):
        if not self.obligations:
            return ()
        hits = []
        for index, producer, consumers in self.obligations:
            if node & producer == producer and not any(
                node & preset == preset for preset in consumers
            ):
                hits.append(index)
        return hits


#: The :class:`CompiledNet` fields a packed kernel is rebuilt from; the
#: ``bits`` tables are derived again by :meth:`CompiledNet.lower`.
_PACKED_FIELDS = (
    "codec",
    "field_bits",
    "num_places",
    "num_transitions",
    "pre",
    "consume",
    "produce",
    "consumers",
    "affected",
    "initial_state",
)


class _PackedKernel:
    """Packed-state kernel over the compiled arrays (any bounded net).

    A node is ``(state, deficits, enabled)`` exactly as in
    :class:`~repro.petri.compiled.CompiledSpace`; the wire form drops
    ``enabled`` (recomputed by the receiving shard — from the deficits
    under ``wide``, by one probe per transition under ``bits`` — which
    is far cheaper than shipping it).
    """

    __slots__ = ("cnet", "key_width", "obligations")

    def __init__(self, spec):
        cnet = CompiledNet.__new__(CompiledNet)
        for name, value in zip(_PACKED_FIELDS, spec):
            setattr(cnet, name, value)
        cnet.lower()
        self.cnet = cnet
        self.key_width = max(1, (cnet.num_places * cnet.field_bits + 7) // 8)
        self.obligations: list[tuple[int, int, tuple[int, ...]]] = []

    @staticmethod
    def spec_of(cnet: CompiledNet):
        return tuple(getattr(cnet, name) for name in _PACKED_FIELDS)

    def load_obligations(self, lowered) -> None:
        mask = self.cnet.place_mask
        self.obligations = [
            (index, mask(producer), tuple(mask(preset) for preset in consumers))
            for index, producer, consumers in lowered
        ]

    def seed_wire(self):
        return (self.cnet.initial_state, None)

    def node_of_wire(self, wire):
        state, deficits = wire
        if deficits is None:
            deficits, enabled = self.cnet.analyze_state(state)
        else:
            enabled = tuple(
                dense for dense, deficit in enumerate(deficits) if not deficit
            )
        return (state, deficits, enabled)

    def wire_of_node(self, node):
        return (node[0], node[1])

    def key_of_node(self, node) -> bytes:
        state = node[0]
        if self.cnet.field_bits:
            return state.to_bytes(self.key_width, "little")
        return pack_wide_key(state)

    def state_of_node(self, node):
        return node[0]

    def expand(self, node) -> list:
        """One child per enabled transition, in dense-index order."""
        state, deficits, enabled = node
        successor = self.cnet.successor
        children = []
        for dense in enabled:
            child, child_deficits, child_enabled, _ = successor(
                state, deficits, enabled, dense
            )
            children.append((child, child_deficits, child_enabled))
        return children

    def failing_obligations(self, node):
        if not self.obligations:
            return ()
        marked = self.cnet.marked_mask(node[0])
        hits = []
        for index, producer, consumers in self.obligations:
            if marked & producer == producer and not any(
                marked & preset == preset for preset in consumers
            ):
                hits.append(index)
        return hits


#: Kernel *kind*: the general packed kernel and the 1-safe fast path.
_KERNELS = {
    "compiled": _PackedKernel,
    "bitmask": _BitmaskKernel,
}


def _build_kernel(kind: str, spec):
    return _KERNELS[kind](spec)


# -- the per-shard exploration loop ------------------------------------------


class _Shard:
    """One shard's state: visited set, frontier, counters, results.

    Used identically by subprocess workers and the in-process
    ``workers=1`` path, so both report the same numbers the same way.
    """

    __slots__ = (
        "kernel",
        "worker_id",
        "nworkers",
        "visited",
        "frontier",
        "states",
        "edges",
        "frontier_peak",
        "deadlocks",
        "failing",
        "cross_sent_states",
    )

    def __init__(self, kernel, worker_id: int, nworkers: int):
        self.kernel = kernel
        self.worker_id = worker_id
        self.nworkers = nworkers
        self.visited: set[bytes] = set()
        self.frontier: deque = deque()
        self.states = 0
        self.edges = 0
        self.frontier_peak = 0
        self.deadlocks: list = []
        #: obligation index -> (min key, state) over this shard.
        self.failing: dict[int, tuple[bytes, Any]] = {}
        self.cross_sent_states = 0

    def accept(self, node, key: bytes | None = None) -> bool:
        """Own a node (first sight from any path): visit, count, run
        the per-state predicates, enqueue for expansion."""
        kernel = self.kernel
        if key is None:
            key = kernel.key_of_node(node)
        if key in self.visited:
            return False
        self.visited.add(key)
        self.states += 1
        for index in kernel.failing_obligations(node):
            best = self.failing.get(index)
            if best is None or key < best[0]:
                self.failing[index] = (key, kernel.state_of_node(node))
        self.frontier.append(node)
        if len(self.frontier) > self.frontier_peak:
            self.frontier_peak = len(self.frontier)
        return True

    def expand(self, node, out_buffers) -> None:
        """Expand one owned node; route children to their shards."""
        kernel = self.kernel
        children = kernel.expand(node)
        self.edges += len(children)
        if not children:
            self.deadlocks.append(kernel.state_of_node(node))
            return
        nworkers = self.nworkers
        me = self.worker_id
        for child in children:
            if nworkers == 1:
                self.accept(child)
                continue
            key = kernel.key_of_node(child)
            dest = _shard_of(key, nworkers)
            if dest == me:
                self.accept(child, key)
            else:
                out_buffers[dest].append(kernel.wire_of_node(child))
                self.cross_sent_states += 1

    def report(self) -> dict[str, Any]:
        return {
            "worker": self.worker_id,
            "states": self.states,
            "edges": self.edges,
            "frontier_peak": self.frontier_peak,
            "deadlocks": self.deadlocks,
            "failing": self.failing,
            "cross_sent_states": self.cross_sent_states,
        }


def _worker_main(
    worker_id: int,
    nworkers: int,
    kind: str,
    spec,
    obligations,
    inboxes,
    report_queue,
) -> None:
    """Subprocess body: drain inbox, expand owned frontier in chunks,
    exchange batches, answer the coordinator's termination probes."""
    try:
        kernel = _build_kernel(kind, spec)
        kernel.load_obligations(obligations)
        shard = _Shard(kernel, worker_id, nworkers)
        inbox = inboxes[worker_id]
        out_buffers: list[list] = [[] for _ in range(nworkers)]
        sent_batches = 0
        recv_batches = 0
        batches_flush_seconds = 0.0
        batch_flush_max = 0.0

        def flush(dest: int) -> None:
            nonlocal sent_batches, batches_flush_seconds, batch_flush_max
            buffer = out_buffers[dest]
            if not buffer:
                return
            started = time.perf_counter()
            inboxes[dest].put(("batch", buffer))
            elapsed = time.perf_counter() - started
            batches_flush_seconds += elapsed
            if elapsed > batch_flush_max:
                batch_flush_max = elapsed
            sent_batches += 1
            out_buffers[dest] = []

        def handle(message) -> bool:
            """Apply one inbox message; ``True`` means stop."""
            nonlocal recv_batches
            kind = message[0]
            if kind == "batch":
                recv_batches += 1
                node_of_wire = kernel.node_of_wire
                for wire in message[1]:
                    shard.accept(node_of_wire(wire))
                return False
            if kind == "probe":
                # Idle means: nothing to expand AND nothing buffered —
                # an unflushed buffer is an uncounted in-flight message,
                # so claiming idle with one would fake termination.
                idle = not shard.frontier and not any(out_buffers)
                report_queue.put(
                    (
                        "ack",
                        worker_id,
                        message[1],
                        sent_batches,
                        recv_batches,
                        idle,
                        shard.states,
                    )
                )
                return False
            return True  # ("stop",)

        while True:
            stopping = False
            while True:
                try:
                    message = inbox.get_nowait()
                except queue_mod.Empty:
                    break
                if handle(message):
                    stopping = True
                    break
            if stopping:
                break
            if shard.frontier:
                for _ in range(CHUNK):
                    if not shard.frontier:
                        break
                    shard.expand(shard.frontier.popleft(), out_buffers)
                for dest in range(nworkers):
                    if len(out_buffers[dest]) >= BATCH_SIZE:
                        flush(dest)
            else:
                for dest in range(nworkers):
                    flush(dest)
                try:
                    message = inbox.get(timeout=_IDLE_POLL)
                except queue_mod.Empty:
                    continue
                if handle(message):
                    break
        payload = shard.report()
        payload["batches_sent"] = sent_batches
        payload["batches_received"] = recv_batches
        payload["batch_flush_seconds"] = batches_flush_seconds
        payload["batch_flush_max_seconds"] = batch_flush_max
        report_queue.put(("done", worker_id, payload))
    except _BitmaskOverflow:
        # Not 1-safe after all: tell the coordinator to restart the
        # whole exploration on the general packed kernel.
        report_queue.put(("unsafe", worker_id))
    except Exception:  # pragma: no cover - surfaced by the coordinator
        import traceback

        report_queue.put(("error", worker_id, traceback.format_exc()))


# -- results -----------------------------------------------------------------


@dataclass
class ParallelExploration:
    """Outcome of one sharded exploration.

    ``deadlocks`` and ``failing`` are decoded to the Marking domain and
    canonically ordered (deadlocks by packed key; failure witnesses are
    per-obligation minima), so equal spaces compare equal regardless of
    worker count or schedule.
    """

    workers: int
    states: int
    edges: int
    deadlocks: list[Marking]
    failing: dict[int, Marking] = field(default_factory=dict)
    frontier_peak: int = 0
    worker_reports: list[dict] = field(default_factory=list)

    def deadlock_set(self) -> frozenset[Marking]:
        return frozenset(self.deadlocks)


def _budget_error(net: PetriNet, max_states: int) -> UnboundedNetError:
    return UnboundedNetError(
        f"more than {max_states} reachable states in"
        f" {net.name!r}; net may be unbounded",
        bound=max_states,
    )


def _lower_obligations(obligations, cnet: CompiledNet):
    """Ship obligations as ``(index, producer, consumer_alternatives)``
    with presets lowered to dense place indices."""
    place_index = cnet.place_index
    return [
        (
            index,
            tuple(place_index[p] for p in sorted(producer_preset)),
            tuple(
                tuple(place_index[p] for p in sorted(preset))
                for preset in consumer_presets
            ),
        )
        for index, (producer_preset, consumer_presets) in enumerate(obligations)
    ]


def _run_single(kernel, max_states, net) -> dict[str, Any]:
    """The ``workers=1`` degenerate case: the same shard loop run
    in-process, in exactly the serial engines' BFS discovery order."""
    shard = _Shard(kernel, 0, 1)
    shard.accept(kernel.node_of_wire(kernel.seed_wire()))
    while shard.frontier:
        if shard.states > max_states:
            raise _budget_error(net, max_states)
        shard.expand(shard.frontier.popleft(), None)
    if shard.states > max_states:
        raise _budget_error(net, max_states)
    payload = shard.report()
    payload["batches_sent"] = 0
    payload["batches_received"] = 0
    payload["batch_flush_seconds"] = 0.0
    payload["batch_flush_max_seconds"] = 0.0
    return payload


def _multiprocessing_context():
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    # fork is both the cheapest and the only method that needs no
    # picklable module state; fall back to the platform default.
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_sharded(
    kind: str,
    spec,
    obligations,
    nworkers: int,
    max_states: int,
    net: PetriNet,
    seed_wire,
    seed_key: bytes,
) -> list[dict]:
    """Coordinator: spawn workers, seed the initial state, run the
    two-wave counting termination protocol, enforce the global state
    budget, collect final per-worker reports."""
    ctx = _multiprocessing_context()
    inboxes = [ctx.Queue() for _ in range(nworkers)]
    report_queue = ctx.Queue()
    processes = [
        ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                nworkers,
                kind,
                spec,
                obligations,
                inboxes,
                report_queue,
            ),
            daemon=True,
        )
        for worker_id in range(nworkers)
    ]
    for process in processes:
        process.start()
    # Seed: the initial state goes to its owner; the coordinator counts
    # as one sent batch in the termination ledger.
    inboxes[_shard_of(seed_key, nworkers)].put(("batch", [seed_wire]))
    coordinator_sent = 1

    reports: dict[int, dict] = {}
    stop_sent = False
    aborted = False
    unsafe = False
    error_text: str | None = None
    wave = 0
    #: ``(sent, received)`` totals of the last all-idle balanced wave.
    balanced: tuple[int, int] | None = None

    def broadcast_stop() -> None:
        nonlocal stop_sent
        if not stop_sent:
            for inbox in inboxes:
                inbox.put(("stop",))
            stop_sent = True

    def check_liveness() -> None:
        dead = [p.pid for p in processes if not p.is_alive() and p.exitcode]
        if dead and not stop_sent:
            raise RuntimeError(
                f"parallel exploration worker(s) died: pids {dead}"
            )

    def pump(acks: dict[int, tuple] | None) -> None:
        """Take one message off the report queue (blocking with a
        liveness check); file it under acks/reports/error."""
        nonlocal error_text, unsafe
        try:
            message = report_queue.get(timeout=1.0)
        except queue_mod.Empty:
            check_liveness()
            return
        tag = message[0]
        if tag == "ack":
            if acks is not None and message[2] == wave:
                acks[message[1]] = message
        elif tag == "done":
            reports[message[1]] = message[2]
        elif tag == "unsafe":
            unsafe = True
        elif tag == "error":
            error_text = message[2]

    try:
        while not stop_sent and error_text is None and not unsafe:
            wave += 1
            for inbox in inboxes:
                inbox.put(("probe", wave))
            acks: dict[int, tuple] = {}
            while len(acks) < nworkers and error_text is None and not unsafe:
                pump(acks)
            if error_text is not None or unsafe:
                break
            total_sent = sum(ack[3] for ack in acks.values())
            total_received = sum(ack[4] for ack in acks.values())
            all_idle = all(ack[5] for ack in acks.values())
            total_states = sum(ack[6] for ack in acks.values())
            if total_states > max_states:
                aborted = True
                broadcast_stop()
            elif (
                all_idle
                and total_received == total_sent + coordinator_sent
            ):
                if balanced == (total_sent, total_received):
                    # Second consecutive identical balanced wave: no
                    # sends happened in between, every counted message
                    # was consumed — the system is terminated.
                    broadcast_stop()
                else:
                    balanced = (total_sent, total_received)
            else:
                balanced = None
                time.sleep(_WAVE_PAUSE)
        while len(reports) < nworkers and error_text is None and not unsafe:
            pump(None)
        if error_text is not None:
            raise RuntimeError(
                f"parallel exploration worker failed:\n{error_text}"
            )
    finally:
        broadcast_stop()
        for process in processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        for channel in [*inboxes, report_queue]:
            channel.close()
            channel.cancel_join_thread()
    if unsafe:
        raise _BitmaskOverflow()
    ordered = [reports[worker_id] for worker_id in sorted(reports)]
    total_states = sum(report["states"] for report in ordered)
    if aborted or total_states > max_states:
        raise _budget_error(net, max_states)
    return ordered


def _publish_metrics(result: ParallelExploration) -> None:
    """Merge the per-worker shard metrics into the active recorders
    (``repro.obs/v1`` payload): shard sizes, exchange volume and batch
    flush latencies — see ``docs/OBSERVABILITY.md``."""
    if not obs.active():
        return
    obs.gauge("parallel.workers", result.workers)
    obs.count("parallel.states", result.states)
    obs.count("parallel.edges", result.edges)
    total_batches = 0
    flush_max = 0.0
    for report in result.worker_reports:
        worker = report["worker"]
        prefix = f"parallel.worker{worker}"
        obs.gauge(f"{prefix}.shard_states", report["states"])
        obs.gauge(f"{prefix}.edges", report["edges"])
        obs.gauge(f"{prefix}.frontier_peak", report["frontier_peak"])
        obs.gauge(f"{prefix}.batches_sent", report["batches_sent"])
        obs.gauge(f"{prefix}.batches_received", report["batches_received"])
        obs.gauge(
            f"{prefix}.batch_flush_ms",
            round(report["batch_flush_seconds"] * 1e3, 3),
        )
        total_batches += report["batches_sent"]
        flush_max = max(flush_max, report["batch_flush_max_seconds"])
        obs.count("parallel.cross_shard_states", report["cross_sent_states"])
    obs.count("parallel.batches", total_batches)
    obs.gauge_max("parallel.batch_flush_ms_max", round(flush_max * 1e3, 3))


# -- public API --------------------------------------------------------------


def parallel_explore(
    net: PetriNet,
    workers: int | None = 1,
    max_states: int = 1_000_000,
    obligations=None,
) -> ParallelExploration:
    """Explore the full reachable state space of ``net``, sharded over
    ``workers`` processes.

    ``obligations`` is an optional list of
    ``(producer_preset, consumer_presets)`` place-set pairs; each
    discovered state is tested against every obligation (the Prop 5.5
    predicate) and the canonical (minimum-key) witness per failing
    obligation is returned.

    Raises :class:`UnboundedNetError` (with ``bound`` set) when the
    space exceeds ``max_states``.  No covering-based unboundedness
    *proof* is attempted — see the module docstring.
    """
    workers = resolve_workers(workers)
    cnet = net.compiled()
    lowered = _lower_obligations(obligations or [], cnet)
    kind = "bitmask" if _bitmask_eligible(cnet) else "compiled"

    def attempt(kind: str) -> list[dict]:
        spec = _KERNELS[kind].spec_of(cnet)
        kernel = _build_kernel(kind, spec)
        kernel.load_obligations(lowered)
        if workers == 1:
            return [_run_single(kernel, max_states, net)]
        seed_wire = kernel.seed_wire()
        seed_key = kernel.key_of_node(kernel.node_of_wire(seed_wire))
        return _run_sharded(
            kind, spec, lowered, workers, max_states, net, seed_wire, seed_key
        )

    with obs.span(
        "engine.parallel.explore", net=net.name, workers=workers
    ) as span:
        try:
            reports = attempt(kind)
        except _BitmaskOverflow:
            # The net turned out not to be 1-safe: restart on the
            # general packed kernel (correct for any bounded counts).
            kind = "compiled"
            reports = attempt(kind)
        span.set(kernel=kind)
        deadlocks = sorted(
            (state for report in reports for state in report["deadlocks"]),
            key=cnet.counts,
        )
        failing: dict[int, tuple[bytes, Any]] = {}
        for report in reports:
            for index, witness in report["failing"].items():
                best = failing.get(index)
                if best is None or witness[0] < best[0]:
                    failing[index] = witness
        result = ParallelExploration(
            workers=workers,
            states=sum(report["states"] for report in reports),
            edges=sum(report["edges"] for report in reports),
            deadlocks=[cnet.decode(state) for state in deadlocks],
            failing={
                index: cnet.decode(witness[1])
                for index, witness in sorted(failing.items())
            },
            frontier_peak=max(
                report["frontier_peak"] for report in reports
            ),
            worker_reports=reports,
        )
        span.set(states=result.states, edges=result.edges)
    _publish_metrics(result)
    return result
