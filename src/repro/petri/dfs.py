"""Depth-first reduced exploration: DFS-stack proviso plus sleep sets.

This module is the dynamic half of the partial-order reduction layer
(the static half — independence facts and stubborn-set closure — lives
in :mod:`repro.petri.independence`).  It replaces the original
ignoring-prevention proviso, which accepted a reduced expansion only
when *every* reduced successor was a brand-new marking.  That condition
is sound but collapses on pure cycles: the last state of any cycle sees
an already-discovered successor and is fully expanded, so cyclic
workloads (the paper's four-phase channel banks) got zero reduction —
256 → 256 states on channel-bank(4) in ``BENCH_por.json``.

Two classical techniques fix this:

* **The DFS-stack proviso** (Valmari's proviso S, the condition SPIN
  implements): explore depth-first and expand a state fully only when
  one of its *chosen* successors closes a cycle onto the current search
  stack.  Every cycle of the reduced graph then still contains a fully
  expanded state — the ignoring-prevention guarantee — but a reduced
  successor that merely re-converges onto an already *finished* state
  no longer forces a full expansion.  On a pure cycle this means one
  full expansion per cycle closure instead of one per state.

* **Sleep sets** (Godefroid's algorithm 3, state-matching variant): a
  transition that was already fired from an ancestor state and is
  independent of everything fired since does not need to be fired
  again — its interleaving was covered by the earlier branch.  Each
  state carries a *sleep set* of such transitions; firing ``t`` from
  ``s`` gives the child the sleep set ``{u in sleep(s) | fired-at-s :
  u invisible and independent(u, t)}``.  When a state is reached again
  with a *smaller* sleep set, the difference is woken up and fired
  (the stored set shrinks to the intersection), which restores the
  executions the earlier, larger sleep set was allowed to skip.

Deliberate deviations from the textbook algorithms, all on the side of
exploring *more*:

* only **invisible** transitions ever enter a sleep set.  Textbook
  sleep sets preserve deadlocks but only stutter-equivalent languages;
  restricting sleep membership to invisible transitions means a pruned
  execution differs from an explored one only by commuting an invisible
  transition earlier, so the *exact* visible word language is preserved
  — the guarantee every verify wrapper in this repo assumes.
* a state whose every candidate transition is asleep fires the whole
  enabled set instead of nothing, so a reduced-graph sink is always a
  genuine deadlock (the differential harness compares deadlock *sets*,
  not just reachability of some deadlock).
* waking fires ``(stored - incoming) ∩ enabled`` minus the transitions
  already fired from that state — the subtraction makes re-wakes of
  fallback-expanded states no-ops instead of duplicate edges.

The class below implements one iterative DFS over the packed states
of a :class:`repro.petri.compiled.CompiledSpace`, and
:class:`repro.petri.product.LazyStateSpace` serves the result in the
:class:`~repro.petri.marking.Marking` domain.

Because the proviso is a property of the *whole* depth-first search,
a reduced space driven by this module is explored in full on the first
demand: ``successors`` and ``iter_bfs`` run :meth:`StackProvisoDfs.walk`
to completion.  A walk that the ``max_states`` budget cut short leaves
a sound-but-unfinished graph; the next walk re-traverses the recorded
expansions, re-checks the proviso against its own stack, and finishes
the job.
"""

from __future__ import annotations

from collections.abc import Iterator


class SleepSets:
    """Sleep-set propagation over the static independence relation.

    Only invisible transitions are admitted (see the module docstring);
    independence queries are memoised because the same (sleeper, fired)
    pairs recur at every state of a cycle.
    """

    __slots__ = ("_relation", "_visible", "_indep")

    def __init__(self, relation, visible: frozenset[int]):
        self._relation = relation
        self._visible = visible
        self._indep: dict[tuple[int, int], bool] = {}

    def _independent(self, u: int, t: int) -> bool:
        key = (u, t)
        cached = self._indep.get(key)
        if cached is None:
            cached = self._relation.independent(u, t)
            self._indep[key] = cached
        return cached

    def child(
        self, sleep: frozenset[int], fired, tid: int
    ) -> frozenset[int]:
        """The sleep set inherited over one firing: every invisible
        member of ``sleep`` or of the transitions already fired from the
        parent that is independent of ``tid``.  (``tid`` itself never
        qualifies: a transition is not independent of itself.)"""
        visible = self._visible
        out = [u for u in sleep if self._independent(u, tid)]
        out.extend(
            u
            for u in fired
            if u not in visible
            and u not in sleep
            and self._independent(u, tid)
        )
        return frozenset(out)


class StackProvisoDfs:
    """One reduced depth-first search over a compiled space, resumable.

    The driver reads the space's enabled sets and calls its
    ``_discover`` for every new firing.  Transitions are identified by
    *tid* here (the stubborn selector and the sleep sets work in the
    net's own transition domain) and mapped to the core's dense indices
    at each call; dense order equals tid order by compilation, so
    enabled tuples stay tid-sorted.  Proviso checks fire through
    ``cnet.fire``, without any accounting, so they never perturb the
    interner-hit counters.

    Persistent per-space bookkeeping (survives across walks):

    * ``sleep_of`` — the sleep set each state was explored with
      (shrunk on every wake);
    * ``fired`` / ``edges`` — the transitions actually fired per state
      and the resulting edge lists, in firing order (these become the
      memoised ``successors`` of the owning space);
    * ``full`` — states expanded with their complete enabled set;
    * ``complete`` — whether the last walk ran to exhaustion.
    """

    __slots__ = (
        "_core",
        "_selector",
        "_stats",
        "_sleep",
        "sleep_of",
        "fired",
        "edges",
        "full",
        "_reduced",
        "complete",
    )

    def __init__(self, core, selector, stats):
        self._core = core
        self._selector = selector
        self._stats = stats
        self._sleep = SleepSets(selector.relation, selector.visible)
        self.sleep_of: dict = {}
        self.fired: dict = {}
        self.edges: dict = {}
        self.full: set = set()
        self._reduced: set = set()
        self.complete = False

    # -- walking -----------------------------------------------------------

    def run_to_completion(self) -> None:
        """Drain a walk (no-op when already complete)."""
        if not self.complete:
            for _ in self.walk():
                pass

    def walk(self) -> Iterator:
        """Run (or resume) the depth-first exploration, yielding each
        state the first time this walk visits it — new states exactly
        at discovery.  Completing the generator establishes the proviso
        invariant for the whole reduced graph and sets ``complete``."""
        from repro.petri.compiled import PackedMarkingView

        core = self._core
        cnet = core.cnet
        info = core._info
        fire = cnet.fire
        tids = cnet.tids
        tid_index = cnet.tid_index
        stats = self._stats
        sleep_of = self.sleep_of
        fired_of = self.fired
        edges_of = self.edges
        full = self.full
        sleeper = self._sleep

        on_walk: set = set()
        on_stack: set = set()
        frames: list[list] = []  # [state, work list of tids, cursor]
        frame_of: dict = {}

        def enabled_tids(state) -> tuple[int, ...]:
            return tuple(tids[dense] for dense in info[state][1])

        def upgrade(frame: list, enabled: tuple[int, ...]) -> None:
            """Extend a frame to the full proviso expansion — every
            enabled transition that is not asleep (cycle onto the DFS
            stack detected; slept transitions stay covered by the sleep
            invariant, which is SPIN's expansion rule)."""
            state = frame[0]
            present = set(frame[1]) | fired_of[state]
            sleep = sleep_of[state]
            frame[1].extend(
                t for t in enabled if t not in present and t not in sleep
            )
            stats.cycle_expansions += 1
            if all(t in present or t not in sleep for t in enabled):
                full.add(state)
                if state in self._reduced:
                    self._reduced.discard(state)
                    stats.reduced_states -= 1

        def open_frame(state, extra=()) -> list:
            enabled = enabled_tids(state)
            fired = fired_of.setdefault(state, set())
            recorded = edges_of.setdefault(state, [])
            sleep = sleep_of[state]
            if state in full:
                work = [tid for _, tid, _ in recorded]
            elif fired:
                # Re-entry after an abandoned walk: replay the recorded
                # expansion, re-checking the proviso on *this* stack.
                work = [tid for _, tid, _ in recorded]
                for tid in work:
                    if fire(state, tid_index[tid]) in on_stack:
                        present = set(work)
                        work.extend(
                            t
                            for t in enabled
                            if t not in present and t not in sleep
                        )
                        stats.cycle_expansions += 1
                        if all(t in present or t not in sleep for t in enabled):
                            full.add(state)
                            if state in self._reduced:
                                self._reduced.discard(state)
                                stats.reduced_states -= 1
                        break
            else:
                base: tuple[int, ...] | list[int] = enabled
                if self._selector is not None and len(enabled) > 1:
                    proposal = self._selector.reduced_enabled(
                        PackedMarkingView(cnet, state), enabled, asleep=sleep
                    )
                    if proposal is not None:
                        base = proposal
                chosen = [t for t in base if t not in sleep]
                if not chosen:
                    # The whole persistent set is asleep (possible only
                    # when no awake-seeded closure existed): fall back to
                    # the trivially persistent full enabled set, and if
                    # even that is all asleep fire it anyway so a
                    # reduced-graph sink is always a real deadlock.
                    base = enabled
                    chosen = [t for t in enabled if t not in sleep]
                if not chosen:
                    base = None
                    chosen = list(enabled)
                if base is not None:
                    stats.sleep_skips += len(base) - len(chosen)
                if len(chosen) < len(enabled):
                    for tid in chosen:
                        if fire(state, tid_index[tid]) in on_stack:
                            present = set(chosen)
                            chosen.extend(
                                t
                                for t in enabled
                                if t not in present and t not in sleep
                            )
                            stats.cycle_expansions += 1
                            break
                work = chosen
                if len(work) < len(enabled):
                    self._reduced.add(state)
                    stats.reduced_states += 1
                else:
                    full.add(state)
            if extra:
                present = set(work) | fired
                enabled_set = set(enabled)
                work.extend(
                    u
                    for u in sorted(extra)
                    if u in enabled_set and u not in present
                )
            return [state, work, 0]

        def enter(state, extra=()):
            on_walk.add(state)
            on_stack.add(state)
            frame = open_frame(state, extra)
            frames.append(frame)
            frame_of[state] = frame
            if len(frames) > stats.frontier_peak:
                stats.frontier_peak = len(frames)
            return frame

        root = core.initial
        sleep_of.setdefault(root, frozenset())
        enter(root)
        yield root
        while frames:
            frame = frames[-1]
            state = frame[0]
            if frame[2] >= len(frame[1]):
                frames.pop()
                on_stack.discard(state)
                frame_of.pop(state, None)
                continue
            tid = frame[1][frame[2]]
            frame[2] += 1
            fired = fired_of[state]
            dense = tid_index[tid]
            if tid in fired:
                target = fire(state, dense)
            else:
                deficits, dense_enabled = info[state]
                target = core._discover(state, deficits, dense_enabled, dense)
                fired.add(tid)
                edges_of[state].append((cnet.actions[dense], tid, target))
                stats.edges += 1
            incoming = sleeper.child(sleep_of[state], fired, tid)
            stored = sleep_of.get(target)
            if target not in on_walk:
                wake: frozenset[int] = frozenset()
                if stored is None:
                    sleep_of[target] = incoming
                else:
                    # Known from an earlier walk: merge sleeps, wake the
                    # difference alongside the recorded re-walk.
                    wake = stored - incoming
                    sleep_of[target] = stored & incoming
                    if target in full:
                        wake = frozenset()
                enter(target, wake)
                yield target
                continue
            # Revisited within this walk.
            wake = stored - incoming  # type: ignore[operator]
            if not wake:
                continue
            sleep_of[target] = stored & incoming  # type: ignore[operator]
            if target in full:
                continue
            enabled = enabled_tids(target)
            enabled_set = set(enabled)
            already = fired_of.get(target, set())
            todo = [
                u
                for u in sorted(wake)
                if u in enabled_set and u not in already
            ]
            if not todo:
                continue
            live = frame_of.get(target)
            if live is None:
                # Finished earlier in this walk: push a wake frame that
                # fires only the difference (Godefroid's re-exploration).
                live = enter(target, ())
                live[1].extend(todo)
            else:
                present = set(live[1])
                todo = [u for u in todo if u not in present]
                live[1].extend(todo)
            # Woken firings are expansion extensions: re-check the
            # proviso for them (conservatively, against today's stack).
            if target not in full:
                for u in todo:
                    if fire(target, tid_index[u]) in on_stack:
                        upgrade(live, enabled)
                        break
        self.complete = True

    # -- memoised graph ----------------------------------------------------

    def successor_edges(self, state) -> tuple:
        """The recorded ``(action, tid, target)`` edges of a state (the
        walk must be complete); raises ``KeyError`` for states never
        discovered."""
        edges = self.edges.get(state)
        if edges is None:
            raise KeyError(f"{state!r} has not been discovered")
        return tuple(edges)
