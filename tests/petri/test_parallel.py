"""Unit tests for the sharded parallel explorer.

The differential suite (:mod:`tests.petri.test_parallel_differential`)
proves parity on random nets; these tests pin the contract piece by
piece on known nets — budget aborts, deadlock decoding, obligation
witnesses, worker validation, metrics.
"""

from __future__ import annotations

import pytest

from repro.core.circuit import compose_many
from repro.models.library import four_phase_master, four_phase_slave
from repro.obs import metrics as obs
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.parallel import (
    MAX_WORKERS,
    pack_wide_key,
    parallel_explore,
    resolve_workers,
)
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError

WORKER_COUNTS = (1, 2, 4)


def channel_bank(channels: int):
    modules = []
    for index in range(channels):
        modules.append(
            four_phase_master(req=f"r{index}", ack=f"a{index}", name=f"m{index}")
        )
        modules.append(
            four_phase_slave(req=f"r{index}", ack=f"a{index}", name=f"s{index}")
        )
    return compose_many(modules)


def deadlocking_net() -> PetriNet:
    """Two tokens racing into a sink: several distinct deadlocks."""
    net = PetriNet("race")
    net.add_transition({"p0"}, "a", {"p1"})
    net.add_transition({"p0"}, "b", {"p2"})
    net.add_transition({"p1"}, "c", {"p3"})
    net.set_initial(Marking.from_places(["p0", "p0"]))
    return net


# -- knob validation ---------------------------------------------------------


def test_resolve_workers_accepts_range():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(MAX_WORKERS) == MAX_WORKERS


@pytest.mark.parametrize("bad", [0, -1, MAX_WORKERS + 1, 1.5, "2", True])
def test_resolve_workers_rejects_invalid(bad):
    with pytest.raises(ValueError):
        resolve_workers(bad)


def test_pack_wide_key_is_injective_on_samples():
    states = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 1, 3), (255, 256, 257)]
    packed = {pack_wide_key(state) for state in states}
    assert len(packed) == len(states)
    assert pack_wide_key((0, 1, 2)) == pack_wide_key((0, 1, 2))


# -- exploration contract ----------------------------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_counts_and_deadlocks_match_serial(workers):
    net = deadlocking_net()
    serial = ReachabilityGraph(net)
    result = parallel_explore(net, workers=workers)
    assert result.states == serial.num_states()
    assert result.edges == serial.num_edges()
    assert result.deadlock_set() == frozenset(serial.deadlocks())


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_more_workers_than_states(workers):
    net = PetriNet("tiny")
    net.add_transition({"p0"}, "a", {"p1"})
    net.set_initial(Marking.from_places(["p0"]))
    result = parallel_explore(net, workers=workers)
    assert result.states == 2
    assert result.edges == 1
    assert result.deadlocks == [Marking.from_places(["p1"])]


def test_transitionless_net_is_its_own_deadlock():
    net = PetriNet("static")
    net.add_place("p0")
    net.set_initial(Marking.from_places(["p0"]))
    for workers in WORKER_COUNTS:
        result = parallel_explore(net, workers=workers)
        assert result.states == 1
        assert result.edges == 0
        assert result.deadlocks == [net.initial]


@pytest.mark.parametrize("workers", [1, 2])
def test_max_states_budget_raises_with_bound(workers):
    net = channel_bank(3).net  # 64 states
    with pytest.raises(UnboundedNetError) as excinfo:
        parallel_explore(net, workers=workers, max_states=10)
    assert excinfo.value.bound == 10
    # Exactly at the budget: completes (same contract as the serial
    # engines, which only raise past max_states).
    assert parallel_explore(net, workers=workers, max_states=64).states == 64


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_obligation_witnesses_are_canonical(workers):
    """The Prop 5.5 predicate evaluated shard-side: same failing
    obligations as a serial scan, and the witness is the *minimum* key
    match — identical across worker counts and repeated runs."""
    net = deadlocking_net()
    graph = ReachabilityGraph(net)
    # Obligation: "p3 marked" producer with an unsatisfiable consumer.
    obligations = [
        (frozenset({"p3"}), (frozenset({"p0", "p1", "p2", "p3"}),)),
        (frozenset({"p0"}), (frozenset({"p0"}),)),  # never fails
    ]
    expected = {
        marking
        for marking in graph.states
        if marking["p3"] > 0
        and not (marking["p0"] and marking["p1"] and marking["p2"])
    }
    runs = [
        parallel_explore(net, workers=workers, obligations=obligations)
        for _ in range(2)
    ]
    for result in runs:
        assert set(result.failing) == {0}
        assert result.failing[0] in expected
    assert runs[0].failing == runs[1].failing


def test_witnesses_agree_across_worker_counts():
    net = channel_bank(2).net
    place = sorted(net.places)[0]
    obligations = [(frozenset({place}), (frozenset(net.places),))]
    witnesses = {
        workers: parallel_explore(
            net, workers=workers, obligations=obligations
        ).failing
        for workers in WORKER_COUNTS
    }
    assert witnesses[1] == witnesses[2] == witnesses[4]


# -- the 1-safe bitmask fast path --------------------------------------------


def _explore_kernel(recorder) -> str:
    span = next(
        s
        for s in recorder.to_dict()["spans"]
        if s["name"] == "engine.parallel.explore"
    )
    return span["meta"]["kernel"]


def overflow_net() -> PetriNet:
    """Statically eligible (bits codec, <=1-token initial) but not
    1-safe: two producers race tokens into ``c``."""
    net = PetriNet("unsafe")
    net.add_transition({"a"}, "t1", {"c"})
    net.add_transition({"b"}, "t2", {"c"})
    net.set_initial(Marking.from_places(["a", "b"]))
    return net


def test_one_safe_net_selects_bitmask_kernel():
    net = channel_bank(2).net
    with obs.record() as recorder:
        parallel_explore(net, workers=1)
    assert _explore_kernel(recorder) == "bitmask"


def test_multi_token_initial_marking_selects_general_kernel():
    with obs.record() as recorder:
        parallel_explore(deadlocking_net(), workers=1)
    assert _explore_kernel(recorder) == "compiled"


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bitmask_overflow_falls_back_to_general_kernel(workers):
    """A firing that would put a second token anywhere aborts the
    bitmask attempt and restarts on the packed kernel — transparently:
    same counts and deadlocks as serial, at every worker count."""
    net = overflow_net()
    serial = ReachabilityGraph(net)
    with obs.record() as recorder:
        result = parallel_explore(net, workers=workers)
    assert _explore_kernel(recorder) == "compiled"
    assert result.states == serial.num_states()
    assert result.edges == serial.num_edges()
    assert result.deadlock_set() == frozenset(serial.deadlocks())
    # The non-1-safe marking itself survives the fallback intact.
    assert Marking.from_places(["c", "c"]) in result.deadlock_set()


# -- instrumentation ---------------------------------------------------------


def test_parallel_metrics_published():
    net = channel_bank(2).net
    with obs.record() as recorder:
        parallel_explore(net, workers=2)
    payload = recorder.to_dict()
    assert any(
        span["name"] == "engine.parallel.explore"
        and span["meta"]["workers"] == 2
        for span in payload["spans"]
    )
    gauges = payload["gauges"]
    assert gauges["parallel.workers"] == 2
    shard_states = [
        gauges[f"parallel.worker{i}.shard_states"] for i in range(2)
    ]
    assert sum(shard_states) == 16
    assert payload["counters"]["parallel.states"] == 16
    assert "parallel.batch_flush_ms_max" in gauges
    assert payload["counters"]["parallel.batches"] >= 1
