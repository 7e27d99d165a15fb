"""Differential testing of the sharded parallel explorer.

Every property runs the same exploration question through the naive
reference search (``tests/oracle.py``) and through
:func:`repro.petri.parallel.parallel_explore` at ``workers in {1, 2,
4}``, and asserts agreement on state counts, edge counts, deadlock sets
and Prop 5.5 verdicts.
The parallel engine's whole value rests on these being byte-identical:
a sharded exploration that drops, double-counts or re-orders even one
state is worse than no parallel engine at all.

Failing examples are persisted fully shrunk under
``tests/petri/parallel_failures/`` (same persistence contract as the
POR harness) for offline replay via
:func:`repro.io.json_io.net_from_dict`.

Worker subprocesses are expensive relative to these tiny nets, so the
in-process path (``workers=1``) gets the high example counts, while
the multiprocess matrix runs fewer, fatter examples.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings

from repro.io.json_io import net_to_dict
from repro.petri.net import PetriNet
from repro.petri.parallel import parallel_explore
from repro.stg.stg import Stg
from repro.verify.receptiveness import (
    check_receptiveness,
    compose_with_obligations,
)

from tests.oracle import Oracle
from tests.strategies import bounded_multi_token_nets, bounded_nets

WORKER_COUNTS = (1, 2, 4)

#: In-process (workers=1) properties: cheap, so run many examples.
THOROUGH = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

#: Multiprocess matrix: each example spawns 2+4 workers.
HEAVY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

FAILURE_DIR = Path(__file__).parent / "parallel_failures"

SIGNAL_ACTIONS = ["a+", "a-", "b+", "b-"]


class persists_counterexamples:
    """On assertion failure, write the example nets to FAILURE_DIR
    (hypothesis replays the minimal example last, so the file left
    behind holds the fully shrunk net)."""

    def __init__(self, label: str, **nets: PetriNet):
        self.label = label
        self.nets = nets

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and issubclass(exc_type, AssertionError):
            FAILURE_DIR.mkdir(exist_ok=True)
            payload = {
                name: net_to_dict(net) for name, net in self.nets.items()
            }
            path = FAILURE_DIR / f"{self.label}.json"
            path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return False


def serial_reference(net: PetriNet):
    oracle = Oracle(net)
    assert oracle.complete
    return (
        len(oracle.rows),
        sum(len(row) for row in oracle.rows.values()),
        frozenset(oracle.deadlocks()),
    )


def assert_cell_matches(net: PetriNet, reference, workers: int):
    result = parallel_explore(net, workers=workers, max_states=5000)
    states, edges, deadlocks = reference
    label = f"workers={workers}"
    assert result.states == states, label
    assert result.edges == edges, label
    assert result.deadlock_set() == deadlocks, label


@THOROUGH
@given(net=bounded_multi_token_nets())
def test_single_worker_matches_serial(net):
    """workers=1 (the serial degradation): identical counts and
    deadlock sets."""
    with persists_counterexamples("single_worker", net=net):
        reference = serial_reference(net)
        assert_cell_matches(net, reference, workers=1)


@HEAVY
@given(net=bounded_multi_token_nets())
def test_worker_matrix_matches_serial(net):
    """Every multiprocess worker count agrees with the oracle."""
    with persists_counterexamples("worker_matrix", net=net):
        reference = serial_reference(net)
        for workers in WORKER_COUNTS[1:]:
            assert_cell_matches(net, reference, workers=workers)


@HEAVY
@given(net=bounded_nets())
def test_sharded_run_is_deterministic(net):
    """Two sharded runs of the same net agree with each other exactly —
    including the canonically-ordered deadlock list, not just the set."""
    with persists_counterexamples("determinism", net=net):
        one = parallel_explore(net, workers=2, max_states=5000)
        two = parallel_explore(net, workers=2, max_states=5000)
        assert one.states == two.states
        assert one.edges == two.edges
        assert one.deadlocks == two.deadlocks


@HEAVY
@given(
    net1=bounded_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS, max_states=400
    ),
    net2=bounded_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS, max_states=400
    ),
)
def test_receptiveness_verdicts_agree_with_serial(net1, net2):
    """Prop 5.5 through the parallel path: the same verdict and the
    same failing obligations as the brute-force scan, at every worker
    count; the sharded path explores the whole composite space."""
    with persists_counterexamples("receptiveness", net1=net1, net2=net2):
        producer = Stg(net1, outputs={"a", "b"})
        consumer = Stg(net2, inputs={"a", "b"})
        composite, obligations = compose_with_obligations(producer, consumer)
        oracle = Oracle(composite.net, limit=20_000)
        assert oracle.complete
        expected = {
            (obligation.action, obligation.producer)
            for obligation, _ in oracle.first_failures(obligations)
        }
        for workers in (1, 2):
            report = check_receptiveness(
                producer,
                consumer,
                method="reachability",
                max_states=20_000,
                workers=workers,
            )
            failed = {
                (f.obligation.action, f.obligation.producer)
                for f in report.failures
            }
            assert report.is_receptive() == (not expected), workers
            assert failed == expected, workers
            if workers > 1 or report.is_receptive():
                assert report.states_explored == len(oracle.rows), workers
