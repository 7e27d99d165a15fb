"""On-the-fly exploration against the full state space on the Section 6
case study.

The demand-driven engine's claim is twofold:

* on a *passing* instance it explores exactly the reachable states the
  full :class:`~repro.petri.reachability.ReachabilityGraph` of the
  composite holds — never more (same BFS, no construction overhead
  beyond bookkeeping);
* on a *failing* instance it stops at the first Proposition 5.5 witness,
  exploring a strict subset of that space.

Both claims are asserted here on the paper's Fig. 5–7 sender /
translator / receiver blocks and on a scaled-up channel bank with one
broken master, with wall-clock benchmarks alongside.

The ``smoke`` tests are run by CI's quick-mode benchmark job.
"""

import pytest

from repro.core.circuit import compose_many
from repro.models.library import four_phase_master, four_phase_slave
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import ReachabilityGraph
from repro.stg.stg import Stg
from repro.verify.receptiveness import (
    check_receptiveness,
    compose_with_obligations,
)


def impatient_master(req: str, ack: str, name: str) -> Stg:
    """A 4-phase master that drops the request without waiting for the
    acknowledge (the Figure 8 failure pattern, parameterized)."""
    net = PetriNet(name)
    net.add_transition({f"{name}0"}, f"{req}+", {f"{name}1"})
    net.add_transition({f"{name}1"}, f"{req}-", {f"{name}2"})
    net.add_transition({f"{name}2"}, f"{ack}+", {f"{name}3"})
    net.add_transition({f"{name}3"}, f"{ack}-", {f"{name}0"})
    net.set_initial(Marking({f"{name}0": 1}))
    return Stg(net, inputs={ack}, outputs={req})


def banked_pair(channels: int, broken: bool):
    """A bank of masters and a bank of slaves over ``channels``
    independent handshake channels; when ``broken``, channel 0's master
    is the impatient one."""
    masters, slaves = [], []
    for index in range(channels):
        make = impatient_master if broken and index == 0 else four_phase_master
        masters.append(make(req=f"r{index}", ack=f"a{index}", name=f"m{index}"))
        slaves.append(
            four_phase_slave(req=f"r{index}", ack=f"a{index}", name=f"s{index}")
        )
    return compose_many(masters), compose_many(slaves)


def explored(stg1, stg2, engine, **kwargs) -> tuple[int, bool]:
    report = check_receptiveness(
        stg1, stg2, method="reachability", engine=engine, **kwargs
    )
    return report.states_explored, report.is_receptive()


def full_states(stg1, stg2) -> int:
    """The state count of the composite's full reachability graph."""
    composite, _ = compose_with_obligations(stg1, stg2)
    return ReachabilityGraph(composite.net).num_states()


# -- correctness / state-count assertions (CI smoke) --------------------


def test_smoke_fig7_states_not_worse(case_study):
    """CI gate: on the receptive Fig. 7 sender/translator composition
    the lazy engine must never explore more states than the full
    graph holds."""
    total = full_states(case_study["sender"], case_study["translator"])
    lazy_states, lazy_ok = explored(
        case_study["sender"], case_study["translator"], "onthefly"
    )
    assert lazy_ok
    assert lazy_states <= total
    print(
        f"\nFig 7 sender||translator: full={total} states,"
        f" onthefly={lazy_states} states"
    )


def test_smoke_failing_instance_strictly_fewer(case_study):
    """Acceptance criterion: on the Fig. 8 failing instance, early exit
    explores *strictly* fewer states than the full graph holds."""
    total = full_states(
        case_study["inconsistent_sender"], case_study["translator"]
    )
    lazy_states, lazy_ok = explored(
        case_study["inconsistent_sender"],
        case_study["translator"],
        "onthefly",
        stop_at_first=True,
    )
    assert not lazy_ok
    assert lazy_states < total
    print(
        f"\nFig 8 inconsistent sender||translator: full={total},"
        f" onthefly(first failure)={lazy_states}"
    )


def test_scaled_bank_early_exit_win():
    """Scaled workload: one broken channel in a bank of five.  The
    failure is near the initial marking, so the lazy engine's win grows
    with the (exponential) size of the full space."""
    masters, slaves = banked_pair(5, broken=True)
    total = full_states(masters, slaves)
    lazy_states, lazy_ok = explored(
        masters, slaves, "onthefly", stop_at_first=True
    )
    assert not lazy_ok
    # The broken handshake fails within a few steps of the initial
    # marking; BFS finds it long before the 4^5-state space is done.
    assert lazy_states <= total // 10
    print(
        f"\nbank(5, one broken): full={total},"
        f" onthefly(first failure)={lazy_states}"
        f" ({total / max(lazy_states, 1):.0f}x fewer)"
    )


def test_passing_bank_parity():
    """On a fully receptive bank the lazy engine must visit the whole
    space — same count as the full graph (no missed states)."""
    masters, slaves = banked_pair(3, broken=False)
    lazy_states, lazy_ok = explored(masters, slaves, "onthefly")
    assert lazy_ok
    assert lazy_states == full_states(masters, slaves) == 4**3


# -- wall-clock benches -------------------------------------------------


@pytest.mark.benchmark(group="engine-failing")
def test_bench_onthefly_on_failing_bank(benchmark):
    masters, slaves = banked_pair(4, broken=True)
    _, ok = benchmark(
        explored, masters, slaves, "onthefly", stop_at_first=True
    )
    assert not ok


@pytest.mark.benchmark(group="engine-passing")
def test_bench_onthefly_fig7(benchmark, case_study):
    _, ok = benchmark(
        explored, case_study["sender"], case_study["translator"], "onthefly"
    )
    assert ok
