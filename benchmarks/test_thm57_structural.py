"""Theorem 5.7: the polynomial structural receptiveness check.

Workload: a bank of ``n`` independent 4-phase channels, all masters
gathered into one module and all slaves into the other.  The composed
net is a live marked graph, so both methods apply:

* the **structural** method (Thm 5.7) decides small state-equation
  systems over the incidence matrix in exact rational arithmetic —
  polynomial in net size;
* the **reachability** method enumerates the ``4^n`` interleavings.

The shape test asserts both methods agree (on the good bank and on a
bank with one impatient master); the benches show the exponential /
polynomial split the theorem promises.
"""

import pytest

from repro.models.library import four_phase_master, four_phase_slave
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.stg import Stg
from repro.verify.receptiveness import check_receptiveness

SIZES = [1, 2, 3, 4, 5]


def _merge(modules: list[Stg], name: str) -> Stg:
    """Disjoint union of modules into a single Stg (no shared signals)."""
    net = PetriNet(name)
    inputs: set[str] = set()
    outputs: set[str] = set()
    for module in modules:
        prefixed = module.net.prefixed_places(f"{module.net.name}.")
        for transition in prefixed.transitions.values():
            net.add_transition(
                transition.preset, transition.action, transition.postset
            )
        counts = dict(net.initial)
        for place, count in prefixed.initial.items():
            counts[place] = count
        net.set_initial(Marking(counts))
        inputs |= module.inputs
        outputs |= module.outputs
    return Stg(net, inputs=inputs, outputs=outputs)


def master_bank(n: int, impatient: bool = False) -> Stg:
    modules = []
    for index in range(n):
        if impatient and index == 0:
            bad = PetriNet("m0bad")
            bad.add_transition({"x0"}, "r0+", {"x1"})
            bad.add_transition({"x1"}, "r0-", {"x2"})
            bad.add_transition({"x2"}, "a0+", {"x3"})
            bad.add_transition({"x3"}, "a0-", {"x0"})
            bad.set_initial(Marking({"x0": 1}))
            modules.append(Stg(bad, inputs={"a0"}, outputs={"r0"}))
        else:
            modules.append(
                four_phase_master(
                    req=f"r{index}", ack=f"a{index}", name=f"m{index}"
                )
            )
    return _merge(modules, "masters")


def slave_bank(n: int) -> Stg:
    return _merge(
        [
            four_phase_slave(req=f"r{i}", ack=f"a{i}", name=f"s{i}")
            for i in range(n)
        ],
        "slaves",
    )


def test_thm57_shape():
    for n in (1, 2, 3):
        good_structural = check_receptiveness(
            master_bank(n), slave_bank(n), method="structural"
        )
        good_exhaustive = check_receptiveness(
            master_bank(n), slave_bank(n), method="reachability"
        )
        assert good_structural.is_receptive()
        assert good_exhaustive.is_receptive()

        bad_structural = check_receptiveness(
            master_bank(n, impatient=True), slave_bank(n), method="structural"
        )
        bad_exhaustive = check_receptiveness(
            master_bank(n, impatient=True), slave_bank(n), method="reachability"
        )
        assert not bad_structural.is_receptive()
        assert not bad_exhaustive.is_receptive()
        assert (
            bad_structural.failing_actions()
            == bad_exhaustive.failing_actions()
        )

    print("\nThm 5.7: structural and reachability verdicts agree on all"
          " channel banks (n=1..3, good and impatient variants)")


def test_thm57_auto_selects_structural():
    report = check_receptiveness(master_bank(2), slave_bank(2))
    assert report.method == "structural"


@pytest.mark.parametrize("n", SIZES)
def test_bench_structural(benchmark, n):
    report = benchmark(
        check_receptiveness, master_bank(n), slave_bank(n), "structural"
    )
    assert report.is_receptive()


@pytest.mark.parametrize("n", SIZES)
def test_bench_reachability(benchmark, n):
    report = benchmark(
        check_receptiveness, master_bank(n), slave_bank(n), "reachability"
    )
    assert report.is_receptive()
