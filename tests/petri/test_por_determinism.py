"""Determinism of the reduced exploration (``engine="por"``).

The DFS driver of :mod:`repro.petri.dfs` assumes the stubborn-set
selector proposes the *same* subset at the same marking every time.
These tests pin that contract end to end:

* the full explored-state *sequence* (not just the set) of a reduced
  exploration, with every state's successor row, is identical run over
  run, under both provisos;
* :meth:`StubbornSelector._scapegoat` — the one spot where a sloppy
  implementation could consult set iteration order — is a pure
  function of the net and the marking: shuffling the declaration order
  of places and presets never changes its choice.
"""

from __future__ import annotations

import random

import pytest

from repro.core.circuit import compose_many
from repro.models.library import four_phase_master, four_phase_slave
from repro.petri.independence import StubbornSelector
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.product import LazyStateSpace

SEED = 0xC1A0


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


def discovery_sequence(net, proviso: str) -> list[tuple[Marking, tuple]]:
    """Breadth-first discovery order, each state with its reduced
    successor row."""
    space = LazyStateSpace(
        net,
        reduction=True,
        visible_actions=(),
        proviso=proviso,
    )
    states = list(space.iter_bfs())
    assert len(states) == space.num_explored()
    return [(state, space.successors(state)) for state in states]


class TestRunToRunDeterminism:
    @pytest.mark.parametrize("proviso", ["fresh", "stack"])
    def test_identical_explored_state_sequences(self, proviso):
        net = channel_bank(3).net
        first = discovery_sequence(net, proviso)
        second = discovery_sequence(net, proviso)
        assert first == second

    @pytest.mark.parametrize("proviso", ["fresh", "stack"])
    def test_identical_counters(self, proviso):
        net = channel_bank(3).net
        runs = []
        for _ in range(2):
            space = LazyStateSpace(
                net,
                reduction=True,
                visible_actions=(),
                proviso=proviso,
            )
            space.explore_all()
            runs.append(
                (
                    space.stats.states,
                    space.stats.edges,
                    space.stats.reduced_states,
                    space.stats.sleep_skips,
                    space.stats.cycle_expansions,
                )
            )
        assert runs[0] == runs[1]


class TestScapegoatDeterminism:
    """``_scapegoat`` picks the empty input place of a disabled stubborn
    member whose strict-producer set is smallest.  Its audit point: the
    scan must run over ``sorted(preset)`` with a strict ``<`` cost
    comparison, so the winner is a pure function of the net and the
    marking — never of dict/set iteration order."""

    PLACES = ["e1", "e2", "e3", "e4", "m1"]

    def build(self, place_order, preset_order) -> PetriNet:
        """The same net, declared in a permuted order: one disabled
        transition with four empty input places, each fed by a
        different number of strict producers (e2 is cheapest)."""
        net = PetriNet("scape", places=list(place_order))
        net.add_transition(set(preset_order), "goal", {"m1"})  # t0, disabled
        feeders = {"e1": 2, "e2": 1, "e3": 3, "e4": 2}
        for place, producers in sorted(feeders.items()):
            for index in range(producers):
                net.add_transition({"m1"}, f"feed_{place}_{index}", {place})
        net.set_initial(Marking({"m1": 1}))
        return net

    def test_choice_survives_declaration_shuffles(self):
        rng = random.Random(SEED)
        choices = set()
        for _ in range(10):
            place_order = self.PLACES[:]
            preset_order = ["e1", "e2", "e3", "e4"]
            rng.shuffle(place_order)
            rng.shuffle(preset_order)
            net = self.build(place_order, preset_order)
            selector = StubbornSelector(net, visible_tids=())
            choices.add(selector._scapegoat(0, net.initial))
        assert choices == {"e2"}  # fewest strict producers, always

    def test_tie_breaks_on_place_name(self):
        # e1 and e4 tie at two producers each once e2/e3 are marked:
        # the sorted scan must settle on the lexicographically first.
        net = self.build(self.PLACES, ["e1", "e2", "e3", "e4"])
        selector = StubbornSelector(net, visible_tids=())
        marking = net.initial.add(["e2", "e3"])
        assert selector._scapegoat(0, marking) == "e1"
