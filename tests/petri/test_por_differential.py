"""Differential testing of the exploration engines.

Every property here runs the same verification question through
``onthefly`` (the lazy engine), ``por`` (the stubborn-set reduced
engine) and — where the question supports it — ``symbolic`` (the
state-equation semi-decision engine, whose inconclusive cases fall back
to the explicit search and must therefore reach the same verdicts), and
asserts that each agrees with an independent reference — on verdicts,
on the visible-action language of the reduced space, and on deadlock
sets — over the non-safe-net strategies in :mod:`tests.strategies`.
The references: the minimal DFAs of
:func:`repro.verify.language.dfa_of_net` for languages, the
brute-force Proposition 5.5 scan of ``tests/oracle.py`` for
receptiveness, and the full :class:`ReachabilityGraph` for deadlocks.

When a property fails, the shrunk counterexample net(s) are persisted
as JSON under ``tests/petri/por_failures/`` (hypothesis replays the
minimal example last, so the file left behind is the fully shrunk
net) for offline replay via :func:`repro.io.json_io.net_from_dict`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.io.json_io import net_to_dict
from repro.petri.marking import Marking
from repro.petri.net import EPSILON, PetriNet
from repro.petri.product import LazyStateSpace
from repro.petri.reachability import ReachabilityGraph
from repro.petri.simulation import TokenGame
from repro.stg.stg import Stg
from repro.verify.language import (
    dfa_contained,
    dfa_equal,
    dfa_of_net,
    language_contained,
    languages_equal,
)
from repro.verify.receptiveness import check_receptiveness

from tests.oracle import Oracle
from tests.strategies import bounded_multi_token_nets, bounded_nets

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

# The acceptance bar for engine agreement: >= 200 random nets.
THOROUGH = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

#: "u" acts as the hidden/internal label in these properties, so random
#: nets exercise the reduction (with everything visible the stubborn
#: selector can never propose anything).
SILENT = frozenset({EPSILON, "u"})

FAILURE_DIR = Path(__file__).parent / "por_failures"

SIGNAL_ACTIONS = ["a+", "a-", "b+", "b-"]


class persists_counterexamples:
    """On assertion failure, write the example nets to FAILURE_DIR.

    Hypothesis shrinks by re-running the test body on ever-smaller
    examples and replays the minimal one last, so after a failing run
    the persisted file holds the fully shrunk counterexample.
    """

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


def reference_verdict(
    net1: PetriNet, net2: PetriNet, silent, mode: str = "equal"
) -> bool:
    """The language verdict of the minimal DFAs over the common
    alphabet: the reference the engines are compared with."""
    universe = (net1.actions | net2.actions) - set(silent)
    d1 = dfa_of_net(net1, silent, universe)
    d2 = dfa_of_net(net2, silent, universe)
    return dfa_equal(d1, d2) if mode == "equal" else dfa_contained(d1, d2)


def reduced_space_as_lts(space: LazyStateSpace) -> PetriNet:
    """The fully-explored (reduced) space as a one-token state-machine
    net, so its language can be compared with the reference DFA."""
    lts = PetriNet("reduced-lts")
    names: dict[Marking, str] = {}
    for marking in space.iter_bfs():
        names.setdefault(marking, f"s{len(names)}")
    for marking in list(names):
        for action, _, target in space.successors(marking):
            lts.add_transition(
                {names[marking]}, action, {names[target]}
            )
    lts.set_initial(Marking({names[space.initial]: 1}))
    for name in names.values():
        lts.add_place(name)
    return lts


@THOROUGH
@given(net1=bounded_nets(), net2=bounded_nets())
def test_language_verdicts_agree_across_engines(net1, net2):
    """Equality and containment verdicts: onthefly == por == symbolic
    == the minimal DFAs (the symbolic pre-check either concludes
    exactly or falls back to the explicit comparison)."""
    with persists_counterexamples("language_verdicts", net1=net1, net2=net2):
        for mode in ("equal", "contained"):
            check = languages_equal if mode == "equal" else language_contained
            verdicts = {
                engine: check(net1, net2, silent=SILENT, engine=engine)
                for engine in ("onthefly", "por", "symbolic")
            }
            reference = reference_verdict(net1, net2, SILENT, mode)
            for engine, verdict in verdicts.items():
                assert verdict == reference, (mode, engine, verdicts)


@THOROUGH
@given(
    net1=bounded_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS, max_states=400
    ),
    net2=bounded_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS, max_states=400
    ),
)
def test_receptiveness_verdicts_agree_across_engines(net1, net2):
    """Each engine fails the obligations the brute-force Prop 5.5 scan
    fails (symbolic decides what it can and falls back to the explicit
    search for the rest), and every por witness trace replays on the
    unreduced composite."""
    with persists_counterexamples("receptiveness", net1=net1, net2=net2):
        producer = Stg(net1, outputs={"a", "b"})
        consumer = Stg(net2, inputs={"a", "b"})
        reports = {
            engine: check_receptiveness(
                producer,
                consumer,
                method="reachability",
                max_states=20_000,
                engine=engine,
            )
            for engine in ("onthefly", "por", "symbolic")
        }
        oracle = Oracle(reports["onthefly"].composite.net, limit=20_000)
        assert oracle.complete
        expected = {
            (obligation.action, obligation.producer)
            for obligation, _ in oracle.first_failures(
                reports["onthefly"].obligations
            )
        }
        for engine, report in reports.items():
            assert report.is_receptive() == (not expected), engine
            failed = {
                (f.obligation.action, f.obligation.producer)
                for f in report.failures
            }
            assert failed == expected, engine
        # por edges are real firings: witnesses replay on the full net.
        por = reports["por"]
        for failure in por.failures:
            assert failure.trace is not None and failure.tids is not None
            game = TokenGame(por.composite.net)
            for tid in failure.tids:
                game.fire_tid(tid)
            assert game.marking == failure.marking


@RELAXED
@given(net=bounded_multi_token_nets())
def test_deadlock_sets_preserved(net):
    """With nothing visible the reduced space still reaches *exactly*
    the deadlock markings of the full space."""
    with persists_counterexamples("deadlocks", net=net):
        full = ReachabilityGraph(net)
        space = LazyStateSpace(net, reduction=True, visible_actions=())
        reduced = {
            marking
            for marking in space.iter_bfs()
            if not space.successors(marking)
        }
        assert reduced == set(full.deadlocks())
        assert space.num_explored() <= full.num_states()


@RELAXED
@given(net=bounded_multi_token_nets())
def test_visible_language_preserved_by_reduction(net):
    """The reduced space, replayed as an LTS, has the same visible
    language as the full net (Thm 4.5/4.7 checks stay exact)."""
    with persists_counterexamples("visible_language", net=net):
        space = LazyStateSpace(
            net,
            reduction=True,
            visible_actions=frozenset(net.actions) - SILENT,
        )
        space.explore_all()
        lts = reduced_space_as_lts(space)
        assert reference_verdict(lts, net, SILENT)


@RELAXED
@given(net=bounded_nets())
def test_reduction_never_explores_more(net):
    """The reduced space is a subgraph of the full space: state and
    edge counts can only shrink, and every reduced state is reachable
    in the full graph."""
    with persists_counterexamples("state_counts", net=net):
        full = LazyStateSpace(net)
        full.explore_all()
        reduced = LazyStateSpace(net, reduction=True, visible_actions=())
        reduced.explore_all()
        assert reduced.stats.states <= full.stats.states
        assert reduced.stats.edges <= full.stats.edges
        full_states = set(full.iter_bfs())
        assert set(reduced.iter_bfs()) <= full_states


@RELAXED
@given(net=bounded_multi_token_nets())
def test_reduction_is_deterministic(net):
    """Two runs over the same net produce identical reduced spaces —
    same states in the same BFS order, same stats."""
    one = LazyStateSpace(net, reduction=True, visible_actions=())
    two = LazyStateSpace(net, reduction=True, visible_actions=())
    assert list(one.iter_bfs()) == list(two.iter_bfs())
    assert one.stats == two.stats


# -- corpus families: the nets the fresh proviso was blind on ---------------
#
# PR 5's parsed fixtures include the two families where the original
# always-expand-on-cycle proviso achieved zero reduction: channel banks
# (pure handshake cycles) and pipeline grids.  The hypothesis
# properties above rarely generate such regular cyclic structure, so
# the three-way parity checks are repeated here on the concrete
# fixtures, under both ignoring-prevention provisos.

CORPUS = Path(__file__).parent.parent / "corpus"

CORPUS_FAMILIES = [
    "channel_bank_1.net",
    "channel_bank_2.net",
    "pipeline_2.net",
    "pipeline_3.net",
]

PROVISOS = ["fresh", "stack"]


def corpus_net(name: str) -> PetriNet:
    from repro.io.formats import load_stg

    return load_stg(str(CORPUS / name)).net


def corpus_silent(net: PetriNet) -> frozenset[str]:
    """A deterministic half/half visibility split: every other action
    (in sorted order) is hidden, so the selector has something to
    reduce while the language stays non-trivial."""
    return frozenset(sorted(a for a in net.actions if a != EPSILON)[::2]) | {
        EPSILON
    }


@pytest.mark.parametrize("proviso", PROVISOS)
@pytest.mark.parametrize("name", CORPUS_FAMILIES)
def test_corpus_family_deadlock_sets_agree(name, proviso):
    """Deadlock-set parity on the corpus families: the reduced space
    reaches exactly the deadlock markings of the full graph."""
    net = corpus_net(name)
    full = ReachabilityGraph(net)
    space = LazyStateSpace(
        net, reduction=True, visible_actions=(), proviso=proviso
    )
    reduced = {
        marking
        for marking in space.iter_bfs()
        if not space.successors(marking)
    }
    assert reduced == set(full.deadlocks())
    assert space.num_explored() <= full.num_states()


@pytest.mark.parametrize("proviso", PROVISOS)
@pytest.mark.parametrize("name", CORPUS_FAMILIES)
def test_corpus_family_visible_language_preserved(name, proviso):
    """Visible-language parity on the corpus families, via the LTS
    replay against the reference DFA."""
    net = corpus_net(name)
    silent = corpus_silent(net)
    space = LazyStateSpace(
        net,
        reduction=True,
        visible_actions=frozenset(net.actions) - silent,
        proviso=proviso,
    )
    space.explore_all()
    lts = reduced_space_as_lts(space)
    assert reference_verdict(lts, net, silent)


@pytest.mark.parametrize(
    "name1, name2",
    [
        ("channel_bank_1.net", "channel_bank_1.net"),
        ("channel_bank_1.net", "channel_bank_2.net"),
        ("pipeline_2.net", "pipeline_3.net"),
        ("channel_bank_2.net", "pipeline_2.net"),
    ],
)
def test_corpus_family_language_verdicts_agree(name1, name2):
    """Verdict parity on corpus family pairs: whatever the reference
    DFAs answer, the lazy, reduced and symbolic engines must echo."""
    net1, net2 = corpus_net(name1), corpus_net(name2)
    silent = corpus_silent(net1) | corpus_silent(net2)
    reference = reference_verdict(net1, net2, silent)
    verdicts = {
        engine: languages_equal(net1, net2, silent=silent, engine=engine)
        for engine in ("onthefly", "por", "symbolic")
    }
    for engine, verdict in verdicts.items():
        assert verdict == reference, (engine, verdicts)
    assert reference is (name1 == name2)


def test_corpus_channel_bank_strictly_reduces_under_stack_proviso():
    """The fix, witnessed on the corpus fixture itself: bank(2) shrinks
    from the 16-state torus to 7 states under the stack proviso, while
    the fresh proviso still recovers the full space."""
    net = corpus_net("channel_bank_2.net")
    by_proviso = {}
    for proviso in PROVISOS:
        space = LazyStateSpace(
            net, reduction=True, visible_actions=(), proviso=proviso
        )
        space.explore_all()
        by_proviso[proviso] = space.stats.states
    assert by_proviso["fresh"] == 16  # the historic blind spot
    assert by_proviso["stack"] == 7  # 3 * 2**(n-1) + 1 for n = 2
