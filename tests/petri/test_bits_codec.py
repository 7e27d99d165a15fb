"""The ``bits`` codec of the compiled core against the reference search.

Every net whose token bound compilation certifies is explored with one
int per marking: ``field_bits = bound.bit_length() + 1`` bits per place,
the top bit of each field a guard bit no reachable count may set.  This
module checks the codec on random certified nets (round trips up to the
bound, the incremental enabled set, the guard bits), the index-based
reachability graph's queries against ``tests/oracle.py`` on nets whose
counts exceed 1, and that :func:`~repro.petri.analysis.analyze` never
decodes a marking.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.io.formats import load_stg
from repro.petri.analysis import analyze
from repro.petri.compiled import CompiledNet
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import ReachabilityGraph

from tests.conftest import CORPUS_DIR
from tests.oracle import Oracle
from tests.strategies import bounded_multi_token_nets, bounded_nets

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

PLACES = [f"p{i}" for i in range(6)]


@st.composite
def certified_nets(draw) -> PetriNet:
    """A random token-conservative net (no transition produces more
    tokens than it consumes), so compilation certifies its bound by
    the initial total and picks the ``bits`` codec."""
    places = PLACES[: draw(st.integers(2, len(PLACES)))]
    net = PetriNet("certified")
    for place in places:
        net.add_place(place)
    for _ in range(draw(st.integers(1, 6))):
        preset = draw(st.sets(st.sampled_from(places), min_size=1, max_size=3))
        postset = draw(
            st.sets(st.sampled_from(places), min_size=0, max_size=len(preset))
        )
        net.add_transition(preset, draw(st.sampled_from("abc")), postset)
    counts = draw(
        st.dictionaries(st.sampled_from(places), st.integers(1, 4), max_size=3)
    )
    net.set_initial(Marking(counts))
    return net


def guard_bits(cnet: CompiledNet) -> int:
    """The guard bit of every field, derived from the field width alone."""
    w = cnet.field_bits
    return sum(1 << (i * w + w - 1) for i in range(cnet.num_places))


def markings_up_to(net: PetriNet, bound: int):
    """Markings of ``net`` with every count at most ``bound``."""
    return st.dictionaries(
        st.sampled_from(sorted(net.places)), st.integers(1, max(bound, 1))
    ).map(lambda counts: Marking(counts if bound else {}))


@PROPERTY
@given(net=certified_nets(), data=st.data())
def test_roundtrip_up_to_the_bound(net, data):
    """Every marking up to the certified bound survives encode/decode,
    sets no guard bit, and reads back place by place; covering on
    packed states agrees with covering on markings."""
    cnet = net.compiled()
    assert cnet.codec == "bits"
    assert cnet.field_bits == cnet.token_bound.bit_length() + 1
    marking = data.draw(markings_up_to(net, cnet.token_bound))
    state = cnet.encode(marking)
    assert cnet.decode(state) == marking
    assert state & guard_bits(cnet) == 0
    for i, place in enumerate(cnet.place_names):
        assert cnet.count(state, i) == marking[place]
    other = data.draw(markings_up_to(net, cnet.token_bound))
    assert cnet.covers(state, cnet.encode(other)) == (
        marking != other and marking.covers(other)
    )


@PROPERTY
@given(net=certified_nets())
def test_incremental_enabled_set_and_guard_bits(net):
    """Walk the whole reachable space through the incremental
    successor: after every firing the enabled set equals a full probe
    scan and the net's own firing rule, the child equals the reference
    successor, and no state ever sets a guard bit."""
    cnet = net.compiled()
    assert cnet.codec == "bits"
    guards = guard_bits(cnet)
    start = cnet.initial_state
    enabled_of = {start: cnet.initial_enabled}
    queue = [start]
    while queue:
        state = queue.pop()
        marking = cnet.decode(state)
        assert state & guards == 0
        enabled = enabled_of[state]
        assert enabled == cnet.analyze_state(state)[1]
        assert [cnet.tids[d] for d in enabled] == [
            t.tid for t in net.enabled_transitions(marking)
        ]
        for dense in enabled:
            child, deficits, child_enabled, _ = cnet.successor(
                state, None, enabled, dense
            )
            assert deficits is None
            assert child_enabled == cnet.analyze_state(child)[1]
            transition = net.transitions[cnet.tids[dense]]
            assert cnet.decode(child) == net.fire(transition, marking)
            if child not in enabled_of:
                enabled_of[child] = child_enabled
                queue.append(child)
    assert len(enabled_of) == len(Oracle(net).rows)


def corpus_net(name: str) -> PetriNet:
    return load_stg(str(CORPUS_DIR / name)).net


def cycle_at_bound(tokens: int) -> PetriNet:
    """Two places passing ``tokens`` tokens back and forth: every count
    up to the certified bound is reached, the top one in a single
    place."""
    net = PetriNet(f"cycle-{tokens}")
    net.add_transition({"a"}, "go", {"b"})
    net.add_transition({"b"}, "back", {"a"})
    net.set_initial(Marking({"a": tokens}))
    return net


def live_but_irreversible() -> PetriNet:
    """Live, yet the initial marking (two tokens on ``c``) is never
    reached again: the graph has a transient strongly connected
    component that does not fire every transition, so liveness must be
    judged on the terminal components only."""
    net = PetriNet("live-transient")
    net.add_transition({"c", "d"}, "t0", {"a", "d"})
    net.add_transition({"a", "b"}, "t1", {"b", "c"})
    net.add_transition({"a", "d"}, "t2", {"b", "c"})
    net.add_transition({"b", "c"}, "t3", {"a", "d"})
    net.set_initial(Marking({"c": 2, "d": 1}))
    return net


MULTI_TOKEN_NETS = [
    pytest.param(lambda: corpus_net("mcc_counter_3.net"), id="mcc_counter_3"),
    pytest.param(
        lambda: corpus_net("mcc_isolated_places.pnml"), id="mcc_isolated_places"
    ),
    pytest.param(live_but_irreversible, id="live_but_irreversible"),
    *(
        pytest.param(lambda n=n: cycle_at_bound(n), id=f"cycle_at_bound_{n}")
        for n in (2, 3, 4, 7, 8)
    ),
]


def assert_queries_match(net: PetriNet, oracle: Oracle) -> None:
    graph = ReachabilityGraph(net)
    assert graph.bound() == oracle.bound()
    assert graph.is_safe() == (oracle.bound() <= 1)
    assert graph.is_live() == oracle.is_live(net.transitions)
    assert graph.is_reversible() == oracle.is_reversible()
    assert graph.deadlocks() == oracle.deadlocks()
    assert list(graph.states) == oracle.states()


@pytest.mark.parametrize("build", MULTI_TOKEN_NETS)
def test_graph_queries_match_oracle(build):
    net = build()
    assert net.compiled().codec == "bits"
    oracle = Oracle(net)
    assert oracle.complete
    assert oracle.bound() > 1
    assert_queries_match(net, oracle)


@PROPERTY
@given(net=st.one_of(bounded_nets(), bounded_multi_token_nets()))
def test_graph_queries_match_oracle_on_random_nets(net):
    """The same queries on random bounded nets, under either codec."""
    oracle = Oracle(net)
    assume(len(oracle.rows) <= 200)
    assert_queries_match(net, oracle)


@pytest.mark.parametrize("tokens", [2, 3, 4, 7, 8])
def test_cycle_reaches_its_certified_bound(tokens):
    net = cycle_at_bound(tokens)
    assert net.compiled().token_bound == tokens == ReachabilityGraph(net).bound()


def test_analyze_decodes_no_marking(monkeypatch):
    from repro.models.protocol_translator import build_cip

    net = build_cip().compose_all().net
    assert net.compiled().codec == "bits"
    calls = []
    decode = CompiledNet.decode

    def counting(self, state):
        calls.append(state)
        return decode(self, state)

    monkeypatch.setattr(CompiledNet, "decode", counting)
    properties = analyze(net)
    assert properties.states > 1000
    assert calls == []
