"""Property-based agreement between the on-the-fly engine and the
independent references on random (non-safe) nets.

The references: the :class:`ReachabilityGraph` (the core exhausted in
one pass, itself pinned to ``tests/oracle.py`` by ``test_compiled.py``)
for state spaces, the minimal DFAs of
:func:`repro.verify.language.dfa_of_net` for languages, partition
refinement over the full graphs for bisimilarity, and the brute-force
Proposition 5.5 scan of ``tests/oracle.py`` for receptiveness.  Every
property asserts that both paths compute the same answer — state counts, language verdicts,
counterexamples, bisimilarity and receptiveness witnesses — on
hypothesis-generated nets whose initial markings are *not* restricted
to be safe.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.petri.net import EPSILON
from repro.petri.product import LazyStateSpace, compare_languages
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError
from repro.petri.simulation import TokenGame
from repro.stg.stg import Stg
from repro.verify.equivalence import (
    _Lts,
    _partition_refinement,
    _weak_moves,
    strongly_bisimilar,
    weakly_bisimilar,
)
from repro.verify.language import (
    dfa_contained,
    dfa_equal,
    dfa_of_net,
    distinguishing_trace,
    language_contained,
    languages_equal,
)
from repro.verify.receptiveness import check_receptiveness

from tests.oracle import Oracle
from tests.strategies import bounded_multi_token_nets, bounded_nets, petri_nets

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

SIGNAL_ACTIONS = ["a+", "a-", "b+", "b-"]


@THOROUGH
@given(net=bounded_multi_token_nets())
def test_state_spaces_agree_on_multi_token_nets(net):
    """Same reachable markings, same state count, same edge count."""
    eager = ReachabilityGraph(net)
    lazy = LazyStateSpace(net)
    assert lazy.explore_all() == eager.num_states()
    assert lazy.stats.edges == eager.num_edges()
    assert set(lazy.iter_bfs()) == eager.states


@THOROUGH
@given(net=bounded_multi_token_nets())
def test_walk_matches_iter_raw_on_multi_token_nets(net):
    """The memo-free walk discovers the states of the memoised BFS, in
    the same order, with the same counters (states, edges, frontier
    peak, ...), and names each state's discovery-parent transition."""
    memo = LazyStateSpace(net)
    walked = LazyStateSpace(net)
    pairs = list(walked.walk())
    assert [state for _, state in pairs] == list(memo.iter_raw())
    assert walked.stats == memo.stats
    tids = walked.compiled_net.tids
    assert pairs[0][0] == -1
    for dense, state in pairs[1:]:
        assert walked.trace_to(state)[-1][0] == tids[dense]


@RELAXED
@given(net=bounded_multi_token_nets(), data=st.data())
def test_traces_replay_to_their_state(net, data):
    """Every discovery trace is firable and lands on the right marking."""
    lazy = LazyStateSpace(net)
    states = list(lazy.iter_bfs())
    target = data.draw(st.sampled_from(states), label="target state")
    game = TokenGame(net)
    for tid, action in lazy.trace_to(target):
        assert net.transitions[tid].action == action
        game.fire_tid(tid)
    assert game.marking == target


@RELAXED
@given(net=petri_nets())
def test_unboundedness_verdicts_agree(net):
    """Both engines raise (or don't) on the same possibly-unbounded net."""
    budget = 500
    try:
        ReachabilityGraph(net, max_states=budget)
        eager_outcome = None
    except UnboundedNetError as error:
        eager_outcome = (error.witness, error.bound)
    try:
        LazyStateSpace(net, max_states=budget).explore_all()
        lazy_outcome = None
    except UnboundedNetError as error:
        lazy_outcome = (error.witness, error.bound)
    assert eager_outcome == lazy_outcome


@THOROUGH
@given(net1=bounded_nets(), net2=bounded_nets())
def test_language_verdicts_agree(net1, net2):
    """Equality, both containments and the distinguishing trace agree
    between the minimal DFAs and the lazy pair walk."""
    universe = (net1.actions | net2.actions) - {EPSILON}
    d1 = dfa_of_net(net1, silent={EPSILON}, alphabet=universe)
    d2 = dfa_of_net(net2, silent={EPSILON}, alphabet=universe)
    equal = dfa_equal(d1, d2)
    assert languages_equal(net1, net2) == equal
    assert language_contained(net1, net2) == dfa_contained(d1, d2)
    assert language_contained(net2, net1) == dfa_contained(d2, d1)
    trace = distinguishing_trace(net1, net2)
    assert (trace is None) == equal
    if trace is not None:
        # The counterexample must separate the two weak languages.
        assert d1.accepts(trace) != d2.accepts(trace)


@RELAXED
@given(net1=bounded_nets(), net2=bounded_nets())
def test_strong_language_comparison_agrees_with_strict_dfa(net1, net2):
    """With no silent labels the lazy walk must match the minimal DFAs
    on the *strong* (epsilon-visible) language."""
    universe = net1.actions | net2.actions
    d1 = dfa_of_net(net1, silent=set(), alphabet=universe)
    d2 = dfa_of_net(net2, silent=set(), alphabet=universe)
    result = compare_languages(net1, net2, silent=())
    assert result.verdict == dfa_equal(d1, d2)
    if result.counterexample is not None:
        assert d1.accepts(result.counterexample) != d2.accepts(
            result.counterexample
        )


@RELAXED
@given(net1=bounded_nets(), net2=bounded_nets())
def test_bisimulation_verdicts_agree(net1, net2):
    """The checks' on-the-fly shortcuts answer as partition refinement
    over the full graphs does."""
    lts1, lts2 = _Lts(net1, 100_000), _Lts(net2, 100_000)
    strong = _partition_refinement(
        lts1, lts2, lts1.successors, lts2.successors
    )
    silent = {EPSILON}
    weak = _partition_refinement(
        lts1, lts2, _weak_moves(lts1, silent), _weak_moves(lts2, silent)
    )
    assert strongly_bisimilar(net1, net2) == strong
    assert weakly_bisimilar(net1, net2) == weak


@RELAXED
@given(
    net1=bounded_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS, max_states=400
    ),
    net2=bounded_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS, max_states=400
    ),
)
def test_receptiveness_verdicts_agree(net1, net2):
    """The on-the-fly search fails exactly the obligations the
    brute-force scan fails, each at the first failing marking in
    breadth-first discovery order."""
    producer = Stg(net1, outputs={"a", "b"})
    consumer = Stg(net2, inputs={"a", "b"})
    lazy = check_receptiveness(
        producer, consumer, method="reachability", max_states=20_000
    )
    oracle = Oracle(lazy.composite.net, limit=20_000)
    assert oracle.complete
    expected = dict(oracle.first_failures(lazy.obligations))
    assert lazy.is_receptive() == (not expected)
    assert {f.obligation: f.marking for f in lazy.failures} == expected
    # On-the-fly failures always carry a replayable shortest trace.
    composite = lazy.composite
    assert_replayable(composite.net, lazy.failures)
    # stop_at_first keeps exactly the first witness the full scan finds:
    # the earliest failing marking in discovery order, and at that
    # marking the first failing obligation.
    first = check_receptiveness(
        producer,
        consumer,
        method="reachability",
        max_states=20_000,
        stop_at_first=True,
    )
    order = {marking: index for index, marking in enumerate(oracle.rows)}
    position = {o: index for index, o in enumerate(lazy.obligations)}
    earliest = sorted(
        expected.items(), key=lambda item: (order[item[1]], position[item[0]])
    )[:1]
    assert [(f.obligation, f.marking) for f in first.failures] == earliest
    assert first.states_explored <= lazy.states_explored
    # por fails the same obligations, at markings of the reduced space
    # that its traces reach and that fail the obligation.
    reduced = check_receptiveness(
        producer, consumer, method="reachability", max_states=20_000, engine="por"
    )
    assert {f.obligation for f in reduced.failures} == set(expected)
    assert_replayable(composite.net, reduced.failures)
    for failure in reduced.failures:
        marking = failure.marking
        obligation = failure.obligation
        assert all(marking[p] for p in obligation.producer_preset)
        assert not any(
            all(marking[p] for p in preset)
            for preset in obligation.consumer_presets
        )


def assert_replayable(net, failures):
    """Every failure's trace fires from the initial marking to its
    marking."""
    for failure in failures:
        assert failure.trace is not None and failure.tids is not None
        game = TokenGame(net)
        for tid in failure.tids:
            game.fire_tid(tid)
        assert game.marking == failure.marking
