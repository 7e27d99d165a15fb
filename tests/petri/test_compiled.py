"""The compiled exploration core: lowering correctness and agreement
with the naive reference search.

Every engine explores through the packed core of
:mod:`repro.petri.compiled`; it must be *observationally identical* to
a plain breadth-first search over markings (``tests/oracle.py``) — same
states, same discovery order, same edge lists, same deadlocks, and a
genuine covering witness whenever it declares a net unbounded.  This
module pins that contract:

* unit tests of the lowering itself (indices, codecs, encode/decode,
  deficit counters);
* hypothesis properties comparing the oracle against the core on random
  nets (enabledness, firing walks, hashing/equality, the eager graph,
  the exhausted lazy space, unboundedness witnesses, POR reduction).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.store import activated
from repro.models.library import four_phase_master
from repro.petri import compiled
from repro.petri.compiled import (
    CompiledNet,
    PackedMarkingView,
    checked_token_bound,
    compile_net,
    search_weights,
)
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.product import LazyStateSpace
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError

from tests.oracle import Oracle
from tests.strategies import petri_nets, bounded_nets, bounded_multi_token_nets

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

#: The oracle suite proper: every exhaustive view of the core against
#: the reference search.
ORACLE = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

BOUNDED = st.one_of(bounded_nets(), bounded_multi_token_nets())


def demo_net() -> PetriNet:
    """A small conservative net with a conflict and a join."""
    net = PetriNet("demo")
    net.add_transition({"p0"}, "a", {"p1"}, tid=0)
    net.add_transition({"p0"}, "b", {"p2"}, tid=1)
    net.add_transition({"p1", "p3"}, "c", {"p0", "p3"}, tid=2)
    net.set_initial(Marking({"p0": 1, "p3": 1}))
    return net


class TestLowering:
    def test_dense_indices_cover_sorted_places(self):
        cnet = demo_net().compiled()
        assert cnet.place_names == tuple(sorted(demo_net().places))
        assert [cnet.place_index[p] for p in cnet.place_names] == list(
            range(cnet.num_places)
        )

    def test_transitions_in_tid_order(self):
        cnet = demo_net().compiled()
        assert cnet.tids == (0, 1, 2)
        assert cnet.actions == ("a", "b", "c")

    def test_index_tuples_match_transition_sets(self):
        net = demo_net()
        cnet = net.compiled()
        for dense, transition in enumerate(cnet.transitions):
            assert cnet.pre[dense] == tuple(
                sorted(cnet.place_index[p] for p in transition.preset)
            )
            assert cnet.consume[dense] == tuple(
                sorted(cnet.place_index[p] for p in transition.consume)
            )
            assert cnet.produce[dense] == tuple(
                sorted(cnet.place_index[p] for p in transition.produce)
            )

    def test_consumer_adjacency(self):
        cnet = demo_net().compiled()
        by_place = {
            place: tuple(
                dense
                for dense, t in enumerate(cnet.transitions)
                if place in t.preset
            )
            for place in cnet.place_names
        }
        for i, place in enumerate(cnet.place_names):
            assert cnet.consumers[i] == by_place[place]

    def test_compile_cached_and_invalidated(self):
        net = demo_net()
        first = net.compiled()
        assert net.compiled() is first
        net.add_transition({"p2"}, "d", {"p0"})
        second = net.compiled()
        assert second is not first
        assert second.num_transitions == first.num_transitions + 1


class TestCodecs:
    def test_conservative_net_gets_bits_codec(self):
        cnet = demo_net().compiled()
        assert cnet.codec == "bits"
        assert cnet.token_bound == 2
        assert cnet.bounded_certified
        # Bound 2: two count bits plus the guard bit per place.
        assert cnet.field_bits == 3
        assert isinstance(cnet.initial_state, int)
        # One token on p0 (field 0) and one on p3 (field 3).
        assert cnet.initial_state == 1 | 1 << 9

    def test_small_nonconservative_net_gets_wide_codec(self):
        net = PetriNet("fork")
        net.add_transition({"p0"}, "a", {"p1", "p2"}, tid=0)
        net.set_initial(Marking({"p0": 1}))
        cnet = net.compiled()
        assert cnet.codec == "wide"
        assert not cnet.bounded_certified
        assert isinstance(cnet.initial_state, tuple)

    def test_invariant_certificate_on_composite_fork_join(self):
        """The Fig 5/7 composite is not token-conservative (rendez-vous
        fusion forks), but the LP invariant certifies a bound and the
        bits codec applies."""
        from repro.models.protocol_translator import sender, translator
        from repro.verify.receptiveness import compose_with_obligations

        composite, _ = compose_with_obligations(sender(), translator())
        assert any(
            len(t.produce) > len(t.consume)
            for t in composite.net.transitions.values()
        )
        cnet = composite.net.compiled()
        assert cnet.codec == "bits"
        assert cnet.bounded_certified
        assert cnet.field_bits == cnet.token_bound.bit_length() + 1
        assert isinstance(cnet.initial_state, int)

    def test_encode_decode_roundtrip(self):
        net = demo_net()
        cnet = net.compiled()
        marking = Marking({"p1": 1, "p3": 1})
        assert cnet.decode(cnet.encode(marking)) == marking

    def test_encode_rejects_unknown_place(self):
        cnet = demo_net().compiled()
        with pytest.raises(KeyError):
            cnet.encode(Marking({"nowhere": 1}))

    def test_bits_encode_rejects_overflow(self):
        cnet = demo_net().compiled()
        assert cnet.codec == "bits"
        at_bound = Marking({"p0": 2})
        assert cnet.decode(cnet.encode(at_bound)) == at_bound
        with pytest.raises(ValueError):
            cnet.encode(Marking({"p0": 3}))

    def test_wide_codec_has_no_count_limit(self):
        net = PetriNet("fork")
        net.add_transition({"p0"}, "a", {"p1", "p2"}, tid=0)
        net.set_initial(Marking({"p0": 1}))
        cnet = net.compiled()
        big = Marking({"p0": 100_000})
        assert cnet.decode(cnet.encode(big)) == big


def fig5_fig7_composite() -> PetriNet:
    """The Fig 5/7 composite: 139 places and not token-conservative, so
    only a weighted certificate gives it the ``bits`` codec."""
    from repro.models.protocol_translator import sender, translator
    from repro.stg.stg import compose

    return compose(sender(), translator()).net


def certified(net: PetriNet) -> tuple[str, CompiledNet]:
    """Compile ``net`` and return the ``certificate`` meta of its
    ``compile.net`` span with the compiled net."""
    from repro.obs import metrics as obs

    with obs.record() as recorder:
        cnet = compile_net(net)
    (span,) = [
        s for s in recorder.to_dict()["spans"] if s["name"] == "compile.net"
    ]
    return span["meta"]["certificate"], cnet


def forge(net: PetriNet, weights: dict, forgery: str) -> dict:
    """A copy of a valid weighting broken in one way."""
    weights = dict(weights)
    if forgery == "violated":
        grows = next(t for t in net.sorted_transitions() if t.produce)
        slack = sum(weights[p] for p in grows.consume) - sum(
            weights[p] for p in grows.produce
        )
        place = min(grows.produce)
        weights[place] += slack + 1
    elif forgery == "missing":
        del weights[min(net.places)]
    elif forgery == "zero":
        weights[min(net.places)] = 0
    elif forgery == "fractional":
        weights[min(net.places)] += 0.5
    return weights


class TestBoundCertificate:
    """``compile_net`` certifies the token bound by conservation, then by
    the net's proposed weighting, then by the weighting search; a
    proposal counts only once it passes the exact integer check."""

    def test_conservation_records_unit_weights(self):
        net = demo_net()
        assert certified(net)[0] == "conservation"
        assert net.bound_weights == dict.fromkeys(net.places, 1)

    def test_certified_weighting_is_inherited(self):
        """A composite inherits the union of its operands' weightings; a
        net without a proposal is searched, and a copy inherits what
        the search certified."""
        assert certified(fig5_fig7_composite())[0] == "inherited"
        net = fig5_fig7_composite()
        net.bound_weights = None
        kind, cnet = certified(net)
        assert kind == "search"
        assert checked_token_bound(net, net.bound_weights) == cnet.token_bound
        kind, again = certified(net.copy())
        assert kind == "inherited"
        assert (again.codec, again.token_bound) == ("bits", cnet.token_bound)

    def test_proposal_is_not_part_of_the_identity(self):
        """A composite carries a proposal before it is compiled; two
        nets that differ only in their proposals are the same net."""
        net, other = fig5_fig7_composite(), fig5_fig7_composite()
        other.bound_weights = None
        net.compiled()
        assert net.bound_weights is not None and other.bound_weights is None
        assert net.content_hash() == other.content_hash()
        assert net.structurally_equal(other)

    @pytest.mark.parametrize(
        "forgery", ["violated", "missing", "zero", "fractional"]
    )
    def test_forged_proposal_falls_back_to_the_lp(self, forgery):
        """A forged proposal falls back to the weighting search (which
        replaced the LP) and ends with the search's certificate."""
        reference = fig5_fig7_composite()
        reference.bound_weights = None
        kind, expected = certified(reference)
        assert kind == "search"
        net = fig5_fig7_composite()
        net.bound_weights = forge(net, reference.bound_weights, forgery)
        assert checked_token_bound(net, net.bound_weights) is None
        kind, cnet = certified(net)
        assert kind == "search"
        assert (cnet.codec, cnet.token_bound) == (
            expected.codec,
            expected.token_bound,
        )
        assert net.bound_weights == reference.bound_weights

    def test_renamed_operands_keep_their_weightings(self, monkeypatch):
        """Composing two compiled modules whose place names collide
        renames their places; the weightings follow the renaming, so
        the composite inherits their union and nothing is searched."""
        from repro.algebra.compose import parallel
        from repro.models.protocol_translator import inconsistent_sender, sender

        left, right = sender().net, inconsistent_sender().net
        assert left.places & right.places
        for module in (left, right):
            assert certified(module)[0] == "search"

        def no_search(net):
            raise AssertionError(f"searched {net.name!r}")

        monkeypatch.setattr(compiled, "search_weights", no_search)
        composite = parallel(left, right)
        assert not composite.places & (left.places | right.places)
        kind, cnet = certified(composite)
        assert (kind, cnet.codec) == ("inherited", "bits")

    def test_unbounded_net_gets_no_weighting(self, tmp_path, capsys):
        """A ring of 16 places whose last transition also feeds a sink:
        not conservative and unbounded, so the search runs into its
        raise cap, the net compiles ``wide`` and the covering walk
        proves it unbounded."""
        from repro.cli import main
        from repro.io.formats import save_stg
        from repro.stg.stg import Stg

        net = PetriNet("leaky_ring")
        ring = [f"r{i:02d}" for i in range(16)]
        for i, place in enumerate(ring[:-1]):
            net.add_transition({place}, "a", {ring[i + 1]})
        net.add_transition({ring[-1]}, "b", {ring[0], "sink"})
        net.set_initial(Marking({ring[0]: 1}))
        assert search_weights(net) is None
        kind, cnet = certified(net)
        assert (kind, cnet.codec) == ("none", "wide")
        path = str(tmp_path / "leaky_ring.net")
        save_stg(Stg(net), path)
        capsys.readouterr()
        main(["info", path])
        out = capsys.readouterr().out
        assert "UNBOUNDED" in out and "strictly covers ancestor" in out

    def test_proposal_is_tried_only_inside_the_lp_gate(self):
        """Below 16 places no weighted certificate is attempted, so a
        valid proposal leaves the codec ``wide`` as before."""
        net = PetriNet("fork")
        net.add_transition({"p0"}, "a", {"p1", "p2"}, tid=0)
        net.set_initial(Marking({"p0": 1}))
        net.bound_weights = {"p0": 2, "p1": 1, "p2": 1}
        assert checked_token_bound(net, net.bound_weights) == 2
        kind, cnet = certified(net)
        assert (kind, cnet.codec) == ("none", "wide")


class TestPackedMarkingView:
    def test_mapping_surface(self):
        net = demo_net()
        cnet = net.compiled()
        view = PackedMarkingView(cnet, cnet.initial_state)
        assert view["p0"] == 1
        assert view["p1"] == 0
        assert view["unknown"] == 0
        assert set(view) == {"p0", "p3"}
        assert len(view) == 2
        assert dict(view.items()) == dict(net.initial.items())


class TestDeficitCounters:
    def test_initial_enabled_matches_dict_engine(self):
        """The initial enabled set agrees with the net's own firing
        rule (:meth:`PetriNet.enabled_transitions`)."""
        net = demo_net()
        cnet = net.compiled()
        expected = tuple(
            cnet.tid_index[t.tid] for t in net.enabled_transitions(net.initial)
        )
        assert cnet.initial_enabled == expected

    def test_successor_matches_full_rescan(self):
        net = demo_net()
        cnet = net.compiled()
        state = cnet.initial_state
        deficits, enabled = cnet.initial_deficits, cnet.initial_enabled
        for _ in range(20):
            if not enabled:
                break
            dense = enabled[0]
            state, deficits, enabled, _ = cnet.successor(
                state, deficits, enabled, dense
            )
            assert (deficits, enabled) == cnet.analyze_state(state)

    def test_preset_wider_than_a_byte(self):
        """A transition with more than 255 input places is one probe
        over 300 fields under the bits codec; no deficit counters."""
        net = PetriNet("wide-join")
        places = [f"p{i:03d}" for i in range(300)]
        net.add_transition(set(places), "join", {"done"})
        net.add_transition({"p000"}, "step", {"q"})
        net.set_initial(Marking({"p000": 1}))
        cnet = net.compiled()
        assert cnet.codec == "bits"
        assert cnet.field_bits == 2
        assert cnet.initial_deficits is None
        join = cnet.actions.index("join")
        assert bin(cnet.pre_masks[join]).count("1") == 300
        assert not cnet.is_enabled(join, cnet.initial_state)
        everything = cnet.encode(Marking({place: 1 for place in places}))
        assert cnet.is_enabled(join, everything)
        graph = ReachabilityGraph(net)
        assert graph.num_states() == 2
        assert graph.fired_tids() == {1}


@RELAXED
@given(net=BOUNDED)
def test_enabledness_and_firing_parity(net):
    """Walk the whole reachable space firing through both
    representations in lockstep: enabled sets, successors and the
    incremental deficit counters agree with the net's own firing rule
    at every state."""
    cnet = net.compiled()
    seen = set()
    stack = [(net.initial, cnet.encode(net.initial))]
    info = {stack[0][1]: cnet.analyze_state(stack[0][1])}
    while stack:
        marking, state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        assert cnet.decode(state) == marking
        deficits, enabled = info.pop(state)
        dict_enabled = net.enabled_transitions(marking)
        assert [cnet.tids[d] for d in enabled] == [t.tid for t in dict_enabled]
        for dense, transition in zip(enabled, dict_enabled):
            assert cnet.is_enabled(dense, state)
            child, child_deficits, child_enabled, _ = cnet.successor(
                state, deficits, enabled, dense
            )
            assert (child_deficits, child_enabled) == cnet.analyze_state(child)
            assert child == cnet.fire(state, dense)
            successor = net.fire(transition, marking, check=False)
            assert cnet.decode(child) == successor
            info.setdefault(child, (child_deficits, child_enabled))
            stack.append((successor, child))


def assert_matches_oracle(states, rows, oracle: Oracle) -> None:
    """A fully explored view of the core equals the reference search:
    the same markings in the same discovery order, the same edge list
    per marking (order included) and hence the same deadlocks."""
    assert oracle.complete
    assert list(states) == oracle.states()
    for marking in oracle.rows:
        assert list(rows(marking)) == oracle.rows[marking]
    assert [m for m in states if not rows(m)] == oracle.deadlocks()


@RELAXED
@given(net=BOUNDED)
def test_hashing_and_equality_parity(net):
    """Packed states are equal (and hash-equal) exactly when the
    markings they encode are equal — the visited-set contract."""
    cnet = net.compiled()
    packed = {marking: cnet.encode(marking) for marking in Oracle(net).rows}
    assert len(set(packed.values())) == len(packed)
    for marking, state in packed.items():
        again = cnet.encode(Marking(dict(marking)))
        assert again == state
        assert hash(again) == hash(state)
        assert cnet.decode(state) == marking
        assert hash(cnet.decode(state)) == hash(marking)


@ORACLE
@given(net=BOUNDED)
def test_eager_graph_parity(net):
    """The eager graph — the core exhausted in one breadth-first pass —
    equals the reference search."""
    graph = ReachabilityGraph(net)
    oracle = Oracle(net)
    assert_matches_oracle(graph.states, graph.successors, oracle)
    assert graph.num_edges() == sum(len(row) for row in oracle.rows.values())
    assert graph.deadlocks() == oracle.deadlocks()
    assert graph.bound() == max(
        (count for m in oracle.rows for count in m.values()), default=0
    )


@RELAXED
@given(net=petri_nets())
def test_unboundedness_witness_parity(net):
    """On arbitrary (possibly unbounded) nets the core either completes
    with the reference space, stops at the budget exactly when the
    reference does, or proves unboundedness with the first marking (in
    discovery order) that strictly covers a marking on its own replayed
    discovery path."""
    oracle = Oracle(net, limit=300)
    covering = oracle.first_covering()
    try:
        graph = ReachabilityGraph(net, max_states=300)
    except UnboundedNetError as error:
        if error.bound is None:
            assert error.witness == covering
            marking = oracle.initial
            replayed = [marking]
            for _, tid in oracle.path(error.witness):
                transition = net.transitions[tid]
                marking = net.fire(transition, marking)
                replayed.append(marking)
            assert marking == error.witness
            assert any(
                error.witness.covers(m) and error.witness != m
                for m in replayed[:-1]
            )
        else:
            assert covering is None
            assert not oracle.complete
            assert error.bound == 300
    else:
        assert covering is None
        assert_matches_oracle(graph.states, graph.successors, oracle)


@ORACLE
@given(net=BOUNDED)
def test_lazy_space_parity(net):
    """An exhausted lazy space equals the reference search — discovery
    sequence, successor edges — and its discovery traces are the
    reference's breadth-first paths."""
    space = LazyStateSpace(net)
    oracle = Oracle(net)
    sequence = list(space.iter_bfs())
    assert_matches_oracle(sequence, space.successors, oracle)
    for marking in sequence:
        assert [tid for tid, _ in space.trace_to(marking)] == [
            tid for _, tid in oracle.path(marking)
        ]
    assert space.num_explored() == len(oracle.rows)
    assert space.stats.edges == sum(len(row) for row in oracle.rows.values())


@RELAXED
@given(net=BOUNDED)
def test_por_reduction_parity(net):
    """The reduced space is a subgraph of the reference graph with
    exactly its deadlocks, under both provisos."""
    oracle = Oracle(net)
    for proviso in ("fresh", "stack"):
        space = LazyStateSpace(net, reduction=True, proviso=proviso)
        states = list(space.iter_bfs())
        assert set(states) <= set(oracle.rows)
        for marking in states:
            assert set(space.successors(marking)) <= set(oracle.rows[marking])
        assert {m for m in states if not space.successors(m)} == set(
            oracle.deadlocks()
        )
        assert space.stats.reduced_states <= len(states) <= len(oracle.rows)


class TestObsMetrics:
    def test_compile_emits_span_and_gauges(self):
        from repro.obs import metrics as obs

        net = demo_net()
        with obs.record() as recorder:
            compile_net(net)
        payload = recorder.to_dict()
        spans = [s for s in payload["spans"] if s["name"] == "compile.net"]
        assert len(spans) == 1
        assert spans[0]["meta"]["codec"] == "bits"
        assert spans[0]["meta"]["field_bits"] == 3
        assert payload["counters"]["compile.nets"] == 1
        # Four places of three bits each: ceil(12 / 8) bytes.
        assert payload["gauges"]["compile.encode_width_bytes"] == 2


class TestMutationInvalidation:
    """Satellite pin: ``PetriNet.compiled()`` memoizes per object and
    every mutating method drops the memo, so no engine can ever observe
    stale indices — with or without an artifact store active."""

    def test_identity_memo(self):
        net = four_phase_master().net
        assert net.compiled() is net.compiled()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda net: net.add_transition(["p_new"], "act", ["q_new"]),
            lambda net: net.remove_transition(sorted(net.transitions)[0]),
            lambda net: net.add_place("p_extra", tokens=2),
            lambda net: net.add_place("p_plain"),
            lambda net: net.set_initial(dict(net.initial.items())),
        ],
        ids=[
            "add_transition",
            "remove_transition",
            "add_place_tokens",
            "add_place",
            "set_initial",
        ],
    )
    def test_mutations_invalidate(self, mutate):
        net = four_phase_master().net
        before = net.compiled()
        mutate(net)
        after = net.compiled()
        assert after is not before
        # The fresh lowering reflects the mutated net exactly.
        assert after.place_names == tuple(sorted(net.places))
        assert list(after.tids) == sorted(net.transitions)

    def test_remove_place_invalidates(self):
        net = four_phase_master().net
        net.add_place("floating")
        before = net.compiled()
        net.remove_place("floating")
        after = net.compiled()
        assert after is not before
        assert "floating" not in after.place_names

    def test_stale_indices_never_served_with_store(self, tmp_path):
        """The cross product of both caches: object-level mutation must
        force a re-lookup, and the re-lookup must key on the *new*
        content (a fresh artifact, not the stale one)."""
        with activated(tmp_path):
            net = four_phase_master().net
            before = net.compiled()
            added = net.add_transition(
                [sorted(net.places)[0]], "fresh!", ["p_new"]
            )
            after = net.compiled()
            assert added.tid in after.tids
            assert added.tid not in before.tids
            assert "p_new" in after.place_names
