"""The token-bound certificate through the algebra (``docs/ALGEBRA.md`` §6).

A place weighting ``w >= 1`` under which no transition increases the
weighted total certifies ``floor(w . M0 / min w)`` as a bound on every
reachable place count.  Each operator derives the weighting of the net
it builds from its operands', so compilation can check the derived one
instead of searching again.  On random nets that carry a checked
weighting, these properties check that the derived weighting passes the
same exact check — for the contraction, unless a successor of the
hidden transition consumes from both its preset and its postset — and
that no reachable count exceeds the bound it certifies.  On any random
net, the weighting search stays within its raise cap and proposes
nothing or a weighting that passes the check.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.compose import parallel
from repro.algebra.dead import merge_duplicate_places, trim
from repro.algebra.hide import _collapsible, hide_transition
from repro.petri import compiled
from repro.petri.compiled import checked_token_bound, search_weights
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import ReachabilityGraph
from repro.stg.stg import Stg
from repro.verify.receptiveness import compose_with_obligations

from tests.strategies import petri_nets

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PLACES = [f"p{i}" for i in range(6)]


@st.composite
def weighted_nets(draw, collapse: bool = False) -> PetriNet:
    """A random net with a proposed weighting that passes the exact
    check: the weights are drawn first, and each transition's postset
    takes drawn places only while their weight fits in what its preset
    consumes.

    Transition 0 is the one to hide.  By default it is ``(P, h, Q)`` for
    disjoint drawn ``P`` and ``Q``, with one weight of ``P`` raised so
    that it fits.  With ``collapse`` it is ``({s}, h, {g})`` for a fresh
    place ``s`` that no other transition consumes from or produces into
    together with ``g``, so the Section 4.4 collapse applies to it."""
    places = PLACES[: draw(st.integers(2, len(PLACES)))]
    weights = {place: draw(st.sampled_from((1, 2, 4))) for place in places}
    net = PetriNet("weighted")
    for place in places:
        net.add_place(place)
    targets = list(places)
    if collapse:
        target = draw(st.sampled_from(places))
        weights["s"] = draw(st.integers(weights[target], 4))
        net.add_transition({"s"}, "h", {target})
        targets.append("s")
    else:
        preset = draw(
            st.sets(st.sampled_from(places), min_size=1, max_size=len(places) - 1)
        )
        postset = draw(
            st.sets(
                st.sampled_from([p for p in places if p not in preset]),
                min_size=1,
                max_size=3,
            )
        )
        first, *rest = sorted(preset)
        weights[first] = max(
            weights[first],
            sum(weights[q] for q in postset) - sum(weights[p] for p in rest),
        )
        net.add_transition(preset, "h", postset)
    for _ in range(draw(st.integers(1, 6))):
        preset = draw(st.sets(st.sampled_from(places), min_size=1, max_size=2))
        budget = sum(weights[p] for p in preset)
        postset = set()
        for place in draw(st.lists(st.sampled_from(targets), max_size=3, unique=True)):
            if weights[place] <= budget:
                postset.add(place)
                budget -= weights[place]
        if collapse and {"s", target} <= postset:
            postset.discard("s")
        net.add_transition(preset, draw(st.sampled_from("abc")), postset)
    counts = draw(
        st.dictionaries(st.sampled_from(targets), st.just(1), min_size=1, max_size=2)
    )
    net.set_initial(Marking(counts))
    net.bound_weights = weights
    assert checked_token_bound(net, weights) is not None
    return net


def reads_both_sides(net: PetriNet, tid: int) -> bool:
    """The documented exception: a successor of ``tid`` that also
    consumes from its preset."""
    hidden = net.transitions[tid]
    return any(
        t.tid != tid and t.preset & hidden.preset and t.preset & hidden.postset
        for t in net.transitions.values()
    )


def assert_certifies(net: PetriNet) -> int:
    """The net's proposal passes the exact check, and its bound holds
    on the reachable markings."""
    bound = checked_token_bound(net, net.bound_weights)
    assert bound is not None
    assert ReachabilityGraph(net).bound() <= bound
    return bound


@PROPERTY
@given(net=weighted_nets(collapse=True))
def test_collapse_keeps_the_weighting(net):
    """The Section 4.4 collapse keeps the weights of every place but the
    merged one, and never loosens the bound."""
    assert _collapsible(net, net.transitions[0])
    child = hide_transition(net, 0)
    assert "s" not in child.places
    assert assert_certifies(child) <= checked_token_bound(net, net.bound_weights)


@PROPERTY
@given(net=weighted_nets())
def test_contraction_keeps_the_weighting(net):
    """Product places weigh as their hidden input place, every other
    place ``|Q|`` times its weight: the derived weighting passes unless
    a successor reads both sides of the hidden transition, and whatever
    it certifies holds."""
    child = hide_transition(net, 0, fast_path=False)
    bound = checked_token_bound(child, child.bound_weights)
    if not reads_both_sides(net, 0):
        assert bound is not None
    if bound is not None:
        assert ReachabilityGraph(child).bound() <= bound


@PROPERTY
@given(net=weighted_nets(), contract=st.booleans())
def test_trim_keeps_the_weighting(net, contract):
    """Dropping sink places, merging duplicates (which contraction
    mass-produces), removing dead transitions and isolated places all
    keep a checked weighting, and none loosens the bound."""
    if contract and not reads_both_sides(net, 0):
        net = hide_transition(net, 0, fast_path=False)
    bound = assert_certifies(net)
    assert assert_certifies(merge_duplicate_places(net)) <= bound
    assert assert_certifies(trim(net)) <= bound


@PROPERTY
@given(net=st.one_of(petri_nets(max_transitions=6, max_tokens=3), weighted_nets()))
def test_search_is_capped_and_checked(net):
    """The search makes at most ``_RAISES_PER_ARC`` raises per arc (one
    ``min`` call each, for the lightest consumed place), and whatever it
    proposes passes the exact check and bounds the reachable counts."""
    with mock.patch.object(compiled, "min", wraps=min, create=True) as raises:
        weights = search_weights(net)
    assert raises.call_count <= compiled._RAISES_PER_ARC * net.arcs()
    if weights is not None:
        bound = checked_token_bound(net, weights)
        assert bound is not None
        assert ReachabilityGraph(net).bound() <= bound


@PROPERTY
@given(left=weighted_nets(), right=weighted_nets())
def test_composition_keeps_the_weightings(left, right):
    """Both compositions of two certified operands (whose place names
    collide, so both are renamed) carry the union of their weightings,
    which passes the exact check and bounds the reachable counts."""
    composed, _ = compose_with_obligations(Stg(left), Stg(right))
    for composite in (parallel(left, right), composed.net):
        assert_certifies(composite)
