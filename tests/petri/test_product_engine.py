"""Unit tests for the on-the-fly product exploration engine."""

import pytest

from repro.models.library import four_phase_master, four_phase_slave
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.product import (
    LazyStateSpace,
    SynchronousProduct,
    compare_languages,
    deterministic_bisimulation,
    resolve_engine,
)
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError
from repro.petri.simulation import TokenGame
from repro.stg.stg import compose
from repro.verify.language import dfa_equal, dfa_of_net, languages_equal


def loop(name: str, actions: list[str]) -> PetriNet:
    """A one-token cycle firing the given actions in order."""
    net = PetriNet(name)
    places = [f"{name}{i}" for i in range(len(actions))]
    for i, action in enumerate(actions):
        net.add_transition(
            {places[i]}, action, {places[(i + 1) % len(places)]}
        )
    net.set_initial(Marking({places[0]: 1}))
    return net


def chain(name: str, actions: list[str]) -> PetriNet:
    """A one-token non-cyclic sequence of the given actions."""
    net = PetriNet(name)
    for i, action in enumerate(actions):
        net.add_transition({f"{name}{i}"}, action, {f"{name}{i + 1}"})
    net.set_initial(Marking({f"{name}0": 1}))
    return net


class TestMarkingSupport:
    def test_fire_matches_remove_add(self):
        marking = Marking({"p": 2, "q": 1})
        assert marking.fire({"p"}, {"r"}) == marking.remove({"p"}).add({"r"})
        assert marking.fire({"p", "q"}, {"p"}) == Marking({"p": 2})

    def test_fire_raises_on_empty_place(self):
        with pytest.raises(ValueError):
            Marking({"p": 1}).fire({"q"}, set())


class TestLazyStateSpace:
    def test_matches_eager_on_composition(self):
        composite = compose(four_phase_master(), four_phase_slave())
        eager = ReachabilityGraph(composite.net)
        lazy = LazyStateSpace(composite.net)
        assert lazy.explore_all() == eager.num_states()
        assert lazy.stats.edges == eager.num_edges()

    def test_nothing_explored_up_front(self):
        composite = compose(four_phase_master(), four_phase_slave())
        lazy = LazyStateSpace(composite.net)
        assert lazy.num_explored() == 1  # only the initial marking

    def test_successors_memoised(self):
        net = loop("n", ["a", "b", "c"])
        lazy = LazyStateSpace(net)
        first = lazy.successors(lazy.initial)
        checks = lazy.stats.enabledness_checks
        assert lazy.successors(lazy.initial) is first
        assert lazy.stats.enabledness_checks == checks

    def test_empty_preset_transition_always_enabled(self):
        net = PetriNet("idle")
        net.add_transition(set(), "a", set())
        net.add_transition({"p"}, "b", set())
        net.set_initial(Marking({}))
        lazy = LazyStateSpace(net, max_states=5)
        actions = {action for action, _, _ in lazy.successors(lazy.initial)}
        assert actions == {"a"}

    def test_trace_reconstruction_is_firable(self):
        composite = compose(four_phase_master(), four_phase_slave())
        lazy = LazyStateSpace(composite.net)
        states = list(lazy.iter_bfs())
        game = TokenGame(composite.net)
        target = states[-1]
        for tid, action in lazy.trace_to(target):
            assert composite.net.transitions[tid].action == action
            game.fire_tid(tid)
        assert game.marking == target

    def test_trace_to_undiscovered_state_raises(self):
        net = loop("n", ["a", "b"])
        lazy = LazyStateSpace(net)
        with pytest.raises(KeyError):
            lazy.trace_to(Marking({"nowhere": 1}))

    def test_max_states_abort_reports_bound_and_frontier(self):
        net = loop("n", [f"a{i}" for i in range(10)])
        lazy = LazyStateSpace(net, max_states=3)
        with pytest.raises(UnboundedNetError) as excinfo:
            lazy.explore_all()
        error = excinfo.value
        assert error.bound == 3
        assert error.frontier is not None
        assert error.witness is not None

    def test_unbounded_detection_matches_eager(self):
        net = PetriNet("pump")
        net.add_transition({"p"}, "a", {"p", "q"})
        net.set_initial(Marking({"p": 1}))
        with pytest.raises(UnboundedNetError) as eager_error:
            ReachabilityGraph(net)
        lazy = LazyStateSpace(net)
        with pytest.raises(UnboundedNetError) as lazy_error:
            lazy.explore_all()
        assert eager_error.value.witness == lazy_error.value.witness
        assert lazy_error.value.bound is None  # proven, not a budget abort


class TestMemoFreeWalk:
    """``walk`` expands each state once and keeps no successor rows."""

    def test_walk_counts_what_explore_all_counts(self):
        composite = compose(four_phase_master(), four_phase_slave())
        walked = LazyStateSpace(composite.net)
        memo = LazyStateSpace(composite.net)
        assert sum(1 for _ in walked.walk()) == memo.explore_all()
        assert walked.stats == memo.stats

    def test_successors_of_a_walked_state_raise(self):
        net = loop("n", ["a", "b", "c"])
        lazy = LazyStateSpace(net)
        for _ in lazy.walk():
            pass
        with pytest.raises(KeyError, match="expanded without a memo"):
            lazy.successors(lazy.initial)

    def test_successors_of_a_state_the_walk_only_discovered(self):
        # Stopped at the first child: that child is discovered, not
        # expanded, so ``successors`` expands and memoises it as usual.
        net = loop("n", ["a", "b", "c"])
        lazy = LazyStateSpace(net)
        walk = lazy.walk()
        next(walk)
        dense, child = next(walk)
        assert lazy.compiled_net.tids[dense] == lazy.trace_to(child)[-1][0]
        marking = lazy.decode(child)
        reference = LazyStateSpace(net)
        list(reference.iter_bfs())
        assert lazy.successors(marking) == reference.successors(marking)

    def test_walk_refuses_the_stack_proviso(self):
        net = loop("n", ["a", "b"])
        lazy = LazyStateSpace(net, reduction=True, proviso="stack")
        with pytest.raises(ValueError, match="stack-proviso"):
            next(lazy.walk())


class TestSynchronousProduct:
    def test_product_lts_matches_interleaving(self):
        left = loop("l", ["x", "s"])
        right = loop("r", ["y", "s"])
        product = SynchronousProduct(
            LazyStateSpace(left), LazyStateSpace(right), sync={"s"}
        )
        states = list(product.iter_bfs())
        # x and y interleave freely; s fires only jointly: 4 states.
        assert len(states) == 4

    def test_to_net_language_equals_composed_net(self):
        from repro.algebra.compose import parallel

        left = loop("l", ["x", "s"])
        right = loop("r", ["y", "s"])
        product_net = SynchronousProduct(
            LazyStateSpace(left),
            LazyStateSpace(right),
            sync=left.actions & right.actions,
        ).to_net()
        assert languages_equal(parallel(left, right), product_net)


class TestCompareLanguages:
    def test_equal_nets(self):
        result = compare_languages(loop("a", ["a", "b"]), loop("b", ["a", "b"]))
        assert result.verdict
        assert result.counterexample is None

    def test_shortest_counterexample(self):
        result = compare_languages(
            chain("long", ["a", "b"]), chain("short", ["a"])
        )
        assert not result.verdict
        assert result.counterexample == ("a", "b")

    def test_containment_is_directional(self):
        shorter, longer = chain("s", ["a"]), chain("l", ["a", "b"])
        assert compare_languages(shorter, longer, mode="contained").verdict
        assert not compare_languages(longer, shorter, mode="contained").verdict

    def test_early_exit_explores_fewer_states(self):
        """A difference at the first symbol is found without exploring
        the large remainder of either state space."""
        big = chain("big", [f"a{i}" for i in range(50)])
        other = chain("oth", ["b"])
        result = compare_languages(big, other)
        assert not result.verdict
        assert result.stats.states < 10  # not the ~51 eager states

    def test_per_side_silent_sets(self):
        """Theorem 4.7 shape: 'u' silent on the reference side only."""
        noisy = chain("n", ["a", "u", "b"])
        quiet = chain("q", ["a", "b"])
        result = compare_languages(quiet, noisy, silent2={"u"})
        assert result.verdict

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            compare_languages(loop("a", ["a"]), loop("b", ["a"]), mode="woof")


class TestDeterministicBisimulation:
    def test_definite_verdicts(self):
        assert deterministic_bisimulation(
            loop("a", ["a", "b"]), loop("b", ["a", "b"])
        )[0] is True
        assert deterministic_bisimulation(
            loop("a", ["a", "b"]), loop("b", ["a", "c"])
        )[0] is False

    def test_nondeterminism_defers(self):
        net = PetriNet("nd")
        net.add_transition({"p"}, "a", {"q"})
        net.add_transition({"p"}, "a", {"r"})
        net.set_initial(Marking({"p": 1}))
        verdict, _ = deterministic_bisimulation(net, loop("d", ["a"]))
        assert verdict is None


def test_resolve_engine_validates():
    assert resolve_engine("onthefly") == "onthefly"
    assert resolve_engine("por") == "por"
    for name in ("bfs", "eager"):
        with pytest.raises(ValueError):
            resolve_engine(name)


class TestPartialOrderReduction:
    def independent_pair(self) -> PetriNet:
        net = PetriNet("ind", places=["p1", "p2", "q1", "q2"])
        net.add_transition({"p1"}, "u", {"p2"})
        net.add_transition({"q1"}, "u", {"q2"})
        net.set_initial(Marking({"p1": 1, "q1": 1}))
        return net

    def test_reduction_shrinks_independent_diamond(self):
        net = self.independent_pair()
        full = LazyStateSpace(net)
        assert full.explore_all() == 4
        reduced = LazyStateSpace(net, reduction=True, visible_actions=())
        assert reduced.explore_all() == 3
        assert reduced.is_reduced
        assert reduced.stats.reduced_states == 1
        assert not full.is_reduced

    def test_unbounded_budget_message_mentions_reduction(self):
        """Regression: the max_states bound counts states of the
        *reduced* space, and the error message must say so."""
        net = loop("n", [f"a{i}" for i in range(10)])
        reduced = LazyStateSpace(
            net, max_states=3, reduction=True, visible_actions=()
        )
        with pytest.raises(UnboundedNetError) as excinfo:
            reduced.explore_all()
        assert "partial-order reduction active" in str(excinfo.value)
        assert excinfo.value.bound == 3
        plain = LazyStateSpace(net, max_states=3)
        with pytest.raises(UnboundedNetError) as plain_info:
            plain.explore_all()
        assert "partial-order reduction" not in str(plain_info.value)

    def test_truly_unbounded_detection_still_fires_under_reduction(self):
        net = PetriNet("pump")
        net.add_transition({"p"}, "a", {"p", "q"})
        net.set_initial(Marking({"p": 1}))
        reduced = LazyStateSpace(net, reduction=True, visible_actions=())
        with pytest.raises(UnboundedNetError) as excinfo:
            reduced.explore_all()
        assert excinfo.value.bound is None  # proven, not a budget abort

    def test_product_requires_sync_actions_visible(self):
        left = loop("l", ["x", "s"])
        right = loop("r", ["y", "s"])
        hidden = LazyStateSpace(
            left, reduction=True, visible_actions={"x"}
        )
        with pytest.raises(ValueError, match="synchronisation action"):
            SynchronousProduct(hidden, LazyStateSpace(right), sync={"s"})

    def test_product_accepts_reduced_components_with_visible_sync(self):
        left = loop("l", ["x", "s"])
        right = loop("r", ["y", "s"])
        product = SynchronousProduct(
            LazyStateSpace(left, reduction=True),
            LazyStateSpace(right, reduction=True),
            sync={"s"},
        )
        states = list(product.iter_bfs())
        assert states  # explorable end to end
        oracle = SynchronousProduct(
            LazyStateSpace(left), LazyStateSpace(right), sync={"s"}
        )
        reduced, full = product.to_net(), oracle.to_net()
        alphabet = reduced.actions | full.actions
        assert dfa_equal(
            dfa_of_net(reduced, alphabet=alphabet),
            dfa_of_net(full, alphabet=alphabet),
        )

    def test_compare_languages_reduction_flag_agrees(self):
        net = self.independent_pair()
        net.add_transition({"p2", "q2"}, "a", {"p1", "q1"})
        other = chain("c", ["a"])
        for mode in ("equal", "contained"):
            plain = compare_languages(net, other, mode=mode, silent=("u",))
            por = compare_languages(
                net, other, mode=mode, silent=("u",), reduction=True
            )
            assert plain.verdict == por.verdict
            assert por.stats.states <= plain.stats.states
