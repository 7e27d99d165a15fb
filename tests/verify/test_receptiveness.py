"""Tests for receptiveness checking (Props 5.5/5.6, Thm 5.7)."""

import pytest

from repro.models.library import four_phase_master, four_phase_slave
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.stg import Stg, compose
from repro.verify.receptiveness import (
    check_receptiveness,
    check_receptiveness_with_hiding,
    compose_with_obligations,
)

from tests.oracle import Oracle


def impatient_master() -> Stg:
    """Drops the request without waiting for the acknowledge: the
    4-phase discipline is broken (the Figure 8 pattern in miniature)."""
    net = PetriNet("impatient")
    net.add_transition({"m0"}, "r+", {"m1"})
    net.add_transition({"m1"}, "r-", {"m2"})
    net.add_transition({"m2"}, "a+", {"m3"})
    net.add_transition({"m3"}, "a-", {"m0"})
    net.set_initial(Marking({"m0": 1}))
    return Stg(net, inputs={"a"}, outputs={"r"})


def token_pump_pair() -> tuple[Stg, Stg]:
    """A marked graph whose state equation admits an unreachable
    failure marking.  Firing ``u+`` then ``u-`` would leave a token on
    ``p3`` and ready ``r+`` while the consumer sits in ``s0``, but the
    ``u`` cycle holds no token: nothing is ever enabled, so the pair is
    receptive."""
    producer = PetriNet("producer")
    producer.add_transition({"p1"}, "u+", {"p2"})
    producer.add_transition({"p2"}, "u-", {"p1", "p3"})
    producer.add_transition({"p3"}, "r+", {"p4"})
    producer.add_transition({"p4"}, "r-", {"p5"})
    producer.set_initial(Marking({"p5": 1}))
    consumer = PetriNet("consumer")
    consumer.add_transition({"s1"}, "r+", {"s2"})
    consumer.add_transition({"s2"}, "r-", {"s1"})
    consumer.set_initial(Marking({"s0": 1}))
    return (
        Stg(producer, outputs={"r"}, internals={"u"}),
        Stg(consumer, inputs={"r"}),
    )


class TestComposeWithObligations:
    def test_obligations_cover_both_directions(self):
        composite, obligations = compose_with_obligations(
            four_phase_master(), four_phase_slave()
        )
        actions = {o.action for o in obligations}
        assert actions == {"r+", "r-", "a+", "a-"}
        producers = {o.action: o.producer for o in obligations}
        assert producers["r+"] == "master"
        assert producers["a+"] == "slave"

    def test_composite_structure(self):
        composite, _ = compose_with_obligations(
            four_phase_master(), four_phase_slave()
        )
        assert len(composite.net.transitions) == 4  # all fused

    def test_common_outputs_rejected(self):
        with pytest.raises(ValueError):
            compose_with_obligations(four_phase_master(), four_phase_master())

    @pytest.mark.parametrize("pair", ["S||T", "T||R", "I||T", "(S||T)||R"])
    def test_composite_is_the_circuit_algebra_composition(self, pair):
        """The composite the check explores is ``compose``'s, input-arc
        guards included (the Fig 7 translator carries four)."""
        from repro.models.protocol_translator import (
            inconsistent_sender,
            receiver,
            sender,
            translator,
        )

        modules = {
            "S||T": (sender(), translator()),
            "T||R": (translator(), receiver()),
            "I||T": (inconsistent_sender(), translator()),
            "(S||T)||R": (compose(sender(), translator()), receiver()),
        }
        a, b = modules[pair]
        composite, _ = compose_with_obligations(a, b)
        expected = compose(a, b)
        assert composite.net.structurally_equal(expected.net)
        assert composite.net.input_guards
        assert composite.net.bound_weights == expected.net.bound_weights
        assert (composite.inputs, composite.outputs, composite.internals) == (
            expected.inputs,
            expected.outputs,
            expected.internals,
        )

    def test_each_composition_emits_one_algebra_span(self):
        """Both fuse through one function, and each derived net is
        counted once: ``algebra.compose`` for the check's composite,
        ``algebra.parallel`` for ``compose``'s."""
        from repro.obs import metrics as obs

        def spans(build) -> list[str]:
            with obs.record() as recorder:
                build(four_phase_master(), four_phase_slave())
            return [
                span.name
                for span in recorder.spans
                if span.name.startswith("algebra.")
            ]

        assert spans(compose_with_obligations) == ["algebra.compose"]
        assert spans(compose) == ["algebra.parallel"]


class TestReachabilityMethod:
    def test_matched_handshake_is_receptive(self):
        report = check_receptiveness(
            four_phase_master(), four_phase_slave(), method="reachability"
        )
        assert report.is_receptive()
        assert "receptive" in str(report)

    def test_impatient_master_fails(self):
        report = check_receptiveness(
            impatient_master(), four_phase_slave(), method="reachability"
        )
        assert not report.is_receptive()
        assert "r-" in report.failing_actions()
        assert "NOT receptive" in str(report)

    def test_failure_attribution(self):
        """The premature r- is attributed to the impatient master (the
        stranded a+ is symmetrically attributed to the slave)."""
        report = check_receptiveness(
            impatient_master(), four_phase_slave(), method="reachability"
        )
        by_action = {f.obligation.action: f.obligation for f in report.failures}
        assert by_action["r-"].producer == "impatient"
        assert by_action["r-"].consumer == "slave"
        assert by_action["a+"].producer == "slave"

    def test_cross_product_alternatives_not_false_failures(self):
        """Two consumer alternatives for the same label: the producer is
        fine as long as *some* alternative is ready."""
        producer = four_phase_master()
        slave = PetriNet("slave2")
        # Two r+ consumers in free choice; one of them is always ready.
        slave.add_transition({"s0"}, "r+", {"s1"})
        slave.add_transition({"s0"}, "r+", {"s2"})
        slave.add_transition({"s1"}, "a+", {"s3"})
        slave.add_transition({"s2"}, "a+", {"s3"})
        slave.add_transition({"s3"}, "r-", {"s4"})
        slave.add_transition({"s4"}, "a-", {"s0"})
        slave.set_initial(Marking({"s0": 1}))
        report = check_receptiveness(
            producer, Stg(slave, inputs={"r"}, outputs={"a"}),
            method="reachability",
        )
        assert report.is_receptive()

    def test_eager_witnesses_match_onthefly_on_fig8(self):
        """The brute-force scan of ``tests/oracle.py`` exhausts the
        composite space (eagerly) and takes each obligation's first
        failing marking in breadth-first discovery order; the on-the-fly
        search must report exactly those witnesses — never one picked by
        set iteration order (which would vary with the hash seed)."""
        from repro.models.protocol_translator import (
            inconsistent_sender,
            translator,
        )

        report = check_receptiveness(
            inconsistent_sender(), translator(), method="reachability"
        )
        oracle = Oracle(report.composite.net)
        assert oracle.complete
        expected = dict(oracle.first_failures(report.obligations))
        assert len(expected) == 16
        assert {
            failure.obligation: failure.marking for failure in report.failures
        } == expected

    def test_eager_engine_is_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            check_receptiveness(
                four_phase_master(), four_phase_slave(), engine="eager"
            )
        message = str(excinfo.value)
        assert "unknown engine 'eager'" in message
        for engine in ("onthefly", "por", "symbolic"):
            assert repr(engine) in message


class TestStructuralMethod:
    def test_marked_graph_receptive_handshake(self):
        report = check_receptiveness(
            four_phase_master(), four_phase_slave(), method="structural"
        )
        assert report.is_receptive()
        assert report.method == "structural"

    def test_structural_detects_failure(self):
        report = check_receptiveness(
            impatient_master(), four_phase_slave(), method="structural"
        )
        assert not report.is_receptive()

    def test_structural_agrees_with_reachability(self):
        """Cross-validate the two methods on marked-graph compositions."""
        for master in (four_phase_master(), impatient_master()):
            structural = check_receptiveness(
                master, four_phase_slave(), method="structural"
            )
            exhaustive = check_receptiveness(
                master, four_phase_slave(), method="reachability"
            )
            assert structural.is_receptive() == exhaustive.is_receptive()
            assert structural.failing_actions() == exhaustive.failing_actions()

    def test_auto_picks_structural_for_marked_graphs(self):
        report = check_receptiveness(four_phase_master(), four_phase_slave())
        assert report.method == "structural"

    def test_auto_falls_back_for_general_nets(self):
        master = four_phase_master()
        # Add a conflict to break the marked-graph property.
        master.net.add_transition({"m0"}, "r+", {"m1"})
        report = check_receptiveness(master, four_phase_slave())
        assert report.method == "reachability"


class TestExactStructuralPath:
    """``method="structural"`` runs the exact state-equation pass of
    ``engine="symbolic"``: it decides live marked graphs outright, and
    elsewhere hands the undecided obligations to the search."""

    def test_unreachable_state_equation_witness_is_no_failure(self):
        report = check_receptiveness(*token_pump_pair(), method="structural")
        assert report.is_receptive()
        assert report.method == "reachability"
        assert report.states_explored == 1

    def test_store_written_by_the_float_lp_is_not_served(self, tmp_path):
        from repro.cache import verdicts
        from repro.cache.content import semantic_key, stg_content_hash
        from repro.cache.store import activated

        producer, consumer = token_pump_pair()
        stale_key = semantic_key(
            "receptiveness",
            stg_content_hash(producer),
            stg_content_hash(consumer),
            "structural",
            False,
        )
        witness = Marking({"p3": 1, "p5": 1, "s0": 1})
        with activated(tmp_path / "cache"):
            verdicts.memo_store(
                verdicts.KIND,
                stale_key,
                {
                    "method": "structural",
                    "engine": "-",
                    "states_explored": None,
                    "states_reduced": None,
                    "proviso": None,
                    "symbolic": None,
                    "failures": [
                        {
                            "obligation": 0,
                            "marking": verdicts.marking_items(witness),
                            "trace": None,
                            "tids": None,
                        }
                    ],
                },
                proven_at=1_000_000,
            )
            report = check_receptiveness(
                producer, consumer, method="structural"
            )
        assert report.is_receptive()
        assert not report.cached

    def test_failures_off_marked_graphs_replay_to_a_prop55_marking(self):
        from repro.petri.simulation import TokenGame

        report = check_receptiveness(
            impatient_master(), four_phase_slave(), method="structural"
        )
        assert report.failing_actions() == ["a+", "r-"]
        for failure in report.failures:
            assert failure.tids is not None
            game = TokenGame(report.composite.net)
            for tid in failure.tids:
                game.fire_tid(tid)
            obligation = failure.obligation
            assert all(
                game.marking[p] >= 1 for p in obligation.producer_preset
            )
            for preset in obligation.consumer_presets:
                assert not all(game.marking[p] >= 1 for p in preset)

    def test_fallback_report_equals_the_auto_report(self):
        structural = check_receptiveness(
            impatient_master(), four_phase_slave(), method="structural"
        )
        auto = check_receptiveness(impatient_master(), four_phase_slave())
        assert str(structural) == str(auto)
        assert structural.engine == auto.engine
        assert structural.states_explored == auto.states_explored

    @pytest.mark.parametrize("engine", [None, "symbolic"])
    def test_conclusive_report_has_no_search_epilogue(self, engine):
        report = check_receptiveness(
            four_phase_master(),
            four_phase_slave(),
            method="structural",
            engine=engine,
        )
        assert report.method == "structural"
        assert (report.engine, report.states_explored) == ("-", None)
        assert report.symbolic is None


class TestHidePrimeRefinement:
    def test_private_signals_relabeled_not_contracted(self):
        """A private event on the master's *output* path (gating no
        input) keeps the composition receptive; hide' keeps it as an
        epsilon dummy rather than contracting it away."""
        net = PetriNet("master_led")
        net.add_transition({"m0"}, "r+", {"m1"})
        net.add_transition({"m1"}, "a+", {"m2"})
        net.add_transition({"m2"}, "led+", {"m2b"})
        net.add_transition({"m2b"}, "r-", {"m3"})
        net.add_transition({"m3"}, "a-", {"m0"})
        net.set_initial(Marking({"m0": 1}))
        master = Stg(net, inputs={"a"}, outputs={"r", "led"})
        report = check_receptiveness_with_hiding(master, four_phase_slave())
        assert report.is_receptive()
        # The private 'led' signal is gone from the composite alphabet...
        assert "led+" not in report.composite.net.used_actions()
        # ...but its transition survives as an epsilon dummy (hide').
        from repro.petri.net import EPSILON

        assert report.composite.net.transitions_with_action(EPSILON)

    def test_internal_event_gating_an_input_is_a_failure(self):
        """The information hide' preserves: an input whose consumer is
        only reached via an internal transition is a genuine potential
        failure (the environment may emit before the internal step
        completes); full contraction would have hidden that."""
        net = PetriNet("master_gated")
        net.add_transition({"m0"}, "r+", {"m1"})
        net.add_transition({"m1"}, "led+", {"m1b"})
        net.add_transition({"m1b"}, "a+", {"m2"})
        net.add_transition({"m2"}, "r-", {"m3"})
        net.add_transition({"m3"}, "a-", {"m0"})
        net.set_initial(Marking({"m0": 1}))
        master = Stg(net, inputs={"a"}, outputs={"r", "led"})
        report = check_receptiveness_with_hiding(master, four_phase_slave())
        assert not report.is_receptive()
        assert "a+" in report.failing_actions()

    def test_hiding_does_not_mask_failures(self):
        report = check_receptiveness_with_hiding(
            impatient_master(), four_phase_slave()
        )
        assert not report.is_receptive()


class TestCounterexampleTraces:
    """A failing on-the-fly check must come with a firable trace from
    the composite's initial marking to the failure state, replayable
    step by step through the token game."""

    def failing_report(self, **kwargs):
        return check_receptiveness(
            impatient_master(),
            four_phase_slave(),
            method="reachability",
            engine="onthefly",
            **kwargs,
        )

    def test_failures_carry_traces(self):
        report = self.failing_report()
        assert report.failures
        for failure in report.failures:
            assert failure.trace is not None
            assert failure.tids is not None
            assert len(failure.trace) == len(failure.tids)

    def test_traces_replay_to_the_failure_marking(self):
        from repro.petri.simulation import TokenGame

        report = self.failing_report()
        for failure in report.failures:
            game = TokenGame(report.composite.net)
            for tid, action in zip(failure.tids, failure.trace):
                assert report.composite.net.transitions[tid].action == action
                game.fire_tid(tid)
            assert game.marking == failure.marking

    def test_failure_marking_is_a_prop55_witness(self):
        """At the trace's endpoint the producer is ready to emit but no
        consumer alternative is ready to accept."""
        report = self.failing_report()
        for failure in report.failures:
            obligation = failure.obligation
            assert all(
                failure.marking[p] >= 1 for p in obligation.producer_preset
            )
            for preset in obligation.consumer_presets:
                assert not all(failure.marking[p] >= 1 for p in preset)

    def test_trace_shown_in_failure_message(self):
        report = self.failing_report()
        rendered = str(report)
        assert "(after " in rendered

    def test_stop_at_first_explores_no_further(self):
        full = self.failing_report()
        early = self.failing_report(stop_at_first=True)
        assert not early.is_receptive()
        assert len(early.failures) == 1
        assert early.states_explored <= full.states_explored

    def test_receptive_composition_explores_everything(self):
        report = check_receptiveness(
            four_phase_master(),
            four_phase_slave(),
            method="reachability",
            engine="onthefly",
        )
        assert report.is_receptive()
        assert report.states_explored == len(Oracle(report.composite.net).rows)

class TestPorEngine:
    """``engine="por"`` must agree with the oracle on every verdict, and
    its reduced exploration must stay deterministic and replayable."""

    def reports(self, first, second, **kwargs):
        return {
            engine: check_receptiveness(
                first, second, method="reachability", engine=engine, **kwargs
            )
            for engine in ("onthefly", "por")
        }

    def test_verdicts_agree_on_failing_composition(self):
        reports = self.reports(impatient_master(), four_phase_slave())
        composite = reports["onthefly"].composite
        expected = sorted(
            {
                obligation.action
                for obligation, _ in Oracle(composite.net).first_failures(
                    reports["onthefly"].obligations
                )
            }
        )
        assert expected
        for engine in ("onthefly", "por"):
            assert not reports[engine].is_receptive()
            assert reports[engine].failing_actions() == expected

    def test_verdicts_agree_on_receptive_composition(self):
        reports = self.reports(four_phase_master(), four_phase_slave())
        assert all(report.is_receptive() for report in reports.values())

    def test_por_explores_at_most_onthefly(self):
        reports = self.reports(four_phase_master(), four_phase_slave())
        assert (
            reports["por"].states_explored
            <= reports["onthefly"].states_explored
        )
        assert reports["por"].states_reduced is not None

    def test_por_traces_replay_on_the_unreduced_net(self):
        """Reduced-space edges are real firings: every counterexample
        trace must replay, tid by tid, on the full composite net."""
        from repro.petri.simulation import TokenGame

        report = check_receptiveness(
            impatient_master(),
            four_phase_slave(),
            method="reachability",
            engine="por",
        )
        assert report.failures
        for failure in report.failures:
            assert failure.trace is not None and failure.tids is not None
            game = TokenGame(report.composite.net)
            for tid, action in zip(failure.tids, failure.trace):
                assert report.composite.net.transitions[tid].action == action
                game.fire_tid(tid)
            assert game.marking == failure.marking

    def test_por_runs_are_deterministic(self):
        """Two identical runs return identical traces, tids, markings
        and state counts — the stubborn selection has no hidden
        iteration-order dependence."""
        runs = [
            check_receptiveness(
                impatient_master(),
                four_phase_slave(),
                method="reachability",
                engine="por",
            )
            for _ in range(3)
        ]
        baseline = runs[0]
        for run in runs[1:]:
            assert run.states_explored == baseline.states_explored
            assert run.states_reduced == baseline.states_reduced
            assert [f.trace for f in run.failures] == [
                f.trace for f in baseline.failures
            ]
            assert [f.tids for f in run.failures] == [
                f.tids for f in baseline.failures
            ]
            assert [f.marking for f in run.failures] == [
                f.marking for f in baseline.failures
            ]

    def test_por_with_hiding(self):
        report = check_receptiveness_with_hiding(
            four_phase_master(), four_phase_slave(), engine="por"
        )
        assert report.is_receptive()
        assert report.engine == "por"
