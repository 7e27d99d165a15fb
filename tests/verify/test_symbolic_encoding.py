"""Hand-checked Prop 5.5 linear encodings.

The symbolic engine turns each synchronization obligation into a
constraint system over the state equation ``M = M0 + C·x``: producer
preset fully marked, one missed place per consumer alternative empty,
every place non-negative.  These tests pin that encoding row by row
against systems computed by hand from the nets' structure — the
four-phase handshake composite (small enough to write out completely),
the Fig 5–8 protocol-translator modules, and the channel-bank family
whose component-restricted systems have a closed-form constant size.
All coefficients must be Python integers: a float anywhere in a
constraint row is a soundness bug, not a precision detail, and the
exact run alone lifts rows to Fractions.
"""

from fractions import Fraction

import pytest

from repro.io.formats import load_stg
from repro.models.library import four_phase_master, four_phase_slave
from repro.models.protocol_translator import sender, translator
from repro.petri.symbolic import (
    StateEquation,
    failure_miss_choices,
    obligation_system,
    symbolic_receptiveness,
)
from repro.verify.receptiveness import compose_with_obligations

CORPUS = "tests/corpus"


def F(*values):
    return tuple(Fraction(v) for v in values)


class TestFourPhaseEncoding:
    """master||slave: 8 places, 4 transitions, every row written out.

    Transition order (sorted tids) is a+, a-, r+, r- = x0..x3, and the
    incidence rows are the two mirrored handshake cycles:

        m0/s0: +a-  -r+        m1/s1: -a+  +r+
        m2/s2: +a+  -r-        m3/s3: -a-  +r-
    """

    ROWS = {
        "m0": F(0, 1, -1, 0),
        "m1": F(-1, 0, 1, 0),
        "m2": F(1, 0, 0, -1),
        "m3": F(0, -1, 0, 1),
        "s0": F(0, 1, -1, 0),
        "s1": F(-1, 0, 1, 0),
        "s2": F(1, 0, 0, -1),
        "s3": F(0, -1, 0, 1),
    }
    M0 = {"m0": 1, "s0": 1}

    def composite(self):
        composite, obligations = compose_with_obligations(
            four_phase_master(), four_phase_slave()
        )
        return composite.net, obligations

    def test_obligations_match_hand_derivation(self):
        """One obligation per channel edge, with the handshake presets."""
        _, obligations = self.composite()
        derived = {
            ob.action: (
                sorted(ob.producer_preset),
                [sorted(p) for p in ob.consumer_presets],
            )
            for ob in obligations
        }
        assert derived == {
            "r+": (["m0"], [["s0"]]),
            "r-": (["m2"], [["s2"]]),
            "a+": (["s1"], [["m1"]]),
            "a-": (["s3"], [["m3"]]),
        }

    def test_miss_choices(self):
        _, obligations = self.composite()
        for ob in obligations:
            consumer = sorted(next(iter(ob.consumer_presets)))
            assert failure_miss_choices(ob) == [consumer]

    def test_incidence_rows_match_hand_table(self):
        net, _ = self.composite()
        equation = StateEquation(net, {"m0", "s0"})
        assert equation.places == tuple(sorted(self.ROWS))
        for place, expected in self.ROWS.items():
            assert equation.coefficients(place) == expected, place

    def test_full_system_for_r_plus(self):
        """The complete 10-row system for the r+ obligation: 8 nonneg
        rows (-C·x <= M0), marked[m0] and empty[s0]."""
        net, obligations = self.composite()
        ob = next(o for o in obligations if o.action == "r+")
        equation, system = obligation_system(net, ob, ["s0"])
        by_tag = {c.tag: c for c in system.constraints}
        assert len(system.constraints) == 10
        for place, row in self.ROWS.items():
            nonneg = by_tag[f"nonneg[{place}]"]
            assert nonneg.relation == "<="
            assert nonneg.coeffs == tuple(-c for c in row)
            assert nonneg.rhs == Fraction(self.M0.get(place, 0))
        marked = by_tag["marked[m0]"]
        assert marked.relation == "<="
        assert marked.coeffs == tuple(-c for c in self.ROWS["m0"])
        assert marked.rhs == Fraction(0)  # M0(m0) - 1
        empty = by_tag["empty[s0]"]
        assert empty.relation == "<="
        assert empty.coeffs == self.ROWS["s0"]
        assert empty.rhs == Fraction(-1)  # -M0(s0)

    def test_mirrored_rows_make_every_obligation_infeasible(self):
        """m_i and s_i have identical incidence rows, so M(m_i) -
        M(s_i) is invariant under every firing; marked[m_i] with
        empty[s_i] forces it >= 1 while it is identically 0 — a
        one-line contradiction.  The engine must prove all four
        obligations safe without any trap refinement."""
        net, obligations = self.composite()
        outcome = symbolic_receptiveness(net, obligations)
        assert outcome.conclusive
        assert len(outcome.safe) == 4
        assert not outcome.failed
        assert outcome.stats["refinement_rounds"] == 0

    def test_all_coefficients_are_exact_integers(self):
        """Rows stay Python ints; only the exact run lifts them, into
        its own tableau.  A float or a Fraction in a row fails."""
        net, obligations = self.composite()
        for ob in obligations:
            for choice in failure_miss_choices(ob):
                _, system = obligation_system(net, ob, choice)
                for constraint in system.constraints:
                    assert all(type(c) is int for c in constraint.coeffs)
                    assert type(constraint.rhs) is int


class TestTranslatorEncoding:
    """Fig 5 + Fig 7: sender||translator obligations, checked against
    the presets read off the figures' handshake expansions."""

    def composite(self):
        composite, obligations = compose_with_obligations(
            sender(), translator()
        )
        return composite.net, obligations

    def test_obligation_census(self):
        """24 obligations; the falling output edges (a0-, a1-, b0-,
        b1-) each offer two consumer alternatives (the translator's
        free-choice receive branches), everything else one."""
        _, obligations = self.composite()
        assert len(obligations) == 24
        by_action: dict[str, list] = {}
        for ob in obligations:
            by_action.setdefault(ob.action, []).append(ob)
        two_way = {
            action
            for action, obs_ in by_action.items()
            if any(len(ob.consumer_presets) == 2 for ob in obs_)
        }
        assert two_way == {"a0-", "a1-", "b0-", "b1-"}

    def test_a0_minus_miss_choices(self):
        """Hand-read from Fig 7: a0- may be awaited in either receive
        branch, so each producer preset has two one-place misses."""
        _, obligations = self.composite()
        targets = [ob for ob in obligations if ob.action == "a0-"]
        assert {frozenset(ob.producer_preset) for ob in targets} == {
            frozenset({"rec_h1"}),
            frozenset({"reset_h1"}),
        }
        for ob in targets:
            assert failure_miss_choices(ob) == [
                ["rx_rec_h1"],
                ["rx_reset_h1"],
            ]

    def test_system_shape(self):
        """Every choice system is |places| nonneg rows + one marked row
        per producer-preset place + one empty row per missed place."""
        net, obligations = self.composite()
        for ob in obligations[:6]:
            for choice in failure_miss_choices(ob):
                equation, system = obligation_system(net, ob, choice)
                expected = (
                    len(equation.places)
                    + len(ob.producer_preset)
                    + len(set(choice))
                )
                assert system.num_constraints() == expected

    def test_no_failures_and_no_unsound_verdicts(self):
        """The composite is receptive (established by the explicit
        engines), so the symbolic engine may prove obligations safe or
        leave them undecided — but must never report a failure."""
        net, obligations = self.composite()
        outcome = symbolic_receptiveness(net, obligations)
        assert not outcome.failed
        assert len(outcome.safe) + len(outcome.undecided) == 24
        assert len(outcome.safe) >= 16  # the rising-edge obligations


class TestChannelBankClosedForm:
    """Component restriction keeps per-obligation systems at the
    closed-form constant size of ONE channel — 8 places, 4 transitions,
    10 constraints — no matter how many channels the bank has."""

    def bank(self, channels):
        from repro.core.circuit import compose_many

        masters = compose_many(
            [
                four_phase_master(req=f"r{i}", ack=f"a{i}", name=f"m{i}")
                for i in range(channels)
            ]
        )
        slaves = compose_many(
            [
                four_phase_slave(req=f"r{i}", ack=f"a{i}", name=f"s{i}")
                for i in range(channels)
            ]
        )
        composite, obligations = compose_with_obligations(masters, slaves)
        return composite.net, obligations

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_constant_system_size(self, channels):
        net, obligations = self.bank(channels)
        assert len(obligations) == 4 * channels
        for ob in obligations:
            for choice in failure_miss_choices(ob):
                equation, system = obligation_system(net, ob, choice)
                assert len(equation.places) == 8
                assert len(equation.variables) == 4
                assert system.num_constraints() == 10

    def test_bank_conclusively_safe(self):
        net, obligations = self.bank(4)
        outcome = symbolic_receptiveness(net, obligations)
        assert outcome.conclusive
        assert len(outcome.safe) == 16
        assert not outcome.failed


class TestUnboundedCorpusNet:
    """The proven-unbounded corpus source must never be called bounded,
    and its state-equation systems must stay exact."""

    def net(self):
        return load_stg(f"{CORPUS}/mcc_unbounded_source.net").net

    def test_bounded_is_not_concluded(self):
        from repro.petri.symbolic import bounded

        verdict = bounded(self.net())
        assert not (verdict.conclusive and verdict.holds)

    def test_state_equation_stays_feasible(self):
        """Unbounded source: every target count on the growing place is
        state-equation feasible, so unreachability is never concluded
        for it."""
        from repro.petri.symbolic import predicate_unreachable

        net = self.net()
        growing = [
            p
            for p in net.places
            if any(
                p in t.postset and p not in t.preset
                for t in net.transitions.values()
            )
        ]
        assert growing
        verdict = predicate_unreachable(net, marked=[growing[0]])
        assert not verdict.conclusive
