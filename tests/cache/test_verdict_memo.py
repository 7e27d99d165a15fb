"""Verdict-memo tests (:mod:`repro.cache.verdicts` and its wiring into
``analysis.analyze``, the language/bisimulation checks, receptiveness
and conformance).

The budget-monotonicity rule is the part worth breaking deliberately:

* a verdict proven within budget ``B`` is served at any ``B' >= B``
  (really: any ``B'`` at or above the states the proof *needed*);
* an INCONCLUSIVE outcome recorded at ``B`` is served **only** at
  exactly ``B`` — a larger budget must re-explore.
"""

import pytest

from repro.cache import verdicts
from repro.cache.store import activated
from repro.io.formats import load_stg
from repro.models.library import four_phase_master, four_phase_slave
from repro.obs import metrics as obs
from repro.petri.analysis import analyze
from repro.petri.reachability import UnboundedNetError
from repro.verify.conformance import check_conformance
from repro.verify.equivalence import strongly_bisimilar, weakly_bisimilar
from repro.verify.language import language_contained, languages_equal
from repro.verify.receptiveness import check_receptiveness


@pytest.fixture()
def store_dir(tmp_path):
    return tmp_path / "cache"


def _warm_counters(fn):
    with obs.record() as recorder:
        result = fn()
    return result, recorder.to_dict()["counters"]


class TestMemoRules:
    KEY = "c0" + "f" * 62

    def test_conclusive_served_at_or_above_floor(self, store_dir):
        with activated(store_dir):
            verdicts.memo_store(
                verdicts.KIND, self.KEY, {"verdict": True},
                conclusive=True, floor=120, proven_at=1_000,
            )
            assert verdicts.memo_lookup(verdicts.KIND, self.KEY, max_states=120)
            assert verdicts.memo_lookup(verdicts.KIND, self.KEY, max_states=10**9)
            assert (
                verdicts.memo_lookup(verdicts.KIND, self.KEY, max_states=119)
                is None
            )

    def test_inconclusive_served_only_at_exact_budget(self, store_dir):
        with activated(store_dir):
            verdicts.memo_store(
                verdicts.KIND, self.KEY, {"verdict": False},
                conclusive=False, proven_at=500,
            )
            assert verdicts.memo_lookup(verdicts.KIND, self.KEY, max_states=500)
            assert (
                verdicts.memo_lookup(verdicts.KIND, self.KEY, max_states=501)
                is None
            )
            assert (
                verdicts.memo_lookup(verdicts.KIND, self.KEY, max_states=499)
                is None
            )

    def test_budget_free_lookup_skips_the_rule(self, store_dir):
        with activated(store_dir):
            verdicts.memo_store(
                verdicts.KIND, self.KEY, {"verdict": True},
                conclusive=False, proven_at=500,
            )
            assert verdicts.memo_lookup(verdicts.KIND, self.KEY) is not None


class TestAnalyzeMemo:
    def test_cold_warm_equality(self, store_dir):
        net = four_phase_master().net
        with activated(store_dir):
            cold = analyze(net)
            warm, counters = _warm_counters(lambda: analyze(net))
        assert not cold.cached and warm.cached
        assert cold == warm  # `cached` is compare-excluded provenance
        assert str(cold) == str(warm)
        assert counters.get("cache.verdict.hits") == 1

    def test_floor_is_states_needed_not_budget(self, store_dir):
        net = four_phase_master().net
        with activated(store_dir):
            cold = analyze(net, max_states=1_000_000)
            # A far smaller budget still fits the actual state count, so
            # the memo must serve (floor = states, not the old budget).
            warm = analyze(net, max_states=cold.states)
            assert warm.cached
            with pytest.raises(UnboundedNetError):
                analyze(net, max_states=cold.states - 1)

    def test_unbounded_verdict_replays(self, store_dir, corpus_dir):
        net = load_stg(str(corpus_dir / "mcc_unbounded_source.net")).net
        with activated(store_dir):
            with pytest.raises(UnboundedNetError) as cold:
                analyze(net, max_states=10_000)
            with obs.record() as recorder:
                with pytest.raises(UnboundedNetError) as warm:
                    analyze(net, max_states=10_000)
        assert str(cold.value) == str(warm.value)
        assert cold.value.bound == warm.value.bound
        assert cold.value.witness == warm.value.witness
        counters = recorder.to_dict()["counters"]
        assert counters.get("cache.verdict.hits") == 1
        # Proven unboundedness is conclusive: larger budgets reuse it.
        with activated(store_dir):
            with obs.record() as larger:
                with pytest.raises(UnboundedNetError):
                    analyze(net, max_states=20_000)
        assert larger.to_dict()["counters"].get("cache.verdict.hits") == 1

    def test_budget_abort_not_reused_at_larger_budget(self, store_dir):
        net = four_phase_master().net
        with activated(store_dir):
            with pytest.raises(UnboundedNetError):
                analyze(net, max_states=2)
            # Same tiny budget: replayed from the memo.
            with obs.record() as same:
                with pytest.raises(UnboundedNetError):
                    analyze(net, max_states=2)
            assert same.to_dict()["counters"].get("cache.verdict.hits") == 1
            # Larger budget: the abort is stale, a real run must happen —
            # and this net fits, so it now succeeds.
            properties = analyze(net)
            assert properties.bounded and not properties.cached


class TestVerifyMemos:
    def test_language_checks(self, store_dir):
        net1 = four_phase_master().net
        net2 = four_phase_slave().net
        with activated(store_dir):
            cold = (
                languages_equal(net1, net2),
                language_contained(net1, net2),
                languages_equal(net1, net1),
            )
            warm, counters = _warm_counters(
                lambda: (
                    languages_equal(net1, net2),
                    language_contained(net1, net2),
                    languages_equal(net1, net1),
                )
            )
        assert cold == warm
        assert counters.get("cache.verdict.hits") == 3

    def test_language_silent_set_is_semantic(self, store_dir):
        net = four_phase_master().net
        with activated(store_dir):
            languages_equal(net, net)
            _, counters = _warm_counters(
                lambda: languages_equal(net, net, silent=("a+",))
            )
        assert "cache.verdict.hits" not in counters

    def test_bisimulation_checks(self, store_dir):
        net1 = four_phase_master().net
        net2 = four_phase_slave().net
        with activated(store_dir):
            cold = (
                strongly_bisimilar(net1, net2),
                weakly_bisimilar(net1, net1),
            )
            warm, counters = _warm_counters(
                lambda: (
                    strongly_bisimilar(net1, net2),
                    weakly_bisimilar(net1, net1),
                )
            )
        assert cold == warm
        assert counters.get("cache.verdict.hits") == 2

    def test_engine_does_not_key_the_memo(self, store_dir):
        """The documented invariance: a verdict computed by one engine
        is served to another, with provenance recording the original."""
        net = four_phase_master().net
        with activated(store_dir):
            weakly_bisimilar(net, net, engine="por")
            with obs.record() as recorder:
                assert weakly_bisimilar(net, net, engine="onthefly")
        payload = recorder.to_dict()
        assert payload["counters"].get("cache.verdict.hits") == 1
        span = next(
            s for s in payload["spans"] if s["name"] == "verify.bisim.weak"
        )
        assert span["meta"]["cached"] is True

    def test_receptiveness_and_conformance(self, store_dir):
        master = four_phase_master()
        slave = four_phase_slave()
        with activated(store_dir):
            cold = check_receptiveness(master, slave)
            warm = check_receptiveness(master, slave)
            assert not cold.cached and warm.cached
            assert str(cold) == str(warm)
            assert cold.engine == warm.engine
            assert cold.states_explored == warm.states_explored
            assert len(cold.obligations) == len(warm.obligations)
            cold_conf = check_conformance(slave, four_phase_slave())
            with obs.record() as recorder:
                warm_conf = check_conformance(slave, four_phase_slave())
        assert cold_conf.conforms() == warm_conf.conforms()
        counters = recorder.to_dict()["counters"]
        assert counters.get("cache.verdict.hits", 0) >= 1

    def test_opaque_guards_disable_memo(self, store_dir):
        net = four_phase_master().net
        tid = sorted(net.transitions)[0]
        place = sorted(net.transitions[tid].preset)[0]
        net.set_guard(place, tid, lambda marking: True)
        with activated(store_dir):
            analyze(net)
            warm, counters = _warm_counters(lambda: analyze(net))
        assert not warm.cached
        assert "cache.verdict.hits" not in counters
