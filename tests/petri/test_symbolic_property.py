"""Soundness of the symbolic engine, property-tested against explicit
enumeration.

The state-equation engine is a semi-decision procedure: INCONCLUSIVE is
always allowed, but every CONCLUSIVE verdict is a *proof* and must
therefore agree with the explicit ground truth on any net hypothesis
can dream up.  Each property enumerates the ground truth explicitly (reachable
markings, fired actions, receptiveness verdicts) and checks that no
conclusive symbolic answer ever contradicts it.

When a property fails, the shrunk counterexample net(s) are persisted
as JSON under ``tests/petri/symbolic_failures/`` (hypothesis replays
the minimal example last, so the file left behind is the fully shrunk
net) for offline replay via :func:`repro.io.json_io.net_from_dict` —
the same harness the POR differential suite uses.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.io.json_io import net_to_dict
from repro.petri.marking import Marking
from repro.petri.net import EPSILON, PetriNet
from repro.petri.product import LazyStateSpace, compare_languages
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError
from repro.petri.structural import incidence_matrix, p_invariants_partial
from repro.petri.symbolic import (
    LinearSystem,
    bounded,
    dead_actions,
    exactness_applies,
    failure_miss_choices,
    language_precheck,
    marking_unreachable,
    predicate_unreachable,
    symbolic_receptiveness,
)
from repro.stg.stg import Stg
from repro.verify.receptiveness import (
    check_receptiveness,
    compose_with_obligations,
)

from tests.oracle import Oracle
from tests.strategies import (
    ACTIONS,
    bounded_nets,
    multi_token_nets,
    petri_nets,
)

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

THOROUGH = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

EXHAUSTIVE = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

SILENT = frozenset({EPSILON, "u"})

SIGNAL_ACTIONS = ["a+", "a-", "b+", "b-"]

FAILURE_DIR = Path(__file__).parent / "symbolic_failures"


class persists_counterexamples:
    """On assertion failure, write the example nets to FAILURE_DIR."""

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


def reachable_markings(net: PetriNet) -> set[Marking]:
    space = LazyStateSpace(net)
    space.explore_all()
    return set(space.iter_bfs())


@st.composite
def small_systems(draw):
    """Integer feasibility problems: at most 4 variables and 5 rows,
    coefficients in [-3, 3], right-hand sides in [-4, 4]."""
    width = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(-3, 3), min_size=width, max_size=width),
                st.sampled_from(["<=", "=="]),
                st.integers(-4, 4),
            ),
            max_size=5,
        )
    )
    return width, rows


@EXHAUSTIVE
@given(problem=small_systems())
def test_phase1_matches_highs_in_both_arithmetics(problem):
    """The one phase-1 routine, against scipy's HiGHS: the exact run is
    infeasible exactly when HiGHS is, its points satisfy every row in
    Fractions, and the float run never reports the opposite status."""
    width, rows = problem
    system = LinearSystem(tuple(f"x{i}" for i in range(width)))
    for coeffs, relation, rhs in rows:
        if relation == "<=":
            system.inequality(coeffs, rhs)
        else:
            system.equality(coeffs, rhs)
    upper = [(c, b) for c, relation, b in rows if relation == "<="]
    equal = [(c, b) for c, relation, b in rows if relation == "=="]
    reference = linprog(
        [0] * width,
        A_ub=[c for c, _ in upper] or None,
        b_ub=[b for _, b in upper] or None,
        A_eq=[c for c, _ in equal] or None,
        b_eq=[b for _, b in equal] or None,
        bounds=(0, None),
        method="highs",
    )
    assert reference.status in (0, 2), reference.message
    solution = system.solve()
    assert (solution is None) == (reference.status == 2)
    exact = "infeasible"
    if solution is not None:
        exact = "feasible"
        x = [solution[name] for name in system.variables]
        assert all(isinstance(v, Fraction) and v >= 0 for v in x)
        for coeffs, relation, rhs in rows:
            value = sum(c * v for c, v in zip(coeffs, x))
            assert value <= rhs if relation == "<=" else value == rhs
    screened, _ = system._solve_float()
    assert screened in (exact, "unknown")


@THOROUGH
@given(net=multi_token_nets())
def test_bounded_verdict_sound(net):
    """A conclusive 'bounded' must never be contradicted by the full
    graph construction hitting an unbounded witness (the strategy draws
    genuinely unbounded nets, so the dangerous direction is hit)."""
    with persists_counterexamples("bounded", net=net):
        verdict = bounded(net)
        if not (verdict.conclusive and verdict.holds):
            return  # inconclusive is always allowed
        try:
            ReachabilityGraph(net, max_states=3000)
        except UnboundedNetError:
            raise AssertionError(
                f"symbolic called an unbounded net bounded: {verdict.reason}"
            ) from None


@EXHAUSTIVE
@given(net=multi_token_nets() | bounded_nets() | petri_nets())
def test_bounded_matches_exact_unshifted_system(net):
    """The certified shifted LP concludes exactly when the unshifted
    system ``{y >= 1, C^T y <= 0}`` is feasible under the exact simplex,
    its witness is such a ``y`` in integers, and a complete P-invariant
    basis covering every place always yields a conclusive verdict."""
    with persists_counterexamples("bounded_exact", net=net):
        verdict = bounded(net)
        places, tids, matrix = incidence_matrix(net)
        system = LinearSystem(tuple(places))
        for j in range(len(tids)):
            system.inequality([row[j] for row in matrix], 0)
        for i in range(len(places)):
            system.inequality(
                [-1 if k == i else 0 for k in range(len(places))], -1
            )
        assert verdict.conclusive == (system.solve() is not None)
        if verdict.conclusive and places:
            weights = [verdict.witness[place] for place in places]
            assert all(
                isinstance(weight, int) and weight >= 1 for weight in weights
            )
            for j in range(len(tids)):
                assert sum(
                    matrix[i][j] * weights[i] for i in range(len(places))
                ) <= 0
        invariants, truncated = p_invariants_partial(net)
        covered = set().union(*invariants)
        if not truncated and covered >= net.places:
            assert verdict.conclusive and verdict.holds, verdict.reason


@THOROUGH
@given(net=bounded_nets(max_states=1500))
def test_predicate_unreachable_sound(net):
    """Conclusive place-marking verdicts agree with the enumerated
    reachable set; a conclusive 'reachable' (exact mode) must produce a
    genuinely reachable witness."""
    with persists_counterexamples("predicate", net=net):
        reached = reachable_markings(net)
        for place in sorted(net.places):
            verdict = predicate_unreachable(net, marked=[place])
            truly_unreachable = all(m[place] == 0 for m in reached)
            if not verdict.conclusive:
                continue
            if verdict.holds:
                assert truly_unreachable, (place, verdict.reason)
            else:
                assert not truly_unreachable, (place, verdict.reason)
                assert verdict.witness in reached, (place, verdict.witness)


@RELAXED
@given(net=bounded_nets(max_states=1500))
def test_marking_unreachable_sound(net):
    """Exact-marking verdicts, probed with both genuinely reachable
    targets and a perturbed (token added) variant of each."""
    with persists_counterexamples("marking", net=net):
        reached = reachable_markings(net)
        probes = list(reached)[:5]
        place = min(net.places) if net.places else None
        for marking in list(probes):
            if place is not None:
                bumped = dict(marking)
                bumped[place] = bumped.get(place, 0) + 1
                probes.append(Marking(bumped))
        for target in probes:
            verdict = marking_unreachable(net, target)
            if not verdict.conclusive:
                continue
            if verdict.holds:
                assert target not in reached, (target, verdict.reason)
            else:
                assert target in reached, (target, verdict.reason)


@THOROUGH
@given(net=bounded_nets(max_states=1500))
def test_dead_actions_sound(net):
    """No conclusively-dead action ever fires in the full state space."""
    with persists_counterexamples("dead_actions", net=net):
        dead, _ = dead_actions(net)
        space = LazyStateSpace(net)
        space.explore_all()
        fired = {
            action
            for marking in space.iter_bfs()
            for action, _, _ in space.successors(marking)
        }
        assert not (dead & fired), dead & fired


@RELAXED
@given(net1=bounded_nets(), net2=bounded_nets())
def test_language_precheck_sound(net1, net2):
    """A conclusive language pre-check verdict must match the explicit
    language comparison, in both modes."""
    with persists_counterexamples("precheck", net1=net1, net2=net2):
        for mode in ("equal", "contained"):
            verdict = language_precheck(net1, net2, mode=mode, silent=SILENT)
            if not verdict.conclusive:
                continue
            truth = compare_languages(
                net1, net2, mode=mode, silent=SILENT
            ).verdict
            assert verdict.holds == truth, (mode, verdict.reason)


@RELAXED
@given(
    net1=bounded_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS, max_states=400
    ),
    net2=bounded_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS, max_states=400
    ),
)
def test_receptiveness_parity_with_eager(net1, net2):
    """engine=symbolic reports the same receptiveness verdict and the
    same failing obligations as the exhaustive (eager) brute-force scan
    of ``tests/oracle.py``: conclusively-safe obligations are safe, and
    the explicit fallback covers everything undecided."""
    with persists_counterexamples("receptiveness", net1=net1, net2=net2):
        producer = Stg(net1, outputs={"a", "b"})
        consumer = Stg(net2, inputs={"a", "b"})
        symbolic = check_receptiveness(
            producer,
            consumer,
            method="reachability",
            max_states=20_000,
            engine="symbolic",
        )
        oracle = Oracle(symbolic.composite.net, limit=20_000)
        assert oracle.complete
        expected = {
            (obligation.action, obligation.producer)
            for obligation, _ in oracle.first_failures(symbolic.obligations)
        }
        assert symbolic.is_receptive() == (not expected)
        failed = {
            (f.obligation.action, f.obligation.producer)
            for f in symbolic.failures
        }
        assert failed == expected
        assert symbolic.symbolic is not None
        counts = symbolic.symbolic
        assert counts["safe"] + counts["failed"] + counts["undecided"] == len(
            symbolic.obligations
        )


def summed(spent: list[dict]) -> dict:
    return {
        key: sum(stats[key] for stats in spent)
        for key in ("systems", "constraints", "refinement_rounds")
    }


def reference_dead_actions(net: PetriNet) -> tuple[frozenset[str], dict]:
    """``dead_actions`` by its definition: one ``predicate_unreachable``
    call per transition, each on a fresh copy of the net."""
    dead, spent = set(), []
    for action in sorted(net.actions - {EPSILON}):
        for transition in net.transitions_with_action(action):
            if not transition.preset:
                break
            verdict = predicate_unreachable(
                net.copy(), marked=transition.preset
            )
            spent.append(verdict.stats)
            if not (verdict.conclusive and verdict.holds):
                break
        else:
            dead.add(action)
    return frozenset(dead), summed(spent)


def reference_receptiveness(net: PetriNet, obligations) -> dict:
    """``symbolic_receptiveness`` by its definition: one
    ``predicate_unreachable`` call per miss choice, each on a fresh copy
    of the net, until a choice is not proven unreachable."""
    safe, failed, undecided, spent = [], [], [], []
    for obligation in obligations:
        choices = failure_miss_choices(obligation)
        if any(not misses for misses in choices):
            safe.append(obligation)
            continue
        for choice in product(*choices):
            verdict = predicate_unreachable(
                net.copy(), obligation.producer_preset, choice
            )
            spent.append(verdict.stats)
            if not (verdict.conclusive and verdict.holds):
                break
        else:
            safe.append(obligation)
            continue
        if verdict.conclusive:
            failed.append((obligation, verdict.witness))
        else:
            undecided.append(obligation)
    return {
        "safe": safe,
        "failed": failed,
        "undecided": undecided,
        "stats": {
            **summed(spent),
            "safe": len(safe),
            "failed": len(failed),
            "undecided": len(undecided),
            "exact": exactness_applies(net.copy()),
        },
    }


@RELAXED
@given(
    net1=multi_token_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS
    ),
    net2=multi_token_nets(
        max_places=4, max_transitions=3, actions=SIGNAL_ACTIONS
    ),
)
def test_one_equation_per_call_is_invisible(net1, net2):
    """dead_actions and symbolic_receptiveness build one StateEquation
    per call and share its restrictions across queries; the dead set,
    the safe/failed/undecided partition, the statistics and the
    witnesses are those of a fresh equation per query."""
    with persists_counterexamples("shared_equation", net1=net1, net2=net2):
        composite, obligations = compose_with_obligations(
            Stg(net1, outputs={"a", "b"}), Stg(net2, inputs={"a", "b"})
        )
        net = composite.net
        assert dead_actions(net) == reference_dead_actions(net)
        outcome = symbolic_receptiveness(net, obligations)
        reference = reference_receptiveness(net, obligations)
        assert outcome.safe == reference["safe"]
        assert outcome.failed == reference["failed"]
        assert outcome.undecided == reference["undecided"]
        assert outcome.stats == reference["stats"]


@RELAXED
@given(net=multi_token_nets(), data=st.data())
def test_mutated_net_gets_a_new_equation(net, data):
    """A net mutated between two dead_actions calls is answered from
    its new structure, never from the first call's equation."""
    with persists_counterexamples("mutated_equation", net=net):
        assert dead_actions(net) == reference_dead_actions(net)
        places = sorted(net.places)
        if data.draw(st.booleans(), label="add a transition"):
            net.add_transition(
                data.draw(st.sets(st.sampled_from(places), max_size=2)),
                data.draw(st.sampled_from(ACTIONS)),
                data.draw(st.sets(st.sampled_from(places), max_size=2)),
            )
        else:
            net.set_initial(
                Marking.from_places(
                    data.draw(st.lists(st.sampled_from(places), max_size=3))
                )
            )
        assert dead_actions(net) == reference_dead_actions(net)
