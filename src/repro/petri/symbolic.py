"""State-equation symbolic engine: semi-decision without enumeration.

Every other engine in this project (onthefly, por, parallel) and the
reachability graph enumerate markings, so the whole verification stack
is bounded by what fits in an explorer.  This module answers the same questions by linear
algebra over the incidence matrix instead:

    M  =  M0 + C·x,   x >= 0                       (the state equation)

Every reachable marking satisfies the state equation, so *infeasibility*
of a constraint system built on it is a proof of unreachability — with
no state ever constructed.  Feasibility proves nothing in general (the
equation ignores ordering), which makes this a *semi-decision*
procedure: verdicts are either CONCLUSIVE (and then sound) or
INCONCLUSIVE (and then the caller falls back to an explicit engine).

Three refinements sharpen the over-approximation:

* **Connected-component restriction** — a system constraining places
  ``S`` only needs the components of the place/transition graph that
  contain ``S``; every other component is satisfied by ``x = 0``.  This
  keeps obligation systems O(channel)-sized on banks of independent
  channels, regardless of how many channels the composite has.
* **Trap refinement** (Esparza's classical strengthening) — if the
  current rational solution empties an initially-marked trap, the trap
  constraint ``sum(M(Q)) >= 1`` is sound for every reachable marking
  and cuts the solution off; re-solve, up to a bounded number of
  rounds.
* **Marked-graph exactness** (Theorem 5.7) — for live marked graphs the
  state equation characterises reachability exactly, so a feasible
  (integral) solution is a CONCLUSIVE witness, not merely inconclusive.

Every CONCLUSIVE verdict rests on exact arithmetic — no float drift
can flip a verdict.  Incidence rows, initial markings and every
constraint row stay Python integers: one :class:`StateEquation` per
net holds them, and :class:`fractions.Fraction` lives only inside the
exact run's own tableau.  One dependency-free phase-1 simplex
(Dantzig's rule) decides every system, in two arithmetics: over
``Fraction`` with tolerance 0 (the authority; Bland's rule takes over
past an iteration limit, so the run terminates) and over floats with
tolerance ``1e-9·scale`` (a *screen* that runs first and gives up at
that limit).  A float-feasible system is reported feasible directly
where feasible only ever means INCONCLUSIVE, while float infeasibility
is always re-proven exactly before anything is concluded.
:func:`bounded` is one such system, solved shifted, whose feasible
float proposal concludes something and is therefore accepted only
after an exact integer check of the weighting it proposes.

Constraint derivation and conclusiveness semantics are documented in
``docs/SYMBOLIC.md``.
"""

from __future__ import annotations

from collections.abc import Iterable
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _product
from math import lcm

from repro.obs import metrics as obs
from repro.petri.marking import Marking
from repro.petri.net import EPSILON, PetriNet
from repro.petri.structural import incidence_matrix, maximal_trap

#: Trap-constraint refinement rounds per system before giving up.
DEFAULT_TRAP_ROUNDS = 8

#: Systems whose restricted component exceeds these sizes are not solved
#: (exact simplex over Fractions is polynomial but not cheap); the query
#: reports INCONCLUSIVE with the size in its reason instead of hanging.
MAX_SYSTEM_VARIABLES = 400
MAX_SYSTEM_PLACES = 600

#: ``dead_actions`` solves one system per transition; past this many
#: transitions it declines (INCONCLUSIVE everywhere) rather than stall.
DEAD_ACTION_TRANSITION_BUDGET = 128

#: Exact pivots per solve before a query is reported undecided.  Exact
#: infeasibility proofs on well-conditioned systems finish in a handful
#: of pivots; runaway pivot chains (where Fraction coefficients grow
#: without bound) are cut here and fall back to the explicit engines.
DEFAULT_PIVOT_BUDGET = 64

#: Bit-length bound on any single tableau entry (numerator plus
#: denominator) under a budgeted solve.  Pivot *cost*, not count, is
#: what stalls the exact solver — entries past this size make every
#: further pivot slower, so the solve is abandoned as undecided.
PIVOT_ENTRY_BITS = 256

#: Denominator bound when rounding a float proposal to rationals; a
#: rounded weighting that fails the exact check goes to the exact
#: simplex, so the bound trades only speed, never soundness.
ROUNDING_DENOMINATOR = 1 << 16

#: Incidence entries are -1, 0 or +1: the exact run's tableau reuses
#: these three Fractions instead of building one per entry.
_SHARED = {value: Fraction(value) for value in (-1, 0, 1)}


def _rational(value) -> Fraction:
    shared = _SHARED.get(value)
    return shared if shared is not None else Fraction(value)


# -- linear feasibility ------------------------------------------------------


class PivotBudgetExceeded(Exception):
    """The exact simplex hit its pivot budget before reaching a verdict.

    Raised only when :meth:`LinearSystem.solve` is given an explicit
    ``pivot_budget`` (:meth:`LinearSystem.screened_solve` reports the
    same outcome as ``"unknown"``); callers translate it into an
    INCONCLUSIVE verdict, which is always sound for a semi-decision
    procedure."""


@dataclass(frozen=True)
class Constraint:
    """One row ``coeffs . x  <rel>  rhs`` over non-negative variables,
    in Python integers.

    ``relation`` is ``"<="`` or ``"=="``; ``tag`` names the row for
    diagnostics and for the hand-computed encoding tests.  Immutable,
    so one row may sit in many systems: a :class:`StateEquation`
    restriction builds its ``nonneg`` rows once and shares them."""

    coeffs: tuple[int, ...]
    relation: str
    rhs: int
    tag: str = ""

    def __str__(self) -> str:
        terms = " + ".join(
            f"{c}*x[{i}]" for i, c in enumerate(self.coeffs) if c
        )
        return f"{self.tag or 'row'}: {terms or '0'} {self.relation} {self.rhs}"


@dataclass
class LinearSystem:
    """A feasibility problem ``{x >= 0, constraints}`` over named
    variables.

    One phase-1 simplex (:meth:`_phase1`) decides it: inequalities get
    slack variables, rows are normalised to non-negative right-hand
    sides, artificial variables form the starting basis, and their sum
    is minimised with Dantzig's entering rule.  The system is feasible
    iff that minimum is zero; the final basis then yields a solution.
    The routine runs over :class:`fractions.Fraction` (:meth:`solve`,
    the authority) or over floats (the screen of
    :meth:`screened_solve`).

    Rows are stored as given, integer coefficients and right-hand
    sides; each solve builds its own tableau from them, so a system
    can be solved again after more rows are added."""

    variables: tuple[str, ...]
    constraints: list[Constraint] = field(default_factory=list)

    def _add(self, coeffs, relation: str, rhs: int, tag: str) -> Constraint:
        row = tuple(coeffs)
        if len(row) != len(self.variables):
            raise ValueError(
                f"constraint {tag!r} has {len(row)} coefficients for"
                f" {len(self.variables)} variables"
            )
        constraint = Constraint(row, relation, rhs, tag)
        self.constraints.append(constraint)
        return constraint

    def inequality(self, coeffs, rhs, tag: str = "") -> Constraint:
        """Add ``coeffs . x <= rhs``."""
        return self._add(coeffs, "<=", rhs, tag)

    def equality(self, coeffs, rhs, tag: str = "") -> Constraint:
        """Add ``coeffs . x == rhs``."""
        return self._add(coeffs, "==", rhs, tag)

    def num_constraints(self) -> int:
        return len(self.constraints)

    def _phase1(
        self, exact: bool, pivot_budget: int | None = None
    ) -> tuple[str, dict | None]:
        """Phase 1 over ``Fraction`` with tolerance 0 (``exact``) or over
        floats with tolerance ``1e-9·scale``, ``scale`` being the
        largest right-hand side magnitude (at least 1).  The exact run
        lifts the integer rows with :func:`_rational` into its own
        tableau; the float run reads them directly, and Python's
        int/float arithmetic yields the same floats a float copy of the
        rows would.

        Returns ``("feasible", values)``, ``("infeasible", None)`` or
        ``("unknown", None)``.  Only rows that cannot start from their
        own slack — equalities, and inequalities whose right-hand side
        is negative — receive an artificial variable; on state-equation
        systems that is a handful of obligation rows against hundreds
        of non-negativity rows, so phase 1 starts almost feasible.

        Dantzig's rule is fast in practice but can cycle on degenerate
        systems.  Past an iteration limit the float run answers
        ``"unknown"`` and the exact run switches to Bland's rule, which
        terminates.  ``pivot_budget`` (exact runs only) answers
        ``"unknown"`` past that many pivots, or once a pivot row holds
        an entry longer than :data:`PIVOT_ENTRY_BITS`: exact rational
        pivot cost grows with coefficient size, so a budget keeps
        worst-case systems from stalling the engine."""
        number = Fraction if exact else float
        zero, one = number(0), number(1)
        n = len(self.variables)
        slacks = sum(1 for c in self.constraints if c.relation == "<=")
        total = n + slacks
        width = total + 1 + sum(
            1 for c in self.constraints if c.relation != "<=" or c.rhs < 0
        )
        tableau: list[list] = []
        basis: list[int] = []
        cost = [zero] * width
        padding = [zero] * (width - n)
        slack, artificial = n, total
        for constraint in self.constraints:
            if constraint.relation not in ("<=", "=="):
                raise ValueError(
                    f"unknown relation {constraint.relation!r}"
                )
            if exact:
                row = [*map(_rational, constraint.coeffs), *padding]
                row[-1] = _rational(constraint.rhs)
            else:
                row = [*constraint.coeffs, *padding]
                row[-1] = constraint.rhs
            if constraint.relation == "<=":
                row[slack] = one
                slack += 1
            if constraint.rhs < 0:
                row = [-v for v in row]
            if constraint.relation == "<=" and constraint.rhs >= 0:
                basis.append(slack - 1)
            else:
                row[artificial] = one
                basis.append(artificial)
                artificial += 1
                cost = [c + v for c, v in zip(cost, row)]
            tableau.append(row)
        m = len(tableau)
        tolerance = 0
        if not exact:
            tolerance = 1e-9 * max([1.0, *(row[-1] for row in tableau)])
        iterations = 0
        limit = 4 * (m + total) + 64
        while True:
            iterations += 1
            if pivot_budget is not None and iterations > pivot_budget:
                return "unknown", None
            entering = None
            if iterations <= limit:
                best_cost = tolerance
                for j in range(total):
                    if cost[j] > best_cost:
                        best_cost = cost[j]
                        entering = j
            elif exact:
                entering = next(
                    (j for j in range(total) if cost[j] > 0), None
                )
            else:
                return "unknown", None
            if entering is None:
                break
            leaving = None
            best = None
            for i in range(m):
                coefficient = tableau[i][entering]
                if coefficient > tolerance:
                    ratio = tableau[i][-1] / coefficient
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leaving])
                    ):
                        best = ratio
                        leaving = i
            if leaving is None:  # float round-off: phase 1 is bounded
                return "unknown", None
            # Sparse pivot: state-equation rows carry a handful of
            # nonzeros, so touching only the pivot row's nonzero
            # columns is the difference between O(nnz) and O(width)
            # per row update.
            pivot_row = tableau[leaving]
            pivot = pivot_row[entering]
            nonzero = [j for j, v in enumerate(pivot_row) if v]
            if pivot != 1:
                for j in nonzero:
                    pivot_row[j] /= pivot
            if pivot_budget is not None and any(
                pivot_row[j].numerator.bit_length()
                + pivot_row[j].denominator.bit_length()
                > PIVOT_ENTRY_BITS
                for j in nonzero
            ):
                return "unknown", None
            for i in range(m):
                if i == leaving:
                    continue
                row = tableau[i]
                factor = row[entering]
                if factor:
                    for j in nonzero:
                        row[j] -= factor * pivot_row[j]
            factor = cost[entering]
            if factor:
                for j in nonzero:
                    cost[j] -= factor * pivot_row[j]
            basis[leaving] = entering
        if abs(cost[-1]) > tolerance:
            return "infeasible", None
        values = {name: zero for name in self.variables}
        for i, column in enumerate(basis):
            if column < n:
                values[self.variables[column]] = tableau[i][-1]
        return "feasible", values

    def solve(
        self, pivot_budget: int | None = None
    ) -> dict[str, Fraction] | None:
        """An exact feasible point, or ``None`` when infeasible.

        Exceeding ``pivot_budget`` raises :class:`PivotBudgetExceeded`
        (the caller reports the query undecided, which is always
        sound)."""
        status, values = self._phase1(True, pivot_budget)
        if status == "unknown":
            raise PivotBudgetExceeded(
                f"no verdict within {pivot_budget} pivots of entries"
                f" up to {PIVOT_ENTRY_BITS} bits"
            )
        return values

    def _solve_float(self) -> tuple[str, dict[str, float] | None]:
        """The float run of :meth:`_phase1`: a *screen* whose
        feasibility may be trusted solely where feasible means
        inconclusive, and whose infeasibility must be re-proven
        exactly before anything is concluded."""
        return self._phase1(False)

    def screened_solve(
        self,
        need_exact: bool = False,
        pivot_budget: int | None = DEFAULT_PIVOT_BUDGET,
    ) -> tuple[str, dict | None]:
        """Feasibility with the float screen in front of the exact run.

        Returns ``(status, solution)`` with status ``"feasible"``,
        ``"infeasible"``, or ``"unknown"``.  Infeasibility is always
        exact — a float "infeasible" (or "unknown") is re-proven by the
        exact run.  When ``need_exact`` is false, a float-feasible
        system is accepted as feasible and the returned solution is a
        float dict good only for heuristics (trap discovery); when
        true, the screen is skipped and the solution is exact.  An
        exact run past ``pivot_budget`` yields ``"unknown"``.  Exact
        rational pivoting dominates the solver's cost on feasible
        systems, so screening them out is the difference between
        milliseconds and seconds per obligation on composite nets."""
        if not need_exact:
            status, values = self._solve_float()
            if status == "feasible":
                return status, values
        return self._phase1(True, pivot_budget)


# -- the state equation and its component restrictions -----------------------


class StateEquation:
    """``M = M0 + C·x`` for ``net`` in Python integers, restricted to the
    components of the place/transition graph that contain ``focus`` (the
    whole net when ``focus`` is empty, or when ``restrict=False``).

    One object serves every query of a call on one net.  It holds the
    sparse incidence rows, ``M0``, a place-to-component map and
    :func:`exactness_applies` (``exact``); :meth:`restrict` derives the
    other restrictions from them, memoised per set of components.  A
    restriction builds its ``nonneg`` rows once, and every
    :meth:`base_system` starts from those immutable constraints.

    Restriction is feasibility-preserving in both directions: any
    solution of the restricted system extends to the full net with
    ``x = 0`` on the other components, and any full solution restricts.
    """

    def __init__(
        self,
        net: PetriNet,
        focus: Iterable[str] = (),
        restrict: bool = True,
    ):
        self.net = net
        self.exact: bool = exactness_applies(net)
        self.m0: dict[str, int] = {
            place: net.initial[place] for place in net.places
        }
        self._all_places = sorted(net.places)
        self._all_tids = sorted(net.transitions)
        # Column j is the j-th transition in tid order.  A place's row
        # lists its nonzero entries (j, C[p, t_j]) in column order.
        self._incidence: dict[str, list[tuple[int, int]]] = {
            place: [] for place in self._all_places
        }
        touching: dict[str, list[int]] = {
            place: [] for place in self._all_places
        }
        arcs = [net.transitions[tid].places() for tid in self._all_tids]
        for column, tid in enumerate(self._all_tids):
            transition = net.transitions[tid]
            for place in transition.consume:
                self._incidence[place].append((column, -1))
            for place in transition.produce:
                self._incidence[place].append((column, 1))
            for place in arcs[column]:
                touching[place].append(column)
        # A component is named by its first place in name order.
        self._component_of: dict[str, str] = {}
        for start in self._all_places:
            if start in self._component_of:
                continue
            self._component_of[start] = start
            frontier = [start]
            while frontier:
                for column in touching[frontier.pop()]:
                    for place in arcs[column]:
                        if place not in self._component_of:
                            self._component_of[place] = start
                            frontier.append(place)
        self._column_component = [
            self._component_of[next(iter(places))] if places else None
            for places in arcs
        ]
        self._views: dict[frozenset[str], StateEquation] = {}
        components = self._components(focus)
        self._select(components if restrict else self._components(()))

    def _components(self, focus: Iterable[str]) -> frozenset[str]:
        """The components containing ``focus``; all of them when it is
        empty."""
        focus = set(focus)
        unknown = focus.difference(self._component_of)
        if unknown:
            raise ValueError(
                f"focus places not in the net: {sorted(unknown)}"
            )
        return frozenset(
            self._component_of[place]
            for place in focus or self._component_of
        )

    def _select(self, components: frozenset[str]) -> None:
        """Make this object the restriction to ``components``."""
        self._views[components] = self
        self.places: tuple[str, ...] = tuple(
            place
            for place in self._all_places
            if self._component_of[place] in components
        )
        columns = [
            column
            for column, component in enumerate(self._column_component)
            if component in components
        ]
        self.tids: tuple[int, ...] = tuple(
            self._all_tids[column] for column in columns
        )
        self.oversized = (
            len(self.tids) > MAX_SYSTEM_VARIABLES
            or len(self.places) > MAX_SYSTEM_PLACES
        )
        self.variables: tuple[str, ...] = tuple(
            f"x{tid}" for tid in self.tids
        )
        index = {column: k for k, column in enumerate(columns)}
        #: Per restricted place, its nonzero ``(variable index,
        #: coefficient)`` pairs in variable order.
        self._rows: dict[str, tuple[tuple[int, int], ...]] = {
            place: tuple((index[j], c) for j, c in self._incidence[place])
            for place in self.places
        }
        self._base: list[Constraint] | None = None

    def restrict(self, focus: Iterable[str]) -> StateEquation:
        """The restriction to the components that contain ``focus`` (the
        whole net when it is empty), sharing this equation's rows."""
        components = self._components(focus)
        view = self._views.get(components)
        if view is None:
            view = copy(self)
            view._select(components)
        return view

    def coefficients(self, place: str) -> tuple[int, ...]:
        """The incidence row of ``place`` over the restricted tids."""
        row = [0] * len(self.variables)
        for k, c in self._rows[place]:
            row[k] = c
        return tuple(row)

    def base_system(self) -> LinearSystem:
        """``x >= 0`` plus ``M(p) = M0(p) + (C x)(p) >= 0`` for every
        restricted place."""
        if self._base is None:
            self._base = [
                Constraint(
                    tuple(-c for c in self.coefficients(place)),
                    "<=",
                    self.m0[place],
                    f"nonneg[{place}]",
                )
                for place in self.places
            ]
        return LinearSystem(self.variables, list(self._base))

    def require_marked(self, system: LinearSystem, place: str) -> None:
        """``M(place) >= 1``."""
        system.inequality(
            tuple(-c for c in self.coefficients(place)),
            self.m0[place] - 1,
            tag=f"marked[{place}]",
        )

    def require_empty(self, system: LinearSystem, place: str) -> None:
        """``M(place) <= 0`` (with non-negativity: ``M(place) = 0``)."""
        system.inequality(
            self.coefficients(place), -self.m0[place], tag=f"empty[{place}]"
        )

    def require_exact(
        self, system: LinearSystem, place: str, tokens: int
    ) -> None:
        """``M(place) == tokens``."""
        system.equality(
            self.coefficients(place),
            tokens - self.m0[place],
            tag=f"exact[{place}]",
        )

    def require_trap(
        self, system: LinearSystem, trap: frozenset[str]
    ) -> None:
        """``sum(M(p) for p in trap) >= 1`` — sound for every reachable
        marking when ``trap`` is an initially-marked trap."""
        members = sorted(trap)
        coeffs = [0] * len(self.variables)
        for place in members:
            for k, c in self._rows[place]:
                coeffs[k] -= c
        system.inequality(
            tuple(coeffs),
            sum(self.m0[place] for place in members) - 1,
            tag=f"trap[{','.join(members)}]",
        )

    def marking_of(
        self, solution: dict[str, Fraction | float]
    ) -> dict[str, Fraction | float]:
        """``M0 + C·x`` at a solution, per restricted place (exact at an
        exact solution)."""
        x = [solution[name] for name in self.variables]
        rows = self._rows
        return {
            place: self.m0[place] + sum(c * x[k] for k, c in rows[place])
            for place in self.places
        }

    def witness_marking(self, solution: dict[str, Fraction]) -> Marking:
        """The full-net marking of a restricted solution (``x = 0``
        outside the restriction, so other components keep ``M0``)."""
        values = self.marking_of(solution)
        counts: dict[str, int] = {}
        for place in sorted(self.net.places):
            value = values.get(place, self.net.initial[place])
            if value:
                counts[place] = int(value)
        return Marking(counts)

    def refine(
        self,
        system: LinearSystem,
        max_rounds: int = DEFAULT_TRAP_ROUNDS,
        need_exact: bool = False,
    ) -> tuple[str, dict | None, int]:
        """Solve with trap-constraint refinement.

        While the system is feasible, look for an initially-marked trap
        inside the zero places of the current solution; its constraint
        is sound and cuts the solution off.  Returns the final solution
        (``None`` = proven infeasible) and the rounds used.

        Infeasibility is always established by the exact solver.  With
        ``need_exact`` false the feasible path runs on the float screen
        (trap discovery only needs to know which places are zero, and
        any initially-marked trap yields a sound constraint), so the
        returned solution may hold floats; pass ``need_exact=True``
        when the caller reads the solution values (exact-mode witness
        extraction).

        Returns ``(status, solution, rounds)`` with status
        ``"feasible"``, ``"infeasible"`` (proven — the only conclusive
        outcome), or ``"unknown"`` (solver budget exhausted)."""
        status, solution = system.screened_solve(need_exact)
        rounds = 0
        while status == "feasible" and rounds < max_rounds:
            marking = self.marking_of(solution)
            zeros = {
                place for place, v in marking.items() if abs(v) <= 1e-9
            }
            trap = maximal_trap(self.net, zeros)
            if not trap or not any(self.m0[place] for place in trap):
                break
            self.require_trap(system, trap)
            rounds += 1
            status, solution = system.screened_solve(need_exact)
        return status, solution, rounds


# -- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicVerdict:
    """The answer of one symbolic query.

    ``conclusive=True`` means the verdict is *proven* (and ``holds``
    states whether the queried property holds); ``conclusive=False``
    means the procedure could not decide (``holds`` is ``None``) and
    the caller must fall back to an explicit engine.  ``witness`` is a
    query-specific certificate when one exists (a :class:`Marking` for
    exact-mode reachability, a word for language separation, an integer
    place weighting for boundedness)."""

    conclusive: bool
    holds: bool | None
    reason: str
    stats: dict = field(default_factory=dict)
    witness: object | None = None

    def __post_init__(self):
        if self.conclusive and self.holds is None:
            raise ValueError("conclusive verdicts must state holds")
        if not self.conclusive and self.holds is not None:
            raise ValueError("inconclusive verdicts must leave holds None")

    def __str__(self) -> str:
        label = (
            "INCONCLUSIVE"
            if not self.conclusive
            else ("holds" if self.holds else "fails")
        )
        return f"{label}: {self.reason}"


def _inconclusive(reason: str, stats: dict | None = None) -> SymbolicVerdict:
    return SymbolicVerdict(False, None, reason, stats or {})


def _sum_stats(*parts: dict) -> dict:
    """The solver statistics (systems, constraints, trap refinement
    rounds) summed over ``parts``."""
    return {
        key: sum(part.get(key, 0) for part in parts)
        for key in ("systems", "constraints", "refinement_rounds")
    }


def exactness_applies(net: PetriNet) -> bool:
    """``True`` iff state-equation feasibility *characterises*
    reachability on ``net`` — live marked graphs (Theorem 5.7 /
    the classical marked-graph reachability theorem)."""
    from repro.petri.classify import is_marked_graph, marked_graph_is_live

    return is_marked_graph(net) and marked_graph_is_live(net)


def _integral(marking: dict[str, Fraction]) -> bool:
    return all(value.denominator == 1 for value in marking.values())


def _predicate_system(
    equation: StateEquation, marked: Iterable[str], empty: Iterable[str]
) -> tuple[StateEquation, LinearSystem | None]:
    """The (unrefined) system "every ``marked`` place marked, every
    ``empty`` place empty, every place non-negative" over ``M = M0 +
    C·x``, on the restriction of ``equation`` to the components of
    those places, which it returns alongside.

    The system is ``None`` when that restriction is
    :attr:`~StateEquation.oversized`: no row is built."""
    marked = sorted(set(marked))
    empty = sorted(set(empty))
    equation = equation.restrict({*marked, *empty})
    if equation.oversized:
        return equation, None
    system = equation.base_system()
    for place in marked:
        equation.require_marked(system, place)
    for place in empty:
        equation.require_empty(system, place)
    return equation, system


def _predicate_verdict(
    equation: StateEquation,
    marked: Iterable[str],
    empty: Iterable[str],
    trap_rounds: int,
    exact: bool | None,
) -> SymbolicVerdict:
    """:func:`predicate_unreachable` on the net of ``equation``."""
    equation, system = _predicate_system(equation, marked, empty)
    return _solve_and_judge(
        equation,
        system,
        trap_rounds,
        exact,
        "restricted system",
        "a witness marking",
    )


def _solve_and_judge(
    equation: StateEquation,
    system: LinearSystem | None,
    trap_rounds: int,
    exact: bool | None,
    scope: str,
    found: str,
) -> SymbolicVerdict:
    """The verdict of one state-equation query, from its (unrefined)
    system — ``None`` when the equation is oversized (INCONCLUSIVE).

    CONCLUSIVE/holds when the trap-refined system is infeasible;
    INCONCLUSIVE when the exact solver's pivot budget runs out.  On
    nets where :func:`exactness_applies` (``exact`` overrides the
    classification), a feasible integral solution is CONCLUSIVE/fails
    with its witness marking; any other feasible system is
    INCONCLUSIVE.  ``scope`` and ``found`` name the system and the
    witness in the reason."""
    if system is None:
        return _inconclusive(
            f"{scope} too large ({len(equation.tids)} transitions,"
            f" {len(equation.places)} places)"
        )
    if exact is None:
        exact = equation.exact
    status, solution, rounds = equation.refine(
        system, trap_rounds, need_exact=exact
    )
    stats = {
        "systems": 1,
        "constraints": system.num_constraints(),
        "refinement_rounds": rounds,
    }
    if status == "infeasible":
        return SymbolicVerdict(
            True,
            True,
            f"state equation infeasible ({system.num_constraints()}"
            f" constraints, {rounds} trap refinements)",
            stats,
        )
    if status == "unknown":
        return _inconclusive("exact solver pivot budget exhausted", stats)
    if exact and _integral(equation.marking_of(solution)):
        return SymbolicVerdict(
            True,
            False,
            "state equation feasible and exact for live marked graphs:"
            f" {found} is reachable",
            stats,
            witness=equation.witness_marking(solution),
        )
    return _inconclusive(
        "state equation feasible (reachability not refuted)", stats
    )


def predicate_unreachable(
    net: PetriNet,
    marked: Iterable[str] = (),
    empty: Iterable[str] = (),
    trap_rounds: int = DEFAULT_TRAP_ROUNDS,
    exact: bool | None = None,
) -> SymbolicVerdict:
    """Is every marking with ``marked`` places marked and ``empty``
    places empty unreachable?

    CONCLUSIVE/holds when the (trap-refined) state equation is
    infeasible.  On nets where :func:`exactness_applies` (pass
    ``exact`` to override the classification), a feasible integral
    solution is a CONCLUSIVE/fails verdict with a witness marking.
    """
    return _predicate_verdict(
        StateEquation(net), marked, empty, trap_rounds, exact
    )


def marking_unreachable(
    net: PetriNet,
    target: Marking,
    trap_rounds: int = DEFAULT_TRAP_ROUNDS,
    exact: bool | None = None,
) -> SymbolicVerdict:
    """Is the *exact* marking ``target`` (zero on unlisted places)
    unreachable?  Same semantics as :func:`predicate_unreachable`."""
    unknown = set(target) - net.places
    if unknown:
        raise ValueError(
            f"target marks places not in the net: {sorted(unknown)}"
        )
    equation = StateEquation(net)
    system = None
    if not equation.oversized:
        system = equation.base_system()
        for place in equation.places:
            equation.require_exact(system, place, target[place])
    return _solve_and_judge(
        equation, system, trap_rounds, exact, "system", "the target marking"
    )


def _checked_weighting(
    columns: list[list[int]], y: Iterable[Fraction]
) -> list[int] | None:
    """``y`` scaled to integers when ``y >= 1`` and ``C^T y <= 0`` hold
    exactly (``columns`` are the rows of ``C^T``), else ``None``."""
    y = list(y)
    scale = lcm(*(value.denominator for value in y))
    weights = [value.numerator * (scale // value.denominator) for value in y]
    if any(weight < scale for weight in weights):
        return None
    for column in columns:
        if sum(c * w for c, w in zip(column, weights) if c) > 0:
            return None
    return weights


def bounded(net: PetriNet) -> SymbolicVerdict:
    """Is the net bounded from its initial marking?

    CONCLUSIVE/holds on a structural-boundedness certificate: a place
    weighting ``y >= 1`` with ``C^T y <= 0``, which no firing increases,
    so ``y . M <= y . M0`` bounds every reachable marking.  It is one
    linear system, solved shifted as ``y = 1 + z`` with ``z >= 0`` and
    one row ``C^T z <= -C^T 1`` per transition (the bounds need no rows,
    and a conservative net is feasible at ``z = 0``).  The float
    simplex's ``z``, rounded to nearby rationals, is accepted only if
    ``y >= 1`` and ``C^T y <= 0`` hold exactly in integers; otherwise
    the exact simplex decides.  A certificate with ``C^T y = 0`` is a
    positive P-invariant, and a net covered by P-invariants always has
    one (their sum).  The integer weighting is the verdict's
    ``witness``.  Unboundedness is never concluded symbolically —
    absence of a certificate is INCONCLUSIVE.
    """
    if not net.places:
        return SymbolicVerdict(True, True, "no places", {"systems": 0})
    places, tids, matrix = incidence_matrix(net)
    columns = [list(column) for column in zip(*matrix)]
    system = LinearSystem(tuple(places))
    for tid, column in zip(tids, columns):
        system.inequality(column, -sum(column), tag=f"column[{tid}]")
    stats = {"systems": 1, "constraints": system.num_constraints()}
    weights = None
    status, proposal = system._solve_float()
    if status == "feasible":
        weights = _checked_weighting(
            columns,
            (
                1 + Fraction(proposal[place]).limit_denominator(
                    ROUNDING_DENOMINATOR
                )
                for place in places
            ),
        )
    if weights is None:
        solution = system.solve()
        if solution is not None:
            weights = _checked_weighting(
                columns, (1 + solution[place] for place in places)
            )
    if weights is None:
        return _inconclusive(
            "no structural boundedness certificate (the net may be"
            " unbounded)",
            stats,
        )
    conserved = all(
        sum(c * w for c, w in zip(column, weights) if c) == 0
        for column in columns
    )
    return SymbolicVerdict(
        True,
        True,
        "every place covered by a positive P-invariant: the weighting"
        " is conserved by every firing"
        if conserved
        else "structurally bounded: a positive place weighting is"
        " non-increasing under every firing",
        stats,
        witness=dict(zip(places, weights)),
    )


def initial_actions(net: PetriNet) -> frozenset[str]:
    """Non-silent actions enabled at the initial marking — exact
    one-letter-word membership facts."""
    return frozenset(
        t.action
        for t in net.enabled_transitions(net.initial)
        if t.action != EPSILON
    )


def dead_actions(
    net: PetriNet, trap_rounds: int = DEFAULT_TRAP_ROUNDS
) -> tuple[frozenset[str], dict]:
    """Actions that CONCLUSIVELY never fire: every transition carrying
    the label has a state-equation-infeasible enabling condition (or
    there is no such transition at all).

    Returns ``(dead, stats)``.  Absence from ``dead`` proves nothing.
    """
    if len(net.transitions) > DEAD_ACTION_TRANSITION_BUDGET:
        return frozenset(), {**_sum_stats(), "skipped": True}
    equation = StateEquation(net)
    dead: set[str] = set()
    spent: list[dict] = []
    for action in sorted(net.actions - {EPSILON}):
        for transition in net.transitions_with_action(action):
            if not transition.preset:
                break  # enabled everywhere
            verdict = _predicate_verdict(
                equation, transition.preset, (), trap_rounds, None
            )
            spent.append(verdict.stats)
            if not (verdict.conclusive and verdict.holds):
                break
        else:
            dead.add(action)
    return frozenset(dead), _sum_stats(*spent)


def language_precheck(
    net1: PetriNet,
    net2: PetriNet,
    mode: str = "equal",
    silent: Iterable[str] = (EPSILON,),
    trap_rounds: int = DEFAULT_TRAP_ROUNDS,
) -> SymbolicVerdict:
    """Symbolic pre-check for language equality / containment.

    Exact facts only: an action enabled at a net's initial marking is a
    one-letter word of its language; a conclusively-dead action occurs
    in no word.  A one-letter word of one language whose letter is
    conclusively dead in the other separates them (CONCLUSIVE/fails,
    with the word as witness); both alphabets conclusively dead means
    both languages are ``{epsilon}`` (CONCLUSIVE/holds).  Everything
    else is INCONCLUSIVE.
    """
    if mode not in ("equal", "contained"):
        raise ValueError(f"unknown mode {mode!r}")
    silent_set = set(silent)
    visible1 = net1.actions - silent_set
    visible2 = net2.actions - silent_set
    dead1, stats1 = dead_actions(net1, trap_rounds)
    dead2, stats2 = dead_actions(net2, trap_rounds)
    stats = _sum_stats(stats1, stats2)
    # Letters a net cannot ever produce: conclusively dead, or simply
    # absent from its alphabet.
    never1 = (dead1 & visible1) | (visible2 - net1.actions)
    never2 = (dead2 & visible2) | (visible1 - net2.actions)
    one_letter1 = (initial_actions(net1) - silent_set) & (visible1 | visible2)
    one_letter2 = (initial_actions(net2) - silent_set) & (visible1 | visible2)
    separating = sorted(one_letter1 & never2)
    if not separating and mode == "equal":
        separating = sorted(one_letter2 & never1)
    if separating:
        word = separating[0]
        direction = "left" if word in one_letter1 else "right"
        return SymbolicVerdict(
            True,
            False,
            f"one-letter word {word!r} is in the {direction} language"
            " but its letter is conclusively dead on the other side",
            stats,
            witness=(word,),
        )
    left_empty = visible1 <= (dead1 & visible1)
    right_empty = visible2 <= (dead2 & visible2)
    if mode == "contained" and left_empty:
        return SymbolicVerdict(
            True,
            True,
            "left language is {epsilon}: every visible action is"
            " conclusively dead",
            stats,
        )
    if mode == "equal" and left_empty and right_empty:
        return SymbolicVerdict(
            True,
            True,
            "both languages are {epsilon}: every visible action is"
            " conclusively dead on both sides",
            stats,
        )
    return _inconclusive(
        "no exact symbolic fact decides the comparison", stats
    )


# -- Proposition 5.5 obligations as linear systems ---------------------------


def failure_miss_choices(obligation) -> list[list[str]]:
    """Per consumer alternative, the places that could be unmarked
    while the producer is ready (``preset - producer_preset``).

    An empty list for some alternative means that consumer is ready
    whenever the producer is — no failure is possible for the
    obligation."""
    return [
        sorted(preset - obligation.producer_preset)
        for preset in obligation.consumer_presets
    ]


def obligation_system(
    net: PetriNet, obligation, choice: Iterable[str]
) -> tuple[StateEquation, LinearSystem | None]:
    """The (unrefined) Prop 5.5 failure system for one miss choice: the
    :func:`predicate_unreachable` system with the producer preset
    marked and each chosen consumer place empty (``None`` when the
    restricted component is oversized)."""
    return _predicate_system(
        StateEquation(net), obligation.producer_preset, choice
    )


@dataclass
class SymbolicReceptiveness:
    """Partition of Prop 5.5 obligations by the symbolic engine:
    ``safe`` (conclusively no failure marking), ``failed`` (conclusive
    failure witnesses — exact mode only) and ``undecided`` (the
    explicit fallback set)."""

    safe: list = field(default_factory=list)
    failed: list = field(default_factory=list)  # (obligation, Marking)
    undecided: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def conclusive(self) -> bool:
        return not self.undecided


def symbolic_receptiveness(
    net: PetriNet,
    obligations,
    trap_rounds: int = DEFAULT_TRAP_ROUNDS,
) -> SymbolicReceptiveness:
    """Decide Prop 5.5 obligations by state-equation reasoning alone:
    the one pass behind both ``method="structural"`` (Theorem 5.7) and
    ``engine="symbolic"`` of ``check_receptiveness``.

    For each obligation, a failure marking exists iff for *some* choice
    of one missing place per consumer alternative, the corresponding
    constraint system has a reachable solution.  Infeasibility of every
    choice proves the obligation safe; on exact nets
    (:func:`exactness_applies`) a feasible integral choice proves a
    failure with a witness; otherwise the obligation is undecided and
    the caller must search explicitly.

    Emits ``engine.symbolic.*`` counters (systems, constraints,
    refinement rounds, conclusive/inconclusive obligations).
    """
    outcome = SymbolicReceptiveness()
    equation = StateEquation(net)
    exact = equation.exact
    spent: list[dict] = []
    for obligation in obligations:
        choices = failure_miss_choices(obligation)
        if any(not misses for misses in choices):
            # Some consumer's preset is inside the producer's: ready
            # whenever the producer is — structurally safe.
            outcome.safe.append(obligation)
            continue
        for choice in _product(*choices):
            verdict = _predicate_verdict(
                equation,
                obligation.producer_preset,
                choice,
                trap_rounds,
                exact,
            )
            spent.append(verdict.stats)
            if not (verdict.conclusive and verdict.holds):
                break
        else:
            outcome.safe.append(obligation)
            continue
        if verdict.conclusive:
            outcome.failed.append((obligation, verdict.witness))
        else:
            outcome.undecided.append(obligation)
    stats = outcome.stats = {
        **_sum_stats(*spent),
        "safe": len(outcome.safe),
        "failed": len(outcome.failed),
        "undecided": len(outcome.undecided),
        "exact": exact,
    }
    publish_stats(stats)
    obs.count("engine.symbolic.conclusive", stats["safe"] + stats["failed"])
    obs.count("engine.symbolic.inconclusive", stats["undecided"])
    return outcome


def publish_stats(stats: dict) -> None:
    """Forward accumulated solver statistics as ``engine.symbolic.*``
    counters on the active :mod:`repro.obs` recorder."""
    obs.count("engine.symbolic.systems", stats.get("systems", 0))
    obs.count("engine.symbolic.constraints", stats.get("constraints", 0))
    obs.count(
        "engine.symbolic.refinement_rounds",
        stats.get("refinement_rounds", 0),
    )


def analyze(net: PetriNet, trap_rounds: int = DEFAULT_TRAP_ROUNDS) -> dict:
    """The bench-cell view of one net: boundedness verdict and the
    conclusively-dead action set, with accumulated solver statistics."""
    with obs.span("engine.symbolic.analyze", net=net.name) as span:
        bounded_verdict = bounded(net)
        dead, dead_stats = dead_actions(net, trap_rounds)
        stats = _sum_stats(bounded_verdict.stats, dead_stats)
        publish_stats(stats)
        obs.count(
            "engine.symbolic.conclusive", int(bounded_verdict.conclusive)
        )
        obs.count(
            "engine.symbolic.inconclusive",
            int(not bounded_verdict.conclusive),
        )
        span.set(
            bounded_conclusive=bounded_verdict.conclusive,
            dead_actions=len(dead),
        )
    return {
        "bounded": bounded_verdict,
        "dead_actions": dead,
        "stats": stats,
    }
