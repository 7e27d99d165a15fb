"""Trace-theory conformance via the mirror construction.

An implementation *conforms* to a specification when it can be safely
substituted for it in every environment the specification works in.
The classical check (Dill): compose the implementation with the
*mirror* of the specification (the specification's most liberal
environment) and verify that no failure occurs — here, the
Proposition 5.5 receptiveness condition, plus trace containment of the
implementation's output behaviour.

This packages the paper's Section 5.3 machinery into the standard
substitutability question asked by hierarchical design flows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import metrics as obs
from repro.petri.net import EPSILON
from repro.stg.stg import Stg, mirror
from repro.verify.language import language_contained
from repro.verify.receptiveness import ReceptivenessReport, check_receptiveness


@dataclass
class ConformanceReport:
    """Outcome of a conformance check."""

    trace_contained: bool
    receptiveness: ReceptivenessReport
    interface_ok: bool
    interface_errors: tuple[str, ...]

    def conforms(self) -> bool:
        return (
            self.interface_ok
            and self.trace_contained
            and self.receptiveness.is_receptive()
        )

    def __str__(self) -> str:
        if self.conforms():
            return "conforms"
        reasons = []
        if not self.interface_ok:
            reasons += list(self.interface_errors)
        if not self.trace_contained:
            reasons.append("implementation has traces the spec forbids")
        if not self.receptiveness.is_receptive():
            reasons.append(str(self.receptiveness))
        return "does NOT conform: " + "; ".join(reasons)


def check_conformance(
    implementation: Stg,
    specification: Stg,
    max_states: int = 1_000_000,
    engine: str | None = None,
) -> ConformanceReport:
    """Check that ``implementation`` can replace ``specification``.

    Three conditions:

    1. **interface**: same input and output signal sets;
    2. **safety**: the implementation's visible traces are contained in
       the specification's (it never produces an output the spec could
       not);
    3. **receptiveness**: composed with the specification's mirror, no
       Proposition 5.5 failure occurs (the implementation accepts every
       input the spec's environments may produce, whenever they may
       produce it).

    ``engine`` selects the exploration engine for conditions 2 and 3
    (``"onthefly"`` by default — lazy product exploration with early
    exit; ``"por"`` adds stubborn-set partial-order reduction to both
    the containment check and the mirror-composition receptiveness
    search).
    """
    from repro.petri.product import DEFAULT_ENGINE, resolve_engine

    engine = resolve_engine(engine if engine is not None else DEFAULT_ENGINE)
    errors: list[str] = []
    if implementation.inputs != specification.inputs:
        errors.append(
            f"input mismatch: {sorted(implementation.inputs)} vs"
            f" {sorted(specification.inputs)}"
        )
    if implementation.outputs != specification.outputs:
        errors.append(
            f"output mismatch: {sorted(implementation.outputs)} vs"
            f" {sorted(specification.outputs)}"
        )
    with obs.span("verify.conformance.containment", engine=engine) as span:
        contained = language_contained(
            implementation.net,
            specification.net,
            silent={EPSILON},
            max_states=max_states,
            engine=engine,
        )
        span.set(verdict=contained)
    with obs.span("verify.conformance.receptiveness", engine=engine) as span:
        environment = mirror(specification)
        receptiveness = check_receptiveness(
            environment,
            implementation,
            method="reachability",
            max_states=max_states,
            engine=engine,
        )
        span.set(verdict=receptiveness.is_receptive())
    return ConformanceReport(
        trace_contained=contained,
        receptiveness=receptiveness,
        interface_ok=not errors,
        interface_errors=tuple(errors),
    )


def conforms(
    implementation: Stg,
    specification: Stg,
    max_states: int = 1_000_000,
    engine: str | None = None,
) -> bool:
    """Boolean shorthand for :func:`check_conformance`."""
    return check_conformance(
        implementation, specification, max_states, engine=engine
    ).conforms()
