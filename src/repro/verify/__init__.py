"""Verification: receptiveness (Section 5.3) and exact language checks.

* :mod:`repro.verify.receptiveness` — the Proposition 5.5/5.6 failure
  check on composed modules, with the Theorem 5.7 structural fast path
  for marked graphs and the ``hide'`` refinement.
* :mod:`repro.verify.language` — DFA-based trace-language equality and
  containment for bounded nets (exact Theorems 4.5/4.7 and 5.1 checks).
* :mod:`repro.verify.equivalence` — strong/weak bisimulation and CSP
  failures semantics (refinement, deadlock traces), finer than the
  paper's trace semantics.
"""
