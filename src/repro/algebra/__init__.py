"""The paper's Petri net algebra (Section 4).

Process-algebra operators defined *directly on net structure* — no
unfolding, no restriction to safe nets:

* :func:`~repro.algebra.operators.nil` — the deadlock process (Def 4.2),
* :func:`~repro.algebra.operators.prefix` — action prefix (Def 4.3),
* :func:`~repro.algebra.operators.rename` — label renaming (Def 4.4),
* :func:`~repro.algebra.choice.root_unwinding` and
  :func:`~repro.algebra.choice.choice` — nondeterministic choice via
  root unwinding (Defs 4.5/4.6, Fig 1),
* :func:`~repro.algebra.compose.parallel` — rendez-vous parallel
  composition by transition fusion (Def 4.7, Fig 2, Thm 4.5),
* :func:`~repro.algebra.hide.hide` — hiding as generalized net
  contraction (Def 4.10, Fig 3, Thm 4.7),
* :func:`~repro.algebra.dead.remove_dead_transitions` — the post-
  composition cleanup of Section 5.2.
"""
