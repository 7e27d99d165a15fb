"""General labeled Petri nets: structure, dynamics and analysis.

This package is the substrate of the reproduction: the paper's algebra
(:mod:`repro.algebra`), the STG interpretation (:mod:`repro.stg`) and the
CIP model (:mod:`repro.core`) are all built on the net structures defined
here.

The central classes are :class:`~repro.petri.net.PetriNet` (Definition 2.1
of the paper), :class:`~repro.petri.marking.Marking` (Definition 2.2) and
:class:`~repro.petri.reachability.ReachabilityGraph`.
"""
