"""General labeled Petri nets: structure, dynamics and analysis.

This package is the substrate of the reproduction: the paper's algebra
(:mod:`repro.algebra`), the STG interpretation (:mod:`repro.stg`) and the
CIP model (:mod:`repro.core`) are all built on the net structures defined
here.

The central classes are :class:`~repro.petri.net.PetriNet` (Definition 2.1
of the paper), :class:`~repro.petri.marking.Marking` (Definition 2.2) and
:class:`~repro.petri.reachability.ReachabilityGraph`.
"""

from repro.petri.compiled import CompiledNet, CompiledSpace
from repro.petri.independence import IndependenceRelation, StubbornSelector
from repro.petri.marking import Marking
from repro.petri.net import PetriNet, Transition
from repro.petri.product import (
    ENGINES,
    ExplorationStats,
    LanguageComparison,
    LazyStateSpace,
    SynchronousProduct,
    compare_languages,
    deterministic_bisimulation,
    resolve_engine,
)
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError
from repro.petri.simulation import (
    SimulationError,
    TokenGame,
    WalkResult,
    estimate_action_frequencies,
    random_walk,
)
from repro.petri.traces import (
    bounded_language,
    hide_language,
    language_of_net,
    parallel_compose_languages,
    parallel_compose_traces,
    project_trace,
    project_language,
    rename_language,
)

__all__ = [
    "CompiledNet",
    "CompiledSpace",
    "Marking",
    "PetriNet",
    "Transition",
    "ReachabilityGraph",
    "ENGINES",
    "ExplorationStats",
    "IndependenceRelation",
    "StubbornSelector",
    "LanguageComparison",
    "LazyStateSpace",
    "SynchronousProduct",
    "compare_languages",
    "deterministic_bisimulation",
    "resolve_engine",
    "SimulationError",
    "TokenGame",
    "UnboundedNetError",
    "WalkResult",
    "estimate_action_frequencies",
    "random_walk",
    "bounded_language",
    "hide_language",
    "language_of_net",
    "parallel_compose_languages",
    "parallel_compose_traces",
    "project_trace",
    "project_language",
    "rename_language",
]
