"""repro — Communicating Petri nets for concurrent asynchronous module design.

A production-quality reproduction of *"A Communicating Petri Net Model
for the Design of Concurrent Asynchronous Modules"* (G. de Jong and
B. Lin, DAC 1994).

Public API overview
-------------------

Import each name from the module that defines it, e.g.
``from repro.petri.net import PetriNet`` or
``from repro.verify.receptiveness import check_receptiveness``.
Packages export nothing, so a program loads only the modules it
imports.  The one exception is :mod:`repro.obs`, which re-exports its
instrumentation API; every layer loads those modules anyway.

* :mod:`repro.petri` — general labeled Petri nets, markings,
  reachability, structural theory, trace semantics.
* :mod:`repro.algebra` — the paper's net algebra: nil / prefix / rename,
  choice with root unwinding, rendez-vous parallel composition, hiding
  as net contraction.
* :mod:`repro.stg` — Signal Transition Graphs: signal interpretation,
  encoded state graphs, consistency / coding checks, boolean guards.
* :mod:`repro.core` — Communicating Interface Processes (CIP), abstract
  channel expansion to handshakes, the circuit algebra, compositional
  synthesis and environment-driven simplification.
* :mod:`repro.verify` — receptiveness and language-level verification.
* :mod:`repro.synth` — state-graph based logic synthesis of speed-
  independent implementations and a gate-level simulator.
* :mod:`repro.models` — the paper's protocol-translator case study and a
  library of classic asynchronous modules.
* :mod:`repro.io` — astg (.g) / DOT / JSON / PNML / TINA interchange.
* :mod:`repro.cache` — the content-addressed verdict and algebra cache.
* :mod:`repro.bench` — the corpus differential harness behind
  ``cip bench``.
* :mod:`repro.obs` — spans, counters and gauges for every layer.
"""

__version__ = "1.0.0"
