"""Model library: the paper's example nets and classic asynchronous modules.

* :mod:`repro.models.paper_figures` — the Figure 1-3 algebra examples,
* :mod:`repro.models.protocol_translator` — the Section 6 case study
  (Figures 4-9, Table 1),
* :mod:`repro.models.library` — handshake components, C-element,
  toggle, 2-phase pipeline stages, and a general-net arbiter.
"""
