"""The paper's primary contribution: Communicating Interface Processes.

* :mod:`repro.core.cip` — the CIP graph model (Definition 3.1),
* :mod:`repro.core.channels` — abstract channels and delay-insensitive
  value encodings (Sperner condition),
* :mod:`repro.core.expansion` — automatic expansion of abstract events
  to 4-phase / 2-phase handshakes and encoded data transfers,
* :mod:`repro.core.circuit` — the circuit algebra ``C = (I, O, N)``
  (Section 5.1),
* :mod:`repro.core.synthesis` — compositional, environment-driven
  reduction (Section 5.2, Theorem 5.1).
"""
