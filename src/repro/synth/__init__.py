"""Logic synthesis of speed-independent circuits from STGs.

The substrate the paper assumes ("if each of these STGs is synthesized
correctly..."): next-state function extraction from the encoded state
graph, two-level minimization, complex-gate and C-element
implementation styles, and a closed-loop simulator validating the
synthesized logic against its specification.
"""
