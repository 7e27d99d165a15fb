"""Interchange formats: astg ``.g``, Graphviz DOT, JSON, PNML, TINA ``.net``."""
