"""Signal Transition Graphs (Section 2.2) and their encoded state graphs.

This package interprets labeled Petri nets as STGs: transition labels
become signal events with rise/fall plus the generalized toggle /
stable / unstable / don't-care kinds of [9], arcs may carry boolean
guards on signal levels, and the reachable states carry three-valued
signal encodings.
"""
