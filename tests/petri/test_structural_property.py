"""The pure-Python structural routines against reference oracles.

* The Farkas semiflows, of nets and of small integer matrices, against
  a brute-force search of every small non-negative vector: whatever
  the search finds must contain the support of a returned semiflow,
  and nothing it finds may sit strictly inside one.
* ``fraction_rank``, against numpy's ``matrix_rank``.
* ``marked_graph_is_live_safe``, against the reachability graph
  behind ``analyze``.
"""

from __future__ import annotations

from itertools import product
from math import gcd

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.petri.analysis import analyze
from repro.petri.classify import marked_graph_is_live_safe
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import UnboundedNetError
from repro.petri.structural import (
    _minimal_semiflows,
    fraction_rank,
    incidence_matrix,
    p_invariants,
    t_invariants,
)

from tests.strategies import petri_nets

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

#: Entries of the brute-force vectors range over ``0..BOX``.
BOX = 3


def _check_semiflows(returned: list[list[int]], rows: list[list[int]]) -> None:
    """``returned`` are the minimal semiflows ``x >= 0, x^T rows = 0``
    as far as a search of ``{0..BOX}^n`` can tell."""
    columns = list(zip(*rows))

    def solves(vector) -> bool:
        return all(sum(x * c for x, c in zip(vector, col)) == 0 for col in columns)

    supports = []
    for vector in returned:
        assert all(x >= 0 for x in vector) and any(vector), vector
        assert solves(vector), vector
        assert gcd(*vector) == 1, vector
        supports.append(frozenset(i for i, x in enumerate(vector) if x))
    for first in supports:
        assert sum(first <= second for second in supports) == 1, supports
    for vector in product(range(BOX + 1), repeat=len(rows)):
        if any(vector) and solves(vector):
            support = frozenset(i for i, x in enumerate(vector) if x)
            assert any(known <= support for known in supports), vector
            assert not any(support < known for known in supports), vector


@PROPERTY
@given(net=petri_nets(max_places=4, max_transitions=5))
def test_semiflows_match_brute_force(net):
    places, tids, matrix = incidence_matrix(net)
    invariants = p_invariants(net)
    _check_semiflows(
        [[invariant.get(p, 0) for p in places] for invariant in invariants],
        matrix,
    )
    flows = t_invariants(net)
    _check_semiflows(
        [[flow.get(t, 0) for t in tids] for flow in flows],
        [list(column) for column in zip(*matrix)],
    )


@PROPERTY
@given(
    matrix=st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
            min_size=1,
            max_size=4,
        )
    )
)
def test_semiflows_of_integer_matrices_match_brute_force(matrix):
    """Entries beyond the ``-1..1`` of an incidence matrix make the
    eliminations combine rows with weights above 1."""
    vectors, truncated = _minimal_semiflows(matrix)
    assert not truncated
    _check_semiflows(vectors, matrix)


@PROPERTY
@given(
    matrix=st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            min_size=1,
            max_size=5,
        )
    )
)
def test_fraction_rank_matches_numpy(matrix):
    assert fraction_rank(matrix) == np.linalg.matrix_rank(np.array(matrix))


@st.composite
def marked_graphs(draw) -> PetriNet:
    """Every place has one producer and one consumer.  A ring through
    all transitions, in most draws, makes long cycles common; the other
    places add chords and self-loops, or, without the ring, leave
    source and sink transitions."""
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=5))
    ends = st.integers(0, len(labels) - 1)
    ring = [(i, (i + 1) % len(labels)) for i in range(len(labels))]
    if draw(st.integers(0, 3)) == 0:
        ring = []
    extra = draw(st.lists(st.tuples(ends, ends), max_size=4))
    presets: list[set[str]] = [set() for _ in labels]
    postsets: list[set[str]] = [set() for _ in labels]
    tokens = {}
    for index, (producer, consumer) in enumerate(ring + extra):
        postsets[producer].add(f"p{index}")
        presets[consumer].add(f"p{index}")
        tokens[f"p{index}"] = draw(st.sampled_from([0, 0, 1, 1, 2]))
    if ring and draw(st.booleans()):
        # One token on the ring: live and safe unless a chord spoils it.
        marked = draw(st.integers(0, len(ring) - 1))
        for index in range(len(ring)):
            tokens[f"p{index}"] = int(index == marked)
    net = PetriNet("marked_graph")
    for label, preset, postset in zip(labels, presets, postsets):
        net.add_transition(preset, label, postset)
    net.set_initial(Marking({p: n for p, n in tokens.items() if n}))
    return net


@PROPERTY
@given(net=marked_graphs())
def test_marked_graph_live_safe_matches_analyze(net):
    try:
        behaviour = analyze(net, max_states=3000)
    except UnboundedNetError as error:
        assume(error.bound is None)
        expected = False
    else:
        expected = behaviour.live and behaviour.safe
    assert marked_graph_is_live_safe(net) == expected
