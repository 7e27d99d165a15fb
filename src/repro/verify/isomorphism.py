"""Structural net isomorphism (place-renaming equivalence).

Two nets are isomorphic when a bijection on places maps one onto the
other, preserving the initial marking and the multiset of transitions:
preset, label, postset and the guards on input arcs, compared by their
textual form as in :meth:`~repro.petri.net.PetriNet.structurally_equal`.
Used to compare derived nets against hand-built references up to the
fresh names the algebra generates.

Colour refinement on the bipartite place/transition graph splits the
places into classes no isomorphism can cross.  A backtracking search
then maps the places breadth-first, each to an unused place of its
class next to the image of the place it was reached from, and backs
off as soon as a transition whose places are all mapped has no image
left in the other net.
"""

from __future__ import annotations

from collections import Counter, deque

from repro.petri.net import PetriNet, Transition


def _nodes(net: PetriNet) -> dict[tuple, tuple[object, list[tuple]]]:
    """Each node with its first colour (tokens or label) and its arcs as
    ``(role, guard text, neighbour)`` triples."""
    nodes = {("p", p): (net.initial[p], []) for p in sorted(net.places)}
    for tid, transition in sorted(net.transitions.items()):
        nodes[("t", tid)] = (transition.action, [])
        for role, back, places in (
            ("pre", "out", transition.preset),
            ("post", "in", transition.postset),
        ):
            for place in sorted(places):
                guard = net.guard_of(place, tid) if role == "pre" else None
                text = None if guard is None else str(guard)
                nodes[("t", tid)][1].append((role, text, ("p", place)))
                nodes[("p", place)][1].append((back, text, ("t", tid)))
    return nodes


def _refine(graphs) -> list[dict[tuple, int]]:
    """Stable colours of both nets' nodes.  One palette per round serves
    both nets, so equal colours mean equal refinement histories."""
    colours = [{node: first for node, (first, _) in g.items()} for g in graphs]
    classes = 0
    while True:
        palette: dict[tuple, int] = {}
        colours = [
            {
                node: palette.setdefault(
                    (node[0], colour[node], frozenset(Counter(
                        (role, text, colour[other]) for role, text, other in arcs
                    ).items())),
                    len(palette),
                )
                for node, (_, arcs) in graph.items()
            }
            for colour, graph in zip(colours, graphs)
        ]
        if len(palette) == classes:
            return colours
        classes = len(palette)


def _image(net: PetriNet, transition: Transition, rename) -> tuple:
    """The transition as a hashable value, its places renamed."""
    guards = ((p, net.guard_of(p, transition.tid)) for p in transition.preset)
    return (
        frozenset(map(rename, transition.preset)),
        transition.action,
        frozenset(map(rename, transition.postset)),
        frozenset((rename(p), str(g)) for p, g in guards if g is not None),
    )


def _near(graph) -> dict[str, list[str]]:
    """Each place's neighbours: the places one transition away."""
    return {
        name: sorted({q for *_, t in arcs for *_, (_, q) in graph[t][1]})
        for (kind, name), (_, arcs) in graph.items()
        if kind == "p"
    }


def place_bijection(net1: PetriNet, net2: PetriNet) -> dict[str, str] | None:
    """A witnessing place bijection if the nets are isomorphic."""
    graphs = [_nodes(net1), _nodes(net2)]
    colour1, colour2 = _refine(graphs)
    if Counter(colour1.values()) != Counter(colour2.values()):
        return None
    near1, near2 = map(_near, graphs)
    pool: dict[int, list[str]] = {}
    for (kind, place), colour in colour2.items():
        if kind == "p":
            pool.setdefault(colour, []).append(place)
    # Breadth-first from the rarest classes.  A place found from a
    # neighbour ``via`` can only map to a neighbour of ``via``'s image,
    # and its transitions close (have all their places mapped) early.
    order: list[str] = []
    via: dict[str, str | None] = {}
    for root in sorted(net1.places, key=lambda p: (len(pool[colour1["p", p]]), p)):
        queue = deque([] if root in via else [root])
        via.setdefault(root, None)
        while queue:
            order.append(queue.popleft())
            for place in near1[order[-1]]:
                if place not in via:
                    via[place] = order[-1]
                    queue.append(place)

    def candidates(depth: int):
        place = order[depth]
        if via[place] is None:
            return iter(pool[colour1["p", place]])
        return (
            image
            for image in near2[mapping[via[place]]]
            if colour2["p", image] == colour1["p", place]
        )

    # Each transition is matched at the depth that maps its last place;
    # the colours already matched those without places.  (``str`` is the
    # identity on place names.)
    depth_of = {place: depth for depth, place in enumerate(order)}
    due: list[list[Transition]] = [[] for _ in order]
    for transition in net1.transitions.values():
        if transition.places():
            due[max(map(depth_of.get, transition.places()))].append(transition)
    wanted = Counter(_image(net2, t, str) for t in net2.transitions.values())
    mapping: dict[str, str] = {}
    used: set[str] = set()
    trail: list[tuple] = []
    options = candidates(0) if order else iter(())
    while len(trail) < len(order):
        place = order[len(trail)]
        for image in options:
            if image in used:
                continue
            mapping[place] = image
            keys = [_image(net1, t, mapping.get) for t in due[len(trail)]]
            wanted.subtract(keys)
            if all(wanted[key] >= 0 for key in keys):
                used.add(image)
                trail.append((options, keys))
                if len(trail) < len(order):
                    options = candidates(len(trail))
                break
            wanted.update(keys)
            del mapping[place]
        else:
            if not trail:
                return None
            options, keys = trail.pop()
            wanted.update(keys)
            used.discard(mapping.pop(order[len(trail)]))
    return mapping


def isomorphic(net1: PetriNet, net2: PetriNet) -> bool:
    """``True`` iff the nets are identical up to place renaming and
    transition re-identification (labels and guards must match exactly)."""
    return place_bijection(net1, net2) is not None
