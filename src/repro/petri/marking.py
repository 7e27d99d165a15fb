"""Markings of Petri nets (Definition 2.2 of the paper).

A marking maps places to natural numbers.  Markings are immutable and
hashable so they can serve directly as nodes of a reachability graph.
Only places with a non-zero token count are stored; every absent place
implicitly holds zero tokens.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

Place = str


class Marking(Mapping[Place, int]):
    """An immutable multiset of tokens over places.

    ``Marking({"p": 1, "q": 2})`` holds one token in ``p`` and two in
    ``q``; every other place holds zero.  Zero entries are normalised
    away so two markings are equal iff they assign the same count to
    every place.
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Mapping[Place, int] | Iterable[tuple[Place, int]] = ()):
        items = counts.items() if isinstance(counts, Mapping) else counts
        cleaned: dict[Place, int] = {}
        for place, count in items:
            if count < 0:
                raise ValueError(f"negative token count {count} for place {place!r}")
            if count:
                cleaned[place] = count
        self._counts = cleaned
        self._hash = hash(frozenset(cleaned.items()))

    @classmethod
    def from_places(cls, places: Iterable[Place]) -> "Marking":
        """Build a safe marking with one token in each given place."""
        marking: dict[Place, int] = {}
        for place in places:
            marking[place] = marking.get(place, 0) + 1
        return cls(marking)

    def __getitem__(self, place: Place) -> int:
        return self._counts.get(place, 0)

    def __iter__(self) -> Iterator[Place]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, place: object) -> bool:
        return place in self._counts

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._counts == other._counts
        if isinstance(other, Mapping):
            return self == Marking(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{n}" for p, n in sorted(self._counts.items()))
        return f"Marking({{{inner}}})"

    # -- marking algebra -------------------------------------------------

    def marked_places(self) -> frozenset[Place]:
        """The set of places holding at least one token."""
        return frozenset(self._counts)

    def total(self) -> int:
        """Total number of tokens in the marking."""
        return sum(self._counts.values())

    def covers(self, other: "Marking") -> bool:
        """``True`` iff this marking has at least ``other``'s tokens everywhere."""
        return all(self[place] >= count for place, count in other.items())

    def is_safe(self) -> bool:
        """``True`` iff no place holds more than one token."""
        return all(count <= 1 for count in self._counts.values())

    @classmethod
    def _fresh(cls, cleaned: dict[Place, int]) -> "Marking":
        """Wrap an already-normalised count dict without re-validating.

        Internal fast path for the exploration engines; ``cleaned`` must
        contain no zero or negative entries and must not be mutated by
        the caller afterwards.
        """
        marking = object.__new__(cls)
        marking._counts = cleaned
        marking._hash = hash(frozenset(cleaned.items()))
        return marking

    def fire(self, removes: Iterable[Place], adds: Iterable[Place]) -> "Marking":
        """One-pass successor construction: remove a token from each
        place in ``removes``, then add one to each place in ``adds``.

        Equivalent to ``self.remove(removes).add(adds)`` but builds a
        single intermediate dict — the hot path of state-space
        exploration fires millions of transitions.
        """
        counts = dict(self._counts)
        for place in removes:
            current = counts.get(place, 0)
            if current == 0:
                raise ValueError(f"cannot remove token from empty place {place!r}")
            if current == 1:
                del counts[place]
            else:
                counts[place] = current - 1
        for place in adds:
            counts[place] = counts.get(place, 0) + 1
        return Marking._fresh(counts)

    def add(self, places: Iterable[Place]) -> "Marking":
        """Return a new marking with one extra token in each given place."""
        counts = dict(self._counts)
        for place in places:
            counts[place] = counts.get(place, 0) + 1
        return Marking(counts)

    def remove(self, places: Iterable[Place]) -> "Marking":
        """Return a new marking with one token removed from each given place.

        Raises ``ValueError`` if any place has no token to remove.
        """
        counts = dict(self._counts)
        for place in places:
            current = counts.get(place, 0)
            if current == 0:
                raise ValueError(f"cannot remove token from empty place {place!r}")
            counts[place] = current - 1
        return Marking(counts)

    def restrict(self, places: Iterable[Place]) -> "Marking":
        """Return the marking restricted to the given set of places."""
        keep = set(places)
        return Marking({p: n for p, n in self._counts.items() if p in keep})

    def rename(self, mapping: Mapping[Place, Place]) -> "Marking":
        """Return the marking with places renamed through ``mapping``.

        Places not in ``mapping`` keep their name.  Token counts of places
        that map to the same target are summed.
        """
        counts: dict[Place, int] = {}
        for place, count in self._counts.items():
            target = mapping.get(place, place)
            counts[target] = counts.get(target, 0) + count
        return Marking(counts)
