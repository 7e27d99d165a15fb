"""Budget-monotonic verdict memo on top of the artifact store.

A verdict entry records, next to the result payload, how it relates to
the ``max_states`` exploration budget it was computed under:

* ``conclusive`` entries carry a ``floor`` — the number of states the
  deciding run actually needed (or the budget itself when the engine
  does not report a count).  A run with budget ``B' >= floor`` behaves
  identically, so the entry is served for any such request.
* inconclusive entries (budget exhausted) carry ``proven_at`` — the
  exact budget they were recorded under.  Their witnesses are
  budget-dependent, so they are served **only** at exactly that budget;
  a larger budget must re-explore.

Language, bisimulation and analysis entries are *not* keyed by engine
or worker count — the differential harnesses prove verdicts invariant
under both, and those reports carry nothing engine-specific.  The
original execution configuration is kept as ``provenance`` and surfaced
on reports (``cached: true`` + the original engine).  Two kinds of
entry are engine-keyed, because what they answer depends on the engine:
a receptiveness report (the engine, and whether the sharded explorer
ran, decide its state count, witnesses, their order and traces), so a
hit is byte-identical to the cold run of the same command; and a
``cip bench`` instance (check ``bench``), which records one cell per
requested engine, so the engine tuple and the por proviso are part of
what it answers.

Every caller asks :func:`memo_enabled` first: with no active store, or
a net with opaque guards, nothing is hashed, looked up or written.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cache.content import hashable, net_content_hash, semantic_key
from repro.cache.store import active_store
from repro.petri.marking import Marking
from repro.petri.net import PetriNet

#: Artifact kind of every verdict entry (verify layer and bench instances).
KIND = "verdict"


def memo_enabled(*nets: PetriNet) -> bool:
    """Whether verdicts over ``nets`` can be memoized: a store is active
    and every net has a canonical content hash (no opaque guards)."""
    return active_store() is not None and all(hashable(net) for net in nets)


def memo_lookup(
    kind: str, key: str, max_states: int | None = None
) -> dict | None:
    """The entry stored under ``key`` if it is usable at ``max_states``.

    Applies the budget-monotonicity rule from the module docstring;
    ``max_states=None`` skips the budget check (for budget-free checks
    like the symbolic cell).  Returns the full entry dict (``result`` +
    ``budget`` + ``provenance``) or ``None``.
    """
    store = active_store()
    if store is None:
        return None
    entry = store.load(kind, key)
    if entry is None or not isinstance(entry.get("result"), dict):
        return None
    if max_states is not None:
        budget = entry.get("budget")
        if not isinstance(budget, dict):
            return None
        try:
            if budget.get("conclusive"):
                floor = int(budget["floor"])
                if floor > max_states:
                    return None
            elif int(budget["proven_at"]) != max_states:
                return None
        except (KeyError, TypeError, ValueError):
            return None
    return entry


def memo_store(
    kind: str,
    key: str,
    result: dict,
    *,
    conclusive: bool = True,
    floor: int = 0,
    proven_at: int = 0,
    provenance: dict | None = None,
) -> None:
    """Persist a verdict entry (no-op when no store is active)."""
    store = active_store()
    if store is None:
        return
    store.store(
        kind,
        key,
        {
            "result": result,
            "budget": {
                "conclusive": bool(conclusive),
                "floor": int(floor),
                "proven_at": int(proven_at),
            },
            "provenance": provenance or {},
        },
    )


# -- boolean verdicts over a pair of nets ------------------------------------


def pair_key(
    check: str, net1: PetriNet, net2: PetriNet, silent: Iterable[str]
) -> str | None:
    """The memo key of a boolean check over two nets (language equality
    or containment, bisimilarity), or ``None`` when memoization is off.
    Keyed by the check's semantics only — check name, both content
    hashes, silent set — never by engine: every engine path is an exact
    decision procedure, so all of them agree."""
    if not memo_enabled(net1, net2):
        return None
    return semantic_key(
        check,
        net_content_hash(net1),
        net_content_hash(net2),
        sorted(set(silent)),
    )


def pair_lookup(key: str | None, max_states: int) -> bool | None:
    """The memoized verdict under ``key`` usable at ``max_states``."""
    if key is None:
        return None
    entry = memo_lookup(KIND, key, max_states=max_states)
    if entry is None or "verdict" not in entry["result"]:
        return None
    return bool(entry["result"]["verdict"])


def pair_publish(
    key: str | None, verdict: bool, max_states: int, engine: str
) -> None:
    """Persist a boolean verdict computed within ``max_states``."""
    if key is None:
        return
    memo_store(
        KIND,
        key,
        {"verdict": verdict},
        conclusive=True,
        floor=max_states,
        proven_at=max_states,
        provenance={"engine": engine},
    )


# -- marking (de)serialization ----------------------------------------------


def marking_items(marking: Marking | None) -> list | None:
    """A marking as a canonical ``[[place, count], ...]`` list."""
    if marking is None:
        return None
    return [[place, count] for place, count in sorted(marking.items())]


def marking_from(items: list | None) -> Marking | None:
    """Inverse of :func:`marking_items`."""
    if items is None:
        return None
    return Marking({place: count for place, count in items})
