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

Entries are *not* keyed by engine or worker count — the differential
harnesses prove verdicts invariant under both.  The
original execution configuration is kept as ``provenance`` and surfaced
on reports (``cached: true`` + the original engine), so a hit is
byte-identical to the cold run that produced the entry.
"""

from __future__ import annotations

from repro.cache.content import (  # noqa: F401  (re-exported for wiring)
    hashable,
    net_content_hash,
    semantic_key,
    stg_content_hash,
)
from repro.cache.store import active_store
from repro.petri.marking import Marking

#: Artifact kind of verify-layer verdict entries.
KIND = "verdict"

#: Artifact kind of corpus-bench matrix-cell entries.
BENCH_KIND = "bench"


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
