"""Provenance caching of algebra results (``hide`` and ``trim``).

A derived net is a pure function of its operator, operand *contents*
and operator parameters — the Span(Graph)-style observation that an
algebra expression denotes its result.  The key is therefore
:func:`repro.cache.content.derived_key` over the operand content
hashes, and the artifact is the result's lossless JSON form
(:mod:`repro.io.json_io`) plus its ``_next_tid`` allocator state, so a
restored net is byte-for-byte ``structurally_equal`` to a recomputed
one *and* allocates the same tids for any later mutation.

Only the two operators whose result is dearer to recompute than to
load use it: ``hide`` contracts transition by transition and ``trim``
explores the state space.  ``parallel`` (one-pass transition fusion,
Def 4.7) and ``choice`` (root unwinding, Def 4.5) are cheaper to redo
than to read back, so they never touch the store.

Nets with opaque (non-:class:`~repro.stg.guards.Guard`) guards are
skipped entirely — their guards have no canonical serialization, so
neither a sound key nor a lossless artifact exists for them.
"""

from __future__ import annotations

from repro.cache.content import derived_key, hashable, net_content_hash
from repro.cache.store import active_store
from repro.petri.net import PetriNet

KIND = "derived-net"


def lookup(operator: str, operands: list[PetriNet], **params) -> PetriNet | None:
    """The cached result of ``operator(*operands, **params)`` or ``None``."""
    store = active_store()
    if store is None or not all(hashable(net) for net in operands):
        return None
    key = derived_key(
        operator, [net_content_hash(net) for net in operands], **params
    )
    data = store.load(KIND, key)
    if data is None:
        return None
    from repro.io.json_io import net_from_dict

    try:
        net = net_from_dict(data["net"])
        net._next_tid = int(data["next_tid"])
    except (KeyError, TypeError, ValueError):
        return None
    return net


def publish(
    operator: str,
    operands: list[PetriNet],
    result: PetriNet,
    **params,
) -> None:
    """Persist a computed algebra result (no-op when caching is off or
    any involved net has opaque guards)."""
    store = active_store()
    if (
        store is None
        or not all(hashable(net) for net in operands)
        or not hashable(result)
    ):
        return
    from repro.io.json_io import net_to_dict

    key = derived_key(
        operator, [net_content_hash(net) for net in operands], **params
    )
    store.store(
        KIND,
        key,
        {"net": net_to_dict(result), "next_tid": result._next_tid},
    )
