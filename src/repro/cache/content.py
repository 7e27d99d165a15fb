"""Canonical content hashes for nets, STGs and derived artifacts.

The hash of a :class:`~repro.petri.net.PetriNet` is the SHA-256 of a
deterministic, fully sorted serialization of everything the net's
behaviour depends on: name, alphabet, places, the transition relation
keyed by tid (presets/postsets sorted), the initial marking and the
input-arc guards (by their textual form).  Two nets that
:meth:`~repro.petri.net.PetriNet.structurally_equal` hash equal, and —
because the lossless formats round-trip structural equality — so do
astg/TINA/PNML/JSON loads of the same net (pinned on the corpus by
``tests/cache/test_content_hash.py``).

Guards are hashed by ``str(guard)``, which is canonical only for the
STG layer's :class:`~repro.stg.guards.Guard` values; a net carrying any
other (opaque) guard object has no stable text and is declared
unhashable — every cache layer checks :func:`hashable` first and simply
skips caching for such nets.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.petri.net import PetriNet

if TYPE_CHECKING:  # avoid a net -> cache -> stg import cycle at runtime
    from repro.stg.stg import Stg


def hashable(net: PetriNet) -> bool:
    """``True`` iff every guard has a canonical textual form.

    Nets outside this fragment are never cached (their guards cannot be
    serialized deterministically, so no sound key exists for them).
    """
    from repro.stg.guards import Guard

    return all(
        isinstance(guard, Guard) for guard in net.input_guards.values()
    )


def net_payload(net: PetriNet) -> dict:
    """The canonical dict the content hash is computed over."""
    return {
        "name": net.name,
        "actions": sorted(net.actions),
        "places": sorted(net.places),
        "transitions": [
            [tid, sorted(t.preset), t.action, sorted(t.postset)]
            for tid, t in sorted(net.transitions.items())
        ],
        "initial": sorted(net.initial.items()),
        "guards": [
            [place, tid, str(guard)]
            for (place, tid), guard in sorted(
                net.input_guards.items(),
                key=lambda item: (item[0][1], item[0][0]),
            )
        ],
    }


def _digest(payload: object) -> str:
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def net_content_hash(net: PetriNet) -> str:
    """SHA-256 content hash of a net (see module docstring).

    Not memoized by design: net attributes (``name``, ``actions``) are
    plain mutable fields the algebra assigns to directly, so a cached
    digest could go stale without any hook firing.  Hashing is a single
    serialization pass — negligible next to any exploration.
    """
    return _digest({"kind": "net", "net": net_payload(net)})


def stg_content_hash(stg: "Stg") -> str:
    """Content hash of an STG: the net plus its signal interface."""
    return _digest(
        {
            "kind": "stg",
            "net": net_payload(stg.net),
            "inputs": sorted(stg.inputs),
            "outputs": sorted(stg.outputs),
            "internals": sorted(stg.internals),
            "initial_values": [
                [signal, "X" if level is None else int(level)]
                for signal, level in sorted(stg.initial_values.items())
            ],
        }
    )


def derived_key(operator: str, operands: list[str], **params) -> str:
    """Provenance key for an algebra result: operator + operand hashes.

    ``params`` must be JSON-serializable (sort sets first).  Two calls
    with the same operator, operand hashes and parameters denote the
    same derived net, so its serialized form can be reused.
    """
    return _digest({"kind": "derived", "op": operator,
                    "operands": operands, "params": params})


def semantic_key(check: str, *parts) -> str:
    """Key for a verdict memo entry: the check name plus every semantic
    parameter that changes the answer (content hashes, visible
    alphabets, modes) — and deliberately *not* engine/workers.
    """
    return _digest({"kind": "verdict", "check": check, "parts": list(parts)})
