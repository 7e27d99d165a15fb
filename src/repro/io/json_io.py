"""Lossless JSON serialization of nets and STGs (guards included)."""

from __future__ import annotations

import json

from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.guards import Guard, parse_guard
from repro.stg.stg import Stg

FORMAT_VERSION = 1


def net_to_dict(net: PetriNet) -> dict:
    return {
        "version": FORMAT_VERSION,
        "name": net.name,
        "actions": sorted(net.actions),
        "places": sorted(net.places),
        "transitions": [
            {
                "tid": tid,
                "preset": sorted(t.preset),
                "action": t.action,
                "postset": sorted(t.postset),
            }
            for tid, t in sorted(net.transitions.items())
        ],
        "initial": {place: count for place, count in sorted(net.initial.items())},
        "guards": [
            {"place": place, "tid": tid, "guard": str(guard)}
            for (place, tid), guard in sorted(
                net.input_guards.items(), key=lambda item: (item[0][1], item[0][0])
            )
            if isinstance(guard, Guard)
        ],
    }


#: The JSON name of each Python type the loader expects.
_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
}


def _expect(value, kind: type, what: str):
    """``value`` when it is a ``kind``; a ``ValueError`` naming ``what``
    otherwise, so wrongly typed content is a parse error, not a crash."""
    if not isinstance(value, kind):
        raise ValueError(
            f"{what} must be {_JSON_TYPES[kind]}, not {type(value).__name__}"
        )
    return value


def _strings(value, what: str) -> list[str]:
    for item in _expect(value, list, what):
        _expect(item, str, f"an entry of {what}")
    return value


def net_from_dict(data: dict) -> PetriNet:
    _expect(data, dict, "net")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')!r}")
    net = PetriNet(
        data["name"],
        _strings(data["actions"], "actions"),
        _strings(data["places"], "places"),
    )
    for entry in _expect(data["transitions"], list, "transitions"):
        _expect(entry, dict, "a transition")
        net.add_transition(
            _strings(entry["preset"], "a preset"),
            _expect(entry["action"], str, "an action"),
            _strings(entry["postset"], "a postset"),
            tid=_expect(entry["tid"], int, "a tid"),
        )
    initial = _expect(data["initial"], dict, "initial")
    for count in initial.values():
        _expect(count, int, "a token count")
    net.set_initial(Marking(initial))
    for entry in _expect(data.get("guards", []), list, "guards"):
        _expect(entry, dict, "a guard")
        text = _expect(entry["guard"], str, "a guard expression")
        net.set_guard(entry["place"], entry["tid"], parse_guard(text))
    return net


def stg_to_dict(stg: Stg) -> dict:
    return {
        "net": net_to_dict(stg.net),
        "inputs": sorted(stg.inputs),
        "outputs": sorted(stg.outputs),
        "internals": sorted(stg.internals),
        "initial_values": {
            signal: ("X" if level is None else level)
            for signal, level in sorted(stg.initial_values.items())
        },
    }


def stg_from_dict(data: dict) -> Stg:
    _expect(data, dict, "the top level")
    levels = _expect(data.get("initial_values", {}), dict, "initial_values")
    values = {
        signal: (None if level == "X" else level)
        for signal, level in levels.items()
    }
    return Stg(
        net_from_dict(data["net"]),
        inputs=_strings(data.get("inputs", []), "inputs"),
        outputs=_strings(data.get("outputs", []), "outputs"),
        internals=_strings(data.get("internals", []), "internals"),
        initial_values=values,
    )


def dumps(stg: Stg, indent: int | None = 2) -> str:
    """Serialize an STG to a JSON string."""
    return json.dumps(stg_to_dict(stg), indent=indent)


def loads(text: str) -> Stg:
    """Deserialize an STG from a JSON string."""
    return stg_from_dict(json.loads(text))


def save(stg: Stg, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(stg))


def load(path: str) -> Stg:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())
