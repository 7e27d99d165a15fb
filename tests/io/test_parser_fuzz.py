"""Any-bytes fuzzing of the parsers through the subcommands.

Every corpus file, mutated by a few seeded byte edits (replace, delete,
insert), must end in a verdict or one ``cip: error:`` line: exit 0, 1
or 2, no exception escaping :func:`repro.cli.main`, and exactly one
stderr line on exit 2.  ``cip info`` sees 120 mutants; ``stategraph``,
``dot``, ``convert``, ``reduce``, ``verify`` and ``synth`` see 40 each,
drawn from a stream seeded by the subcommand's name.  The seed is
fixed, so a failure replays exactly; the mutant's file name and edits
are in the assertion message.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main

SEED = 1
MUTANTS = 120
MAX_EDITS = 6
#: Mutants per subcommand other than ``info``.
SUBCOMMAND_MUTANTS = 40


def _mutate(data: bytes, rng: random.Random) -> tuple[bytes, list[str]]:
    """Apply 1..MAX_EDITS random byte edits; returns the mutant and a
    readable log of the edits."""
    buffer = bytearray(data)
    log = []
    for _ in range(rng.randint(1, MAX_EDITS)):
        kind = rng.choice(("replace", "delete", "insert"))
        position = rng.randrange(len(buffer) + (kind == "insert"))
        if kind == "replace" and buffer:
            value = rng.randrange(256)
            buffer[position] = value
            log.append(f"replace@{position}={value}")
        elif kind == "delete" and buffer:
            del buffer[position]
            log.append(f"delete@{position}")
        else:
            value = rng.randrange(256)
            buffer.insert(min(position, len(buffer)), value)
            log.append(f"insert@{position}={value}")
    return bytes(buffer), log


def _mutants(sources, rng=None, count=MUTANTS):
    rng = rng or random.Random(SEED)
    for index in range(count):
        source = rng.choice(sources)
        data, log = _mutate(source.read_bytes(), rng)
        yield index, source, data, log


def _assert_clean_end(argv, where, capsys):
    """``cip ARGV`` exits 0, 1 or 2, with one ``cip: error:`` line on 2."""
    try:
        status = main(argv)
    except Exception as error:  # noqa: BLE001 - the point of the test
        pytest.fail(f"{where}: {type(error).__name__}: {error}")
    err = capsys.readouterr().err
    assert status in (0, 1, 2), where
    if status == 2:
        assert err.startswith("cip: error: "), (where, err)
        assert err.count("\n") == 1, (where, err)


def test_mutated_corpus_files_never_end_in_a_traceback(
    corpus_paths, tmp_path, capsys
):
    for index, source, data, log in _mutants(corpus_paths):
        path = tmp_path / f"mutant{index}{source.suffix}"
        path.write_bytes(data)
        where = f"mutant {index} of {source.name} ({', '.join(log)})"
        _assert_clean_end(
            ["info", str(path), "--no-cache", "--max-states", "2000"],
            where,
            capsys,
        )


def _argv(command: str, path, source, out, corpus_dir) -> list[str]:
    if command == "stategraph":
        return ["stategraph", str(path), "--max-states", "2000"]
    if command == "convert":
        return ["convert", str(path), str(out)]
    if command == "reduce":
        return ["reduce", str(path), "-o", str(out)]
    if command == "verify":
        partner = (
            "fig6_receiver.net"
            if source.stem == "fig7_translator"
            else "fig7_translator.net"
        )
        return [
            "verify",
            str(path),
            str(corpus_dir / partner),
            "--no-cache",
            "--max-states",
            "2000",
        ]
    return [command, str(path)]


@pytest.mark.parametrize(
    "command", ["stategraph", "dot", "convert", "reduce", "verify", "synth"]
)
def test_mutants_through_every_subcommand(
    command, corpus_paths, corpus_dir, tmp_path, capsys
):
    rng = random.Random(f"{SEED}:{command}")
    outputs = (".json", ".net", ".pnml", ".g")
    for index, source, data, log in _mutants(
        corpus_paths, rng, SUBCOMMAND_MUTANTS
    ):
        path = tmp_path / f"mutant{index}{source.suffix}"
        path.write_bytes(data)
        out = tmp_path / f"out{index}{outputs[index % len(outputs)]}"
        where = f"{command} on mutant {index} of {source.name} ({', '.join(log)})"
        _assert_clean_end(
            _argv(command, path, source, out, corpus_dir), where, capsys
        )
