"""The runtime is the standard library alone.

numpy, networkx and scipy are test oracles.  One fresh interpreter
drives :func:`repro.cli.main` through the subcommands a user runs on
the corpus and must never load any of them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

CORPUS = Path(__file__).parent / "corpus"

SCRIPT = """
import contextlib, io, sys
from repro.cli import main

corpus, out = sys.argv[1:]
runs = [
    ["verify", f"{corpus}/fig7_translator.net", f"{corpus}/fig6_receiver.net"],
    ["verify", f"{corpus}/fig5_sender.net", f"{corpus}/fig7_translator.net",
     "--engine", "symbolic"],
    ["info", f"{corpus}/fig7_translator.pnml"],
    ["bench", corpus, "--no-cache"],
    ["simplify", f"{corpus}/fig7_translator.net", f"{corpus}/fig5_sender.net",
     "-o", f"{out}/simplified.net"],
    ["synth", f"{corpus}/four_phase_master.g"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
loaded = sorted(set(sys.modules) & {"numpy", "networkx", "scipy"})
assert not loaded, f"the runtime loaded {loaded}"
"""


def test_subcommands_load_only_the_standard_library(tmp_path):
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        CIP_NO_CACHE="1",
        PYTHONPATH=source if not path else f"{source}{os.pathsep}{path}",
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(CORPUS), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
