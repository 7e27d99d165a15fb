"""The runtime is the standard library alone, and a subcommand loads
only the modules it runs.

numpy, networkx and scipy are test oracles.  One fresh interpreter
drives :func:`repro.cli.main` through the subcommands a user runs on
the corpus, plus the library's default receptiveness check, and must
never load any of them.  A second one runs only ``cip verify`` and
``cip info`` on the case study and must not load the synthesis,
state-graph, language and algebra modules those never call: packages
export nothing, so nothing drags them in.
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
from repro.models.library import four_phase_master, four_phase_slave
from repro.verify.receptiveness import check_receptiveness

corpus, out = sys.argv[1:]
runs = [
    ["verify", f"{corpus}/fig5_sender.net", f"{corpus}/fig7_translator.net"],
    ["verify", f"{corpus}/fig7_translator.net", f"{corpus}/fig6_receiver.net"],
    ["verify", f"{corpus}/fig5_sender.net", f"{corpus}/fig7_translator.net",
     "--engine", "symbolic"],
    ["info", f"{corpus}/fig7_translator.net"],
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
report = check_receptiveness(four_phase_master(), four_phase_slave())
assert report.method == "structural", report.method
loaded = sorted(set(sys.modules) & {"numpy", "networkx", "scipy"})
assert not loaded, f"the runtime loaded {loaded}"
"""

#: Modules neither ``cip verify`` nor ``cip info`` runs.
UNUSED_BY_VERIFY = (
    "repro.core",
    "repro.synth",
    "repro.bench",
    "repro.models",
    "repro.stg.state_graph",
    "repro.stg.csc_resolution",
    "repro.stg.coding",
    "repro.verify.language",
    "repro.verify.equivalence",
    "repro.verify.conformance",
    "repro.verify.isomorphism",
    "repro.petri.simulation",
    "repro.petri.traces",
    "repro.algebra.choice",
    "repro.algebra.dead",
    "repro.algebra.reductions",
)

VERIFY_SCRIPT = """
import contextlib, io, sys
from repro.cli import main

corpus, *unused = sys.argv[1:]
sender = f"{corpus}/fig5_sender.net"
translator = f"{corpus}/fig7_translator.net"
runs = [
    ["verify", sender, translator],
    ["verify", sender, translator, "--engine", "symbolic"],
    ["info", translator],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
loaded = sorted(set(sys.modules) & set(unused))
assert not loaded, f"verify and info loaded {loaded}"
"""


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter on this checkout's sources,
    with the artifact store off."""
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        CIP_NO_CACHE="1",
        PYTHONPATH=source if not path else f"{source}{os.pathsep}{path}",
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
    )


def test_subcommands_load_only_the_standard_library(tmp_path):
    completed = run_fresh(SCRIPT, str(CORPUS), str(tmp_path))
    assert completed.returncode == 0, completed.stderr


def test_verify_and_info_load_only_what_they_run():
    completed = run_fresh(VERIFY_SCRIPT, str(CORPUS), *UNUSED_BY_VERIFY)
    assert completed.returncode == 0, completed.stderr
