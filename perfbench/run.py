"""The repository benchmark: one closed-loop client, in process.

Run from the repository root::

    python3 perfbench/run.py --workload case-study --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run, split
over :data:`INTERPRETERS` fresh interpreters run one after another, with
every time scaled to a reference machine speed (:func:`reference_seconds`);
``--trace 1`` runs the same cycles untraced and traced in turn, in this
interpreter, and prints the per-layer metrics, in unscaled wall time.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; lines before it start with ``#``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
CORPUS = ROOT / "tests" / "corpus"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
WORK = ROOT / ".perfbench"

#: Fresh interpreters an untraced run is split into, one after another,
#: each timing its share of ``--seconds``.  A request's speed relative to
#: the reference loop differs from one interpreter to the next (memory
#: layout, the vCPU it lands on) by up to a tenth, so one interpreter per
#: run made that the run-to-run spread.  setup_s is the median of their
#: set-up times.
INTERPRETERS = 4

#: The hash seed of every interpreter the benchmark times.  CPython draws
#: a random one per process, and the set and dict orders that follow from
#: it move some corpus requests by a third from one run to the next; a
#: fixed seed makes runs of the same code comparable.
HASH_SEED = "0"

#: The time :func:`reference_task` takes at the reference speed (the
#: median seen on a 2-vCPU KVM guest of a Xeon host).  End-to-end times
#: are wall times scaled to that speed; see :func:`reference_seconds`.
REFERENCE_S = 1.5e-3

END_TO_END_UNITS = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def log(message: str) -> None:
    print(f"# {message}", flush=True)


def reference_task() -> int:
    """A fixed interpreter-bound loop that uses nothing of the program."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def reference_seconds() -> float:
    """The machine's current speed, as the median time of five reference
    tasks.

    A shared host runs this benchmark's vCPUs at speeds that drift by up
    to a factor of two within minutes, far beyond any bound a regression
    check could use.  Each timed request is bracketed by two of these
    measurements and its latency scaled by ``REFERENCE_S`` over their
    mean, so a run reports what the requests would take at the reference
    speed.  The program cannot change this loop, so a change to the
    program still moves the scaled times in full.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        reference_task()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def import_program() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        sys.exit(f"perfbench: repro was imported from {repro.__file__}")


class Client:
    """Runs requests and checks their answers against the pinned ones."""

    def __init__(self, prepared, expected: dict, workdir: Path, stream: int = 0):
        self.prepared = prepared
        self.expected = expected
        self.workdir = workdir
        self.orders = prepared.orders(stream)
        self.attempted = 0
        self.failed = 0
        #: Wall time of the requests since the warm-up, unscaled.
        self.timed_s = 0.0
        #: Every speed measurement of calibrated cycles, in seconds.
        self.references: list[float] = []

    def store(self):
        """A fresh artifact store for the next cycle, or the store off."""
        from repro.cache.store import activated, deactivated

        if not self.prepared.fresh_store:
            return deactivated()
        return activated(tempfile.mkdtemp(prefix="store-", dir=self.workdir))

    def call(self, request, recorder=None) -> float:
        """One request; returns its latency in seconds.  The answer is
        compared after the clock stops."""
        from repro.obs import metrics as obs
        from workloads import answer_of, perform

        result = error = None
        scope = obs.record(recorder=recorder) if recorder is not None else nullcontext()
        # Each request starts from a collected heap, as each cip process
        # does, so no request pays for its predecessors' garbage.
        gc.collect()
        start = time.perf_counter()
        try:
            with scope, obs.span("request", kind=request.kind, key=request.key):
                result = perform(request)
        except Exception as caught:  # a failed request is counted, not fatal
            error = caught
        latency = time.perf_counter() - start
        self.timed_s += latency
        self.attempted += 1
        if error is not None:
            self.failed += 1
            log(f"FAILED {request.key}: {type(error).__name__}: {error}")
        elif answer_of(request, result) != self.expected.get(request.key):
            self.failed += 1
            log(f"WRONG {request.key}: {answer_of(request, result)}")
        return latency

    def cycle(self, recorders=None, calibrated: bool = False) -> dict:
        """One pass over the cycle, in the pass's own order; returns each
        request's latency.  ``calibrated`` brackets each request with
        speed measurements and scales its latency to the reference speed."""
        latencies = {}
        with self.store():
            before = reference_seconds() if calibrated else None
            for index, request in enumerate(next(self.orders)):
                latency = self.call(request, None if recorders is None else recorders[index])
                if calibrated:
                    after = reference_seconds()
                    self.references.append(after)
                    latency *= 2 * REFERENCE_S / (before + after)
                    before = after
                latencies[request] = latency
        return latencies

    def warm_up(self) -> None:
        with self.store():
            for request in self.prepared.warmup:
                self.call(request)
        self.attempted = self.failed = 0
        self.timed_s = 0.0


def set_up(workload: str, seed: int, workdir: Path, stream: int = 0) -> Client:
    """Imports, input generation and one untimed request of each class:
    what every ``cip`` invocation pays before its first answer."""
    import_program()
    from workloads import prepare

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    client = Client(prepare(workload, seed, workdir, CORPUS), expected, workdir, stream)
    client.warm_up()
    return client


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (the exploration workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def share(client: Client, seconds: float) -> dict:
    """One interpreter's share of an untraced run: whole calibrated passes
    over the cycle until the requests have taken ``seconds`` of wall
    time.  Latencies are keyed by the request's place in the cycle."""
    latencies = []
    while client.timed_s < seconds:
        for request, latency in client.cycle(calibrated=True).items():
            latencies.append((client.prepared.cycle.index(request), latency))
    return {
        "latencies": latencies,
        "timed_s": client.timed_s,
        "references": client.references,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": client.attempted,
        "failed": client.failed,
    }


def untraced(args) -> tuple[dict, int, int]:
    """Runs the untraced shares in fresh interpreters, one after another;
    returns the end-to-end metrics, the requests attempted and failed.

    Each interpreter's set-up time, from spawn to ready, is a setup_s
    sample, scaled by the reference measured here before the spawn and
    by the interpreter right after it is ready.  The percentiles are
    taken over every sample, each counted at its request's median over
    the run.  Over the raw samples a percentile that falls between two
    requests -- p50 on the corpus, between the 12th and 13th of 24 files,
    2 ms apart -- jumps across the gap with a single slow or fast sample;
    between two medians it does not."""
    samples: dict[int, list[float]] = {}
    setups, references, rss = [], [], []
    attempted = failed = 0
    timed_s = 0.0
    for stream in range(INTERPRETERS):
        before = reference_seconds()
        start = time.perf_counter()
        with subprocess.Popen(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds / INTERPRETERS), "--trace", "0",
                "--stream", str(stream),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as process:
            ready = process.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
            lines = process.stdout.read().splitlines()
        if process.returncode != 0 or not ready or not lines:
            raise RuntimeError(f"interpreter {stream} failed with exit code {process.returncode}")
        for line in lines[:-1]:
            print(line, flush=True)
        result = json.loads(lines[-1])
        setups.append(elapsed * 2 * REFERENCE_S / (before + result["ready_reference"]))
        for index, latency in result["latencies"]:
            samples.setdefault(index, []).append(latency)
        references += result["references"]
        rss.append(result["peak_rss_mb"])
        timed_s += result["timed_s"]
        attempted += result["attempted"]
        failed += result["failed"]
    latencies = [value for values in samples.values() for value in values]
    ms = sorted(
        1e3 * statistics.median(values) for values in samples.values() for _ in values
    )
    p90 = statistics.quantiles(ms, n=10)[8]
    log(
        f"{len(ms)} requests in {INTERPRETERS} interpreters, {timed_s:.2f} s of wall"
        f" time ({sum(latencies):.2f} s at the reference speed),"
        f" {sum(v > p90 for v in ms)} beyond p90; reference task"
        f" {1e3 * statistics.median(references):.3f} ms (median),"
        f" {1e3 * REFERENCE_S:.3f} ms at the reference speed;"
        f" set-up samples {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    metrics = {
        "latency_ms.p50": statistics.median(ms),
        "latency_ms.p90": p90,
        "requests_per_s": len(ms) / sum(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
    }
    return metrics, attempted, failed


def traced(client: Client, seconds: float) -> tuple[dict, bool]:
    """Alternate untraced and traced passes over whole cycles; returns
    the per-layer metrics and whether the layer times close."""
    import tracing

    per_request = []
    traced_s = untraced_s = 0.0
    while traced_s + untraced_s < seconds:
        untraced_s += sum(client.cycle().values())
        recorders = [tracing.SpanTree() for _ in client.prepared.cycle]
        with tracing.instrumented():
            traced_s += sum(client.cycle(recorders).values())
        per_request += [tracing.request_sums(tree) for tree in recorders]
    total = tracing.combine(per_request)
    metrics, missing = tracing.layer_metrics(total, traced_s, untraced_s)
    gap = tracing.closure_error(total)
    log(f"layer self times + unattributed vs request wall: relative gap {gap:.2e}")
    if missing:
        log(f"not applicable to this workload (reported as 0): {', '.join(missing)}")
    return metrics, gap <= 0.01


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stream", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not args.trace and args.stream is None:
        import_program()
        metrics, attempted, failed = untraced(args)
        report(failed == 0, attempted, failed, metrics, END_TO_END_UNITS)
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    # Anything the program puts in a temporary directory stays in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        client = set_up(args.workload, args.seed, workdir, args.stream or 0)
        if args.stream is not None:
            print("ready", flush=True)
            ready_reference = reference_seconds()
            result = share(client, args.seconds)
            print(json.dumps(dict(result, ready_reference=ready_reference)))
            return 0
        from tracing import UNITS

        metrics, closed = traced(client, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(client.failed == 0 and closed, client.attempted, client.failed, metrics, UNITS)
    return 0


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.exit(main())
