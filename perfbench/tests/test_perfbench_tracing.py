"""The span-to-layer map, self-time accounting, and exactly repeating
counts of traced runs."""

import dataclasses
import re
from pathlib import Path

import pytest
import tracing

from repro.obs import FakeClock
from repro.obs import metrics as obs
from workloads import WORKLOADS

SOURCE = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_span_the_program_emits_is_mapped():
    pattern = re.compile(r"""obs\.span\(\s*["']([^"']+)["']""")
    emitted = {
        name
        for path in SOURCE.rglob("*.py")
        for name in pattern.findall(path.read_text(encoding="utf-8"))
    }
    assert emitted, "no spans found; has the instrumentation moved?"
    assert emitted <= set(tracing.SPAN_LAYERS), sorted(emitted - set(tracing.SPAN_LAYERS))
    assert set(tracing.SPAN_LAYERS.values()) <= {None, *tracing.LAYERS}


def synthetic_request() -> tracing.SpanTree:
    """Nested spans on a clock that moves only when told to."""
    clock = FakeClock()
    tree = tracing.SpanTree(clock=clock)
    with obs.record(recorder=tree):
        with obs.span(tracing.REQUEST_SPAN):
            clock.advance(1)
            with obs.span("io.load_stg") as span:
                span.set(nodes=10)
                clock.advance(2)
            with obs.span("verify.check_receptiveness"):
                clock.advance(1)
                with obs.record():  # a nested program recorder, as in verify
                    with obs.span("verify.receptiveness", obligations=3, failures=1):
                        clock.advance(1)
                        with obs.span("algebra.compose"):
                            clock.advance(3)
                        with obs.span("verify.receptiveness.search"):
                            clock.advance(4)
                            with obs.span("compile.net"):
                                obs.count("compile.nets")
                                clock.advance(5)
                            obs.count("engine.lazy.states", 40)
    return tree


def test_self_times_and_unattributed_add_up_to_the_wall_time():
    total = tracing.combine([tracing.request_sums(synthetic_request())])
    assert total["wall_s"] == 17.0
    assert total["self_s.unattributed"] == 1.0
    assert total["self_s.io"] == 2.0
    assert total["self_s.verify"] == 1.0 + 1.0
    assert total["self_s.algebra"] == 3.0
    assert total["self_s.explore"] == 4.0
    assert total["self_s.compile"] == 5.0
    assert tracing.closure_error(total) == 0
    metrics, missing = tracing.layer_metrics(total, traced_s=2.0, untraced_s=1.6)
    layers = sum(metrics[f"{layer}.self_ms"] for layer in tracing.LAYERS)
    assert layers + metrics["unattributed_ms"] == pytest.approx(17_000, rel=1e-12)
    assert metrics["verify.obligations"] == 3 and metrics["verify.failures"] == 1
    assert metrics["explore.states"] == 40
    assert metrics["compile.nets"] == 1
    assert metrics["io.nodes_per_ms"] == 10 / 2_000
    assert metrics["trace_overhead_ratio"] == pytest.approx(0.25)
    assert "cache.self_ms" in missing and "explore.self_ms" not in missing
    assert set(metrics) == set(tracing.UNITS)


def test_an_unmapped_span_fails_the_traced_request():
    tree = tracing.SpanTree(clock=FakeClock(tick=1.0))
    with obs.record(recorder=tree):
        with obs.span(tracing.REQUEST_SPAN):
            with obs.span("engine.brand_new.explore"):
                pass
    with pytest.raises(KeyError, match="engine.brand_new.explore"):
        tracing.request_sums(tree)


def test_instrumentation_is_removed_after_a_traced_pass():
    import importlib

    hide = importlib.import_module("repro.algebra.hide")
    original = hide.hide_transition
    with tracing.instrumented():
        assert hide.hide_transition is not original
    assert hide.hide_transition is original


def traced_counts(prepared, workload, requests, expected, workdir):
    """Exact per-layer counts of one traced pass over ``requests``."""
    from run import Client

    subset = dataclasses.replace(prepared(workload), cycle=requests, warmup=[])
    client = Client(subset, expected[workload], workdir)
    trees = [tracing.SpanTree() for _ in requests]
    with tracing.instrumented():
        client.cycle(trees)
    assert client.failed == 0
    total = tracing.combine([tracing.request_sums(tree) for tree in trees])
    metrics, _ = tracing.layer_metrics(total, 1.0, 1.0)
    return {name: metrics[name] for name in tracing.EXACT}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_with_one_seed_count_the_same(prepared, expected, workload, tmp_path):
    requests = prepared(workload).cycle + prepared(workload).warmup
    if workload == "bank-scale":  # the largest instances add time, not coverage
        requests = [r for r in requests if r.key.endswith(("-2", "-4", "-5"))]
    if workload == "corpus-sweep":  # the Fig 7 solver cell alone takes seconds
        requests = [r for r in requests if "fig7" not in r.key]
    first = traced_counts(prepared, workload, requests, expected, tmp_path)
    again = traced_counts(prepared, workload, requests, expected, tmp_path)
    assert first == again
    assert first["explore.states"] > 0
