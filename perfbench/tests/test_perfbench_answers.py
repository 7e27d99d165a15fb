"""The pinned answers in ``expected.json`` against independent sources:
the paper's verdicts, closed forms, and full-space counts re-derived by
the naive BFS of ``naive_bfs.py``."""

import re

import pytest
from naive_bfs import explore, failing_actions

from repro.io.formats import load_stg
from repro.stg.signals import signal_of
from repro.verify.receptiveness import compose_with_obligations
from workloads import WORKLOADS, perform


def requests_of(prepared, workload):
    return prepared(workload).warmup + prepared(workload).cycle


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_request_has_exactly_one_pinned_answer(prepared, expected, workload):
    keys = {request.key for request in requests_of(prepared, workload)}
    assert keys == set(expected[workload])


def test_paper_verdicts(expected):
    answers = expected["case-study"]
    for pair in ("sender|translator", "translator|receiver", "sender-translator|receiver"):
        for kind in ("verify", "verify/por"):
            assert answers[f"{kind}:{pair}"]["receptive"], (kind, pair)
    for kind in ("verify", "verify/por"):
        fig8 = answers[f"{kind}:inconsistent|translator"]
        assert not fig8["receptive"]
        assert {"a0-", "b0-"} <= set(fig8["failing_actions"])
    assert "mute~" not in answers["simplify:receiver<fig9c-env"]["labels"]
    assert not {
        label
        for label in answers["simplify:translator<restricted"]["labels"]
        if signal_of(label) in ("DATA", "STROBE")
    }


def test_closed_forms(expected):
    families = {"channel-bank": 4, "pipeline-grid": 6, "branching": 6}
    checked = 0
    for key, answer in expected["bank-scale"].items():
        match = re.fullmatch(r"[\w/]+:([a-z-]+)-(\d+)", key)
        base = families.get(match.group(1))
        if base is not None and "states" in answer:
            assert answer["states"] == base ** int(match.group(2)), key
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_match_the_naive_bfs(prepared, expected, workload):
    seen = set()
    for request in requests_of(prepared, workload):
        if request.key in seen:
            continue
        seen.add(request.key)
        answer = expected[workload][request.key]
        stgs = [load_stg(path) for path in request.files]
        if request.kind.startswith("verify"):
            if answer.get("states", 0) > 20_000:
                continue  # the 6^6 bank: pinned by test_closed_forms
            composite, obligations = compose_with_obligations(*stgs)
            markings, _, _ = explore(composite.net)
            assert failing_actions(markings, obligations) == answer["failing_actions"]
            if "states" in answer:
                assert len(markings) == answer["states"], request.key
        elif request.kind == "info":
            markings, _, deadlocks = explore(stgs[0].net)
            assert len(markings) == answer["states"], request.key
            assert (deadlocks == 0) == answer["deadlock_free"], request.key
        elif request.kind == "bench":
            if answer["outcome"] == "unbounded":
                with pytest.raises(OverflowError):
                    explore(stgs[0].net, limit=5_000)
                continue
            markings, edges, deadlocks = explore(stgs[0].net)
            assert (len(markings), edges, deadlocks) == (
                answer["states"],
                answer["edges"],
                answer["deadlocks"],
            ), request.key


def test_expanded_composition_matches_the_naive_bfs(prepared, expected):
    from repro.core.cip import Cip
    from repro.core.expansion import expand_cip
    from workloads import COMMANDS

    (request,) = [r for r in prepared("case-study").cycle if r.kind == "expand"]
    cip = Cip("channel_demo")
    for name, path in zip(("producer", "consumer"), request.files):
        cip.add_module(name, load_stg(path))
    cip.add_channel("cmd", "producer", "consumer", values=COMMANDS)
    net = expand_cip(cip).compose_all().net
    markings, _, deadlocks = explore(net)
    answer = expected["case-study"][request.key]
    assert len(markings) == answer["states"]
    assert (deadlocks == 0) == answer["deadlock_free"]
    assert perform(request).states == answer["states"]
