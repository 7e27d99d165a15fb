"""Seeded, file-based inputs; artifact stores only in the work directory;
a wrong pinned answer shows up in the failure count."""

from collections import Counter
from pathlib import Path

import pytest

from repro.cache.store import active_store
from workloads import WORKLOADS


def snapshot(prepared_workload):
    """The request order as (key, input file names and bytes) tuples."""
    return [
        (
            request.key,
            tuple((Path(path).name, Path(path).read_bytes()) for path in request.files),
        )
        for request in prepared_workload.cycle
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_fixes_inputs_and_order_and_another_only_permutes(prepared, workload, tmp_path):
    from run import CORPUS
    from workloads import prepare

    again = prepare(workload, 3, tmp_path, CORPUS)
    assert snapshot(prepared(workload, 3)) == snapshot(again)
    other = snapshot(prepared(workload, 4))
    assert other != snapshot(again)
    assert Counter(other) == Counter(snapshot(again))

    def passes(prepared_workload):
        orders = prepared_workload.orders()
        return [[request.key for request in next(orders)] for _ in range(3)]

    first, second, third = passes(again)
    assert passes(prepared(workload, 3)) == [first, second, third]
    assert first != second != third and sorted(first) == sorted(second) == sorted(third)
    assert passes(prepared(workload, 4)) != [first, second, third]


def test_formats_rotate_over_the_exact_loaders(prepared):
    suffixes = Counter(
        Path(path).suffix
        for workload in ("case-study", "bank-scale")
        for request in prepared(workload).cycle
        for path in request.files
    )
    assert set(suffixes) == {".json", ".net", ".pnml"}


def test_the_store_is_off_or_fresh_inside_the_work_directory(prepared, expected, tmp_path):
    from run import Client

    for workload in WORKLOADS:
        client = Client(prepared(workload), expected[workload], tmp_path)
        with client.store():
            store = active_store()
            if workload == "corpus-sweep":
                assert Path(store.root).parent == tmp_path
            else:
                assert store is None


def test_a_wrong_pinned_answer_is_counted_as_failed(prepared, expected, tmp_path):
    from run import Client

    workload = prepared("case-study")
    answers = dict(expected["case-study"])
    wrong = "verify:sender|translator"
    client = Client(workload, answers, tmp_path)
    client.cycle()
    assert client.failed == 0 and client.attempted == len(workload.cycle)

    answers[wrong] = dict(answers[wrong], receptive=False)
    client = Client(workload, answers, tmp_path)
    client.cycle()
    assert client.failed == 1 and client.failed / client.attempted > 0
