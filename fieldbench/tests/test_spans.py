"""Spans taken from outside the program, and their derivations."""

from fieldbench.spans import (LAYER_METRICS, NAME, OP, PARENT, Recorder,
                              boundaries, layer_metrics)
from repro.core import EngineFacade, IHilbertIndex
from repro.synth import roseburg_like


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_uninstall_restores_every_boundary():
    before = [_raw(owner, attr) for _, owner, attr, *_ in boundaries()]
    recorder = Recorder()
    recorder.install()
    wrapped = [_raw(owner, attr) for _, owner, attr, *_ in boundaries()]
    recorder.uninstall()
    after = [_raw(owner, attr) for _, owner, attr, *_ in boundaries()]
    assert all(a is not b for a, b in zip(before, wrapped))
    assert all(a is b for a, b in zip(before, after))


def test_spans_nest_under_the_facade_call():
    facade = EngineFacade()
    facade.open_field("t", IHilbertIndex(roseburg_like(cells_per_side=32)))
    recorder = Recorder()
    recorder.install()
    try:
        recorder.op = 7
        facade.query("t", 250.0, 300.0)
    finally:
        recorder.uninstall()
    spans = recorder.spans
    assert spans[0][NAME] == "facade.query" and spans[0][PARENT] == -1
    names = {s[NAME] for s in spans}
    assert {"grouped.filter", "rstar.search", "records.read_pages",
            "codec.decode", "buffer.read_many", "disk.read_many",
            "field.estimate"} <= names
    assert all(s[OP] == 7 for s in spans)
    by_index = dict(enumerate(spans))
    for s in spans[1:]:
        assert by_index[s[PARENT]][NAME] != "field.estimate"

    metrics = layer_metrics(spans, {7: ("query", 1)})
    assert set(metrics) == set(LAYER_METRICS)
    assert 0.0 < metrics["facade.unattributed_share"] < 1.0
    assert metrics["grouped.runs_per_query"] >= 1
    assert metrics["shard.scatter_ms"] == 0.0   # layer did not run


def test_unattributed_share_is_facade_self_time():
    # facade [0, 100] with children covering [10, 60]: half unattributed.
    spans = [["facade.query", 0, 100, -1, 1, None],
             ["rstar.search", 10, 30, 0, 1, 3],
             ["field.estimate", 25, 60, 0, 1, 10]]
    metrics = layer_metrics(spans, {1: ("query", 1)})
    assert metrics["facade.unattributed_share"] == 0.5
    assert metrics["rstar.hits_per_search"] == 3
    assert metrics["field.records_per_estimate"] == 10
    # Spans of operations outside the map are ignored.
    assert layer_metrics(spans, {2: ("query", 1)})["facade.query_ms"] == 0
