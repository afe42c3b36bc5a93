"""Span recording and self-time arithmetic."""

import asyncio
import json
import os

import pytest

from perfbench import spans


def _span(sid, name, start, end, parent=None):
    return {
        "id": sid, "parent": parent, "name": name, "job": None,
        "pid": 1, "start": start, "end": end, "attrs": {},
    }


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("a", "daemon.tick", 0.0, 10.0),
        # two overlapping children cover [1, 5]; a third covers [7, 8]
        _span("b", "journal.append", 1.0, 4.0, parent="a"),
        _span("c", "journal.append", 3.0, 5.0, parent="a"),
        _span("d", "supervisor.dispatch", 7.0, 8.0, parent="a"),
        # a grandchild only reduces its own parent
        _span("e", "worker.job", 7.5, 7.75, parent="d"),
    ]
    own = spans.self_times(tree)
    assert own["a"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(2.0)
    assert own["d"] == pytest.approx(0.75)
    assert own["e"] == pytest.approx(0.25)
    by_layer = spans.self_time_by_layer(tree)
    assert by_layer == pytest.approx(
        {"daemon": 5.0, "journal": 5.0, "supervisor": 0.75, "worker": 0.25}
    )
    # every second of the root is someone's self time exactly once
    assert sum(by_layer.values()) == pytest.approx(10.0 + 1.0)


def test_children_outside_the_parent_interval_are_clipped():
    tree = [
        _span("a", "router.fetch", 2.0, 4.0),
        _span("b", "router.fetch", 1.0, 3.0, parent="a"),
    ]
    assert spans.self_times(tree)["a"] == pytest.approx(1.0)


class _Thing:
    def work(self, x):
        return x * 2

    async def later(self, x):
        await asyncio.sleep(0)
        return x + 1


def test_wrap_records_nested_spans_and_restores(tmp_path):
    tracer = spans.Tracer(tmp_path)
    tracer.wrap(
        _Thing, "work", "daemon.work",
        job=lambda a, k: f"job-{a[1]}",
        annotate=lambda r, a, k, out: r["attrs"].update(out=out),
    )
    tracer.wrap(_Thing, "later", "router.later")
    thing = _Thing()
    with tracer.span("client.op") as outer:
        assert thing.work(3) == 6
        assert asyncio.run(thing.later(1)) == 2
    names = {s["name"]: s for s in tracer.spans}
    assert names["daemon.work"]["parent"] == outer["id"]
    assert names["daemon.work"]["job"] == "job-3"
    assert names["daemon.work"]["attrs"]["out"] == 6
    assert names["router.later"]["end"] >= names["router.later"]["start"]
    tracer.flush()
    written = spans.load_spans(tmp_path)
    assert len(written) == 3
    tracer.unwrap_all()
    assert _Thing.work.__name__ == "work" and not hasattr(_Thing.work, "__wrapped__")


def test_a_broken_annotation_never_breaks_the_call(tmp_path):
    tracer = spans.Tracer(tmp_path)

    def bad(record, args, kwargs, out):
        raise KeyError("nope")

    tracer.wrap(_Thing, "work", "daemon.work", job=lambda a, k: 1 / 0, annotate=bad)
    try:
        assert _Thing().work(2) == 4
    finally:
        tracer.unwrap_all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_writes_its_own_spans(tmp_path):
    tracer = spans.Tracer(tmp_path)
    with tracer.span("supervisor.dispatch"):
        pid = os.fork()
        if pid == 0:  # child: a top-level span flushes on close
            with tracer.span("worker.job", job="j1"):
                pass
            os._exit(0)
    os.waitpid(pid, 0)
    child = [
        json.loads(line)
        for line in (tmp_path / f"spans-{pid}.jsonl").read_text().splitlines()
    ]
    assert [s["name"] for s in child] == ["worker.job"]
    assert child[0]["parent"] is None
    assert [s["name"] for s in tracer.spans] == ["supervisor.dispatch"]
