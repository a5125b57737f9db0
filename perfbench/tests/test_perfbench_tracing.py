import types

import pytest

from tracing import (Patch, ReplayKernel, Tracer, TracingKernel, aggregate,
                     covered, self_times, traced)


def span(name, start, end, parent=None, trace=1, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "trace": trace, "counts": counts}


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 3), (4, 5)], 0, 10) == 3
    assert covered([(-2, 3), (8, 12)], 0, 10) == 5
    assert covered([(1, 9), (2, 3)], 0, 10) == 8


def test_self_time_of_nested_spans():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 4.0, parent=0),
             span("c", 2.0, 3.0, parent=1)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_subtracts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 5.0, parent=0),
             span("c", 3.0, 7.0, parent=0),
             span("d", 8.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_aggregate_sums_per_name_within_one_trace():
    spans = [span("pass", 0.0, 10.0),
             span("k", 1.0, 2.0, parent=0, hits=3),
             span("k", 3.0, 5.0, parent=0, hits=4),
             span("setup", 20.0, 21.0, trace=0),
             span("k", 20.0, 20.5, parent=3, trace=0, hits=100)]
    rows = aggregate(spans, 1)
    assert rows["k"]["calls"] == 2
    assert rows["k"]["hits"] == 7
    assert rows["k"]["self_s"] == pytest.approx(3.0)
    assert rows["pass"]["self_s"] == pytest.approx(7.0)
    assert "setup" not in rows


def test_tracer_links_parents_and_rejects_out_of_order_close():
    tracer = Tracer()
    root = tracer.begin_trace(5, "pass")
    child = tracer.open("child")
    tracer.close(child, hits=2)
    tracer.end_trace(root)
    assert tracer.spans[child]["parent"] == root
    assert tracer.spans[child]["trace"] == 5
    assert tracer.spans[child]["counts"] == {"hits": 2}
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_traced_wrapper_marks_a_raising_call_failed():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        traced(tracer, "boom", boom)()
    assert tracer.spans[0]["counts"] == {"failed": 1}
    assert traced(tracer, "ok", lambda: 4, lambda r: {"n": r})() == 4
    assert tracer.spans[1]["counts"] == {"n": 4}


def test_patch_replaces_every_binding_and_restores():
    def original():
        return "orig"

    first = types.ModuleType("first")
    second = types.ModuleType("second")
    first.original = original
    second.alias = original
    patch = Patch()
    patch.everywhere([first, second], original, lambda: "wrapped")
    assert first.original() == second.alias() == "wrapped"
    patch.restore()
    assert first.original is original and second.alias is original
    with pytest.raises(LookupError):
        Patch().everywhere([first], lambda: None, None)


class FakeBackend:
    NAME = "fake"

    def __init__(self):
        self.calls = 0

    def product_sweep(self, p, n, cg, cn, symmetric, lo, hi):
        self.calls += 1
        return [i for i in range(lo, hi) if i % 7 == 0]

    phi_sweep = gl_invariance_sweep = None


def test_replay_kernel_answers_recorded_calls_without_sweeping():
    backend = FakeBackend()
    kernel = TracingKernel(backend, Tracer())
    hits = kernel.product_sweep(3, 2, [0] * 8, [0] * 8, True, 0, 50)
    assert backend.calls == 1
    replay = ReplayKernel(backend, kernel.memo)
    assert replay.product_sweep(3, 2, [0] * 8, [0] * 8, True, 0, 50) == hits
    assert backend.calls == 1
    replay.product_sweep(3, 2, [0] * 8, [0] * 8, True, 0, 60)
    assert backend.calls == 2
