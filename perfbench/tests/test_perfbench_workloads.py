import json
import types
from collections import Counter
from pathlib import Path

import pytest

import layers
import run
import workloads
from postlie import fpkernel, search
from postlie.catalog import builtin_algebra
from postlie.fields import GF
from tracing import Tracer, TracingKernel, aggregate

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quick_spec(p=3, g="abelian", n="abelian"):
    field = GF(p)
    return search.SearchSpec(builtin_algebra(g, field=field, dim=2),
                             builtin_algebra(n, field=field, dim=2))


@pytest.mark.parametrize("backend", fpkernel.backends(),
                         ids=lambda b: b.NAME)
def test_tracing_proxy_returns_the_bare_backend_hits(backend):
    tracer = Tracer()
    proxy = TracingKernel(backend, tracer)
    zero = [0] * 8
    r2 = search.flat_bracket_tensor(builtin_algebra("r2", field=GF(5)))
    calls = [("product_sweep", (3, 2, zero, zero, False, 0, 3 ** 8)),
             ("product_sweep", (3, 2, zero, zero, True, 0, 3 ** 6)),
             ("phi_sweep", (5, 2, r2, 0, 5 ** 4)),
             ("gl_invariance_sweep", (5, 2, [r2], 0, 5 ** 4))]
    for method, args in calls:
        assert getattr(proxy, method)(*args) == getattr(backend, method)(*args)
    assert [s["name"] for s in tracer.spans] == [
        "fpkernel." + method for method, _ in calls]
    assert [s["counts"]["scanned"] for s in tracer.spans] == [
        args[-1] - args[-2] for _, args in calls]


def test_api_through_proxy_matches_default_kernel():
    spec = quick_spec(g="r2", n="r2")
    proxy = TracingKernel(run.active_backend(), Tracer())
    assert (search.enumerate_products(spec, kernel=proxy).indices
            == search.enumerate_products(spec).indices)


def test_seeded_gl3_conjugation_keeps_counts():
    seen = set()
    for seed in (1, 2):
        spec, T, base = workloads.conjugated_n3_spec(seed)
        seen.add(repr(T))
        result = search.enumerate_products(spec)
        orbits = search.orbit_reduce(spec, result.indices)
        assert (len(result.indices), orbits.count, orbits.aut_order,
                sorted(len(o) for o in orbits.orbits)) == (
            44, 7, 24, [1, 1, 3, 3, 6, 6, 24])
    assert len(seen) == 2


def test_traced_pass_counts_layers_and_restores_the_library():
    spec = quick_spec()
    original = search.check_structure
    tracer = Tracer()
    patch = layers.install_spans(tracer)
    try:
        sid = tracer.begin_trace(1, "pass")
        result = search.enumerate_products(
            spec, kernel=TracingKernel(run.active_backend(), tracer))
        orbits = search.orbit_reduce(spec, result.indices)
        tracer.end_trace(sid)
    finally:
        patch.restore()
    assert search.check_structure is original
    rows = aggregate(tracer.spans, 1)
    hits = len(result.indices)
    assert rows["fpkernel.product_sweep"]["scanned"] == spec.total
    assert rows["fpkernel.product_sweep"]["hits"] == hits
    assert rows["search.reverify"]["calls"] == hits
    assert rows["search.reverify"].get("failed", 0) == 0
    assert rows["structures.check_structure"]["calls"] == hits
    assert rows["search.transform_product"]["calls"] == (
        orbits.count * orbits.aut_order)
    metrics = layers.per_layer(rows, {}, 0, 0.0, len(tracer.spans))
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["fpkernel.hit_ratio"][0] == pytest.approx(
        hits / spec.total)


def test_mod_counter_counts_and_restores():
    counter = Counter()
    five = GF(5)
    patch = layers.install_mod_counter(counter)
    try:
        x = five.scalar(2) * five.scalar(3) + 1 - five.scalar(4)
    finally:
        patch.restore()
    assert x == five.scalar(3)
    assert counter["fields.mod_ops"] == 3
    five.scalar(2) + five.scalar(2)
    assert counter["fields.mod_ops"] == 3


def test_catalog_pass_passes_its_oracle(tmp_path):
    workload = workloads.WORKLOADS["catalog-q"]
    inputs = workload.setup(7, tmp_path)
    tally = workload.check(inputs, workload.run(inputs))
    assert tally.failures == []
    assert tally.tables == 37 + 7 * workload.draws_per_family
    assert tally.details["V9(0) complete"] is False
    assert len(tally.op_ms) >= 100


def test_catalog_oracle_catches_a_changed_output(tmp_path):
    workload = workloads.WORKLOADS["catalog-q"]
    inputs = workload.setup(7, tmp_path)
    rows = workload.run(inputs)
    text, again, ops = rows[0]
    code, out, ms = ops["analyze"]
    ops["analyze"] = (code, out + "extra\n", ms)
    seeded = next(i for i, t in enumerate(inputs) if t.seeded)
    text, again, ops = rows[seeded]
    rows[seeded] = (text, again + " ", ops)
    failures = workload.check(inputs, rows).failures
    assert len(failures) == 2
    assert "analyze" in failures[0] and "round-trip" in failures[1]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    tally = workloads.Tally(attempted=1, tables=3)
    clock = types.SimpleNamespace(walls=[1.0, 2.0], relative=[10.0, 20.0],
                                  refs=[0.1, 0.1, 0.1])
    reported = run.end_to_end(clock, [0.5], [tally])
    for metric in spec["end_to_end"]:
        assert reported[metric["name"]][1] == metric["unit"]


class QuickProducts:
    """A workload reduced to one small enumerate_products call."""

    def run(self, spec, kernel=None):
        return search.enumerate_products(spec, kernel=kernel)

    def hit_lists(self, result):
        return result.indices


def backend_dropping_hits(backend):
    """A second backend that loses the first hit of every product sweep."""
    return types.SimpleNamespace(
        NAME="dropping", phi_sweep=backend.phi_sweep,
        gl_invariance_sweep=backend.gl_invariance_sweep,
        product_sweep=lambda *args: backend.product_sweep(*args)[1:])


@pytest.mark.parametrize("drops, failures", [(False, 0), (True, 1)])
def test_backend_comparison_fails_on_a_disagreeing_backend(
        monkeypatch, drops, failures):
    active = run.active_backend()
    other = (backend_dropping_hits(active) if drops
             else types.SimpleNamespace(**{
                 name: getattr(active, name) for name in TracingKernel.SWEEPS},
                 NAME="agreeing"))
    monkeypatch.setattr(fpkernel, "backends", lambda: [active, other])
    workload = QuickProducts()
    spec = quick_spec(g="r2", n="r2")
    result = workload.run(spec)
    assert result.indices
    tallies = []
    run.compare_backends(workload, spec, result, tallies)
    (tally,) = tallies
    assert tally.attempted == 1
    assert len(tally.failures) == failures


def test_seeded_gl3_basis_change_keeps_the_phi_hits():
    workload = workloads.WORKLOADS["phi-gf3"]
    builtin = {name: search.phi_ansatz_sweep(
        builtin_algebra(name, field=GF(3))).indices
        for name in workload.algebra_names}
    for seed in (1, 2):
        inputs = workload.setup(seed, None)
        observed = workload.observe(inputs, workload.run(inputs))
        for name, hits in builtin.items():
            assert observed[name]["hits"] == len(hits)
            assert observed[name]["canonical_hits_sha256"] == (
                workloads.digest(sorted(hits)))


def test_speed_clock_divides_segments_by_the_references_around_them(
        monkeypatch):
    monkeypatch.setattr(run, "reference_s", iter([1.0, 3.0, 1.0]).__next__)
    monkeypatch.setattr(run.time, "perf_counter",
                        iter([0.0, 2.0, 2.0, 2.0, 6.0, 6.0]).__next__)
    clock = run.SpeedClock()
    clock.start_pass()
    clock.tick()
    clock.end_pass()
    assert clock.walls == [6.0]
    assert clock.relative == [2.0 / 2.0 + 4.0 / 2.0]
    assert clock.refs == [1.0, 3.0, 1.0]


def test_segmenting_kernel_returns_the_bare_backend_hits():
    ticks = []
    backend = run.active_backend()
    kernel = run.SegmentingKernel(backend, lambda: ticks.append(1))
    spec = quick_spec(p=5, g="r2", n="r2")
    assert (search.enumerate_products(spec, kernel=kernel).indices
            == search.enumerate_products(spec, kernel=backend).indices)
    assert len(ticks) == -(-spec.total // run.SWEEP_PIECE)
