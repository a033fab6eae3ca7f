"""Tests of the benchmark's traced-run layer.

Run from the repository root with: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import statistics
from time import perf_counter_ns

import pytest

import run
from tracing import BOUNDARY, OP, Tracer, wrapper_cost_ns
from workloads import WORKLOADS

# a few operations per workload keep each traced run under a second
SMALL = {"identify-n4": 4, "identify-n14": 1, "identify-exact-cli": 9, "learn-samples-n6": 1}
# operations timed untraced and traced, back to back, in the self-time test;
# single pairs differ by up to 50% on a busy shared machine, their median by
# up to about 16%, so the median must lie within NOISE of 1
SELF_TIME_OPS = {"identify-n4": 20, "identify-n14": 5, "identify-exact-cli": 9, "learn-samples-n6": 5}
NOISE = 0.25


def small(name):
    base = WORKLOADS[name]
    return type(base.__name__, (base,), {"trace_ops": SMALL[name], "warmup": 1, "pool": 1})


def traced(name, tmp_path, seed=7):
    workdir = tmp_path / "work"
    workdir.mkdir(exist_ok=True)
    return run.measure_traced(small(name), seed, str(workdir))


def layer_namespaces(lib):
    return {layer: dict(vars(getattr(lib, layer))) for layer in run.LAYERS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name, tmp_path):
    first = traced(name, tmp_path)
    second = traced(name, tmp_path)
    assert first[0].failed == second[0].failed == 0

    def counts(metrics):
        return {k: v for k, v in metrics.items() if not k.endswith("self_ms") and not k.startswith("trace.")}

    assert counts(first[1]) == counts(second[1])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first[1]) == {m["name"] for m in declared}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_sum_to_untraced_operation_time(name, tmp_path):
    cls = small(name)
    tally = run.Tally()
    lib, wl = run.set_up(cls, 7, str(tmp_path), tally)
    modules = {layer: getattr(lib, layer) for layer in run.LAYERS}
    span_ns = wrapper_cost_ns()
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for k in range(SELF_TIME_OPS[name]):
            inp = wl.input(cls.warmup + k)
            t0 = perf_counter_ns()
            wl.run(inp)
            untraced_ns = perf_counter_ns() - t0
            tracer = Tracer()
            with tracer.installed(modules):
                tracer.run_op(k, wl.run, inp)
            self_ns = tracer.self_times()
            assert min(self_ns) >= 0
            layer_ns = sum(t for n, t in zip(tracer.names, self_ns) if n != OP)
            # what the layers hold beyond the untraced time is the wrappers' cost
            ratios.append((layer_ns - (len(tracer.names) - 1) * span_ns) / untraced_ns)
    finally:
        gc.enable()
    assert tally.failed == 0
    assert statistics.median(ratios) == pytest.approx(1, abs=NOISE)


def test_wrappers_restored_after_traced_run(tmp_path):
    lib = run.import_library()
    before = layer_namespaces(lib)
    modules = {layer: getattr(lib, layer) for layer in run.LAYERS}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(modules):
            for layer, names in BOUNDARY.items():
                for fname in names:
                    assert getattr(lib, layer).__dict__[fname] is not before[layer][fname]
            # a consumer namespace gets the wrapper too
            assert lib.identify.pair_quartic is not before["identify"]["pair_quartic"]
            assert lib.cli.check_identifiability is not before["cli"]["check_identifiability"]
            raise RuntimeError("leave the context by an exception")
    after = layer_namespaces(lib)
    for layer in run.LAYERS:
        assert before[layer].keys() == after[layer].keys()
        for attr, value in before[layer].items():
            assert after[layer][attr] is value, f"{layer}.{attr} not restored"


def test_wrappers_restored_after_measure_traced(tmp_path, monkeypatch):
    # measure_traced imports its own copy of the library; check that copy
    captured = {}
    real_import = run.import_library

    def spy():
        lib = real_import()
        captured["lib"] = lib
        captured["before"] = layer_namespaces(lib)
        return lib

    monkeypatch.setattr(run, "import_library", spy)
    traced("identify-exact-cli", tmp_path)
    after = layer_namespaces(captured["lib"])
    for layer, attrs in captured["before"].items():
        for attr, value in attrs.items():
            assert after[layer][attr] is value, f"{layer}.{attr} not restored"
