"""Tests of the benchmark's span tracer and of its definition file.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Layer self times plus the harness's own time must cover the traced
#: wall to within this share of it.
SUM_TOLERANCE = 0.01


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _originals(wraps_table) -> dict:
    """Every attribute an install may replace, keyed by (holder, name)."""
    found = {}
    for spec in wraps_table:
        module_name, _, class_name = spec.target.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            for cls in tracing._subclasses(getattr(module, class_name)):
                for name in spec.names:
                    if name in cls.__dict__:
                        found[(cls, name)] = cls.__dict__[name]
        else:
            for name in spec.names:
                fn = getattr(module, name)
                for holder in list(sys.modules.values()):
                    if getattr(holder, "__name__", "").startswith("repro"):
                        for attr, value in vars(holder).items():
                            if value is fn:
                                found[(holder, attr)] = value
    return found


def test_child_spans_are_subtracted():
    tracer = tracing.Tracer()
    inner = tracer._traced(lambda: _busy(0.01), "inner", "inner")

    def outer_body():
        _busy(0.01)
        inner()
        inner()

    outer = tracer._traced(outer_body, "outer", "outer")
    with tracer.root() as wall:
        outer()
    self_s = tracer.self_times()
    inner_spans = [
        tracer.ends[i] - tracer.starts[i]
        for i, layer in enumerate(tracer.span_layer)
        if tracer.layers[layer] == "inner"
    ]
    assert len(inner_spans) == 2
    assert self_s["inner"] == pytest.approx(sum(inner_spans))
    assert self_s["outer"] == pytest.approx(
        tracer.inclusive["outer"] - sum(inner_spans)
    )
    assert 0.005 < self_s["outer"] < tracer.inclusive["outer"]
    assert sum(self_s.values()) == pytest.approx(wall[0], rel=1e-9)


def test_nested_calls_of_one_layer_count_once():
    tracer = tracing.Tracer()
    leaf = tracer._traced(lambda: None, "crypto", "leaf")
    entry = tracer._traced(lambda: leaf(), "crypto", "entry")
    with tracer.root():
        entry()
        leaf()
    assert tracer.counts == {"leaf": 1, "entry": 1}
    assert tracer.layer_count("crypto") == 2


def test_gc_passes_are_spans_of_their_own():
    tracer = tracing.Tracer()
    work = tracer._traced(gc.collect, "kernel", "collect")
    with tracer.root() as wall:
        work()
    self_s = tracer.self_times()
    assert tracer.gc_collections >= 1
    assert self_s[tracing.GC] > 0
    assert sum(self_s.values()) == pytest.approx(wall[0], rel=1e-9)
    assert gc.callbacks.count(tracer._on_gc) == 0


def _tiny_worlds():
    """A faulted 7-party chaos world and a 4-party BRB world."""
    from repro.analysis.chaos import random_fault_plan, run_chaos_plan
    from repro.protocols.brb_2round import Brb2Round
    from repro.sim.runner import run_broadcast

    record = run_chaos_plan(
        "brb_2round", random_fault_plan("brb_2round", 5),
        instrumentation="full",
    )
    result = run_broadcast(
        n=4, f=1, party_factory=Brb2Round.factory(broadcaster=0,
                                                  input_value="v"),
        instrumentation="perf",
    )
    return record, result


def test_layer_self_times_sum_to_traced_wall_and_wrappers_go_away():
    tracing.import_all_repro()
    before = _originals(tracing.LAYER_WRAPS)
    plain_record, plain_result = _tiny_worlds()

    tracer = tracing.Tracer().install()
    replaced = {
        key for key, value in before.items()
        if getattr(key[0], key[1]) is not value
    }
    try:
        with tracer.root() as wall:
            traced_record, traced_result = _tiny_worlds()
    finally:
        tracer.uninstall()

    assert replaced == set(before)
    assert all(
        getattr(holder, name) is value
        for (holder, name), value in before.items()
    )
    # Tracing observes; it never changes what the worlds compute.
    assert traced_record == plain_record
    assert traced_result.commits == plain_result.commits
    assert traced_result.messages_sent == plain_result.messages_sent

    self_s = tracer.self_times()
    assert abs(sum(self_s.values()) - wall[0]) <= SUM_TOLERANCE * wall[0]
    for layer in ("runner", "kernel", "network", "crypto", "quorum",
                  "protocol", "observers", "faults", "delays"):
        assert self_s[layer] > 0, layer
    assert tracer.count("World.__init__") == 2
    assert tracer.count_named("deliver") > 0
    assert tracer.count("FaultInjector.route") > 0
    assert len(tracer.returned["World.run"]) == 2


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
