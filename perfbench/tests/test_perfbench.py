"""Self-tests of the benchmark: span analysis, wrapper coverage and
removal, input determinism, and BENCHMARK.json against the declarations.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The wrapper test runs every workload once, traced and shortened
(about a minute on a 2-core host).
"""

from __future__ import annotations

import json
import threading

import pytest

from perfbench import harness, inputs, layers
from perfbench.run import END_TO_END
from perfbench.spans import (
    Span,
    Tracer,
    self_times,
    totals,
    unattributed_share,
)

harness.import_repro()


def _span(sid, name, start, end, parent=None, thread="main"):
    return Span(sid, name, start, end, parent, thread, None)


def test_self_time_and_unattributed_share_on_a_synthetic_tree():
    spans = [
        _span(1, "job.train", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 2.0, 3.0, parent=2),
        _span(4, "c", 3.5, 6.0, parent=1),  # overlaps a: union is 1..6
        # Work on other threads, overlapping the job in time. A parent
        # link across threads must not take time from the job, and none
        # of it covers the job thread.
        _span(5, "sampling.sample", 0.0, 10.0, parent=1, thread="producer"),
        _span(6, "engine.run_batch", 6.0, 9.0, thread="worker"),
        _span(7, "engine.gather", 7.0, 8.0, parent=6, thread="worker"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[5] == pytest.approx(10.0)
    assert own[6] == pytest.approx(2.0)
    assert unattributed_share(spans) == pytest.approx(0.5)
    assert totals(spans)["a"] == (1, 3.0, pytest.approx(2.0))


def test_tracer_parents_stay_on_their_thread():
    tracer = Tracer()
    with tracer.span("job.x"):
        with tracer.span("a"):
            worker = threading.Thread(target=lambda: tracer.end(tracer.begin("w")))
            worker.start()
            worker.join(timeout=5)
    assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a"].parent == by_name["job.x"].sid
    assert by_name["w"].parent is None
    assert by_name["w"].thread != by_name["a"].thread


@pytest.mark.parametrize("make", [
    lambda seed: inputs.graph_arrays(inputs.sampled_graph(seed)),
    lambda seed: inputs.graph_arrays(inputs.dist_graph(seed)),
    lambda seed: inputs.graph_arrays(inputs.serve_graph(seed)) + [
        inputs.zipf_reads(seed, inputs.SERVE["n_nodes"]),
        inputs.new_edges(seed, inputs.serve_graph(seed).graph),
        inputs.uniform_requests(seed, inputs.SERVE["n_nodes"]),
    ],
], ids=["train-sampled", "train-dist", "serve"])
def test_one_seed_gives_byte_identical_inputs(make):
    first = inputs.digest(*make(11))
    assert inputs.digest(*make(11)) == first
    assert inputs.digest(*make(12)) != first


def test_new_edges_are_new_and_distinct():
    g = inputs.serve_graph(3).graph
    edges = inputs.new_edges(3, g, count=500)
    assert len({tuple(e) for e in edges}) == len(edges)
    assert all(u != v and v not in g.neighbors(u) for u, v in edges)


def _attribute(name):
    owner, attr = layers._resolve(name)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _originals():
    return {name: _attribute(name) for wrap in layers.WRAPS for name in wrap.names}


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_every_declared_wrapper_fires_and_is_removed(workload):
    from perfbench import workloads

    before = _originals()
    run = harness.Run(workload, seed=5)
    tracer = Tracer()
    ctx = workloads.Context(5, 1.0, 0.0, run, tracer)
    workloads.WORKLOADS[workload](ctx)

    assert run.correct, run.notes
    assert run.failed == 0, run.notes
    missing = [
        wrap.names for wrap in layers.WRAPS
        if workload in wrap.fires_on and not tracer.fired.intersection(wrap.names)
    ]
    assert not missing
    after = _originals()
    assert all(after[name] is before[name] for name in before)
    assert harness.leftovers() == []
    # Every per-layer metric the map assigns to this workload was fed.
    for metric in layers.LAYER_METRICS:
        if workload in metric.on and metric.name not in (
            "queue.shed", "runtime.retries", "perf.cache_hit_ratio",
            "trace.overhead_share",
        ):
            assert run.layers[metric.name] > 0, metric.name
    assert set(run.layers) == {m.name for m in layers.LAYER_METRICS}


def test_benchmark_json_matches_the_declarations():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS]


def test_stop_children_reaps_the_resource_tracker_and_stray_children():
    import subprocess
    import sys
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    stray = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert stray.pid in harness._child_pids()

    stubborn = harness.stop_children(timeout_s=0.2)

    assert stubborn == [stray.pid]
    assert harness._child_pids() == []
    assert resource_tracker._resource_tracker._fd is None
    stray.returncode = -9  # reaped above; keep Popen from waiting again
