"""Which library callables the traced run wraps, and the per-layer metrics
derived from the spans they record.

Layers are named after the library's modules. ``WRAPS`` lists every
wrapped callable once, with every module or class attribute callers look
it up by (a name imported with ``from x import f`` must be patched where
it was imported, too) and the workloads on which it must fire.
``LAYER_METRICS`` is the layer → end-to-end → workload map: what each
per-layer metric measures, which end-to-end metric it should move, and on
which workload.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass

from perfbench.spans import Patches, Tracer, totals, traced

TRAIN_SAMPLED = "train-sampled"
TRAIN_DIST = "train-dist"
SERVE_UPDATES = "serve-updates"
SERVE_SHARDED = "serve-sharded"
WORKLOADS = (TRAIN_SAMPLED, TRAIN_DIST, SERVE_UPDATES, SERVE_SHARDED)


@dataclass(frozen=True)
class Wrap:
    """One callable, the attributes it is reachable by, its span name and
    the workloads on which at least one of those attributes must fire."""

    names: tuple[str, ...]
    span: str
    fires_on: tuple[str, ...]


WRAPS = (
    Wrap(("repro.perf.propagation:PropagationEngine.hop_features",
          "repro.perf.propagation:PropagationEngine.propagate"),
         "perf.propagate", (SERVE_UPDATES, SERVE_SHARDED)),
    Wrap(("repro.perf.propagation:chunked_spmm", "repro.perf:chunked_spmm",
          "repro.models.spectral_gnn:chunked_spmm"),
         "perf.spmm", (SERVE_SHARDED,)),
    Wrap(("repro.perf.propagation:fused_spmm", "repro.perf:fused_spmm"),
         "perf.spmm", (SERVE_UPDATES,)),
    Wrap(("repro.perf.propagation:rows_spmm", "repro.perf:rows_spmm",
          "repro.serving.invalidation:rows_spmm"),
         "perf.spmm", (SERVE_UPDATES,)),
    Wrap(("repro.perf.propagation:PropagationEngine.operator",),
         "perf.operator", (SERVE_UPDATES,)),
    Wrap(("repro.editing.sampling:NeighborSampler.sample_layer",),
         "sampling.sample", (TRAIN_SAMPLED,)),
    Wrap(("repro.editing.sampling:compact_layer",
          "repro.training.datapipe:compact_layer"),
         "sampling.compact", (TRAIN_SAMPLED,)),
    Wrap(("repro.training.datapipe:PrefetchIterator.__next__",),
         "datapipe.wait", (TRAIN_SAMPLED,)),
    Wrap(("repro.models.sage:GraphSAGE.forward_blocks",
          "repro.tensor.functional:cross_entropy"),
         "tensor.forward", (TRAIN_SAMPLED,)),
    Wrap(("repro.models.sgc:SGC.forward",),
         "tensor.forward", (SERVE_UPDATES,)),
    Wrap(("repro.tensor.autograd:Tensor.backward",),
         "tensor.backward", (TRAIN_SAMPLED, SERVE_UPDATES)),
    Wrap(("repro.tensor.optim:Adam.step", "repro.tensor.optim:Optimizer.zero_grad"),
         "tensor.optim", (TRAIN_SAMPLED, SERVE_UPDATES)),
    Wrap(("repro.models.sage:GraphSAGE.forward_full",),
         "train.eval", (TRAIN_SAMPLED,)),
    Wrap(("repro.models.sage:GraphSAGE.prepare",),
         "train.prepare", (TRAIN_SAMPLED,)),
    Wrap(("repro.editing.partition:ldg_partition",),
         "editing.partition", (TRAIN_DIST, SERVE_SHARDED)),
    Wrap(("repro.distributed.shards:build_shard_plan",),
         "distributed.plan", (TRAIN_DIST, SERVE_SHARDED)),
    Wrap(("repro.distributed.backend:ProcessBackend.run",),
         "distributed.run", (TRAIN_DIST,)),
    Wrap(("repro.serving.runtime:ServingRuntime.register",),
         "registry.register", (SERVE_UPDATES, SERVE_SHARDED)),
    Wrap(("repro.serving.runtime:ServingRuntime.predict_async",),
         "runtime.submit", (SERVE_UPDATES,)),
    Wrap(("repro.serving.engine:ServingEngine.run_batch",),
         "engine.run_batch", (SERVE_UPDATES, SERVE_SHARDED)),
    Wrap(("repro.serving.registry:ServedModel.hop_rows",),
         "engine.gather", (SERVE_UPDATES, SERVE_SHARDED)),
    Wrap(("repro.serving.runtime:ServingRuntime.apply_updates",),
         "update.apply", (SERVE_UPDATES,)),
    Wrap(("repro.graph.dynamic:DynamicGraph.snapshot",),
         "update.snapshot", (SERVE_UPDATES,)),
    Wrap(("repro.serving.invalidation:dirty_frontiers",
          "repro.serving.engine:dirty_frontiers"),
         "update.dirty", (SERVE_UPDATES,)),
    Wrap(("repro.serving.invalidation:patch_stack",
          "repro.serving.engine:patch_stack"),
         "update.patch", (SERVE_UPDATES,)),
    Wrap(("repro.serving.router:ShardRouter.predict_many",),
         "router.predict_many", (SERVE_SHARDED,)),
    Wrap(("repro.serving.router:ShardRouter.predict",),
         "router.predict", (SERVE_SHARDED,)),
    Wrap(("repro.serving.runtime:ServingRuntime.predict",),
         "runtime.predict", (SERVE_SHARDED,)),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    meaning: str
    moves: str
    on: tuple[str, ...]
    better: str = "lower"


#: Units: ``s`` is mean seconds per call of the wrapped callable (per
#: round for the distributed intervals), counts are totals over the
#: traced run, ratios are shares of their stated base.
LAYER_METRICS = (
    LayerMetric("perf.propagate_s", "s", "PropagationEngine.hop_features/propagate",
                "job_s on serve-updates; setup_s and job_s on serve-sharded",
                (SERVE_UPDATES, SERVE_SHARDED)),
    LayerMetric("perf.spmm_s", "s", "chunked_spmm, fused_spmm, rows_spmm under every name",
                "job_s on serve-updates; update.apply_p50_ms", (SERVE_UPDATES,)),
    LayerMetric("perf.spmm_calls", "count", "calls of those kernels",
                "job_s on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("perf.operator_s", "s", "PropagationEngine.operator (rebuilt per update batch)",
                "update.apply_p50_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("perf.cache_hit_ratio", "ratio", "OperatorCache hits / lookups",
                "setup_s", (SERVE_UPDATES, SERVE_SHARDED), better="higher"),
    LayerMetric("sampling.sample_s", "s", "NeighborSampler.sample_layer (producer thread)",
                "job_s on train-sampled, only through datapipe.wait_s", (TRAIN_SAMPLED,)),
    LayerMetric("sampling.compact_s", "s", "compact_layer (producer thread)",
                "job_s on train-sampled, only through datapipe.wait_s", (TRAIN_SAMPLED,)),
    LayerMetric("datapipe.wait_s", "s", "consumer time blocked in PrefetchIterator.__next__",
                "job_s and tail_ms on train-sampled", (TRAIN_SAMPLED,)),
    LayerMetric("datapipe.fetch_s", "s", "MiniBatch.stage_s['fetch'] per batch",
                "job_s on train-sampled, only through datapipe.wait_s", (TRAIN_SAMPLED,)),
    LayerMetric("datapipe.batches", "count", "batches the consumer received",
                "rate_per_s on train-sampled", (TRAIN_SAMPLED,), better="higher"),
    LayerMetric("tensor.forward_s", "s", "GraphSAGE.forward_blocks, SGC.forward, cross_entropy",
                "job_s and p50_ms on train-sampled; job_s on serve-updates",
                (TRAIN_SAMPLED, SERVE_UPDATES)),
    LayerMetric("tensor.backward_s", "s", "Tensor.backward",
                "job_s and p50_ms on train-sampled; job_s on serve-updates",
                (TRAIN_SAMPLED, SERVE_UPDATES)),
    LayerMetric("tensor.optim_s", "s", "Adam.step and zero_grad",
                "job_s and p50_ms on train-sampled; job_s on serve-updates",
                (TRAIN_SAMPLED, SERVE_UPDATES)),
    LayerMetric("train.eval_s", "s", "GraphSAGE.forward_full and SGC.forward in eval mode",
                "job_s on train-sampled and serve-updates", (TRAIN_SAMPLED, SERVE_UPDATES)),
    LayerMetric("train.prepare_s", "s", "GraphSAGE.prepare (full-graph operator per job)",
                "job_s on train-sampled", (TRAIN_SAMPLED,)),
    LayerMetric("editing.partition_s", "s", "ldg_partition",
                "setup_s on train-dist; setup_s and job_s on serve-sharded",
                (TRAIN_DIST, SERVE_SHARDED)),
    LayerMetric("distributed.plan_s", "s", "build_shard_plan",
                "job_s on train-dist; setup_s and job_s on serve-sharded",
                (TRAIN_DIST, SERVE_SHARDED)),
    LayerMetric("distributed.launch_s", "s", "ProcessBackend.run entry to first round_hook",
                "job_s on train-dist (a worker pool would move it to setup_s)", (TRAIN_DIST,)),
    LayerMetric("distributed.first_round_s", "s", "round_hook 0 to 1, incl. worker start and import",
                "job_s and tail_ms on train-dist", (TRAIN_DIST,)),
    LayerMetric("distributed.round_p50_s", "s", "median gap between later round hooks",
                "job_s and p50_ms on train-dist", (TRAIN_DIST,)),
    LayerMetric("distributed.tail_s", "s", "last round_hook to return (final round, join, eval, teardown)",
                "job_s on train-dist", (TRAIN_DIST,)),
    LayerMetric("distributed.default_threads_job_s", "s",
                "job time with each rank's BLAS pool at its default size (all cores)",
                "job_s on train-dist, if the ranks sized their own pools", (TRAIN_DIST,)),
    LayerMetric("distributed.halo_floats", "count", "BackendResult.halo_floats_received per job",
                "job_s on train-dist", (TRAIN_DIST,)),
    LayerMetric("distributed.copied_bytes", "count", "BackendResult.attach_stats copied_bytes per job",
                "job_s and peak_rss_mb on train-dist", (TRAIN_DIST,)),
    LayerMetric("distributed.mapped_bytes", "count", "BackendResult.attach_stats mapped_bytes per job",
                "peak_rss_mb on train-dist", (TRAIN_DIST,)),
    LayerMetric("registry.register_s", "s", "ServingRuntime.register",
                "setup_s on serve-updates and serve-sharded; job_s on serve-sharded",
                (SERVE_UPDATES, SERVE_SHARDED)),
    LayerMetric("runtime.submit_s", "s", "ServingRuntime.predict_async on the generator thread",
                "rate_per_s (capacity) on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("queue.mean_batch_size", "count", "BatchingQueue.mean_batch_size",
                "p50_ms and rate_per_s on serve-updates", (SERVE_UPDATES, SERVE_SHARDED), better="higher"),
    LayerMetric("queue.shed", "count", "BatchingQueue.shed",
                "success_ratio", (SERVE_UPDATES, SERVE_SHARDED)),
    LayerMetric("runtime.retries", "count", "ServingRuntime.retries",
                "success_ratio", (SERVE_UPDATES, SERVE_SHARDED)),
    LayerMetric("engine.run_batch_s", "s", "ServingEngine.run_batch (worker threads)",
                "p50_ms on serve-updates; rate_per_s on serve-sharded",
                (SERVE_UPDATES, SERVE_SHARDED)),
    LayerMetric("engine.gather_s", "s", "ServedModel.hop_rows (inside the reader lock)",
                "tail_ms on serve-updates", (SERVE_UPDATES, SERVE_SHARDED)),
    LayerMetric("store.hit_ratio", "ratio", "EmbeddingStore hits / lookups",
                "p50_ms on serve-updates; near zero on serve-sharded",
                (SERVE_UPDATES, SERVE_SHARDED), better="higher"),
    LayerMetric("store.invalidated", "count", "summed UpdateReport.store_invalidated",
                "p50_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("update.apply_s", "s", "ServingRuntime.apply_updates on the generator thread",
                "tail_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("update.apply_p50_ms", "ms", "median apply_updates batch latency (write latency)",
                "tail_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("update.snapshot_s", "s", "DynamicGraph.snapshot",
                "update.apply_p50_ms and tail_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("update.dirty_s", "s", "dirty_frontiers",
                "update.apply_p50_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("update.patch_s", "s", "patch_stack",
                "update.apply_p50_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("update.rows_patched_ratio", "ratio", "rows_recomputed / rows_full",
                "update.apply_p50_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("router.self_s", "s", "ShardRouter.predict minus its ServingRuntime.predict",
                "rate_per_s and p50_ms on serve-sharded; no change on serve-updates",
                (SERVE_SHARDED,)),
    LayerMetric("router.halo_rows_per_request", "count", "halo_rows_copied / requests",
                "rate_per_s and p50_ms on serve-sharded", (SERVE_SHARDED,)),
    LayerMetric("router.boundary_share", "ratio", "boundary_requests / requests",
                "rate_per_s and p50_ms on serve-sharded", (SERVE_SHARDED,)),
    LayerMetric("router.wrong_answers", "count", "answers differing from one global ServingRuntime",
                "success_ratio and quality on serve-sharded", (SERVE_SHARDED,)),
    LayerMetric("loadgen.late_max_ms", "ms", "largest submit delay of the open-loop generator",
                "tail_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("loadgen.late_share", "ratio", "reads submitted more than 1 ms after due",
                "tail_ms on serve-updates", (SERVE_UPDATES,)),
    LayerMetric("trace.unattributed_share", "ratio", "job-thread wall time outside every layer span",
                "none (attribution quality)", WORKLOADS),
    LayerMetric("trace.overhead_share", "ratio", "traced over untraced job time, minus 1",
                "none (tracing cost)", WORKLOADS),
    LayerMetric("baseline.one_process_train_s", "s", "in-process train_full_batch GCN, same graph and epochs",
                "the simple alternative to job_s on train-dist", (TRAIN_DIST,)),
    LayerMetric("baseline.global_runtime_rps", "1/s", "one global ServingRuntime on the same stream",
                "the simple alternative to rate_per_s on serve-sharded", (SERVE_SHARDED,), better="higher"),
)


# --------------------------------------------------------------------- #
# Installing the wrappers
# --------------------------------------------------------------------- #


def _resolve(name: str):
    """``"pkg.mod:Class.attr"`` -> (owner, attr)."""
    module, _, path = name.partition(":")
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _in_train_job(tracer: Tracer):
    return lambda *args: (tracer.ref or "").startswith("train")


def _make(tracer: Tracer, wrap: Wrap, name: str):
    """The wrapper factory for one attribute of ``wrap``."""
    if name.endswith("PrefetchIterator.__next__"):
        def after(batch, *args):
            tracer.count("datapipe.batches")
            tracer.count("datapipe.fetch_s", batch.stage_s.get("fetch", 0.0))
        return lambda fn: traced(tracer, fn, wrap.span, after=after, label=name)
    if name.endswith("SGC.forward"):
        # SGC's head also answers serving requests; only training-job calls
        # belong to the tensor layer, and eval-mode calls are evaluation.
        def make(fn):
            train_job = _in_train_job(tracer)
            fwd = traced(tracer, fn, "tensor.forward", label=name,
                         when=lambda self, *a: train_job() and self.training)
            return traced(tracer, fwd, "train.eval", label=name,
                          when=lambda self, *a: train_job() and not self.training)
        return make
    return lambda fn: traced(tracer, fn, wrap.span, label=name)


def install(tracer: Tracer) -> Patches:
    patches = Patches()
    for wrap in WRAPS:
        for name in wrap.names:
            owner, attr = _resolve(name)
            patches.wrap(owner, attr, _make(tracer, wrap, name))
    return patches


# --------------------------------------------------------------------- #
# Deriving the per-layer metrics
# --------------------------------------------------------------------- #

_MEAN_SPANS = {
    "perf.propagate_s": "perf.propagate",
    "perf.spmm_s": "perf.spmm",
    "perf.operator_s": "perf.operator",
    "sampling.sample_s": "sampling.sample",
    "sampling.compact_s": "sampling.compact",
    "datapipe.wait_s": "datapipe.wait",
    "tensor.forward_s": "tensor.forward",
    "tensor.backward_s": "tensor.backward",
    "tensor.optim_s": "tensor.optim",
    "train.eval_s": "train.eval",
    "train.prepare_s": "train.prepare",
    "editing.partition_s": "editing.partition",
    "distributed.plan_s": "distributed.plan",
    "distributed.launch_s": "distributed.launch",
    "distributed.first_round_s": "distributed.first_round",
    "distributed.tail_s": "distributed.tail",
    "registry.register_s": "registry.register",
    "runtime.submit_s": "runtime.submit",
    "engine.run_batch_s": "engine.run_batch",
    "engine.gather_s": "engine.gather",
    "update.apply_s": "update.apply",
    "update.snapshot_s": "update.snapshot",
    "update.dirty_s": "update.dirty",
    "update.patch_s": "update.patch",
}


def derive(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0.0 where the workload does not reach the
    layer. ``extra`` carries values the workload read from the library's
    own counters and results."""
    table = totals(tracer.spans)
    out = {m.name: 0.0 for m in LAYER_METRICS}
    for metric, span in _MEAN_SPANS.items():
        calls, inclusive, _ = table.get(span, (0, 0.0, 0.0))
        out[metric] = inclusive / calls if calls else 0.0
    out["perf.spmm_calls"] = float(table.get("perf.spmm", (0,))[0])
    calls = tracer.counters.get("datapipe.batches", 0.0)
    out["datapipe.batches"] = calls
    out["datapipe.fetch_s"] = tracer.counters.get("datapipe.fetch_s", 0.0) / calls if calls else 0.0
    rounds = [s.duration for s in tracer.spans if s.name == "distributed.round"]
    out["distributed.round_p50_s"] = statistics.median(rounds) if rounds else 0.0
    applies = [s.duration for s in tracer.spans if s.name == "update.apply"]
    out["update.apply_p50_ms"] = statistics.median(applies) * 1e3 if applies else 0.0
    calls, _, own = table.get("router.predict", (0, 0.0, 0.0))
    out["router.self_s"] = own / calls if calls else 0.0
    for key, value in extra.items():
        if key not in out:
            raise KeyError(f"undeclared per-layer metric {key!r}")
        out[key] = float(value)
    return out


def units() -> dict[str, str]:
    return {m.name: m.unit for m in LAYER_METRICS}
