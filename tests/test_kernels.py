"""Differential tests for the SpMM path (repro.perf.propagation).

Every hop is one SciPy product, so the references are plain ``@``
products: materialized kinds must reproduce ``engine.operator(...) @``
bit for bit, the fused ``gcn``/``sym`` hops agree with the materialized
operator to rounding error, and ``rows_spmm`` reproduces
``(operator @ dense)[rows]`` exactly. The dtype-variant operator cache
and the float32 end-to-end mode are covered alongside.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.errors import ConfigError
from repro.graph import normalized_adjacency
from repro.models import SGC
from repro.perf import (
    FusedOperator,
    OperatorCache,
    PropagationEngine,
    chunked_spmm,
    fused_spmm,
    rows_spmm,
)
from repro.perf.propagation import _ENGINE_KINDS, get_default_engine
from repro.serving import ModelRegistry, ServingEngine


def random_csr(
    n_rows, n_cols, density=0.05, dtype=np.float64, seed=0, empty_rows=()
):
    """A random CSR with sorted indices, optionally with all-zero rows."""
    rng = np.random.default_rng(seed)
    mat = sp.random(
        n_rows, n_cols, density=density, format="csr",
        random_state=np.random.RandomState(seed), dtype=np.float64,
    )
    mat.data[:] = rng.normal(size=mat.nnz)
    if len(empty_rows):
        lil = mat.tolil()
        for r in empty_rows:
            lil.rows[r] = []
            lil.data[r] = []
        mat = lil.tocsr()
    mat = mat.astype(dtype)
    mat.sort_indices()
    return mat


def dense_rhs(n, d, dtype=np.float64, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)).astype(dtype)
    return np.ascontiguousarray(x[:, 0]) if d == 1 else x


def operator_reference(engine, graph, kind, k, dtype, alpha=None):
    """``[X, PX, ..., P^K X]`` from the materialized operator and ``@``."""
    op = engine.operator(graph, kind, alpha, dtype=dtype)
    stack = [np.asarray(graph.x, dtype=dtype)]
    for _ in range(k):
        stack.append(op @ stack[-1])
    return stack


def max_rel_diff(got, ref):
    scale = float(np.abs(ref).max()) or 1.0
    return float(np.abs(got - ref).max()) / scale


# --------------------------------------------------------------------- #
# Materialized hop (chunked_spmm) vs scipy
# --------------------------------------------------------------------- #


class TestBlockedSpmm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 7, 33])
    def test_rowwalk_bitwise_equal_to_scipy(self, dtype, width):
        op = random_csr(300, 300, dtype=dtype, seed=width)
        x = dense_rhs(300, width, dtype=dtype)
        ref = op @ x
        got = chunked_spmm(op, x)
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape
        assert (got == ref).all()


# --------------------------------------------------------------------- #
# Differential grid: every engine kind x dtype x K
# --------------------------------------------------------------------- #

#: Fused kinds agree with the materialized operator to rounding error.
FUSED_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


class TestDifferentialGrid:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", _ENGINE_KINDS)
    def test_stack_matches_operator_reference(
        self, featured_graph, kind, dtype, k
    ):
        alpha = 0.5 if kind == "lazy" else None
        engine = PropagationEngine(
            cache=OperatorCache(threadsafe=False), threadsafe=False
        )
        stack = engine.propagate(
            featured_graph, featured_graph.x, k, kind=kind, alpha=alpha,
            dtype=dtype,
        )
        ref = operator_reference(engine, featured_graph, kind, k, dtype, alpha)
        assert len(stack) == k + 1
        for got, want in zip(stack, ref):
            assert got.dtype == np.dtype(dtype)
            if kind in ("gcn", "sym"):
                assert max_rel_diff(got, want) <= FUSED_RTOL[dtype]
            else:
                assert (got == want).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "case", ["empty", "duplicates", "negative", "over_chunk"]
    )
    def test_rows_spmm_bitwise(self, case, dtype):
        n, chunk_rows = 200, 16
        op = random_csr(n, n, dtype=dtype, seed=27, empty_rows=[3])
        x = dense_rhs(n, 5, dtype=dtype)
        rows = {
            "empty": np.array([], dtype=np.int64),
            "duplicates": np.array([3, 7, 7, 199, 3, 0]),
            "negative": np.array([-1, -200, 10, -7]),
            "over_chunk": np.random.default_rng(0).permutation(n)[:150],
        }[case]
        got = rows_spmm(op, rows, x, chunk_rows=chunk_rows)
        want = (op @ x)[rows]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (got == want).all()


# --------------------------------------------------------------------- #
# FusedOperator: normalize+propagate without materializing
# --------------------------------------------------------------------- #


class TestFusedOperator:
    def _adjacency(self, graph, self_loops):
        adj = graph.adjacency().astype(np.float64).tocsr()
        if self_loops:
            adj = (adj + sp.eye(graph.n_nodes, format="csr")).tocsr()
        adj.sort_indices()
        return adj

    def test_matches_materialized_gcn_operator(self, ba_graph):
        adj = self._adjacency(ba_graph, self_loops=True)
        fused = FusedOperator(adj)
        x = dense_rhs(ba_graph.n_nodes, 8)
        materialized = normalized_adjacency(ba_graph, kind="sym", self_loops=True)
        assert np.allclose(fused @ x, materialized @ x, atol=1e-12)

    def test_isolated_nodes_produce_zero_rows(self):
        # Node 3 has no edges: d=0 must scale to 0, not inf/nan.
        adj = sp.csr_matrix(
            (np.ones(2), ([0, 1], [1, 0])), shape=(4, 4), dtype=np.float64
        )
        fused = FusedOperator(adj)
        assert fused.scale[3] == 0.0
        out = fused @ dense_rhs(4, 3)
        assert np.isfinite(out).all()
        assert not out[3].any()

    def test_float32_mode(self, ba_graph):
        adj = self._adjacency(ba_graph, self_loops=True).astype(np.float32)
        fused = FusedOperator(adj)
        x = dense_rhs(ba_graph.n_nodes, 4, dtype=np.float32)
        out = fused @ x
        assert out.dtype == np.float32
        ref = normalized_adjacency(ba_graph, kind="sym", self_loops=True) @ x
        assert np.allclose(out, ref, atol=1e-4)

    def test_rejects_non_csr_and_int_data(self):
        with pytest.raises(ConfigError):
            FusedOperator(sp.eye(4, format="coo"))
        with pytest.raises(ConfigError):
            FusedOperator(sp.eye(4, format="csr", dtype=np.int64))

    def test_fused_spmm_dispatcher(self, ba_graph):
        adj = self._adjacency(ba_graph, self_loops=True)
        fused = FusedOperator(adj)
        x = dense_rhs(ba_graph.n_nodes, 4)
        assert (fused_spmm(fused, x) == fused @ x).all()
        v = dense_rhs(ba_graph.n_nodes, 1)
        assert (fused_spmm(fused, v) == fused @ v).all()


# --------------------------------------------------------------------- #
# rows_spmm
# --------------------------------------------------------------------- #


class TestRowsSpmm:
    def test_matches_full_product_rows(self):
        op = random_csr(300, 300, seed=21)
        x = dense_rhs(300, 6)
        rows = np.arange(0, 300, 7)
        assert (rows_spmm(op, rows, x) == (op @ x)[rows]).all()

    def test_chunk_rows_bound_is_honored(self):
        # A selection larger than chunk_rows is processed in windows,
        # yielding identical results.
        op = random_csr(400, 400, seed=22)
        x = dense_rhs(400, 4)
        rows = np.arange(400)
        ref = (op @ x)[rows]
        assert (rows_spmm(op, rows, x, chunk_rows=37) == ref).all()
        # Mixed dtypes upcast exactly as the full product does.
        x32 = x.astype(np.float32)
        got = rows_spmm(op, rows, x32, chunk_rows=37)
        assert (got == (op @ x32)[rows]).all()

    @pytest.mark.parametrize("operand", ["float", "mixed_dtype", "int_data"])
    def test_out_of_range_rows_raise_config_error(self, operand):
        # Every operand type rejects out-of-range ids the same way.
        op = random_csr(20, 20, seed=16)
        x = dense_rhs(20, 3)
        if operand == "mixed_dtype":
            x = x.astype(np.float32)
        elif operand == "int_data":
            op = (op != 0).astype(np.int64)
        for bad in ([20], [-21], [0, 5, 20]):
            with pytest.raises(ConfigError):
                rows_spmm(op, np.array(bad), x)
        assert (rows_spmm(op, np.array([-1, 0]), x) == (op @ x)[[19, 0]]).all()


# --------------------------------------------------------------------- #
# Operator cache dtype variants + frozen structure
# --------------------------------------------------------------------- #


class TestOperatorCacheDtypes:
    def test_float32_variant_shares_frozen_structure(self, ba_graph):
        cache = OperatorCache(threadsafe=False)
        base = cache.adjacency(ba_graph, self_loops=True)
        f32 = cache.adjacency(ba_graph, self_loops=True, dtype=np.float32)
        assert f32.data.dtype == np.float32
        assert f32.indices is base.indices  # structure shared, not copied
        assert f32.indptr is base.indptr
        assert f32.has_sorted_indices
        # Both the base and the variant are frozen end to end.
        for mat in (base, f32):
            assert not mat.data.flags.writeable
            assert not mat.indices.flags.writeable
            assert not mat.indptr.flags.writeable

    def test_default_dtype_returns_base_without_extra_entry(self, ba_graph):
        cache = OperatorCache(threadsafe=False)
        base = cache.adjacency(ba_graph, self_loops=False)
        assert cache.adjacency(ba_graph, self_loops=False, dtype=np.float64) is base
        assert len(cache) == 1  # no variant entry for the native dtype
        assert cache.stats.misses == 1

    def test_variant_cached_once(self, ba_graph):
        cache = OperatorCache(threadsafe=False)
        a = cache.normalized_adjacency(ba_graph, dtype=np.float32)
        b = cache.normalized_adjacency(ba_graph, dtype=np.float32)
        assert a is b

    def test_all_accessors_accept_dtype(self, ba_graph):
        cache = OperatorCache(threadsafe=False)
        for build in (
            lambda: cache.adjacency(ba_graph, dtype=np.float32),
            lambda: cache.normalized_adjacency(ba_graph, dtype=np.float32),
            lambda: cache.laplacian(ba_graph, dtype=np.float32),
            lambda: cache.propagation(ba_graph, dtype=np.float32),
        ):
            mat = build()
            assert mat.data.dtype == np.float32
            assert not mat.data.flags.writeable

    def test_variant_values_match_cast(self, ba_graph):
        cache = OperatorCache(threadsafe=False)
        base = cache.propagation(ba_graph)
        f32 = cache.propagation(ba_graph, dtype=np.float32)
        assert (f32.data == base.data.astype(np.float32)).all()


# --------------------------------------------------------------------- #
# Engine dtype mode (float32 end to end)
# --------------------------------------------------------------------- #


class TestEngineDtypeMode:
    def test_float32_stack_dtype(self, featured_graph):
        engine = PropagationEngine(dtype=np.float32, threadsafe=False)
        stack = engine.propagate(featured_graph, featured_graph.x, 2)
        assert all(layer.dtype == np.float32 for layer in stack)

    def test_per_call_override_and_memo_separation(self, featured_graph):
        engine = PropagationEngine(threadsafe=False)
        f64 = engine.propagate(featured_graph, featured_graph.x, 2)
        f32 = engine.propagate(
            featured_graph, featured_graph.x, 2, dtype=np.float32
        )
        assert f64[1].dtype == np.float64 and f32[1].dtype == np.float32
        assert engine.stats.misses == 2  # distinct memo keys per dtype
        again = engine.propagate(
            featured_graph, featured_graph.x, 2, dtype=np.float32
        )
        assert again[2] is f32[2]
        assert engine.stats.hits == 1

    def test_float32_accuracy_close_to_float64(self, featured_graph):
        engine = PropagationEngine(threadsafe=False)
        f64 = engine.propagate(featured_graph, featured_graph.x, 3)
        f32 = engine.propagate(
            featured_graph, featured_graph.x, 3, dtype=np.float32
        )
        for a, b in zip(f64, f32):
            assert np.allclose(a, b, atol=1e-3)

    def test_invalid_dtype_rejected(self, featured_graph):
        with pytest.raises(ConfigError):
            PropagationEngine(dtype=np.int32)
        engine = PropagationEngine(threadsafe=False)
        with pytest.raises(ConfigError):
            engine.propagate(
                featured_graph, featured_graph.x, 1, dtype=np.float16
            )

    def test_fused_matches_materialized_engine(self, featured_graph):
        engine = PropagationEngine(threadsafe=False)
        a = engine.propagate(featured_graph, featured_graph.x, 3, kind="gcn")
        b = operator_reference(engine, featured_graph, "gcn", 3, np.float64)
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-12)

    def test_fused_spmm_runs_under_observability(self, featured_graph):
        engine = PropagationEngine(threadsafe=False)
        obs.configure(enabled=True)
        try:
            stack = engine.propagate(featured_graph, featured_graph.x, 1)
        finally:
            obs.configure(enabled=False)
        assert len(stack) == 2

    def test_hop_features_dtype_pass_through(self, featured_graph):
        engine = PropagationEngine(threadsafe=False)
        stack = engine.hop_features(featured_graph, 1, dtype=np.float32)
        assert stack[1].dtype == np.float32


# --------------------------------------------------------------------- #
# Serving in float32
# --------------------------------------------------------------------- #


class TestServingFloat32:
    def test_register_serve_and_patch_in_float32(self, csbm_dataset, rng):
        graph, _ = csbm_dataset
        engine = PropagationEngine(dtype=np.float32, threadsafe=False)
        registry = ModelRegistry(engine)
        serving = ServingEngine(registry=registry, store=None)
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=0)
        serving.register("sgc32", model, graph)
        record = registry.get("sgc32")
        assert record.dtype == np.float32
        result = serving.predict(3)
        assert 0 <= result.prediction < graph.n_classes
        # Incremental update patches the float32 stack with float32
        # products; the patched rows must match a fresh recompute.
        u, v = 0, graph.n_nodes - 1
        if graph.has_edge(u, v):
            u, v = 1, graph.n_nodes - 2
        serving.apply_update(u, v)
        fresh = engine.propagate(
            record.graph, record.graph.x, record.k_hops, memoize=False
        )
        for depth in range(record.k_hops + 1):
            assert record.stack[depth].dtype == np.float32
            assert np.allclose(
                record.stack[depth], fresh[depth], atol=1e-4
            )

    def test_default_engine_restored(self, featured_graph):
        # Guard: tests above never swap the process default engine, so the
        # shared engine keeps serving float64 by default.
        assert get_default_engine().dtype == np.float64
        stack = get_default_engine().propagate(
            featured_graph, featured_graph.x, 1
        )
        assert stack[1].dtype == np.float64
