"""K-hop propagation with memoized hop-feature stacks.

The single graph-touching step of every decoupled model is the K-hop
stack :math:`[X, PX, \\ldots, P^K X]` for some propagation operator
:math:`P`. :class:`PropagationEngine` computes that stack *once* per
``(graph, features, operator)`` combination and serves it to every model
that asks — SGC, SIGN, GAMLP, LD2, KRR and the spectral filters all go
through :meth:`PropagationEngine.propagate`, so repeat experiments on the
same graph pay zero additional SpMM cost.

Every hop is one SciPy product, ``operator @ dense``. The aggregation is
memory-bound and a CSR × dense product writes straight into its output,
so there is nothing for row chunking or column tiling to bound or reuse
at the widths this library runs. Three thin entry points own the
``propagation.hop`` fault-injection site:

* :func:`chunked_spmm` — ``operator @ dense`` for a materialized
  operator;
* :func:`fused_spmm` — one hop through a :class:`FusedOperator`, the
  ``gcn``/``sym`` normalization :math:`D^{-1/2} A D^{-1/2}` applied on
  the fly as ``s * (A @ (s * X))``, so the normalized operator is never
  built;
* :func:`rows_spmm` — ``operator[rows] @ dense``, the dirty-row kernel of
  incremental serving, processed ``chunk_rows`` selected rows at a time
  to bound the sub-matrix copy.

The engine is dtype-aware end to end: ``PropagationEngine(dtype=...)``
(or a per-call ``propagate(..., dtype=...)`` override) selects float32
or float64 for the whole hop stack. The default stays float64, matching
the historical behaviour of upcasting every input; float32 halves the
memory traffic of this memory-bound kernel.

Memoized stacks grow on demand: asking for ``K=4`` after ``K=2`` extends
the cached stack by two hops instead of recomputing from scratch, and a
shorter request is served as a prefix slice.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph.core import Graph
from repro.obs import OBS
from repro.perf.fingerprint import array_fingerprint
from repro.perf.operator_cache import OperatorCache, get_default_cache
from repro.resilience.faults import FAULTS
from repro.storage.feature_cache import CacheStats
from repro.utils.concurrency import NULL_LOCK, make_lock
from repro.utils.validation import check_int_range

DEFAULT_CHUNK_ROWS = 16384

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_ENGINE_KINDS = ("gcn", "rw", "lazy", "col", "sym", "lap")


class FusedOperator:
    """Symmetric normalization fused into the product: ``D^-1/2 A D^-1/2``.

    Holds the *raw* adjacency (with or without self-loops) and the
    degree-scaling vector :math:`s_i = d_i^{-1/2}` (zero for isolated
    nodes, matching :func:`repro.graph.ops.normalized_adjacency`).
    ``self @ X`` computes :math:`s \\odot (A (s \\odot X))`, so the
    nnz-sized normalized operator of the ``gcn``/``sym`` engines is never
    materialized. Agreement with the materialized operator is to rounding
    error (the scale factors associate differently), around 1e-15
    relative for float64.
    """

    def __init__(self, adjacency: sp.csr_matrix) -> None:
        if not isinstance(adjacency, sp.csr_matrix):
            raise ConfigError("FusedOperator requires a csr_matrix adjacency")
        if adjacency.data.dtype not in SUPPORTED_DTYPES:
            raise ConfigError("FusedOperator requires float32/float64 data")
        self.adjacency = adjacency
        self.shape = adjacency.shape
        self.dtype = adjacency.data.dtype
        # Degrees summed in float64 regardless of the operand dtype so the
        # float32 mode's scale vector is a rounding of the exact one.
        deg = np.asarray(adjacency.sum(axis=1), dtype=np.float64).ravel()
        scale = np.zeros_like(deg)
        np.power(deg, -0.5, where=deg > 0, out=scale)
        self.scale = scale.astype(self.dtype)
        self.scale.setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.adjacency.nnz)

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        dense = np.asarray(dense)
        scale = self.scale if dense.ndim == 1 else self.scale[:, None]
        out = self.adjacency @ (dense * scale)
        out *= scale
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedOperator(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.dtype})"
        )


def _fire_hop_fault():
    """Arm the ``propagation.hop`` fault site; returns ``(injector, action)``.

    Decided before the SpMM so transient crashes and injected stragglers
    cost no compute; corrupt/drop act on the hop output via
    :func:`_apply_hop_fault`. One attribute check when chaos is off; the
    injector is loaded into a local exactly once because a concurrent
    clear_injector() may null FAULTS.injector mid-call.
    """
    inj = FAULTS.injector if FAULTS.active else None
    action = inj.fire("propagation.hop") if inj is not None else None
    return inj, action


def _apply_hop_fault(inj, action, out: np.ndarray) -> np.ndarray:
    if action == "corrupt":
        return inj.corrupt(out)
    if action == "drop":
        # A dropped hop result models a lost partial aggregation.
        return np.zeros_like(out)
    return out


def chunked_spmm(operator: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
    """One hop, ``operator @ dense``, for a materialized operator.

    A single SciPy product: it writes straight into its output, so there
    is no transient for row chunking to bound. Bitwise identical to
    ``operator @ dense`` when no fault is injected.
    """
    inj, action = _fire_hop_fault()
    return _apply_hop_fault(inj, action, operator @ np.asarray(dense))


def fused_spmm(operator: FusedOperator, dense: np.ndarray) -> np.ndarray:
    """One fused normalize+propagate hop, ``operator @ dense`` for a
    :class:`FusedOperator` (the fused analogue of :func:`chunked_spmm`)."""
    inj, action = _fire_hop_fault()
    return _apply_hop_fault(inj, action, operator @ np.asarray(dense))


def rows_spmm(
    operator: sp.spmatrix,
    rows: np.ndarray,
    dense: np.ndarray,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> np.ndarray:
    """``(operator @ dense)[rows]`` without computing the full product.

    Multiplies only the selected rows — cost proportional to their
    non-zeros, not the whole graph. The localized-recompute kernel of
    incremental serving: after an edge insertion only the dirty K-hop
    rows of a hop stack are re-derived this way.

    The ``operator[rows]`` sub-matrix is a copy, so the selection is
    processed ``chunk_rows`` rows at a time: a dirty frontier covering
    most of the graph still copies at most ``chunk_rows`` rows at once.
    Negative ids count from the end; any id outside ``[-n, n)`` raises
    :class:`ConfigError`.
    """
    check_int_range("chunk_rows", chunk_rows, 1)
    rows = np.asarray(rows, dtype=np.int64)
    n_rows = operator.shape[0]
    if len(rows) and (rows.min() < -n_rows or rows.max() >= n_rows):
        raise ConfigError(f"row indices outside [-{n_rows}, {n_rows})")
    inj, action = _fire_hop_fault()
    dense = np.asarray(dense)
    csr = operator.tocsr()
    if len(rows) <= chunk_rows:
        out = csr[rows] @ dense
    else:
        out = np.empty(
            (len(rows),) + dense.shape[1:],
            dtype=np.result_type(csr.dtype, dense.dtype),
        )
        for start in range(0, len(rows), chunk_rows):
            stop = min(start + chunk_rows, len(rows))
            out[start:stop] = csr[rows[start:stop]] @ dense
    return _apply_hop_fault(inj, action, out)


def _frozen(arr: np.ndarray) -> bool:
    """Whether ``arr``'s data cannot change: it is read-only and either
    owns its data or every array it views is read-only too."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


class PropagationEngine:
    """Shared K-hop propagation: one SpMM per hop + memoized hop stacks.

    Parameters
    ----------
    cache:
        Operator cache used to build/reuse the propagation operators; when
        ``None`` the process-wide default cache is consulted at call time.
    max_stacks:
        LRU bound on memoized hop stacks (each stack holds ``K+1`` dense
        ``(n, d)`` arrays, so this is the dominant memory knob).
    threadsafe:
        Serialize memoized propagation under a reentrant lock (default).
        Stack construction is a registration-time event, not per-request
        work, so serializing concurrent builders is the correct trade —
        two threads racing the same key would otherwise both pay the
        full K-hop SpMM and tear the LRU bookkeeping.
    dtype:
        Element type of every propagated stack: ``float64`` (default,
        the historical behaviour) or ``float32``, which halves the
        memory traffic of the memory-bound SpMM. Overridable per call
        via ``propagate(..., dtype=...)``.

    ``gcn``/``sym`` hops always run through a :class:`FusedOperator`, so
    their normalized operator is never materialized; the other kinds
    multiply by the cached operator of :meth:`operator`.
    """

    def __init__(
        self,
        cache: OperatorCache | None = None,
        max_stacks: int = 8,
        threadsafe: bool = True,
        dtype=np.float64,
    ) -> None:
        check_int_range("max_stacks", max_stacks, 1)
        self._cache = cache
        self.max_stacks = max_stacks
        self.dtype = self._check_dtype(dtype)
        self._lock = make_lock(threadsafe)
        self._stacks: OrderedDict[tuple, list[np.ndarray]] = OrderedDict()
        self._feature_hashes: OrderedDict[int, tuple[np.ndarray, str]] = OrderedDict()
        self._fused: OrderedDict[int, FusedOperator] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def _check_dtype(dtype) -> np.dtype:
        dt = np.dtype(dtype)
        if dt not in SUPPORTED_DTYPES:
            raise ConfigError(
                f"propagation dtype must be float32 or float64, got {dt}"
            )
        return dt

    @property
    def cache(self) -> OperatorCache:
        """The operator cache this engine builds operators through."""
        return self._cache if self._cache is not None else get_default_cache()

    # ------------------------------------------------------------------ #
    # Operators
    # ------------------------------------------------------------------ #

    def operator(
        self,
        graph: Graph,
        kind: str = "gcn",
        alpha: float | None = None,
        dtype=None,
    ) -> sp.csr_matrix:
        """The cached propagation operator for ``kind``.

        - ``"gcn"`` / ``"rw"`` / ``"lazy"``: the schemes of
          :func:`repro.graph.ops.propagation_matrix` (``lazy`` needs
          ``alpha``).
        - ``"col"``: column-stochastic :math:`A D^{-1}` (PPR push).
        - ``"sym"``: :math:`D^{-1/2} A D^{-1/2}` without self-loops.
        - ``"lap"``: symmetric-normalised Laplacian (high-pass filters).

        ``dtype`` selects a value-dtype variant (cached alongside the
        canonical operator, sharing its frozen index structure).
        """
        if kind in ("gcn", "rw", "lazy"):
            return self.cache.propagation(graph, scheme=kind, alpha=alpha,
                                          dtype=dtype)
        if kind == "col":
            return self.cache.normalized_adjacency(
                graph, kind="col", self_loops=False, dtype=dtype
            )
        if kind == "sym":
            return self.cache.normalized_adjacency(
                graph, kind="sym", self_loops=False, dtype=dtype
            )
        if kind == "lap":
            return self.cache.laplacian(graph, kind="sym", dtype=dtype)
        raise ConfigError(f"kind must be one of {_ENGINE_KINDS}, got {kind!r}")

    def _hop_operator(self, graph: Graph, kind: str, alpha, dtype: np.dtype):
        """What one hop multiplies by: a fused wrapper for the
        symmetric-normalized kinds, else the cached materialized operator.

        Fused wrappers are memoized per cached adjacency: their degree
        scan costs several percent of a K-hop pass on small graphs.
        """
        if kind not in ("gcn", "sym"):
            return self.operator(graph, kind, alpha, dtype=dtype)
        adj = self.cache.adjacency(graph, self_loops=(kind == "gcn"),
                                   dtype=dtype)
        with self._lock or NULL_LOCK:
            fused = self._fused.get(id(adj))
            # The entry's strong reference to its adjacency keeps the id
            # from being recycled while the entry lives.
            if fused is None or fused.adjacency is not adj:
                fused = self._fused[id(adj)] = FusedOperator(adj)
                if len(self._fused) > self.max_stacks:
                    self._fused.popitem(last=False)
            return fused

    @staticmethod
    def _apply_hop(operator, dense: np.ndarray) -> np.ndarray:
        """One hop through the matching entry point (fault site included)."""
        if isinstance(operator, FusedOperator):
            return fused_spmm(operator, dense)
        return chunked_spmm(operator, dense)

    def _feature_fingerprint(self, features: np.ndarray) -> str:
        """Content hash of a feature matrix, memoized by identity.

        Arrays whose data cannot change (:func:`_frozen`: e.g.
        ``graph.x``, or a previously served hop) get their digest cached
        keyed by object identity — repeat lookups of a warm stack cost
        O(1) instead of a full re-hash. Anything else is re-hashed,
        including a read-only view of a writable buffer.
        """
        if not _frozen(features):
            return array_fingerprint(features)
        key = id(features)
        entry = self._feature_hashes.get(key)
        if entry is not None and entry[0] is features:
            self._feature_hashes.move_to_end(key)
            return entry[1]
        digest = array_fingerprint(features)
        # Holding a strong reference keeps the id from being recycled.
        self._feature_hashes[key] = (features, digest)
        if len(self._feature_hashes) > 4 * self.max_stacks:
            self._feature_hashes.popitem(last=False)
        return digest

    def _traced_spmm(self, operator, dense: np.ndarray, hop: int) -> np.ndarray:
        """One hop of SpMM under a ``perf.spmm`` kernel span.

        Only reached when observability is enabled — the disabled path
        calls :meth:`_apply_hop` directly behind a single
        ``OBS.enabled`` check.
        """
        with OBS.tracer.span(
            "perf.spmm", hop=hop, nnz=int(operator.nnz),
            fused=isinstance(operator, FusedOperator),
        ) as span:
            out = self._apply_hop(operator, dense)
            span.set(out_bytes=int(out.nbytes))
        return out

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #

    def propagate(
        self,
        graph: Graph,
        features: np.ndarray,
        k: int,
        kind: str = "gcn",
        alpha: float | None = None,
        memoize: bool = True,
        dtype=None,
    ) -> list[np.ndarray]:
        """The hop stack ``[X, PX, ..., P^K X]`` (``K+1`` arrays).

        Served from the stack cache when the same ``(graph, features,
        kind, dtype)`` combination was propagated before: shorter
        requests return a prefix, longer ones extend the cached stack in
        place. Returned arrays are read-only and shared — copy before
        mutating. Pass ``memoize=False`` for one-off inputs (e.g.
        randomly corrupted views) that should not occupy cache slots.
        ``dtype`` overrides the engine's configured stack dtype for this
        call (float32 or float64); features are cast up front so the
        whole stack — and every SpMM — runs in that precision.
        """
        check_int_range("k", k, 0)
        eff_dtype = self.dtype if dtype is None else self._check_dtype(dtype)
        features = np.asarray(features, dtype=eff_dtype)
        if features.shape[0] != graph.n_nodes:
            raise ConfigError(
                f"features must have one row per node "
                f"({graph.n_nodes}), got {features.shape[0]}"
            )
        if not memoize:
            if OBS.enabled:
                with OBS.tracer.span(
                    "perf.propagate", n_nodes=graph.n_nodes, k=k, kind=kind,
                    memoize=False, dtype=eff_dtype.name,
                ):
                    operator = self._hop_operator(graph, kind, alpha, eff_dtype)
                    stack = [features]
                    for _ in range(k):
                        stack.append(self._traced_spmm(operator, stack[-1],
                                                       len(stack)))
            else:
                operator = self._hop_operator(graph, kind, alpha, eff_dtype)
                stack = [features]
                for _ in range(k):
                    stack.append(self._apply_hop(operator, stack[-1]))
            return stack
        # Memoized path: the whole lookup-or-build runs under the lock
        # (see the ``threadsafe`` parameter note) so concurrent callers
        # never duplicate a build or tear the LRU order.
        with self._lock or NULL_LOCK:
            return self._propagate_memoized(
                graph, features, k, kind, alpha, eff_dtype
            )

    def _propagate_memoized(
        self,
        graph: Graph,
        features: np.ndarray,
        k: int,
        kind: str,
        alpha: float | None,
        eff_dtype: np.dtype,
    ) -> list[np.ndarray]:
        key = (
            graph.fingerprint,
            self._feature_fingerprint(features),
            kind,
            None if alpha is None else float(alpha),
            eff_dtype.str,
        )
        stack = self._stacks.get(key)
        if stack is not None and len(stack) > k:
            self._hits += 1
            self._stacks.move_to_end(key)
            if OBS.enabled:
                with OBS.tracer.span(
                    "perf.propagate", n_nodes=graph.n_nodes, k=k, kind=kind,
                    cache_hit=True,
                ):
                    pass
            return list(stack[: k + 1])
        self._misses += 1
        if stack is None:
            base = features if _frozen(features) else features.copy()
            base.setflags(write=False)
            stack = [base]
        if len(stack) <= k:
            if OBS.enabled:
                with OBS.tracer.span(
                    "perf.propagate", n_nodes=graph.n_nodes, k=k, kind=kind,
                    cached_hops=len(stack) - 1, dtype=eff_dtype.name,
                ) as span:
                    operator = self._hop_operator(graph, kind, alpha, eff_dtype)
                    span.set(nnz=int(operator.nnz))
                    while len(stack) <= k:
                        nxt = self._traced_spmm(operator, stack[-1], len(stack))
                        nxt.setflags(write=False)
                        stack.append(nxt)
                    span.set(
                        stack_bytes=int(sum(arr.nbytes for arr in stack))
                    )
            else:
                operator = self._hop_operator(graph, kind, alpha, eff_dtype)
                while len(stack) <= k:
                    nxt = self._apply_hop(operator, stack[-1])
                    nxt.setflags(write=False)
                    stack.append(nxt)
        self._stacks[key] = stack
        self._stacks.move_to_end(key)
        if len(self._stacks) > self.max_stacks:
            self._stacks.popitem(last=False)
            self._evictions += 1
        return list(stack)

    def hop_features(
        self,
        graph: Graph,
        k: int,
        kind: str = "gcn",
        alpha: float | None = None,
        dtype=None,
    ) -> list[np.ndarray]:
        """:meth:`propagate` applied to the graph's own feature matrix."""
        if graph.x is None:
            raise ValueError("graph needs features for hop_features")
        return self.propagate(graph, graph.x, k, kind=kind, alpha=alpha,
                              dtype=dtype)

    # ------------------------------------------------------------------ #
    # Introspection / management
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> CacheStats:
        """Stack-cache hit/miss/eviction accounting."""
        with self._lock or NULL_LOCK:
            return CacheStats(self._hits, self._misses, self._evictions)

    @property
    def nbytes(self) -> int:
        """Total bytes held by memoized hop stacks."""
        with self._lock or NULL_LOCK:
            return sum(
                arr.nbytes for stack in self._stacks.values() for arr in stack
            )

    def snapshot(self) -> dict[str, float]:
        """Flat counter/rate dict (:class:`repro.obs.StatsSource`)."""
        with self._lock or NULL_LOCK:
            s = CacheStats(self._hits, self._misses, self._evictions)
            stacks = len(self._stacks)
            nbytes = sum(
                arr.nbytes for stack in self._stacks.values() for arr in stack
            )
        return {
            "hits": s.hits,
            "misses": s.misses,
            "evictions": s.evictions,
            "accesses": s.accesses,
            "hit_rate": s.hit_rate,
            "stacks": stacks,
            "nbytes": nbytes,
        }

    def reset(self) -> None:
        """Zero the counters; memoized stacks stay resident
        (:meth:`clear` is the destructive variant)."""
        with self._lock or NULL_LOCK:
            self._hits = self._misses = self._evictions = 0

    def clear(self) -> None:
        """Drop every memoized stack and reset the counters."""
        with self._lock or NULL_LOCK:
            self._stacks.clear()
            self._feature_hashes.clear()
            self._fused.clear()
            self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        return len(self._stacks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"PropagationEngine(stacks={len(self)}/{self.max_stacks}, "
            f"hits={s.hits}, misses={s.misses})"
        )


# --------------------------------------------------------------------- #
# Process-wide default engine
# --------------------------------------------------------------------- #

_default_engine = PropagationEngine()


def get_default_engine() -> PropagationEngine:
    """The process-wide engine shared by the decoupled models."""
    return _default_engine


def set_default_engine(engine: PropagationEngine) -> PropagationEngine:
    """Swap the process-wide engine; returns the previous one."""
    global _default_engine
    if not isinstance(engine, PropagationEngine):
        raise ConfigError("set_default_engine expects a PropagationEngine")
    previous = _default_engine
    _default_engine = engine
    return previous


def propagate(
    graph: Graph,
    features: np.ndarray,
    k: int,
    kind: str = "gcn",
    alpha: float | None = None,
    engine: PropagationEngine | None = None,
    dtype=None,
) -> list[np.ndarray]:
    """Shared entry point: K-hop stack via the (default) engine."""
    return (engine if engine is not None else _default_engine).propagate(
        graph, features, k, kind=kind, alpha=alpha, dtype=dtype
    )
