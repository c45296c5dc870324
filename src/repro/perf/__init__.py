"""Precomputation reuse: operator caching and shared K-hop propagation.

The paper's data-management thesis is that scalable GNNs win by *reusing
precomputation*: decoupled models consume the same normalized-adjacency
operators and K-hop propagated features, so building them once and sharing
them across models dominates repeated construction. This subpackage makes
that reuse concrete:

* :mod:`repro.perf.fingerprint` — content hashing of immutable graphs and
  arrays, the cache keys.
* :mod:`repro.perf.operator_cache` — :class:`OperatorCache`, LRU-bounded
  memoization of adjacency / normalized adjacency / Laplacian /
  propagation operators (and their value-dtype variants) with hit/miss
  accounting.
* :mod:`repro.perf.propagation` — :class:`PropagationEngine`, K-hop SpMM
  with memoized hop stacks, the shared ``propagate(graph, X, K, kind)``
  entry point of every decoupled model. Every hop is one SciPy
  ``operator @ X``; ``chunked_spmm``, ``fused_spmm`` (the ``gcn``/``sym``
  normalization applied on the fly by :class:`FusedOperator`) and
  ``rows_spmm`` own the ``propagation.hop`` fault site.
"""

from repro.perf.fingerprint import array_fingerprint, graph_fingerprint
from repro.perf.operator_cache import (
    OperatorCache,
    cached_adjacency,
    cached_laplacian,
    cached_normalized_adjacency,
    cached_propagation_matrix,
    get_default_cache,
    set_default_cache,
)
from repro.perf.propagation import (
    DEFAULT_CHUNK_ROWS,
    FusedOperator,
    PropagationEngine,
    chunked_spmm,
    fused_spmm,
    get_default_engine,
    propagate,
    rows_spmm,
    set_default_engine,
)

__all__ = [
    "array_fingerprint",
    "graph_fingerprint",
    "OperatorCache",
    "get_default_cache",
    "set_default_cache",
    "cached_adjacency",
    "cached_normalized_adjacency",
    "cached_laplacian",
    "cached_propagation_matrix",
    "FusedOperator",
    "PropagationEngine",
    "chunked_spmm",
    "fused_spmm",
    "rows_spmm",
    "propagate",
    "get_default_engine",
    "set_default_engine",
    "DEFAULT_CHUNK_ROWS",
]
