"""Workload inputs, generated from the run's seed and nothing else.

Generation runs before any timed region: ``contextual_sbm`` grows faster
than linearly in the node count (about 0.3 s at 8k nodes, 3.5 s at 20k,
28 s at 60k on a 2-core host), so it must never land in a measurement.
The program under test receives only the arrays built here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Shapes. Each anchors a workload on a 2-core host (see README.md).
SAMPLED = dict(n_nodes=8000, n_features=64, n_classes=4)
DIST = dict(n_nodes=4000, n_features=32, n_classes=4)
SERVE = dict(n_nodes=10000, n_features=64, n_classes=4)

#: Zipf exponent of the serve-updates read stream. Skewed, but mild
#: enough that most reads of the nominal phase miss the embedding store
#: (about a third hit), so the read median measures the batching and
#: engine path rather than the generator's own wake-up jitter.
ZIPF_S = 0.5
#: Pre-generated stream lengths; a run consumes a prefix.
N_READS = 200_000
N_NEW_EDGES = 4_000
N_SHARDED_REQUESTS = 20_000


@dataclass(frozen=True)
class GraphInputs:
    graph: object
    split: object


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _csbm(seed: int, shape: dict) -> GraphInputs:
    from repro.datasets import contextual_sbm

    graph, split = contextual_sbm(
        shape["n_nodes"], n_classes=shape["n_classes"], homophily=0.8,
        avg_degree=10.0, n_features=shape["n_features"], seed=_rng(seed, 0),
    )
    return GraphInputs(graph, split)


def sampled_graph(seed: int) -> GraphInputs:
    return _csbm(seed, SAMPLED)


def dist_graph(seed: int) -> GraphInputs:
    return _csbm(seed, DIST)


def serve_graph(seed: int) -> GraphInputs:
    return _csbm(seed, SERVE)


def zipf_reads(seed: int, n_nodes: int, count: int = N_READS) -> np.ndarray:
    """Zipf-skewed node ids: rank ``k`` is drawn with weight ``k**-s``,
    ranks mapped to nodes by a seeded permutation."""
    rng = _rng(seed, 1)
    weights = 1.0 / np.arange(1, n_nodes + 1) ** ZIPF_S
    ranks = rng.choice(n_nodes, size=count, p=weights / weights.sum())
    return rng.permutation(n_nodes)[ranks].astype(np.int64)


def new_edges(seed: int, graph, count: int = N_NEW_EDGES) -> np.ndarray:
    """``count`` distinct undirected edges absent from ``graph``."""
    rng = _rng(seed, 2)
    n = graph.n_nodes
    taken = set()
    out = []
    while len(out) < count:
        for u, v in rng.integers(0, n, size=(count, 2)):
            u, v = int(min(u, v)), int(max(u, v))
            if u == v or (u, v) in taken or v in graph.neighbors(u):
                continue
            taken.add((u, v))
            out.append((u, v))
            if len(out) == count:
                break
    return np.asarray(out, dtype=np.int64)


def uniform_requests(seed: int, n_nodes: int,
                     count: int = N_SHARDED_REQUESTS) -> np.ndarray:
    return _rng(seed, 3).integers(0, n_nodes, size=count).astype(np.int64)


def digest(*arrays) -> str:
    """SHA-256 over the dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def graph_arrays(g: GraphInputs) -> list[np.ndarray]:
    gr = g.graph
    return [gr.indptr, gr.indices, gr.weights, gr.x, gr.y,
            g.split.train, g.split.val, g.split.test]
