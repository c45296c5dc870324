"""Scalable graph contrastive learning (§3.4.2 "insufficient labels").

The tutorial's data-efficiency direction: when labels are scarce,
self-supervised objectives pre-train node embeddings from the graph alone,
and *scalable graph computation for contrastive learning* means the
augmented views are produced by decoupled propagation — precomputed once,
so the contrastive training loop never touches the graph.

GRACE-style recipe, decoupled:

1. ``make_views`` builds ``n_views`` corrupted propagated feature matrices
   (edge dropping + feature masking, then K-hop propagation) — the one-time
   graph-side cost.
2. ``train_contrastive`` draws two views per step and optimises InfoNCE
   between the projections of the same node in both views (in-batch
   negatives) — pure dense mini-batch work.
3. ``linear_probe`` evaluates the frozen embeddings with a logistic
   classifier on however few labels exist.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.core import Graph
from repro.perf import get_default_engine
from repro.tensor import functional as F
from repro.tensor.autograd import Tensor, no_grad
from repro.tensor.nn import MLP, Module
from repro.tensor.optim import Adam
from repro.utils.rng import as_rng
from repro.utils.validation import check_int_range, check_probability


def _drop_edges(graph: Graph, drop_prob: float, rng) -> Graph:
    edges = graph.edge_array()
    upper = edges[edges[:, 0] < edges[:, 1]]
    keep = rng.random(len(upper)) >= drop_prob
    if not keep.any():
        keep[rng.integers(len(keep))] = True
    return Graph.from_edges(upper[keep], graph.n_nodes)


def make_views(
    graph: Graph,
    n_views: int = 4,
    k_hops: int = 2,
    edge_drop: float = 0.2,
    feature_mask: float = 0.2,
    seed=None,
) -> np.ndarray:
    """Precompute ``(n_views, n, d)`` augmented propagated feature matrices."""
    check_int_range("n_views", n_views, 2)
    check_int_range("k_hops", k_hops, 1)
    check_probability("edge_drop", edge_drop)
    check_probability("feature_mask", feature_mask)
    if graph.x is None:
        raise ConfigError("contrastive views require node features")
    rng = as_rng(seed)
    engine = get_default_engine()
    views = []
    for _ in range(n_views):
        corrupted = _drop_edges(graph, edge_drop, rng)
        x = graph.x * (rng.random(graph.x.shape) >= feature_mask)
        # Corrupted views are one-offs: shared propagation, but no
        # memoization (they would only evict reusable stacks).
        hops = engine.propagate(corrupted, x, k_hops, kind="gcn", memoize=False)
        views.append(hops[-1])
    return np.stack(views)


class ContrastiveEncoder(Module):
    """Projection head mapping propagated features to the embedding space."""

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 seed=None) -> None:
        super().__init__()
        self.net = MLP(in_features, hidden, out_features, n_layers=2, seed=seed)

    def forward(self, rows: np.ndarray | Tensor) -> Tensor:
        if not isinstance(rows, Tensor):
            rows = Tensor(rows)
        return self.net(rows)


def _normalize_rows(z: Tensor) -> Tensor:
    norm_sq = (z * z).sum(axis=1, keepdims=True)
    return z * ((norm_sq + 1e-12) ** -0.5)


def info_nce(z1: Tensor, z2: Tensor, temperature: float = 0.5) -> Tensor:
    """Symmetric InfoNCE with in-batch negatives.

    Row ``i`` of ``z1`` must match row ``i`` of ``z2``; every other row is
    a negative. Returns a scalar loss.
    """
    if z1.shape != z2.shape:
        raise ConfigError(f"view shapes differ: {z1.shape} vs {z2.shape}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    a = _normalize_rows(z1)
    b = _normalize_rows(z2)
    logits = (a @ b.T) * (1.0 / temperature)
    targets = np.arange(z1.shape[0])
    return (
        F.cross_entropy(logits, targets) + F.cross_entropy(logits.T, targets)
    ) * 0.5


def train_contrastive(
    graph: Graph,
    embedding_dim: int = 32,
    hidden: int = 64,
    n_views: int = 4,
    k_hops: int = 2,
    epochs: int = 50,
    batch_size: int = 256,
    lr: float = 0.005,
    temperature: float = 0.5,
    seed=None,
) -> np.ndarray:
    """Self-supervised embeddings for every node (no labels consumed)."""
    rng = as_rng(seed)
    views = make_views(graph, n_views=n_views, k_hops=k_hops, seed=rng)
    encoder = ContrastiveEncoder(graph.x.shape[1], hidden, embedding_dim,
                                 seed=rng)
    opt = Adam(encoder.parameters(), lr=lr, weight_decay=1e-5)
    n = graph.n_nodes
    encoder.train()
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            if len(idx) < 2:
                continue
            i, j = rng.choice(n_views, size=2, replace=False)
            opt.zero_grad()
            loss = info_nce(
                encoder(views[i][idx]), encoder(views[j][idx]), temperature
            )
            loss.backward()
            opt.step()
    encoder.eval()
    # Final embeddings: encode the clean propagated features (shared with
    # any other decoupled model that propagated this graph).
    h = get_default_engine().propagate(graph, graph.x, k_hops, kind="gcn")[-1]
    with no_grad():
        return encoder(h).data


def linear_probe(
    embeddings: np.ndarray,
    labels: np.ndarray,
    train_ids: np.ndarray,
    test_ids: np.ndarray,
    epochs: int = 100,
    lr: float = 0.01,
    seed=None,
) -> float:
    """Logistic-regression probe accuracy of frozen embeddings."""
    rng = as_rng(seed)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    clf = MLP(embeddings.shape[1], embeddings.shape[1], n_classes,
              n_layers=1, seed=rng)
    opt = Adam(clf.parameters(), lr=lr, weight_decay=5e-4)
    x_train = Tensor(embeddings[train_ids])
    y_train = labels[train_ids]
    clf.train()
    for _ in range(epochs):
        opt.zero_grad()
        loss = F.cross_entropy(clf(x_train), y_train)
        loss.backward()
        opt.step()
    clf.eval()
    with no_grad():
        pred = clf(Tensor(embeddings[test_ids])).data.argmax(axis=1)
    return float((pred == labels[test_ids]).mean())
