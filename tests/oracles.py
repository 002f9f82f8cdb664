"""Per-row reference implementations the batched kernels are tested against.

These are the straightforward one-row-at-a-time forms of the population
kernels in :mod:`repro.clustering` — a Lloyd loop per row with a fresh
k-means++ generator, a per-row cluster re-projection loop and Python
``set`` counts of distinct products. They exist only as test oracles: the
batched kernels must reproduce them byte for byte.

Import as a plain module (``from oracles import kmeans_1d_reference``):
``tests/`` is on ``sys.path`` during collection.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.clustering import ClusteringResult, KMeansResult


def _kmeans_plus_plus_init(
    values: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    centroids = np.empty(k, dtype=np.float64)
    centroids[0] = values[rng.integers(len(values))]
    distances = np.abs(values - centroids[0])
    for index in range(1, k):
        squared = distances**2
        total = squared.sum()
        if total == 0.0:
            centroids[index:] = centroids[0]
            break
        probabilities = squared / total
        centroids[index] = values[rng.choice(len(values), p=probabilities)]
        np.minimum(distances, np.abs(values - centroids[index]), out=distances)
    return centroids


def _assign(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmin(np.abs(values.reshape(-1, 1) - centroids.reshape(1, -1)), axis=1)


def kmeans_1d_reference(
    values: np.ndarray,
    n_clusters: int,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    seed: Optional[int] = None,
    init: str = "kmeans++",
) -> KMeansResult:
    """1-D k-means on one row: k-means++ seeding, then Lloyd until converged."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    distinct = np.unique(values)
    k = min(n_clusters, distinct.size)
    if k == distinct.size:
        centroids = distinct.astype(np.float64).copy()
    elif init == "kmeans++":
        centroids = _kmeans_plus_plus_init(values, k, np.random.default_rng(seed))
    elif init == "linear":
        centroids = np.linspace(values.min(), values.max(), k)
    else:
        centroids = np.quantile(values, np.linspace(0.0, 1.0, k))

    assignments = _assign(values, centroids)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = values[assignments == cluster]
            if members.size:
                new_centroids[cluster] = members.mean()
        movement = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        assignments = _assign(values, centroids)
        if movement < tolerance:
            break

    order = np.argsort(centroids)
    centroids = centroids[order]
    remap = np.empty_like(order)
    remap[order] = np.arange(k)
    assignments = remap[assignments]
    inertia = float(np.sum((values - centroids[assignments]) ** 2))
    return KMeansResult(
        centroids=centroids, assignments=assignments, inertia=inertia, n_iterations=iterations
    )


def cluster_weights_reference(
    weights: np.ndarray, mask: np.ndarray, n_clusters: int, seed: Optional[int]
) -> np.ndarray:
    """Per-position clustering of one weight matrix, one row at a time."""
    weights = weights.copy()
    for row_index in range(weights.shape[0]):
        keep = mask[row_index] != 0.0
        if keep.any():
            result = kmeans_1d_reference(weights[row_index][keep], n_clusters, seed=seed)
            weights[row_index, keep] = result.centroids[result.assignments]
    return weights * mask


def reproject_reference(model, result: ClusteringResult) -> None:
    """Re-project one model's cluster structure, one row and cluster at a time."""
    for layer, clustering in zip(model.dense_layers, result.per_layer):
        weights = layer.weights.copy()
        if len(clustering.assignments) == weights.shape[0]:
            for row_index, assignments in enumerate(clustering.assignments):
                row = weights[row_index]
                clusters, counts = np.unique(assignments[assignments >= 0], return_counts=True)
                for cluster, count in zip(clusters, counts):
                    if count < 2:
                        continue
                    members = assignments == cluster
                    row[members] = row[members].mean()
        elif len(clustering.assignments) == 1:
            assignments = clustering.assignments[0]
            for cluster in np.unique(assignments[assignments >= 0]):
                members = assignments == cluster
                weights[members] = weights[members].mean()
        mask = layer.mask if layer.mask is not None else np.ones_like(weights)
        layer.weights = weights * mask


def distinct_products_reference(matrix: np.ndarray) -> List[int]:
    """Distinct non-zero ``|value|`` per row, counted with a Python set."""
    return [len(set(abs(float(v)) for v in row if v != 0.0)) for row in matrix]
