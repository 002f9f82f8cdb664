"""Per-input-position weight clustering for multiplier sharing.

The paper adapts Deep Compression's weight clustering to bespoke circuits:
"by forcing weights of the same position (i.e., multiplied by the same
input) to the same value, the product can be shared among many operations
and the number of the required multiplier units decreases accordingly."

Concretely, for every Dense layer and every input position ``i`` (row ``i``
of the weight matrix), the weights ``W[i, :]`` across all neurons are
clustered into ``n_clusters`` values. After clustering, input ``i`` needs at
most ``n_clusters`` constant multipliers regardless of how many neurons it
feeds. Zero weights (pruned connections) are kept at exactly zero so
clustering never undoes pruning.

Centroid fine-tuning follows Deep Compression: gradients of weights sharing
a centroid are accumulated and applied to the shared value, implemented here
by re-projecting the weights onto their cluster structure after a standard
fine-tuning pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.preprocessing import PreparedData
from ..hardware.arithmetic import distinct_magnitude_counts
from ..nn.layers import Dense
from ..nn.network import MLP
from ..nn.trainer import finetune
from .kmeans import group_sums, kmeans_rows


@dataclass
class LayerClustering:
    """Cluster structure of one Dense layer.

    Attributes:
        n_clusters: cluster budget per input position.
        centroids: list (one entry per input position) of centroid arrays.
        assignments: list of per-position assignment arrays (index into the
            position's centroid array), with ``-1`` marking zero weights that
            are excluded from clustering.
    """

    n_clusters: int
    centroids: List[np.ndarray] = field(default_factory=list)
    assignments: List[np.ndarray] = field(default_factory=list)

    def distinct_values_per_position(self) -> List[int]:
        """Number of distinct non-zero weight values at each input position."""
        return [int(np.unique(c).size) if c.size else 0 for c in self.centroids]


@dataclass
class ClusteringResult:
    """Summary of a whole-model clustering application."""

    n_clusters: int
    per_layer: List[LayerClustering]
    total_distinct_products: int
    total_connections: int

    def sharing_ratio(self) -> float:
        """Connections per instantiated multiplier (higher = more sharing)."""
        if self.total_distinct_products == 0:
            return float("inf") if self.total_connections else 1.0
        return self.total_connections / self.total_distinct_products

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_clusters": self.n_clusters,
            "total_distinct_products": self.total_distinct_products,
            "total_connections": self.total_connections,
            "sharing_ratio": self.sharing_ratio(),
        }


def _cluster_layers(
    jobs: Sequence[Tuple[Dense, int, Optional[int]]], per_position: bool
) -> List[LayerClustering]:
    """Cluster several Dense layers in place with one batched k-means call.

    ``jobs`` holds ``(layer, n_clusters, seed)`` triples. Every row of every
    layer (or every whole layer, without ``per_position``) becomes one row
    of a single :func:`~repro.clustering.kmeans.kmeans_rows` program.
    """
    staged = []
    chunks, lengths, budgets, seeds = [], [], [], []
    for layer, n_clusters, seed in jobs:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        weights = layer.weights.copy()
        mask = layer.mask if layer.mask is not None else np.ones_like(weights)
        keep = mask != 0.0
        row_lengths = keep.sum(axis=1) if per_position else np.array([keep.sum()])
        kept = row_lengths[row_lengths > 0]
        chunks.append(weights[keep])
        lengths.append(kept)
        budgets.append(np.full(kept.size, n_clusters))
        seeds.extend([seed] * kept.size)
        staged.append((layer, n_clusters, weights, mask, keep, row_lengths))

    lengths = np.concatenate(lengths)
    result = None
    if lengths.size:
        result = kmeans_rows(np.concatenate(chunks), lengths, np.concatenate(budgets), seeds)

    clusterings: List[LayerClustering] = []
    row = position = 0
    for layer, n_clusters, weights, mask, keep, row_lengths in staged:
        clustering = LayerClustering(n_clusters=n_clusters)
        kept = row_lengths[row_lengths > 0]
        if kept.size:
            stop = position + int(kept.sum())
            assignments = result.assignments[position:stop]
            weights[keep] = result.centroids[
                np.repeat(np.arange(row, row + kept.size), kept), assignments
            ]
            labels = np.full(weights.shape, -1, dtype=int)
            labels[keep] = assignments
            centroids = [
                result.centroids[r, : result.n_centroids[r]]
                for r in range(row, row + kept.size)
            ]
            if per_position:
                rows = iter(centroids)
                clustering.centroids = [
                    next(rows) if length else np.array([]) for length in row_lengths
                ]
                clustering.assignments = list(labels)
            else:
                clustering.centroids = centroids
                clustering.assignments = [labels]
            row, position = row + kept.size, stop
        elif per_position:
            clustering.centroids = [np.array([]) for _ in row_lengths]
            clustering.assignments = list(np.full(weights.shape, -1, dtype=int))
        layer.weights = weights * mask
        clusterings.append(clustering)
    return clusterings


def cluster_layer_weights(
    layer: Dense,
    n_clusters: int,
    seed: Optional[int] = None,
    per_position: bool = True,
) -> LayerClustering:
    """Cluster one Dense layer's weights in place.

    Args:
        layer: Dense layer whose weights are replaced by cluster centroids.
        n_clusters: cluster budget (per input position when ``per_position``).
        seed: clustering seed.
        per_position: cluster each input row separately (the paper's scheme,
            which enables product sharing); when False the whole weight
            matrix shares one codebook (plain Deep Compression).
    """
    return _cluster_layers([(layer, n_clusters, seed)], per_position)[0]


def _layer_budgets(n_clusters: Union[int, Sequence[int]], n_layers: int) -> List[int]:
    if isinstance(n_clusters, (int, np.integer)):
        return [int(n_clusters)] * n_layers
    budgets = [int(b) for b in n_clusters]
    if len(budgets) != n_layers:
        raise ValueError(
            f"n_clusters has {len(budgets)} entries but the model has "
            f"{n_layers} Dense layers"
        )
    return budgets


def cluster_population(
    models: Sequence[MLP],
    n_clusters: Sequence[Union[int, Sequence[int]]],
    seeds: Sequence[Optional[int]],
    per_position: bool = True,
) -> List[ClusteringResult]:
    """Cluster every Dense layer of every model in place, as one k-means call.

    Args:
        models: networks whose weights are replaced by centroids.
        n_clusters: per model, a cluster budget (int or per-layer sequence).
        seeds: per model, its clustering seed.
        per_position: per-input-position clustering (paper) vs whole-layer.

    Each model's result equals :func:`cluster_model_weights` on it alone.
    """
    if not models:
        return []
    jobs = []
    model_budgets = []
    for model, clusters, seed in zip(models, n_clusters, seeds):
        dense_layers = model.dense_layers
        budgets = _layer_budgets(clusters, len(dense_layers))
        model_budgets.append(budgets)
        jobs.extend((layer, budget, seed) for layer, budget in zip(dense_layers, budgets))
    per_layer = iter(_cluster_layers(jobs, per_position))

    # Distinct products and connections of all models from one padded stack
    # of their effective weight rows (zero padding counts as neither).
    effective = [layer.effective_weights() for model in models for layer in model.dense_layers]
    rows = np.zeros((sum(w.shape[0] for w in effective), max(w.shape[1] for w in effective)))
    start = 0
    for weights in effective:
        rows[start : start + weights.shape[0], : weights.shape[1]] = weights
        start += weights.shape[0]
    model_rows = np.cumsum(
        [0] + [sum(layer.n_inputs for layer in model.dense_layers) for model in models]
    )[:-1]
    products = np.add.reduceat(distinct_magnitude_counts(rows), model_rows).tolist()
    connections = np.add.reduceat(np.count_nonzero(rows, axis=1), model_rows).tolist()
    return [
        ClusteringResult(
            n_clusters=max(budgets),
            per_layer=[next(per_layer) for _ in budgets],
            total_distinct_products=n_products,
            total_connections=n_connections,
        )
        for budgets, n_products, n_connections in zip(model_budgets, products, connections)
    ]


def cluster_model_weights(
    model: MLP,
    n_clusters: Union[int, Sequence[int]],
    seed: Optional[int] = None,
    per_position: bool = True,
) -> ClusteringResult:
    """Cluster every Dense layer of the model in place.

    Args:
        model: network whose weights are replaced by centroids.
        n_clusters: cluster budget; single int or per-layer sequence.
        seed: clustering seed.
        per_position: per-input-position clustering (paper) vs whole-layer.
    """
    return cluster_population([model], [n_clusters], [seed], per_position)[0]


def reproject_population(
    models: Sequence[MLP], results: Sequence[Optional[ClusteringResult]]
) -> None:
    """Re-impose each model's cluster structure after fine-tuning, in place.

    Weights sharing a cluster are replaced by their mean — this is the
    Deep-Compression centroid update expressed as a projection, and it keeps
    the number of distinct products per input position bounded by the
    cluster budget after fine-tuning has moved individual weights. All
    clusters of all models are averaged by one :func:`group_sums` call;
    models paired with ``None`` are left alone.
    """
    staged = []
    chunks, groups, smallest = [], [], []
    n_groups = 0
    for model, result in zip(models, results):
        if result is None:
            continue
        dense_layers = model.dense_layers
        if len(result.per_layer) != len(dense_layers):
            raise ValueError("ClusteringResult does not match the model's layer count")
        for layer, clustering in zip(dense_layers, result.per_layer):
            weights = layer.weights.copy()
            labels = None
            if len(clustering.assignments) == weights.shape[0]:
                # Per-position: one group per (row, cluster); a singleton's
                # mean is itself, so it is left as it is.
                labels = np.stack(clustering.assignments).reshape(weights.shape)
                n_labels = int(labels.max()) + 1
                ids = np.arange(weights.shape[0])[:, None] * n_labels + labels
                size, minimum = weights.shape[0] * n_labels, 2
            elif len(clustering.assignments) == 1:
                labels = clustering.assignments[0]
                ids = labels
                size, minimum = int(labels.max()) + 1, 1
            if labels is not None:
                member = labels >= 0
                chunks.append(weights[member])
                groups.append(n_groups + ids[member])
                smallest.append(np.full(size, minimum))
                n_groups += size
            staged.append((layer, weights, labels))
    if not staged:
        return

    values = np.concatenate(chunks) if chunks else np.zeros(0)
    if n_groups:
        group = np.concatenate(groups)
        sums, counts = group_sums(values, group, n_groups)
        means = sums / np.maximum(counts, 1)
        values = np.where(counts[group] >= np.concatenate(smallest)[group], means[group], values)
    position = 0
    for layer, weights, labels in staged:
        if labels is not None:
            member = labels >= 0
            stop = position + int(np.count_nonzero(member))
            weights[member] = values[position:stop]
            position = stop
        mask = layer.mask if layer.mask is not None else np.ones_like(weights)
        layer.weights = weights * mask


def reproject_clusters(model: MLP, result: ClusteringResult) -> None:
    """Re-impose the cluster structure after a fine-tuning pass, in place.

    The one-model case of :func:`reproject_population`.
    """
    reproject_population([model], [result])


def cluster_and_finetune(
    model: MLP,
    data: PreparedData,
    n_clusters: Union[int, Sequence[int]],
    epochs: int = 15,
    learning_rate: float = 0.002,
    seed: Optional[int] = None,
    per_position: bool = True,
) -> ClusteringResult:
    """Cluster, fine-tune, and re-project — the full clustering flow, in place.

    The cluster structure is re-imposed after every fine-tuning epoch, which
    approximates Deep Compression's tied-centroid training: weights sharing a
    centroid can only move together (their individual updates are averaged by
    the projection), so the final model satisfies the sharing constraint with
    no post-hoc accuracy drop.
    """
    result = cluster_model_weights(model, n_clusters, seed=seed, per_position=per_position)
    for epoch in range(int(epochs)):
        epoch_lr = learning_rate * (0.85**epoch)
        finetune(
            model,
            data.train.features,
            data.train.labels,
            data.validation.features,
            data.validation.labels,
            epochs=1,
            learning_rate=epoch_lr,
            seed=None if seed is None else seed + epoch,
        )
        reproject_clusters(model, result)
    return result


def distinct_products(model: MLP) -> int:
    """Total distinct non-zero |weight| values summed over all input positions."""
    return sum(
        int(distinct_magnitude_counts(layer.effective_weights()).sum())
        for layer in model.dense_layers
    )
