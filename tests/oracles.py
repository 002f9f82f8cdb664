"""Per-row reference implementations the batched kernels are tested against.

These are the straightforward one-row-at-a-time forms of the population
kernels in :mod:`repro.clustering` — a Lloyd loop per row with a fresh
k-means++ generator, a per-row cluster re-projection loop and Python
``set`` counts of distinct products — and of the stacked training loop in
:mod:`repro.nn.stacked`: one model, one mini-batch at a time, effective
weights through the layers' own quantizer hooks and the per-array Adam
expression. They exist only as test oracles: the batched kernels must
reproduce them byte for byte.

Import as a plain module (``from oracles import kmeans_1d_reference``):
``tests/`` is on ``sys.path`` during collection.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.clustering import ClusteringResult, KMeansResult
from repro.nn.layers import Dense
from repro.nn.stacked import TrainerConfig, TrainingHistory


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


def adam_reference(params, grads, m, v, lr, beta1, beta2, epsilon, t):
    """The per-array Adam expression the fused step must reproduce bit for bit."""
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * (grads * grads)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + epsilon), m, v


def softmax_cross_entropy_reference(scores: np.ndarray, targets: np.ndarray):
    """Mean softmax cross-entropy of one batch and its gradient w.r.t. the logits."""
    shifted = scores - np.max(scores, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / np.sum(exp, axis=-1, keepdims=True)
    per_sample = -np.sum(targets * np.log(np.clip(probs, 1e-12, 1.0)), axis=-1)
    return float(np.mean(per_sample)), (probs - targets) / scores.shape[0]


def gradients_reference(model, features: np.ndarray, targets: np.ndarray):
    """Batch loss and straight-through gradients, in ``model.parameters`` order.

    Gradients are taken w.r.t. the effective (masked, fake-quantized)
    weights and applied to the shadow weights; the mask also zeroes the
    weight gradient of pruned connections.
    """
    layer_inputs = []
    out = features
    for layer in model.layers:
        layer_inputs.append(out)
        out = layer.forward(out)
    loss, grad = softmax_cross_entropy_reference(out, targets)
    gradients = []
    for layer, layer_input in zip(reversed(model.layers), reversed(layer_inputs)):
        if isinstance(layer, Dense):
            grad_weights = layer_input.T @ grad
            if layer.mask is not None:
                grad_weights = grad_weights * layer.mask
            if layer.use_bias:
                gradients.append(np.sum(grad, axis=0))
            gradients.append(grad_weights)
            grad = grad @ layer.effective_weights().T
        else:
            grad = layer.activation.backward(layer_input, grad)
    gradients.reverse()
    return loss, gradients


def train_reference(
    model,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    *,
    learning_rate: float,
    config: TrainerConfig,
    seed: Optional[int],
) -> TrainingHistory:
    """Train one model in place, one mini-batch and one array at a time."""
    n_classes = model.topology()[-1]
    targets = np.eye(n_classes)[y_train]
    slots = [
        (layer, name)
        for layer in model.dense_layers
        for name in (("weights", "bias") if layer.use_bias else ("weights",))
    ]
    moments = [(np.zeros_like(getattr(*slot)), np.zeros_like(getattr(*slot))) for slot in slots]
    rng = np.random.default_rng(seed)
    history = TrainingHistory()
    patience = config.early_stopping_patience
    rate, step, best, waited, best_weights = learning_rate, 0, -np.inf, 0, None
    for _ in range(config.epochs):
        order = np.arange(len(y_train))
        if config.shuffle:
            rng.shuffle(order)
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, gradients = gradients_reference(model, x_train[batch], targets[batch])
            losses.append(loss)
            step += 1
            for index, ((layer, name), grad) in enumerate(zip(slots, gradients)):
                value, m, v = adam_reference(
                    getattr(layer, name), grad, *moments[index], rate, 0.9, 0.999, 1e-8, step
                )
                setattr(layer, name, value)
                moments[index] = (m, v)
        history.train_loss.append(sum(losses) / len(losses))
        history.train_accuracy.append(float(np.mean(model.predict(x_train) == y_train)))
        loss, accuracy = history.train_loss[-1], history.train_accuracy[-1]
        if x_val is not None:
            scores = model.forward(x_val)
            loss = softmax_cross_entropy_reference(scores, np.eye(n_classes)[y_val])[0]
            accuracy = float(np.mean(np.argmax(scores, axis=-1) == y_val))
            history.val_loss.append(loss)
            history.val_accuracy.append(accuracy)
        monitored = accuracy if config.monitor == "val_accuracy" else -loss
        if monitored > best + 1e-9:
            best, waited = monitored, 0
            if config.restore_best_weights:
                best_weights = [getattr(*slot).copy() for slot in slots]
        else:
            waited += 1
            if patience is None:
                continue
            if config.lr_decay_factor < 1.0 and waited == max(patience // 2, 1):
                rate = max(rate * config.lr_decay_factor, config.min_learning_rate)
            if waited >= patience:
                break
    if best_weights is not None:
        for (layer, name), value in zip(slots, best_weights):
            setattr(layer, name, value)
    return history
