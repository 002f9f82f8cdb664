"""The training loop: fused QAT for G same-architecture models at once.

The paper retrains after every minimization step: quantization-aware
training after quantization, and a fine-tune after pruning and after
clustering. Each of those is a short mini-batch Adam run on one small MLP
whose Dense layers may carry a pruning mask and fake-quantizers. A whole
NSGA-II generation is G such runs over the *same* data with the *same*
schedule, differing only in per-genome weights, pruning masks, quantizer
bit-widths and RNG seeds. :class:`StackedTrainer` runs all of them as one
set of ``(G, ...)`` tensor ops, so every numpy dispatch is amortized over
the population (see ``docs/performance.md``). Training one model is the
``G = 1`` case: :func:`repro.nn.trainer.train_classifier` and
:func:`repro.nn.trainer.finetune` are thin wrappers over it.

Bit-identity contract
---------------------

Stacking is *numerically invisible*: genome ``g`` of a stack evolves
through exactly the float operations a one-model run applies to it alone,
which are the float operations of the plain per-batch loop — effective
weights through :class:`~repro.quantization.SymmetricQuantizer`, softmax
cross-entropy, backpropagation with the straight-through estimator and the
per-array Adam expression.

* Batched ``matmul`` over a ``(G, ...)`` stack executes the same GEMM per
  2-D slice as the one-model call; every other op is element-wise or a
  per-genome-row reduction, so per-element float sequences are unchanged.
* Each genome keeps its own ``default_rng(seed)`` whose only consumer is the
  per-epoch shuffle.
* Per-genome early stopping evicts finished genomes from the stack (the
  survivors' arrays are compacted, which copies values verbatim), so active
  genomes always step in lockstep and the shared Adam step count ``t``
  matches every one-model trajectory.
* Per-genome learning-rate decay is a ``(G, 1)`` broadcast column in
  :class:`~repro.nn.optimizers.StackedAdam`.

``tests/test_stacked_trainer.py`` asserts byte equality of weights and
training histories against the one-model reference loop in
``tests/oracles.py``, including heterogeneous early-stopping populations,
and ``tests/test_training_goldens.py`` pins one-model runs on every
registered dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .layers import ActivationLayer, Dense
from .network import MLP
from .optimizers import StackedAdam


@dataclass
class TrainingHistory:
    """Per-epoch record of losses and accuracies."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        """Number of epochs trained."""
        return len(self.train_loss)

    @property
    def best_val_accuracy(self) -> float:
        """Highest validation accuracy seen (NaN without validation data)."""
        return max(self.val_accuracy) if self.val_accuracy else float("nan")

    def as_dict(self) -> Dict[str, List[float]]:
        """The four per-epoch series as plain lists."""
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "val_loss": list(self.val_loss),
            "val_accuracy": list(self.val_accuracy),
        }


@dataclass
class TrainerConfig:
    """Hyper-parameters controlling :meth:`StackedTrainer.fit`."""

    epochs: int = 100
    batch_size: int = 32
    shuffle: bool = True
    #: Stop if the monitored quantity has not improved for this many epochs
    #: (``None`` trains for all ``epochs``).
    early_stopping_patience: Optional[int] = 15
    #: ``"val_accuracy"`` or ``"val_loss"`` (falls back to train metrics when
    #: no validation data is supplied).
    monitor: str = "val_accuracy"
    #: Multiply the learning rate by this factor when patience/2 epochs pass
    #: without improvement (set to 1.0 to disable).
    lr_decay_factor: float = 0.5
    min_learning_rate: float = 1e-5
    #: Restore the best-seen weights at the end of training.
    restore_best_weights: bool = True

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.early_stopping_patience is not None and self.early_stopping_patience < 1:
            raise ValueError(
                "early_stopping_patience must be >= 1 or None, "
                f"got {self.early_stopping_patience}"
            )
        if self.monitor not in ("val_accuracy", "val_loss"):
            raise ValueError(f"monitor must be 'val_accuracy' or 'val_loss', got {self.monitor}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError("lr_decay_factor must be in (0, 1]")
        if self.min_learning_rate < 0.0:
            raise ValueError(
                f"min_learning_rate must be non-negative, got {self.min_learning_rate}"
            )


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels).reshape(-1).astype(int)
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def _layer_signature(model: MLP) -> Tuple:
    """Architecture fingerprint two models must share to be stackable."""
    signature = []
    for layer in model.layers:
        if isinstance(layer, Dense):
            signature.append(("dense", layer.n_inputs, layer.n_outputs, layer.use_bias))
        elif isinstance(layer, ActivationLayer):
            activation = layer.activation
            signature.append(
                ("activation", type(activation).__name__, getattr(activation, "alpha", None))
            )
        else:
            signature.append(("unsupported", type(layer).__name__))
    return tuple(signature)


def _quantizer_pattern(model: MLP) -> Tuple:
    """Which parameter tensors carry a quantizer; raises for unstackable hooks."""
    from ..quantization.quantizers import SymmetricQuantizer

    pattern = []
    for index, layer in enumerate(model.dense_layers):
        for attribute, _array, quantizer, _mask in layer.quantizable_tensors():
            if attribute == "bias" and not layer.use_bias:
                continue
            if quantizer is None:
                pattern.append(False)
            elif type(quantizer) is not SymmetricQuantizer:
                raise ValueError(
                    f"Dense layer {index} {attribute} has a {type(quantizer).__name__} "
                    "hook; training needs dynamic-scale SymmetricQuantizer hooks"
                )
            elif quantizer.scale is not None:
                raise ValueError(
                    f"Dense layer {index} {attribute} has a frozen-scale "
                    "SymmetricQuantizer (post-training quantization); training "
                    "needs dynamic scales"
                )
            else:
                pattern.append(True)
    return tuple(pattern)


def _check_stackable(models: Sequence[MLP]) -> None:
    """Raise ``ValueError`` naming why these models cannot train as one stack."""
    if not models:
        raise ValueError("Cannot train an empty population")
    first = models[0]
    if not first.dense_layers:
        raise ValueError("Cannot train a model without Dense layers")
    signature = _layer_signature(first)
    for entry in signature:
        if entry[0] == "unsupported":
            raise ValueError(
                f"Cannot train a model with a {entry[1]} layer; only Dense and "
                "activation layers are trainable"
            )
    pattern = _quantizer_pattern(first)
    for index, model in enumerate(models[1:], start=1):
        if _layer_signature(model) != signature:
            raise ValueError(f"Model {index} has a different architecture than model 0")
        if _quantizer_pattern(model) != pattern:
            raise ValueError(f"Model {index} quantizes different tensors than model 0")


def supports_stacking(models: Sequence[MLP]) -> bool:
    """Whether :class:`StackedTrainer` can train these models as one stack.

    Requires: at least one model, identical Dense/Activation architectures
    (no custom layers), and a shared quantizer pattern where every quantized
    tensor uses a dynamic-scale
    :class:`~repro.quantization.SymmetricQuantizer`. Pruning masks and
    bit-widths may differ freely per model.
    """
    try:
        _check_stackable(models)
    except ValueError:
        return False
    return True


def quantize_into(
    values: np.ndarray,
    scale: np.ndarray,
    neg_level: np.ndarray,
    pos_level: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """The fake-quantization pass: divide, rint, clip, renormalize, rescale.

    Writes into ``out`` with the exact float sequence of
    :class:`~repro.quantization.SymmetricQuantizer`, including the ``+ 0.0``
    negative-zero normalization.
    """
    np.divide(values, scale, out=out)
    np.rint(out, out=out)
    np.maximum(out, neg_level, out=out)
    np.minimum(out, pos_level, out=out)
    out += 0.0  # normalize IEEE -0.0 like SymmetricQuantizer
    out *= scale
    return out


class StackedTrainer:
    """Trains G same-architecture MLPs as one stacked tensor program.

    Args:
        models: the population's models (their weights and biases are
            replaced at the end of :meth:`fit`).
        learning_rate: initial learning rate, shared by every genome (each
            genome then decays its own copy independently).
        config: training hyper-parameters, shared by the population.
        seeds: per-genome shuffle seeds (``None`` entries mean unseeded).

    Construction raises ``ValueError`` naming the cause for populations
    :func:`supports_stacking` rejects.
    """

    def __init__(
        self,
        models: Sequence[MLP],
        learning_rate: float,
        config: Optional[TrainerConfig] = None,
        seeds: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        _check_stackable(models)
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.models = list(models)
        self.config = config if config is not None else TrainerConfig()
        self.learning_rate = float(learning_rate)
        if seeds is None:
            seeds = [None] * len(self.models)
        if len(seeds) != len(self.models):
            raise ValueError(f"Got {len(seeds)} seeds for {len(self.models)} models")
        self.seeds = list(seeds)
        self._plan = self._build_plan(self.models[0])
        self._segments = self._build_segments(self.models[0])
        self._flat_size = self._segments[-1]["slice"].stop if self._segments else 0
        n_dense = len(self.models[0].dense_layers)
        self._dense_segments: List[Tuple[dict, Optional[dict]]] = [
            self._segments_for(index) for index in range(n_dense)
        ]

    # -- stack layout -------------------------------------------------------------

    @staticmethod
    def _build_plan(model: MLP) -> List[tuple]:
        """Per-layer dispatch plan: ``(is_dense, dense_index, activation)``."""
        plan = []
        dense_index = 0
        for layer in model.layers:
            if isinstance(layer, Dense):
                plan.append((True, dense_index, None))
                dense_index += 1
            else:
                plan.append((False, -1, layer.activation))
        return plan

    @staticmethod
    def _build_segments(model: MLP) -> List[dict]:
        """Flat-buffer layout: one segment per parameter tensor, in
        ``model.parameters`` order (weights, then bias, per Dense layer)."""
        segments: List[dict] = []
        offset = 0
        for dense_index, layer in enumerate(model.dense_layers):
            for attribute, array, quantizer, _mask in layer.quantizable_tensors():
                if attribute == "bias" and not layer.use_bias:
                    continue
                size = array.size
                segments.append(
                    {
                        "dense_index": dense_index,
                        "attribute": attribute,
                        "shape": array.shape,
                        "slice": slice(offset, offset + size),
                        "quantized": quantizer is not None,
                    }
                )
                offset += size
        return segments

    def _gather_stack(self) -> np.ndarray:
        """Collect every model's parameters into the ``(G, P)`` raw matrix."""
        params = np.empty((len(self.models), self._flat_size))
        for row, model in enumerate(self.models):
            dense = model.dense_layers
            for segment in self._segments:
                array = getattr(dense[segment["dense_index"]], segment["attribute"])
                params[row, segment["slice"]] = array.reshape(-1)
        return params

    def _build_pack(self) -> dict:
        """Per-step fake-quantization plan: masks, levels, segment geometry."""
        n_models = len(self.models)
        total = self._flat_size
        mask = np.ones((n_models, total))
        pos_level = np.zeros((n_models, total))
        max_levels = np.ones((n_models, len(self._segments)))
        for row, model in enumerate(self.models):
            dense = model.dense_layers
            for seg_index, segment in enumerate(self._segments):
                layer = dense[segment["dense_index"]]
                if segment["attribute"] == "weights" and layer.mask is not None:
                    mask[row, segment["slice"]] = layer.mask.reshape(-1)
                if segment["quantized"]:
                    quantizer = (
                        layer.weight_quantizer
                        if segment["attribute"] == "weights"
                        else layer.bias_quantizer
                    )
                    level = float(quantizer._max_level)
                    pos_level[row, segment["slice"]] = level
                    max_levels[row, seg_index] = level
        # Segment geometry for the packed scale computation: contiguous
        # ``reduceat`` boundaries plus an element -> segment index map that
        # broadcasts per-segment scales back over the flat axis in one take.
        seg_starts = np.array(
            [segment["slice"].start for segment in self._segments], dtype=np.intp
        )
        seg_map = np.empty(total, dtype=np.intp)
        for seg_index, segment in enumerate(self._segments):
            seg_map[segment["slice"]] = seg_index
        return {
            "quantized": any(segment["quantized"] for segment in self._segments),
            "mask": mask,
            "pos_level": pos_level,
            "neg_level": -pos_level,
            "max_levels": max_levels,
            "seg_starts": seg_starts,
            "seg_map": seg_map,
            "masked": np.empty((n_models, total)),
            "abs": np.empty((n_models, total)),
            "scale": np.empty((n_models, total)),
            "effective": np.empty((n_models, total)),
        }

    def _apply_pack(self, pack: dict, params: np.ndarray) -> np.ndarray:
        """One stacked fake-quantization pass: raw params -> effective params.

        Per-element float sequence identical to
        :meth:`~repro.nn.layers.Dense.effective_weights` with a
        :class:`~repro.quantization.SymmetricQuantizer` hook (mask multiply,
        |.|, per-segment scale via
        :func:`~repro.hardware.fixed_point.derive_scale`, divide / rint /
        clip / renormalize / rescale) applied row-wise over the population.
        Unquantized segments are copied through as masked values. When no
        segment is quantized (float training) the pass is just the mask
        multiply.
        """
        if not pack["quantized"]:
            return np.multiply(params, pack["mask"], out=pack["effective"])
        masked = pack["masked"]
        abs_buf = pack["abs"]
        scale = pack["scale"]
        effective = pack["effective"]
        np.multiply(params, pack["mask"], out=masked)
        np.abs(masked, out=abs_buf)
        # One contiguous-span reduce for every (genome, segment) max — max is
        # exact, so how it is reduced cannot change the derived scale.
        seg_max = np.maximum.reduceat(abs_buf, pack["seg_starts"], axis=1)
        # derive_scale vectorized: same IEEE divide, same degenerate-tensor
        # fallbacks (all-zero -> 1.0, underflow-to-zero -> 1.0).
        seg_scale = np.where(seg_max > 0, seg_max / pack["max_levels"], 1.0)
        seg_scale = np.where(seg_scale == 0.0, 1.0, seg_scale)
        np.take(seg_scale, pack["seg_map"], axis=1, out=scale)
        quantize_into(masked, scale, pack["neg_level"], pack["pos_level"], effective)
        for segment in self._segments:
            if not segment["quantized"]:
                sl = segment["slice"]
                effective[:, sl] = masked[:, sl]
        return effective

    def _layer_views(self, flat: np.ndarray) -> List[dict]:
        """Per-Dense-layer ``(G, in, out)`` / ``(G, out)`` views of a flat stack."""
        views: List[dict] = []
        for segment in self._segments:
            if segment["attribute"] == "weights":
                views.append(
                    {
                        "weights": flat[:, segment["slice"]].reshape(
                            (flat.shape[0],) + segment["shape"]
                        ),
                        "bias": None,
                    }
                )
            else:
                views[-1]["bias"] = flat[:, segment["slice"]]
        return views

    # -- training -----------------------------------------------------------------

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
    ) -> List[TrainingHistory]:
        """Train the whole population; returns per-genome histories.

        ``y_train`` / ``y_val`` are integer class labels, one-hot encoded
        internally against the models' output width. The monitored metric,
        LR decay, early stopping and best-weight restoration are tracked per
        genome, and a genome whose patience runs out is evicted from the
        stack (its one-model run would have stopped at the same epoch).
        """
        cfg = self.config
        x_train = np.asarray(x_train, dtype=np.float64)
        y_train = np.asarray(y_train).reshape(-1).astype(int)
        if x_train.shape[0] != y_train.shape[0]:
            raise ValueError(
                f"x_train has {x_train.shape[0]} rows but y_train has {y_train.shape[0]}"
            )
        n_classes = self.models[0].topology()[-1]
        targets = _one_hot(y_train, n_classes)
        has_val = x_val is not None and y_val is not None
        if has_val:
            x_val = np.asarray(x_val, dtype=np.float64)
            y_val = np.asarray(y_val).reshape(-1).astype(int)
            val_targets = _one_hot(y_val, n_classes)

        n_models = len(self.models)
        n_samples = x_train.shape[0]
        params = self._gather_stack()
        pack = self._build_pack()
        grad_flat = np.empty_like(params)
        optimizer = StackedAdam([self.learning_rate] * n_models)
        rngs = [np.random.default_rng(seed) for seed in self.seeds]

        # Per-genome bookkeeping, indexed by ORIGINAL genome position.
        histories = [TrainingHistory() for _ in range(n_models)]
        best_metric = [-np.inf] * n_models
        best_params: List[Optional[np.ndarray]] = [None] * n_models
        final_params: List[Optional[np.ndarray]] = [None] * n_models
        without_improvement = [0] * n_models
        #: active[i] = original genome index of stack row i.
        active = list(range(n_models))

        # Layer views into the shared effective-parameter buffer; stable
        # until a compaction swaps the buffer out.
        views = self._layer_views(pack["effective"])
        for _epoch in range(cfg.epochs):
            if not active:
                break
            self._run_epoch(
                params, grad_flat, pack, views, optimizer, rngs, active,
                x_train, targets, n_samples, histories,
            )
            # Post-epoch evaluation on the freshly re-quantized parameters.
            train_scores = self._forward(x_train, views)
            train_predictions = np.argmax(train_scores, axis=-1)
            train_accuracies = (train_predictions == y_train).mean(axis=-1)
            if has_val:
                val_scores = self._forward(x_val, views)
                val_losses = _softmax_cross_entropy_rows(val_scores, val_targets)
                val_accuracies = (np.argmax(val_scores, axis=-1) == y_val).mean(axis=-1)

            stopped_rows: List[int] = []
            for row, genome in enumerate(active):
                history = histories[genome]
                train_acc = float(train_accuracies[row])
                history.train_accuracy.append(train_acc)
                if has_val:
                    val_loss = float(val_losses[row])
                    val_acc = float(val_accuracies[row])
                    history.val_loss.append(val_loss)
                    history.val_accuracy.append(val_acc)
                    monitored = val_acc if cfg.monitor == "val_accuracy" else -val_loss
                else:
                    monitored = (
                        train_acc
                        if cfg.monitor == "val_accuracy"
                        else -history.train_loss[-1]
                    )
                if monitored > best_metric[genome] + 1e-9:
                    best_metric[genome] = monitored
                    without_improvement[genome] = 0
                    if cfg.restore_best_weights:
                        best_params[genome] = params[row].copy()
                else:
                    without_improvement[genome] += 1
                    self._maybe_decay_learning_rate(
                        optimizer, row, without_improvement[genome]
                    )
                    if (
                        cfg.early_stopping_patience is not None
                        and without_improvement[genome] >= cfg.early_stopping_patience
                    ):
                        stopped_rows.append(row)

            if stopped_rows:
                for row in stopped_rows:
                    final_params[active[row]] = params[row].copy()
                keep = np.array(
                    [row for row in range(len(active)) if row not in set(stopped_rows)],
                    dtype=np.intp,
                )
                active = [active[row] for row in keep]
                params = params[keep]
                grad_flat = np.empty_like(params)
                optimizer.compact(keep)
                self._compact_pack(pack, keep)
                views = self._layer_views(pack["effective"])
                rngs = [rngs[row] for row in keep]

        for row, genome in enumerate(active):
            final_params[genome] = params[row].copy()
        self._write_back(final_params, best_params)
        return histories

    def _run_epoch(
        self,
        params: np.ndarray,
        grad_flat: np.ndarray,
        pack: dict,
        views: List[dict],
        optimizer: StackedAdam,
        rngs: List[np.random.Generator],
        active: List[int],
        x_train: np.ndarray,
        targets: np.ndarray,
        n_samples: int,
        histories: List[TrainingHistory],
    ) -> np.ndarray:
        """One stacked epoch; returns the post-epoch effective parameters."""
        cfg = self.config
        orders = np.empty((len(active), n_samples), dtype=np.intp)
        base = np.arange(n_samples)
        for row in range(len(active)):
            order = base.copy()
            if cfg.shuffle:
                rngs[row].shuffle(order)
            orders[row] = order
        x_all = x_train[orders]
        y_all = targets[orders]

        total_loss = np.zeros(len(active))
        n_batches = 0
        for start in range(0, n_samples, cfg.batch_size):
            x_batch = x_all[:, start : start + cfg.batch_size]
            y_batch = y_all[:, start : start + cfg.batch_size]
            self._apply_pack(pack, params)

            # Forward, remembering each layer's input.
            layer_inputs = []
            out = x_batch
            for is_dense, dense_index, activation in self._plan:
                layer_inputs.append(out)
                if is_dense:
                    view = views[dense_index]
                    out = np.matmul(out, view["weights"])
                    if view["bias"] is not None:
                        out = out + view["bias"][:, None, :]
                else:
                    out = activation.forward(out)

            # Fused softmax cross-entropy, row-wise over the population.
            shifted = out - out.max(axis=-1, keepdims=True)
            exp = np.exp(shifted, out=shifted)
            probs = exp / exp.sum(axis=-1, keepdims=True)
            clipped = np.minimum(np.maximum(probs, 1e-12), 1.0)
            total_loss += (-(y_batch * np.log(clipped)).sum(axis=-1)).mean(axis=-1)
            grad = (probs - y_batch) / out.shape[1]

            # Backward; per-tensor gradients scattered into the flat stack.
            # The input gradient of the model's literal first layer is dead
            # by definition and never computed.
            for plan_index in range(len(self._plan) - 1, -1, -1):
                is_dense, dense_index, activation = self._plan[plan_index]
                layer_input = layer_inputs[plan_index]
                if is_dense:
                    view = views[dense_index]
                    grad_weights = np.matmul(layer_input.transpose(0, 2, 1), grad)
                    weight_segment, bias_segment = self._dense_segments[dense_index]
                    grad_weights *= pack["mask"][:, weight_segment["slice"]].reshape(
                        grad_weights.shape
                    )
                    grad_flat[:, weight_segment["slice"]] = grad_weights.reshape(
                        grad_weights.shape[0], -1
                    )
                    if bias_segment is not None:
                        grad_flat[:, bias_segment["slice"]] = grad.sum(axis=1)
                    if plan_index != 0:
                        grad = np.matmul(grad, view["weights"].transpose(0, 2, 1))
                else:
                    grad = activation.backward(layer_input, grad)

            optimizer.update(params, grad_flat)
            n_batches += 1

        per_genome_loss = total_loss / max(n_batches, 1)
        for row, genome in enumerate(active):
            histories[genome].train_loss.append(float(per_genome_loss[row]))
        # Re-quantize once for the post-epoch metrics.
        return self._apply_pack(pack, params)

    def _segments_for(self, dense_index: int) -> Tuple[dict, Optional[dict]]:
        weight_segment = None
        bias_segment = None
        for segment in self._segments:
            if segment["dense_index"] == dense_index:
                if segment["attribute"] == "weights":
                    weight_segment = segment
                else:
                    bias_segment = segment
        return weight_segment, bias_segment

    def _forward(self, features: np.ndarray, views: List[dict]) -> np.ndarray:
        """Inference over the whole population: ``(G, N, n_classes)`` scores."""
        out = features
        for is_dense, dense_index, activation in self._plan:
            if is_dense:
                view = views[dense_index]
                out = np.matmul(out, view["weights"])
                if view["bias"] is not None:
                    out = out + view["bias"][:, None, :]
            else:
                out = activation.forward(out)
        return out

    def _maybe_decay_learning_rate(
        self, optimizer: StackedAdam, row: int, epochs_without_improvement: int
    ) -> None:
        cfg = self.config
        if cfg.lr_decay_factor >= 1.0 or cfg.early_stopping_patience is None:
            return
        if epochs_without_improvement == max(cfg.early_stopping_patience // 2, 1):
            current = float(optimizer.learning_rates[row, 0])
            optimizer.learning_rates[row, 0] = max(
                current * cfg.lr_decay_factor, cfg.min_learning_rate
            )

    def _compact_pack(self, pack: dict, keep: np.ndarray) -> None:
        for key in ("mask", "pos_level", "neg_level", "max_levels"):
            pack[key] = pack[key][keep]
        for key in ("masked", "abs", "scale", "effective"):
            pack[key] = np.empty((keep.size, pack[key].shape[1]))

    def _write_back(
        self,
        final_params: List[Optional[np.ndarray]],
        best_params: List[Optional[np.ndarray]],
    ) -> None:
        """Publish trained parameters into the models (best weights restored)."""
        cfg = self.config
        for genome, model in enumerate(self.models):
            flat = final_params[genome]
            if cfg.restore_best_weights and best_params[genome] is not None:
                flat = best_params[genome]
            if flat is None:  # cfg.epochs exhausted before the genome ran (unreachable)
                continue
            dense = model.dense_layers
            for segment in self._segments:
                layer = dense[segment["dense_index"]]
                values = flat[segment["slice"]].reshape(segment["shape"]).copy()
                if segment["attribute"] == "weights":
                    layer.weights = values
                else:
                    layer.bias = values


def _softmax_cross_entropy_rows(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Mean softmax cross-entropy per genome over ``(G, N, C)`` logits.

    The validation loss: softmax, probabilities clipped to ``[1e-12, 1]``,
    per-sample ``-sum(targets * log(p))``, mean over samples. Returns a
    ``(G,)`` loss vector.
    """
    shifted = scores - np.max(scores, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / np.sum(exp, axis=-1, keepdims=True)
    probs = np.clip(probs, 1e-12, 1.0)
    per_sample = -np.sum(targets * np.log(probs), axis=-1)
    return np.mean(per_sample, axis=-1)


def finetune_stacked(
    models: Sequence[MLP],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    epochs: int = 20,
    learning_rate: float = 0.003,
    batch_size: int = 32,
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[TrainingHistory]:
    """Short retraining of a population after a minimization step.

    Uses a smaller learning rate and fewer epochs than initial training, and
    keeps early stopping aggressive — matching how QAT retraining is applied
    in the paper's QKeras flow. :func:`repro.nn.trainer.finetune` is the
    one-model case; genome ``g`` ends with byte-identical weights to
    ``finetune(models[g], ..., seed=seeds[g])``.
    """
    config = TrainerConfig(
        epochs=epochs,
        batch_size=batch_size,
        early_stopping_patience=max(3, epochs // 3),
    )
    trainer = StackedTrainer(models, learning_rate, config=config, seeds=seeds)
    return trainer.fit(x_train, y_train, x_val, y_val)


def predict_stacked(models: Sequence[MLP], features: np.ndarray) -> np.ndarray:
    """Batched class predictions for a population of same-topology models.

    Stacks each model's *effective* (masked + quantized) parameters — built
    per model with ``effective_weights()`` — and runs
    one batched forward pass; returns ``(G, n_samples)`` predicted classes,
    byte-identical to calling ``model.predict`` per model.
    """
    if not models:
        raise ValueError("Cannot predict with an empty population")
    features = np.asarray(features, dtype=np.float64)
    out = features
    n_layers = len(models[0].layers)
    for index in range(n_layers):
        layer = models[0].layers[index]
        if isinstance(layer, Dense):
            weights = np.stack(
                [model.layers[index].effective_weights() for model in models]
            )
            out = np.matmul(out, weights)
            if layer.use_bias:
                bias = np.stack(
                    [model.layers[index].effective_bias() for model in models]
                )
                out = out + bias[:, None, :]
        elif isinstance(layer, ActivationLayer):
            out = layer.activation.forward(out)
        else:
            raise ValueError(f"Unsupported layer for stacked inference: {layer!r}")
    return np.argmax(out, axis=-1)
