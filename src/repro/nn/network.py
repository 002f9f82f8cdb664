"""The MLP container: a sequential stack of layers with a Keras-like API.

An :class:`MLP` is the single object every other package operates on:

* the trainer (:mod:`repro.nn.stacked`) fits it,
* the quantization / pruning / clustering packages mutate its Dense layers'
  hooks (quantizers, masks) or weights,
* the bespoke package reads :meth:`MLP.dense_layers` and their
  ``effective_weights()`` to build the hard-wired circuit.

The convenience constructor :func:`build_mlp` creates the single-hidden-layer
ReLU topologies used by the printed-classifier literature.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .layers import ActivationLayer, Dense, Layer, layer_summary
from .metrics import accuracy


class MLP:
    """A sequential multilayer perceptron.

    Args:
        layers: ordered layers. The final Dense layer is interpreted as the
            classifier head whose argmax gives the predicted class.
    """

    def __init__(self, layers: Optional[Iterable[Layer]] = None) -> None:
        self.layers: List[Layer] = list(layers) if layers is not None else []

    # -- construction ----------------------------------------------------------

    def add(self, layer: Layer) -> "MLP":
        """Append a layer and return ``self`` for chaining."""
        self.layers.append(layer)
        return self

    # -- inference -------------------------------------------------------------

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run the full stack; returns raw output scores (logits)."""
        out = np.asarray(inputs, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Return predicted class indices (argmax of the output scores)."""
        return np.argmax(self.forward(inputs), axis=-1)

    def predict_scores(self, inputs: np.ndarray) -> np.ndarray:
        """Return the raw per-class scores (no softmax)."""
        return self.forward(inputs)

    def evaluate_accuracy(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy on ``(inputs, labels)``; labels may be one-hot."""
        return accuracy(labels, self.predict(inputs))

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- parameters ------------------------------------------------------------

    @property
    def parameters(self) -> List[np.ndarray]:
        """All trainable parameter arrays, in layer order."""
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters)
        return params

    @property
    def dense_layers(self) -> List[Dense]:
        """The Dense layers only, in order (what minimization acts upon)."""
        return [layer for layer in self.layers if isinstance(layer, Dense)]

    def n_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.size for p in self.parameters))

    def n_connections(self) -> int:
        """Number of weight connections (excluding biases)."""
        return int(sum(layer.weights.size for layer in self.dense_layers))

    def n_active_connections(self) -> int:
        """Number of connections whose effective weight is non-zero."""
        return int(
            sum(np.count_nonzero(layer.effective_weights()) for layer in self.dense_layers)
        )

    def sparsity(self) -> float:
        """Overall fraction of zero effective weights."""
        total = self.n_connections()
        if total == 0:
            return 0.0
        return 1.0 - self.n_active_connections() / total

    def topology(self) -> List[int]:
        """Layer widths ``[n_inputs, hidden..., n_outputs]`` of the Dense stack."""
        dense = self.dense_layers
        if not dense:
            return []
        sizes = [dense[0].n_inputs]
        sizes.extend(layer.n_outputs for layer in dense)
        return sizes

    # -- utilities ---------------------------------------------------------------

    def clone(self) -> "MLP":
        """Deep copy of the network (weights, masks and quantizer hooks included)."""
        return copy.deepcopy(self)

    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Return ``[{'weights': W, 'bias': b}, ...]`` copies for the Dense layers."""
        return [
            {"weights": layer.weights.copy(), "bias": layer.bias.copy()}
            for layer in self.dense_layers
        ]

    def set_weights(self, weight_dicts: Sequence[Dict[str, np.ndarray]]) -> None:
        """Load weights produced by :meth:`get_weights` (order must match)."""
        dense = self.dense_layers
        if len(weight_dicts) != len(dense):
            raise ValueError(
                f"Expected weights for {len(dense)} Dense layers, got {len(weight_dicts)}"
            )
        for layer, entry in zip(dense, weight_dicts):
            layer.set_weights(entry["weights"], entry.get("bias"))

    def summary(self) -> List[Dict[str, object]]:
        """Per-layer description dictionaries (type, shape, sparsity...)."""
        return [layer_summary(layer) for layer in self.layers]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        topo = "-".join(str(n) for n in self.topology())
        return f"MLP(topology={topo}, params={self.n_parameters()})"


def build_mlp(
    n_inputs: int,
    hidden_layers: Sequence[int],
    n_outputs: int,
    hidden_activation: str = "relu",
    use_bias: bool = True,
    weight_initializer: str = "glorot_uniform",
    seed: Optional[int] = None,
) -> MLP:
    """Build a standard printed-classifier MLP.

    The resulting stack is ``[Dense, Activation]`` per hidden layer followed
    by a linear Dense output layer (argmax is applied at prediction time, and
    in hardware by a comparator tree).

    Args:
        n_inputs: number of input features.
        hidden_layers: widths of the hidden layers (may be empty for a
            single-layer perceptron).
        n_outputs: number of classes.
        hidden_activation: registered activation name for hidden layers.
        use_bias: whether Dense layers carry biases.
        weight_initializer: initializer name for all Dense layers.
        seed: seed for reproducible initialization.
    """
    if n_inputs <= 0 or n_outputs <= 0:
        raise ValueError("n_inputs and n_outputs must be positive")
    rng = np.random.default_rng(seed)
    mlp = MLP()
    previous = n_inputs
    for width in hidden_layers:
        if width <= 0:
            raise ValueError(f"Hidden layer width must be positive, got {width}")
        mlp.add(
            Dense(
                previous,
                width,
                use_bias=use_bias,
                weight_initializer=weight_initializer,
                rng=rng,
            )
        )
        mlp.add(ActivationLayer(hidden_activation))
        previous = width
    mlp.add(
        Dense(
            previous,
            n_outputs,
            use_bias=use_bias,
            weight_initializer=weight_initializer,
            rng=rng,
        )
    )
    return mlp
