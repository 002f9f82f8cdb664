"""Layers for the NumPy MLP framework.

The only layer that matters for bespoke printed MLPs is :class:`Dense`;
:class:`ActivationLayer` exists so a network can be expressed as a flat list
of layers, Keras-style. Layers run inference only: training (forward,
backward and the optimizer step) is the stacked loop in
:mod:`repro.nn.stacked`, which reads the layers' parameters and hooks.

:class:`Dense` carries two optional hooks that the minimization packages use:

* ``mask`` — a binary array the same shape as the weights; pruned connections
  are zeros in the mask. It is applied both in the forward pass and (by the
  trainer) to the weight gradient, so fine-tuning never resurrects a pruned
  connection.
* ``weight_quantizer`` — a callable mapping the float weights to their
  fake-quantized values. During QAT the forward pass uses the quantized
  weights while gradients flow to the full-precision shadow weights
  (straight-through estimator).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .activations import Activation, get_activation
from .initializers import get_initializer


class Layer:
    """Base layer interface (forward pass and parameter access)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def parameters(self) -> List[np.ndarray]:
        """Trainable parameter arrays (may be empty)."""
        return []

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Weights are stored as ``(n_inputs, n_outputs)`` so that row ``i`` holds
    every weight multiplied by input ``i`` — the "same position" grouping the
    paper's weight-clustering technique operates on.

    Args:
        n_inputs: number of input features.
        n_outputs: number of neurons.
        use_bias: whether to add a bias term. Bespoke implementations keep
            the bias (it is a hard-wired constant adder input).
        weight_initializer: registered initializer name for the weights.
        bias_initializer: registered initializer name for the bias.
        rng: generator used for initialization (a fresh default generator is
            created when omitted, which makes the layer non-reproducible).
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        use_bias: bool = True,
        weight_initializer: str = "glorot_uniform",
        bias_initializer: str = "zeros",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_inputs <= 0 or n_outputs <= 0:
            raise ValueError(
                f"Dense layer dimensions must be positive, got ({n_inputs}, {n_outputs})"
            )
        rng = rng if rng is not None else np.random.default_rng()
        self.n_inputs = int(n_inputs)
        self.n_outputs = int(n_outputs)
        self.use_bias = bool(use_bias)

        self.weights = get_initializer(weight_initializer)((n_inputs, n_outputs), rng)
        self.bias = get_initializer(bias_initializer)((n_outputs,), rng)


        #: Binary pruning mask (1 = kept, 0 = pruned); ``None`` means no mask.
        self.mask: Optional[np.ndarray] = None
        #: Fake-quantization hook applied to the weights in the forward pass.
        self.weight_quantizer: Optional[Callable[[np.ndarray], np.ndarray]] = None
        #: Fake-quantization hook applied to the bias in the forward pass.
        self.bias_quantizer: Optional[Callable[[np.ndarray], np.ndarray]] = None

    # -- effective parameters -------------------------------------------------

    def effective_weights(self) -> np.ndarray:
        """Weights as seen by the forward pass (mask and quantizer applied).

        This is also what the bespoke circuit generator hard-wires, so the
        area model and the accuracy evaluation always agree on the
        coefficients.
        """
        w = self.weights
        if self.mask is not None:
            w = w * self.mask
        if self.weight_quantizer is not None:
            w = self.weight_quantizer(w)
        return w

    def effective_bias(self) -> np.ndarray:
        """Bias as seen by the forward pass (quantizer applied)."""
        b = self.bias
        if self.bias_quantizer is not None:
            b = self.bias_quantizer(b)
        return b

    def quantizable_tensors(self):
        """The layer's parameter tensors with their fake-quantization hooks.

        Returns ``(attribute, array, quantizer, mask)`` tuples in the order
        the trainer packs them into its flat parameter buffer — weights (with
        the pruning mask) first, then the bias.
        """
        return (
            ("weights", self.weights, self.weight_quantizer, self.mask),
            ("bias", self.bias, self.bias_quantizer, None),
        )

    # -- forward --------------------------------------------------------------

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        if inputs.shape[-1] != self.n_inputs:
            raise ValueError(
                f"Expected {self.n_inputs} input features, got {inputs.shape[-1]}"
            )
        out = inputs @ self.effective_weights()
        if self.use_bias:
            out = out + self.effective_bias()
        return out

    # -- parameter access ------------------------------------------------------

    @property
    def parameters(self) -> List[np.ndarray]:
        if self.use_bias:
            return [self.weights, self.bias]
        return [self.weights]

    def set_weights(self, weights: np.ndarray, bias: Optional[np.ndarray] = None) -> None:
        """Overwrite the layer parameters (shapes are validated)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.weights.shape:
            raise ValueError(
                f"Weight shape mismatch: expected {self.weights.shape}, got {weights.shape}"
            )
        self.weights = weights.copy()
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != self.bias.shape:
                raise ValueError(
                    f"Bias shape mismatch: expected {self.bias.shape}, got {bias.shape}"
                )
            self.bias = bias.copy()

    def sparsity(self) -> float:
        """Fraction of *effective* weights that are exactly zero."""
        w = self.effective_weights()
        if w.size == 0:
            return 0.0
        return float(np.mean(w == 0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.n_inputs} -> {self.n_outputs}, bias={self.use_bias})"


class ActivationLayer(Layer):
    """Wraps an :class:`~repro.nn.activations.Activation` as a layer."""

    def __init__(self, activation: "Activation | str") -> None:
        if isinstance(activation, str):
            activation = get_activation(activation)
        self.activation = activation

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.activation.forward(np.asarray(inputs, dtype=np.float64))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ActivationLayer({self.activation.name})"


def layer_summary(layer: Layer) -> Dict[str, object]:
    """Return a small description dict used by :func:`repro.nn.network.MLP.summary`."""
    info: Dict[str, object] = {"type": type(layer).__name__}
    if isinstance(layer, Dense):
        info.update(
            {
                "n_inputs": layer.n_inputs,
                "n_outputs": layer.n_outputs,
                "parameters": int(sum(p.size for p in layer.parameters)),
                "sparsity": layer.sparsity(),
            }
        )
    elif isinstance(layer, ActivationLayer):
        info["activation"] = layer.activation.name
    return info
