"""The Adam optimizer of the training loop.

:class:`StackedAdam` updates a ``(G, P)`` matrix holding G models' flattened
parameters in place; :func:`adam_step` is its element-wise kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np


def adam_step(
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: np.ndarray,
    sq: np.ndarray,
    denom: np.ndarray,
    learning_rate: Union[float, np.ndarray],
    beta1: float,
    beta2: float,
    epsilon: float,
    t: int,
) -> None:
    """One fused Adam step: update the moments in place, leave the update in ``step``.

    The caller subtracts ``step`` from its parameters. ``learning_rate`` is
    a scalar or a ``(G, 1)`` column of per-row rates; either way each element
    sees the same IEEE operations as the per-array expression
    ``param - lr * m_hat / (sqrt(v_hat) + eps)`` with bias-corrected moments.
    """
    # m = beta1*m + (1-beta1)*g ; v = beta2*v + (1-beta2)*g*g
    np.multiply(grads, 1.0 - beta1, out=step)
    m *= beta1
    m += step
    np.multiply(grads, grads, out=sq)
    sq *= 1.0 - beta2
    v *= beta2
    v += sq
    # (lr * (m / c1)) / (sqrt(v / c2) + eps), evaluated in the per-array
    # expression's order.
    np.divide(m, 1.0 - beta1**t, out=step)
    step *= learning_rate
    np.divide(v, 1.0 - beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += epsilon
    step /= denom


class StackedAdam:
    """Adam over a population axis: one ``(G, P)`` buffer updates G models at once.

    The training loop (:mod:`repro.nn.stacked`) keeps every genome's
    parameters flattened into one row of a ``(G, P)`` matrix. This optimizer
    applies :func:`adam_step` to the whole matrix, so row ``g`` evolves
    bit-identically to a one-row ``StackedAdam`` updating genome ``g`` alone
    — provided all rows step in lockstep (which the trainer guarantees by
    evicting early-stopped genomes from the stack).

    Per-genome learning rates are supported (the trainer's per-genome LR
    decay) as a ``(G, 1)`` column broadcast: multiplying a row by its scalar
    learning rate is the same IEEE operation the scalar path performs.

    Args:
        learning_rates: per-genome learning rates, shape ``(G,)``.
        beta1 / beta2 / epsilon: Adam hyper-parameters (shared by all rows).
    """

    def __init__(
        self,
        learning_rates: Sequence[float],
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        rates = np.asarray(learning_rates, dtype=np.float64).reshape(-1, 1)
        if rates.size == 0 or np.any(rates <= 0):
            raise ValueError("learning_rates must be a non-empty positive vector")
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.learning_rates = rates
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.t = 0
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._step: Optional[np.ndarray] = None
        self._sq: Optional[np.ndarray] = None
        self._denom: Optional[np.ndarray] = None

    def update(self, parameters: np.ndarray, gradients: np.ndarray) -> None:
        """One in-place Adam step on the stacked ``(G, P)`` parameter matrix."""
        if parameters.shape != gradients.shape or parameters.ndim != 2:
            raise ValueError(
                f"parameters/gradients must be matching 2-D stacks, got "
                f"{parameters.shape} vs {gradients.shape}"
            )
        if parameters.shape[0] != self.learning_rates.shape[0]:
            raise ValueError(
                f"Stack has {parameters.shape[0]} rows but "
                f"{self.learning_rates.shape[0]} learning rates"
            )
        if self._m is None or self._m.shape != parameters.shape:
            self._m = np.zeros_like(parameters)
            self._v = np.zeros_like(parameters)
            self._step = np.empty_like(parameters)
            self._sq = np.empty_like(parameters)
            self._denom = np.empty_like(parameters)
        self.t += 1
        adam_step(
            gradients, self._m, self._v, self._step, self._sq, self._denom,
            self.learning_rates, self.beta1, self.beta2, self.epsilon, self.t,
        )
        parameters -= self._step

    def compact(self, keep: np.ndarray) -> None:
        """Drop state rows of evicted genomes (``keep`` indexes surviving rows)."""
        self.learning_rates = self.learning_rates[keep]
        if self._m is not None:
            self._m = self._m[keep]
            self._v = self._v[keep]
            self._step = np.empty_like(self._m)
            self._sq = np.empty_like(self._m)
            self._denom = np.empty_like(self._m)
