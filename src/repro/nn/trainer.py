"""One-model training entry points: the float baseline and fine-tunes.

Training in this reproduction happens in three places: the initial float
training of each baseline classifier, the quantization-aware (re)training
after fake-quantizers are attached, and the short fine-tuning passes after
pruning or clustering. They differ only in the number of epochs and whether
hooks are present on the Dense layers. Both functions below are the
one-model case of :class:`~repro.nn.stacked.StackedTrainer`, the only
training loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .network import MLP
from .stacked import StackedTrainer, TrainerConfig, TrainingHistory, finetune_stacked


def train_classifier(
    model: MLP,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    epochs: int = 100,
    batch_size: int = 32,
    learning_rate: float = 0.01,
    patience: Optional[int] = 15,
    seed: Optional[int] = None,
) -> TrainingHistory:
    """Train ``model`` in place with Adam, early stopping and LR decay.

    Raises ``ValueError`` naming the cause when the model cannot be trained
    (see :func:`~repro.nn.stacked.supports_stacking`).
    """
    config = TrainerConfig(
        epochs=epochs, batch_size=batch_size, early_stopping_patience=patience
    )
    trainer = StackedTrainer([model], learning_rate, config=config, seeds=[seed])
    return trainer.fit(x_train, y_train, x_val, y_val)[0]


def finetune(
    model: MLP,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    epochs: int = 20,
    learning_rate: float = 0.003,
    batch_size: int = 32,
    seed: Optional[int] = None,
) -> TrainingHistory:
    """Short retraining pass after a minimization step (QAT / pruning / clustering).

    The one-model case of :func:`~repro.nn.stacked.finetune_stacked`.
    """
    return finetune_stacked(
        [model], x_train, y_train, x_val, y_val,
        epochs=epochs, learning_rate=learning_rate, batch_size=batch_size,
        seeds=[seed],
    )[0]
