"""NumPy MLP training substrate.

This package replaces the Keras/QKeras training stack of the original paper
with a small, dependency-free framework: layers, activations, the Adam
optimizer, one mini-batch training loop (stacked over a population; one
model is the single-row case) and model (de)serialization. See
``docs/architecture.md`` for how it fits into the reproduction.
"""

from .activations import (
    Activation,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    available_activations,
    get_activation,
)
from .initializers import available_initializers, get_initializer
from .layers import ActivationLayer, Dense, Layer
from .metrics import (
    accuracy,
    accuracy_drop,
    confusion_matrix,
    per_class_accuracy,
    precision_recall_f1,
    top_k_accuracy,
)
from .network import MLP, build_mlp
from .optimizers import StackedAdam
from .serialization import load_model, save_model
from .stacked import (
    StackedTrainer,
    TrainerConfig,
    TrainingHistory,
    finetune_stacked,
    predict_stacked,
    supports_stacking,
)
from .trainer import finetune, train_classifier

__all__ = [
    "Activation",
    "ActivationLayer",
    "Dense",
    "Identity",
    "Layer",
    "LeakyReLU",
    "MLP",
    "ReLU",
    "Sigmoid",
    "Softmax",
    "StackedAdam",
    "StackedTrainer",
    "Tanh",
    "TrainerConfig",
    "TrainingHistory",
    "accuracy",
    "accuracy_drop",
    "available_activations",
    "available_initializers",
    "build_mlp",
    "confusion_matrix",
    "finetune",
    "finetune_stacked",
    "get_activation",
    "get_initializer",
    "load_model",
    "per_class_accuracy",
    "precision_recall_f1",
    "predict_stacked",
    "save_model",
    "supports_stacking",
    "top_k_accuracy",
    "train_classifier",
]
