"""Capture the training goldens pinned by tests/test_training_goldens.py.

Run from the repo root (on a commit whose training behavior is the
reference)::

    PYTHONPATH=src python tests/data/capture_training_golden.py

Writes ``training_golden.json``: sha256 digests of the weights, biases and
training history that :func:`repro.nn.train_classifier` and
:func:`repro.nn.finetune` produce on each registered dataset — a float
baseline with early stopping, a float baseline without validation data, a
4-bit fine-tune of a 30%-pruned clone and a 6-bit fine-tune. The digests
were captured from the serial layerwise trainer, before the training loop
became the one-model case of the stacked trainer, so they pin that both
loops take the same float steps.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.datasets import (
    get_classifier_spec,
    load_dataset,
    prepare_split,
    train_val_test_split,
)
from repro.nn import build_mlp, finetune, train_classifier
from repro.pruning.magnitude import prune_by_magnitude
from repro.quantization.qat import attach_quantizers

GOLDEN_PATH = Path(__file__).resolve().parent / "training_golden.json"
DATASETS = ("whitewine", "redwine", "pendigits", "seeds")
N_SAMPLES = 400


def _digests(model, history) -> Dict[str, object]:
    weights = hashlib.sha256()
    bias = hashlib.sha256()
    for layer in model.dense_layers:
        weights.update(layer.weights.tobytes())
        bias.update(layer.bias.tobytes())
    history_doc = json.dumps(history.as_dict(), sort_keys=True).encode()
    return {
        "weights": weights.hexdigest(),
        "bias": bias.hexdigest(),
        "history": hashlib.sha256(history_doc).hexdigest(),
        "epochs_run": history.epochs_run,
    }


def dataset_digests(name: str) -> Dict[str, Dict[str, object]]:
    """Train and fine-tune on one dataset; digest every case."""
    spec = get_classifier_spec(name)
    split = train_val_test_split(load_dataset(name, n_samples=N_SAMPLES), seed=3)
    data = prepare_split(split, input_bits=4)
    train, val = data.train, data.validation

    def fresh():
        return build_mlp(train.n_features, spec.hidden_layers, split.train.n_classes, seed=3)

    cases: Dict[str, Dict[str, object]] = {}
    baseline = fresh()
    history = train_classifier(
        baseline, train.features, train.labels, val.features, val.labels,
        epochs=spec.epochs, batch_size=spec.batch_size,
        learning_rate=spec.learning_rate, patience=8, seed=3,
    )
    cases["train_early_stopping"] = _digests(baseline, history)

    model = fresh()
    history = train_classifier(
        model, train.features, train.labels, epochs=6,
        batch_size=spec.batch_size, learning_rate=spec.learning_rate, seed=4,
    )
    cases["train_no_validation"] = _digests(model, history)

    model = baseline.clone()
    prune_by_magnitude(model, 0.3)
    attach_quantizers(model, 4)
    history = finetune(
        model, train.features, train.labels, val.features, val.labels,
        epochs=9, learning_rate=0.01, seed=5,
    )
    cases["finetune_4bit_pruned"] = _digests(model, history)

    model = baseline.clone()
    attach_quantizers(model, 6)
    history = finetune(
        model, train.features, train.labels, val.features, val.labels,
        epochs=6, seed=6,
    )
    cases["finetune_6bit"] = _digests(model, history)
    return cases


def training_digests() -> Dict[str, Dict[str, Dict[str, object]]]:
    """Digests of every case on every registered dataset."""
    return {name: dataset_digests(name) for name in DATASETS}


def main() -> None:
    document = training_digests()
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
