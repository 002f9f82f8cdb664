"""Training outputs pinned to digests captured from the serial trainer.

``tests/data/training_golden.json`` holds sha256 digests of the weights,
biases and histories that ``train_classifier`` and ``finetune`` produced on
every registered dataset before both became one-model runs of the stacked
trainer (see ``tests/data/capture_training_golden.py``). Matching them shows
the one training loop takes exactly the float steps the serial loop took.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


def _capture_module():
    spec = importlib.util.spec_from_file_location(
        "capture_training_golden", DATA_DIR / "capture_training_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CAPTURE = _capture_module()
GOLDEN = json.loads((DATA_DIR / "training_golden.json").read_text())


@pytest.mark.parametrize("dataset", CAPTURE.DATASETS)
def test_training_matches_serial_golden(dataset):
    assert CAPTURE.dataset_digests(dataset) == GOLDEN[dataset]
