"""Hot-path micro-benchmarks of the per-genome evaluation engine.

Times the training loop (a one-model QAT run), the memoized hardware-cost
kernels behind (cost-only) synthesis, and the whole ``evaluate_genome``
composition on the whitewine pipeline, and records the
numbers to ``BENCH_evaluation.json`` at the repo root so the perf trajectory
is tracked across PRs (see ``docs/performance.md``).

Run with ``REPRO_BENCH_SMOKE=1`` on CI (reduced data/epochs); unset for the
full whitewine configuration the acceptance numbers are quoted on.
"""

from __future__ import annotations

import pytest

from benchlib import SMOKE, bench_config, record_bench, timed
from repro.bespoke import BespokeConfig, synthesize, synthesize_cost_only
from repro.core import MinimizationPipeline
from repro.nn.trainer import train_classifier
from repro.quantization import attach_quantizers
from repro.search import EvaluationSettings, Genome, evaluate_genome, genome_seed

#: Representative mid-range genome (all three techniques active).
_GENOME = Genome(weight_bits=(4, 4), sparsity=(0.4, 0.4), clusters=(4, 4))

_REPEATS = 3 if SMOKE else 10


@pytest.fixture(scope="module")
def prepared():
    return MinimizationPipeline(bench_config("whitewine")).prepare()


def test_evaluate_genome_latency(prepared):
    settings = EvaluationSettings(
        finetune_epochs=prepared.config.finetune_epochs,
    )
    seed = genome_seed(0, _GENOME)
    stats = timed(
        lambda: evaluate_genome(_GENOME, prepared, settings, seed=seed),
        repeats=_REPEATS,
    )
    stats["genome"] = _GENOME.as_dict()
    record_bench("evaluate_genome", stats)
    assert stats["best_s"] > 0


def test_synthesize_latency(prepared):
    model = prepared.baseline_model
    config = BespokeConfig(input_bits=prepared.config.input_bits, weight_bits=8)
    full = timed(
        lambda: synthesize(model, config=config, tech=prepared.technology),
        repeats=_REPEATS * 3,
    )
    cost_only = timed(
        lambda: synthesize_cost_only(model, config=config, tech=prepared.technology),
        repeats=_REPEATS * 3,
    )
    record_bench("synthesize", {"netlist": full, "cost_only": cost_only})
    # The cost-only path must never be slower than building the full netlist.
    assert cost_only["best_s"] <= full["best_s"] * 1.5


def test_trainer_throughput(prepared):
    data = prepared.data
    epochs = 4 if SMOKE else 8

    def run():
        model = prepared.baseline_model.clone()
        attach_quantizers(model, 4)
        train_classifier(
            model,
            data.train.features,
            data.train.labels,
            data.validation.features,
            data.validation.labels,
            epochs=epochs,
            batch_size=32,
            learning_rate=0.003,
            patience=None,
            seed=0,
        )

    stats = timed(run, repeats=_REPEATS)
    stats["epochs"] = epochs
    stats["epochs_per_s"] = epochs / stats["best_s"]
    record_bench("trainer", stats)
    assert stats["epochs_per_s"] > 0
