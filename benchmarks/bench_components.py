"""Micro-benchmarks of the library's computational kernels.

Not tied to a paper figure: these track the cost of the building blocks the
experiment harness calls thousands of times (training epochs, bespoke
synthesis, genome evaluation, k-means, Pareto extraction), which is what
keeps the full reproduction in the minutes range on a laptop.
"""

import numpy as np
import pytest

from repro.bespoke import BespokeConfig, synthesize
from repro.clustering import kmeans_1d
from repro.core import DesignPoint, pareto_front
from repro.datasets import load_dataset, prepare_split, train_val_test_split
from repro.nn import build_mlp, train_classifier
from repro.search import EvaluationSettings, Genome, evaluate_genome
from repro.core.pipeline import MinimizationPipeline
from repro.core.config import PipelineConfig


@pytest.fixture(scope="module")
def whitewine_data():
    dataset = load_dataset("whitewine", n_samples=1200)
    return prepare_split(train_val_test_split(dataset, seed=0), input_bits=4)


@pytest.fixture(scope="module")
def whitewine_model(whitewine_data):
    model = build_mlp(11, (8,), 7, seed=0)
    train_classifier(
        model,
        whitewine_data.train.features,
        whitewine_data.train.labels,
        whitewine_data.validation.features,
        whitewine_data.validation.labels,
        epochs=30,
        patience=None,
        seed=0,
    )
    return model


@pytest.fixture(scope="module")
def prepared_whitewine():
    config = PipelineConfig(
        dataset="whitewine", n_samples=1200, train_epochs=30, finetune_epochs=4,
    )
    pipeline = MinimizationPipeline(config)
    return pipeline.prepare()


@pytest.mark.benchmark(group="components")
def test_bench_training_epoch(benchmark, whitewine_data):
    """One mini-batch training epoch of the WhiteWine classifier."""
    model = build_mlp(11, (8,), 7, seed=0)
    benchmark(
        train_classifier,
        model,
        whitewine_data.train.features,
        whitewine_data.train.labels,
        epochs=1,
        patience=None,
        seed=0,
    )


@pytest.mark.benchmark(group="components")
def test_bench_bespoke_synthesis(benchmark, whitewine_model):
    """Full bespoke synthesis (netlist + report) of the WhiteWine classifier."""
    report = benchmark(
        synthesize, whitewine_model, BespokeConfig(input_bits=4, weight_bits=8)
    )
    benchmark.extra_info["area_mm2"] = report.area
    benchmark.extra_info["n_multipliers"] = report.n_multipliers


@pytest.mark.benchmark(group="components")
def test_bench_inference(benchmark, whitewine_model, whitewine_data):
    """Batch inference over the WhiteWine test split."""
    features = whitewine_data.test.features
    benchmark(whitewine_model.predict, features)


@pytest.mark.benchmark(group="components")
def test_bench_genome_evaluation(benchmark, prepared_whitewine):
    """One GA fitness evaluation (prune + cluster + QAT fine-tune + synthesize)."""
    genome = Genome(weight_bits=(4, 4), sparsity=(0.3, 0.3), clusters=(3, 3))
    point = benchmark.pedantic(
        evaluate_genome,
        args=(genome, prepared_whitewine),
        kwargs={"settings": EvaluationSettings(finetune_epochs=4), "seed": 0},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["accuracy"] = point.accuracy
    benchmark.extra_info["area_mm2"] = point.area


@pytest.mark.benchmark(group="components")
def test_bench_simulate_batch(benchmark, whitewine_model, whitewine_data):
    """Vectorized fixed-point simulation of the whole WhiteWine test split.

    The batched integer datapath is the evaluation hot path of the parallel
    search engine; this tracks its throughput (and `extra_info` records the
    speedup over the scalar golden model on a small slice).
    """
    import time

    from repro.bespoke import FixedPointSimulator

    simulator = FixedPointSimulator(whitewine_model, BespokeConfig(input_bits=4, weight_bits=8))
    features = whitewine_data.test.features
    benchmark(simulator.simulate_batch, features)

    slice_features = features[:64]
    start = time.perf_counter()
    scalar_scores = [simulator.simulate_sample(sample) for sample in slice_features]
    scalar_time = time.perf_counter() - start
    start = time.perf_counter()
    batch_scores = simulator.simulate_batch(slice_features)
    batch_time = time.perf_counter() - start
    assert [list(row) for row in batch_scores] == scalar_scores
    benchmark.extra_info["batch_vs_scalar_speedup"] = scalar_time / max(batch_time, 1e-9)


@pytest.mark.benchmark(group="components")
def test_bench_kmeans_1d(benchmark):
    """1-D k-means on a layer-sized weight vector."""
    values = np.random.default_rng(0).normal(size=512)
    result = benchmark(kmeans_1d, values, 8, seed=0)
    assert len(result.centroids) == 8


@pytest.mark.benchmark(group="components")
def test_bench_pareto_front(benchmark):
    """Pareto extraction over a large cloud of design points."""
    generator = np.random.default_rng(1)
    points = [
        DesignPoint(
            technique="combined",
            accuracy=float(a),
            area=float(r),
        )
        for a, r in zip(generator.uniform(0.3, 1.0, 400), generator.uniform(1, 100, 400))
    ]
    front = benchmark(pareto_front, points)
    assert len(front) >= 1
