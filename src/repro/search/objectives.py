"""Objective evaluation: genome → minimized classifier → (accuracy, area).

Evaluating one genome applies all three techniques to a clone of the trained
baseline in the order pruning → clustering → quantization-aware fine-tuning
(a single joint fine-tuning pass recovers accuracy for all of them at once),
then synthesizes the bespoke circuit at the genome's bit-widths. The result
is returned as a ``combined`` :class:`~repro.core.results.DesignPoint`.

These are pure functions of ``(genome, prepared, settings, seed)``; caching
and parallel fan-out live in :mod:`repro.search.evaluator` and
:mod:`repro.search.parallel`. :func:`evaluate_genomes` evaluates a batch
with one fine-tuning run per genome and :func:`evaluate_genomes_stacked`
a whole population through the stacked tensor path; both cluster and
synthesize the batch with the population kernels and are byte-identical
to looping :func:`evaluate_genome`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bespoke.circuit import BespokeConfig
from ..bespoke.simulator import FixedPointSimulator, population_accuracy
from ..bespoke.synthesis import synthesize_population
from ..clustering.weight_clustering import (
    ClusteringResult,
    cluster_population,
    reproject_clusters,
    reproject_population,
)
from ..core import profiling
from ..core.pipeline import PreparedPipeline
from ..core.results import DesignPoint
from ..nn.stacked import finetune_stacked, predict_stacked, supports_stacking
from ..nn.trainer import finetune
from ..pruning.magnitude import prune_by_magnitude
from ..quantization.qat import attach_quantizers
from ..reliability.monte_carlo import (
    monte_carlo_fault_injection,
    monte_carlo_population,
)
from .genome import Genome
from .settings import EvaluationSettings


def _apply_minimizations(
    genomes: Sequence[Genome],
    prepared: PreparedPipeline,
    settings: EvaluationSettings,
    seeds: Sequence[Optional[int]],
):
    """Prune, cluster and attach quantizers on fresh baseline clones.

    The preamble shared by the serial and stacked evaluation paths —
    everything of :func:`apply_genome` except the fine-tuning pass — for
    one genome or a whole population; the clustering of all genomes runs
    as one batched k-means program. Returns ``(models, clustering_results)``
    with ``None`` for genomes that do not cluster.
    """
    with profiling.stage("clone"):
        models = [prepared.baseline_model.clone() for _ in genomes]
    for genome, model in zip(genomes, models):
        n_layers = len(model.dense_layers)
        if genome.n_layers != n_layers:
            raise ValueError(
                f"Genome covers {genome.n_layers} layers but the model has {n_layers}"
            )
        # 1. Pruning (masks stay in place for the rest of the flow).
        if any(s > 0.0 for s in genome.sparsity):
            with profiling.stage("prune"):
                prune_by_magnitude(model, list(genome.sparsity), global_ranking=False)

    # 2. Weight clustering on the surviving weights.
    clusterings: List[Optional[ClusteringResult]] = [None] * len(genomes)
    clustered = [i for i, genome in enumerate(genomes) if any(c > 0 for c in genome.clusters)]
    if clustered:
        with profiling.stage("cluster"):
            results = cluster_population(
                [models[i] for i in clustered],
                [[c if c > 0 else 10**6 for c in genomes[i].clusters] for i in clustered],
                [seeds[i] for i in clustered],
                per_position=settings.per_position_clustering,
            )
        for i, result in zip(clustered, results):
            clusterings[i] = result

    # 3. Fake-quantizers for the QAT fine-tuning and the bespoke mapping.
    for genome, model in zip(genomes, models):
        attach_quantizers(model, list(genome.weight_bits))
    return models, clusterings


def apply_genome(
    genome: Genome,
    prepared: PreparedPipeline,
    settings: Optional[EvaluationSettings] = None,
    seed: Optional[int] = None,
):
    """Apply a genome's minimizations to a clone of the prepared baseline.

    Returns the minimized model (the prepared baseline itself is untouched).
    """
    settings = settings if settings is not None else EvaluationSettings()
    (model,), (clustering_result,) = _apply_minimizations([genome], prepared, settings, [seed])
    _finetune_model(prepared, settings, model, clustering_result, seed)
    return model


def evaluate_genome(
    genome: Genome,
    prepared: PreparedPipeline,
    settings: Optional[EvaluationSettings] = None,
    seed: Optional[int] = None,
) -> DesignPoint:
    """Full evaluation of one genome: minimized accuracy and synthesized area.

    The synthesis report comes from the cost-only path
    (:func:`~repro.bespoke.synthesis.synthesize_population`, the same
    kernel the batched paths run on a whole population): the search only consumes
    aggregate area/power/delay, and the cost-only report is bit-identical to
    the full netlist's. Ask :func:`~repro.bespoke.build_bespoke_circuit` for
    the netlist when a winning genome needs inspection or Verilog export.
    """
    settings = settings if settings is not None else EvaluationSettings()
    with profiling.stage("evaluate_genome"):
        models, clusterings = _apply_minimizations([genome], prepared, settings, [seed])
        (point,) = _finish_per_genome([genome], prepared, settings, models, clusterings, [seed])
    return point


def evaluate_genomes(
    genomes: Sequence[Genome],
    prepared: PreparedPipeline,
    settings: Optional[EvaluationSettings] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[DesignPoint]:
    """Evaluate a batch of genomes with one fine-tuning run per genome.

    Pruning, fine-tuning and accuracy stay per genome; the clustering of
    the batch runs as one k-means program and its cost-only synthesis as
    one population call. Every point is byte-identical to
    ``evaluate_genome(genome, prepared, settings, seed=seeds[g])``. This is
    the engine's path when the population is not stacked.
    """
    settings = settings if settings is not None else EvaluationSettings()
    genomes, seeds = _aligned_seeds(genomes, seeds)
    if not genomes:
        return []
    with profiling.stage("evaluate_population"):
        models, clusterings = _apply_minimizations(genomes, prepared, settings, seeds)
        return _finish_per_genome(genomes, prepared, settings, models, clusterings, seeds)


def _aligned_seeds(genomes, seeds) -> Tuple[List[Genome], List[Optional[int]]]:
    genomes = list(genomes)
    seeds = [None] * len(genomes) if seeds is None else list(seeds)
    if len(seeds) != len(genomes):
        raise ValueError(f"Got {len(seeds)} seeds for {len(genomes)} genomes")
    return genomes, seeds


def _finish_per_genome(
    genomes: Sequence[Genome],
    prepared: PreparedPipeline,
    settings: EvaluationSettings,
    models: Sequence,
    clusterings: Sequence[Optional[ClusteringResult]],
    seeds: Sequence[Optional[int]],
) -> List[DesignPoint]:
    """Fine-tune and measure built models one by one, then synthesize them together."""
    configs = [_bespoke_config(genome, prepared) for genome in genomes]
    measured = []
    for model, config, clustering_result, seed in zip(models, configs, clusterings, seeds):
        _finetune_model(prepared, settings, model, clustering_result, seed)
        measured.append(_measure_model(prepared, settings, model, config, seed))
    accuracies, robust_accuracies, accuracy_stds = zip(*measured)
    return _synthesize_points(
        genomes, prepared, models, configs, accuracies, robust_accuracies, accuracy_stds
    )


def _finetune_model(
    prepared: PreparedPipeline,
    settings: EvaluationSettings,
    model,
    clustering_result,
    seed: Optional[int],
) -> None:
    """The fine-tuning tail of :func:`apply_genome` on an already-built model."""
    data = prepared.data
    if settings.finetune_epochs > 0:
        with profiling.stage("finetune"):
            finetune(
                model,
                data.train.features,
                data.train.labels,
                data.validation.features,
                data.validation.labels,
                epochs=settings.finetune_epochs,
                learning_rate=settings.finetune_learning_rate,
                seed=seed,
            )
        if clustering_result is not None:
            with profiling.stage("cluster"):
                reproject_clusters(model, clustering_result)


def _measure_model(
    prepared: PreparedPipeline,
    settings: EvaluationSettings,
    model,
    bespoke_config: BespokeConfig,
    seed: Optional[int] = None,
) -> Tuple[float, Optional[float], Optional[float]]:
    """``(accuracy, robust_accuracy, accuracy_std)`` of one minimized model."""
    data = prepared.data
    simulator = None
    if settings.simulate_accuracy or settings.robustness_enabled:
        with profiling.stage("simulator"):
            simulator = FixedPointSimulator(model, bespoke_config)
    with profiling.stage("accuracy"):
        if settings.simulate_accuracy:
            accuracy = simulator.evaluate_accuracy(
                data.test.features, data.test.labels
            )
        else:
            accuracy = model.evaluate_accuracy(data.test.features, data.test.labels)
    if not settings.robustness_enabled:
        return accuracy, None, None
    with profiling.stage("robustness"):
        fault_result = monte_carlo_fault_injection(
            simulator,
            data.test.features,
            data.test.labels,
            settings.fault_config(seed),
        )
    return accuracy, fault_result.mean_accuracy, fault_result.accuracy_std


def _bespoke_config(genome: Genome, prepared: PreparedPipeline) -> BespokeConfig:
    return BespokeConfig(
        input_bits=prepared.config.input_bits,
        weight_bits=list(genome.weight_bits),
    )


def _synthesize_points(
    genomes: Sequence[Genome],
    prepared: PreparedPipeline,
    models: Sequence,
    bespoke_configs: Sequence[BespokeConfig],
    accuracies: Sequence[float],
    robust_accuracies: Sequence[Optional[float]],
    accuracy_stds: Sequence[Optional[float]],
) -> List[DesignPoint]:
    """Cost-only synthesis of a population + design-point assembly (every path)."""
    with profiling.stage("synthesize"):
        reports = synthesize_population(
            models,
            bespoke_configs,
            tech=prepared.technology,
            names=[f"{prepared.metadata.get('dataset', 'mlp')}_combined"] * len(models),
        )
    return [
        DesignPoint(
            technique="combined",
            accuracy=float(accuracy),
            area=report.area,
            power=report.power,
            delay=report.delay,
            parameters=genome.as_dict(),
            report=report,
            robust_accuracy=robust_accuracy,
            accuracy_std=accuracy_std,
        )
        for genome, report, accuracy, robust_accuracy, accuracy_std in zip(
            genomes, reports, accuracies, robust_accuracies, accuracy_stds
        )
    ]


def evaluate_genomes_stacked(
    genomes: Sequence[Genome],
    prepared: PreparedPipeline,
    settings: Optional[EvaluationSettings] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
) -> List[DesignPoint]:
    """Evaluate a whole population as one stacked tensor program.

    Pruning and quantizer attachment stay per-genome loops (they are
    cheap); every other stage runs once for the whole population:

    * clustering and the post-fine-tuning re-projection run as one batched
      k-means program (:func:`repro.clustering.cluster_population`,
      :func:`repro.clustering.reproject_population`);
    * quantization-aware fine-tuning runs through
      :func:`repro.nn.stacked.finetune_stacked` (one ``(G, ...)`` tensor
      program instead of G serial trainings);
    * test accuracy is measured with one batched forward pass —
      :func:`repro.nn.stacked.predict_stacked` for the float model, or
      :func:`repro.bespoke.simulator.population_accuracy` on the integer
      datapath when ``settings.simulate_accuracy`` is set;
    * cost-only synthesis reduces the memoized block costs of all genomes
      at once (:func:`repro.bespoke.synthesis.synthesize_population`).

    Every genome's design point is byte-identical to
    ``evaluate_genome(genome, prepared, settings, seed=seeds[g])`` — the
    stacked trainer's bit-identity contract, the batched kernels' per-row
    reduction orders and exact integer/argmax arithmetic make batching
    numerically invisible, which the golden tests
    in ``tests/test_stacked_evaluation.py`` assert. Populations whose genomes
    cannot share one stack (architectures or quantizer patterns that differ
    between genomes) or that have zero fine-tuning epochs fall back to
    per-genome fine-tuning (:func:`evaluate_genomes`). A model no trainer
    can handle (a non-symmetric or frozen-scale quantizer hook, a custom
    layer) raises ``ValueError`` on either path.
    """
    settings = settings if settings is not None else EvaluationSettings()
    genomes, seeds = _aligned_seeds(genomes, seeds)
    if len(genomes) < 2 or settings.finetune_epochs <= 0:
        return evaluate_genomes(genomes, prepared, settings, seeds)

    with profiling.stage("evaluate_population_stacked"):
        models, clusterings = _apply_minimizations(genomes, prepared, settings, seeds)
        if not supports_stacking(models):
            # Finish per genome on the models already built — re-running the
            # pruning/clustering preamble would only repeat identical work.
            return _finish_per_genome(
                genomes, prepared, settings, models, clusterings, seeds
            )

        data = prepared.data
        with profiling.stage("finetune"):
            finetune_stacked(
                models,
                data.train.features,
                data.train.labels,
                data.validation.features,
                data.validation.labels,
                epochs=settings.finetune_epochs,
                learning_rate=settings.finetune_learning_rate,
                seeds=seeds,
            )
        if any(result is not None for result in clusterings):
            with profiling.stage("cluster"):
                reproject_population(models, clusterings)

        bespoke_configs = [_bespoke_config(genome, prepared) for genome in genomes]
        test = data.test
        labels = np.asarray(test.labels).reshape(-1).astype(int)
        simulators = None
        if settings.simulate_accuracy or settings.robustness_enabled:
            with profiling.stage("simulator"):
                simulators = [
                    FixedPointSimulator(model, config)
                    for model, config in zip(models, bespoke_configs)
                ]
        with profiling.stage("accuracy"):
            if settings.simulate_accuracy:
                accuracies = population_accuracy(simulators, test.features, labels)
            else:
                predictions = predict_stacked(models, test.features)
                accuracies = (predictions == labels).mean(axis=-1)
        robust_accuracies: List[Optional[float]] = [None] * len(genomes)
        accuracy_stds: List[Optional[float]] = [None] * len(genomes)
        if settings.robustness_enabled:
            with profiling.stage("robustness"):
                fault_results = monte_carlo_population(
                    simulators,
                    test.features,
                    labels,
                    [settings.fault_config(seed) for seed in seeds],
                )
            robust_accuracies = [result.mean_accuracy for result in fault_results]
            accuracy_stds = [result.accuracy_std for result in fault_results]
        return _synthesize_points(
            genomes, prepared, models, bespoke_configs, accuracies, robust_accuracies,
            accuracy_stds,
        )


def objectives_of(
    point: DesignPoint, baseline: DesignPoint, robust: bool = False
) -> Tuple[float, ...]:
    """The minimized objectives of one design point.

    The default is the paper's pair ``(relative accuracy loss, normalized
    area)``. With ``robust=True`` a third minimized objective is appended:
    the *robust* accuracy loss ``max(1 - robust_accuracy / baseline
    accuracy, 0)`` — the loss the deployed circuit actually shows under the
    configured Monte-Carlo defect model. The 2-objective form is untouched,
    so robustness-disabled searches rank (and therefore evolve)
    byte-identically to earlier versions.
    """
    if baseline.accuracy <= 0 or baseline.area <= 0:
        raise ValueError("Baseline accuracy and area must be positive")
    loss = max(1.0 - point.accuracy / baseline.accuracy, 0.0)
    normalized_area = point.area / baseline.area
    if not robust:
        return (loss, normalized_area)
    if point.robust_accuracy is None:
        raise ValueError(
            "Robust objective requested but the design point has no "
            "robust_accuracy — evaluate with fault_rate > 0 and "
            "n_fault_trials > 0"
        )
    robust_loss = max(1.0 - point.robust_accuracy / baseline.accuracy, 0.0)
    return (loss, normalized_area, robust_loss)
