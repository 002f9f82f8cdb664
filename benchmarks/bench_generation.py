"""Generation-throughput benchmark: stacked population evaluation vs the loop.

The PR-3 tentpole batches a whole NSGA-II generation through shared
``(G, ...)`` tensor ops (stacked QAT, batched accuracy, vectorized NSGA-II)
instead of fine-tuning genome by genome. This benchmark runs the same
figure2 search per population size — the loop (``stacked=False``: one
fine-tuning run per genome, clustering and synthesis batched), then
stacked — on the whitewine pipeline, asserts the Pareto fronts are byte-identical, and
records the evaluations/s of both paths (plus the speedup) to
``BENCH_evaluation.json`` and the ``BENCH_history.json`` trajectory.

Default mode measures the full figure2 workload at populations 16 and 24
(the speedup grows with the population as per-batch numpy dispatch is
amortized over more genomes); the acceptance headline is the best speedup
at population >= 16. Run with ``REPRO_BENCH_SMOKE=1`` on CI for the reduced
population-16 configuration.

The ``preamble`` section times the two per-genome stages the population
kernels batch — per-input-position clustering and cost-only synthesis — on
a population of 16: one ``cluster_population`` + ``synthesize_population``
call against one ``cluster_model_weights`` + ``synthesize_cost_only`` call
per genome, with equal results asserted.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchlib import SMOKE, bench_config, record_bench
from repro.bespoke import BespokeConfig, synthesize_cost_only, synthesize_population
from repro.clustering import cluster_model_weights, cluster_population
from repro.core import MinimizationPipeline, PipelineConfig
from repro.pruning import prune_by_magnitude
from repro.quantization import attach_quantizers
from repro.search import EvaluationSettings, GAConfig, HardwareAwareGA
from repro.search.genome import GenomeSpace

_GENERATIONS = 2
_POPULATIONS = (16,) if SMOKE else (16, 24)
_REPEATS = 1 if SMOKE else 2
_FINETUNE_EPOCHS = 3 if SMOKE else 6


@pytest.fixture(scope="module")
def prepared():
    if SMOKE:
        return MinimizationPipeline(bench_config("whitewine")).prepare()
    # The full figure2 workload the acceptance numbers are quoted on.
    return MinimizationPipeline(
        PipelineConfig(dataset="whitewine", finetune_epochs=8)
    ).prepare()


def _run_search(prepared, stacked: bool, population: int):
    settings = EvaluationSettings(finetune_epochs=_FINETUNE_EPOCHS)
    config = GAConfig(
        population_size=population,
        n_generations=_GENERATIONS,
        seed=0,
        n_workers=1,
        stacked=stacked,
    )
    start = time.perf_counter()
    result = HardwareAwareGA(prepared, config=config, settings=settings).run()
    return result, time.perf_counter() - start


def _front_signature(result):
    return [
        (point.accuracy, point.area, point.power, point.delay)
        for point in result.front
    ]


def test_generation_throughput_stacked_vs_loop(prepared):
    # Warm the hardware-cost memos and numpy so neither path pays cold-start.
    _run_search(prepared, stacked=True, population=min(_POPULATIONS))

    payload = {"generations": _GENERATIONS, "by_population": {}}
    speedups = []
    for population in _POPULATIONS:
        loop_s = stacked_s = float("inf")
        loop_result = stacked_result = None
        for _ in range(_REPEATS):
            loop_result, seconds = _run_search(prepared, stacked=False, population=population)
            loop_s = min(loop_s, seconds)
            stacked_result, seconds = _run_search(prepared, stacked=True, population=population)
            stacked_s = min(stacked_s, seconds)

        # The stacked path must be numerically invisible: same fronts, same
        # evaluation counts, same all-points trajectory.
        assert stacked_result.n_evaluations == loop_result.n_evaluations
        assert _front_signature(stacked_result) == _front_signature(loop_result)
        assert [(p.accuracy, p.area) for p in stacked_result.all_points] == [
            (p.accuracy, p.area) for p in loop_result.all_points
        ]

        evaluations = loop_result.n_evaluations
        speedup = (evaluations / stacked_s) / (evaluations / loop_s)
        speedups.append(speedup)
        payload["by_population"][str(population)] = {
            "evaluations": evaluations,
            "loop_s": loop_s,
            "stacked_s": stacked_s,
            "loop_evaluations_per_s": evaluations / loop_s,
            "stacked_evaluations_per_s": evaluations / stacked_s,
            "speedup": speedup,
        }
        print(
            f"\npopulation {population}: loop {evaluations / loop_s:.1f}/s, "
            f"stacked {evaluations / stacked_s:.1f}/s ({speedup:.2f}x)"
        )

    payload["speedup"] = max(speedups)
    record_bench("generation", payload)
    # Identical results faster: the stacked path must never lose to the loop
    # (generous CI margin; the absolute floor lives in the CI workflow).
    assert max(speedups) > (1.05 if SMOKE else 2.0), (
        f"stacked path too slow: best {max(speedups):.2f}x over the per-genome loop"
    )


_PREAMBLE_POPULATION = 16
_PREAMBLE_REPEATS = 5 if SMOKE else 10


def _preamble_run(prepared, genomes, batched: bool):
    """Clone + prune (untimed), then cluster, attach quantizers, synthesize."""
    models = [prepared.baseline_model.clone() for _ in genomes]
    for genome, model in zip(genomes, models):
        prune_by_magnitude(model, list(genome.sparsity), global_ranking=False)
    budgets = [[c if c > 0 else 10**6 for c in genome.clusters] for genome in genomes]
    seeds = list(range(len(genomes)))
    configs = [
        BespokeConfig(input_bits=prepared.config.input_bits, weight_bits=list(genome.weight_bits))
        for genome in genomes
    ]
    start = time.perf_counter()
    if batched:
        clusterings = cluster_population(models, budgets, seeds)
    else:
        clusterings = [
            cluster_model_weights(model, budget, seed=seed)
            for model, budget, seed in zip(models, budgets, seeds)
        ]
    cluster_s = time.perf_counter() - start
    for genome, model in zip(genomes, models):
        attach_quantizers(model, list(genome.weight_bits))
    start = time.perf_counter()
    if batched:
        reports = synthesize_population(models, configs, prepared.technology)
    else:
        reports = [
            synthesize_cost_only(model, config, prepared.technology)
            for model, config in zip(models, configs)
        ]
    synthesize_s = time.perf_counter() - start
    weights = [[layer.weights.tobytes() for layer in model.dense_layers] for model in models]
    return (cluster_s, synthesize_s), (weights, [c.as_dict() for c in clusterings], reports)


def test_preamble_population_vs_per_genome(prepared):
    space = GenomeSpace(len(prepared.baseline_model.dense_layers))
    rng = np.random.default_rng(0)
    genomes = [space.random_genome(rng) for _ in range(_PREAMBLE_POPULATION)]
    best = {True: [float("inf")] * 2, False: [float("inf")] * 2}
    results = {}
    _preamble_run(prepared, genomes, batched=True)  # warm the cost memos
    for _ in range(_PREAMBLE_REPEATS):
        for batched in (False, True):
            seconds, results[batched] = _preamble_run(prepared, genomes, batched)
            best[batched] = [min(a, b) for a, b in zip(best[batched], seconds)]
    # Batching is numerically invisible: same weights, clusterings, reports.
    assert results[True] == results[False]

    per_genome_s, batched_s = sum(best[False]), sum(best[True])
    speedup = per_genome_s / batched_s
    payload = {
        "population": _PREAMBLE_POPULATION,
        "repeats": _PREAMBLE_REPEATS,
        "per_genome_s": per_genome_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "cluster": {"per_genome_s": best[False][0], "batched_s": best[True][0]},
        "synthesize": {"per_genome_s": best[False][1], "batched_s": best[True][1]},
    }
    record_bench("preamble", payload)
    print(
        f"\npreamble population {_PREAMBLE_POPULATION}: per-genome {per_genome_s * 1e3:.2f} ms, "
        f"batched {batched_s * 1e3:.2f} ms ({speedup:.2f}x)"
    )
    assert speedup > 1.05, f"population kernels too slow: {speedup:.2f}x over per-genome calls"
