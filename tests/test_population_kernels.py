"""The population kernels equal their one-row / one-model references, bit for bit.

* :func:`repro.clustering.kmeans_rows` against a per-row Lloyd loop with a
  fresh k-means++ generator per row (``tests/oracles.py``);
* :func:`repro.clustering.cluster_population` and
  :func:`repro.clustering.reproject_population` against per-model,
  per-row loops;
* :func:`repro.bespoke.synthesis.synthesize_population` against
  ``report_from_circuit(build_bespoke_circuit(...))`` per model;
* the vectorized distinct-product counter against Python ``set`` counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cluster_weights_reference,
    distinct_products_reference,
    kmeans_1d_reference,
    reproject_reference,
)
from strategies import rng_seeds, weight_tensors

from repro.bespoke import BespokeConfig, build_bespoke_circuit, report_from_circuit
from repro.bespoke.layer_circuit import distinct_products_per_input
from repro.bespoke.synthesis import synthesize_cost_only, synthesize_population
from repro.clustering import (
    cluster_model_weights,
    cluster_population,
    distinct_products,
    group_sums,
    kmeans_1d,
    kmeans_rows,
    reproject_population,
)
from repro.hardware.arithmetic import distinct_magnitude_counts
from repro.nn import build_mlp
from repro.pruning import prune_by_magnitude
from repro.quantization import attach_quantizers

_POOL = (-0.0, 0.0, 0.5, -0.5, 1.25, 3.0, -2.0, 1e-3)


@st.composite
def kmeans_rows_case(draw):
    """Rows of length 1–16 (so clusters of 8+ members occur) with k 1–8."""
    n_rows = draw(st.integers(1, 6))
    rows = []
    for _ in range(n_rows):
        length = draw(st.integers(1, 16))
        kind = draw(st.sampled_from(["floats", "pool", "constant"]))
        if kind == "floats":
            row = draw(st.lists(
                st.floats(-8.0, 8.0, allow_nan=False, width=64), min_size=length, max_size=length
            ))
        elif kind == "pool":
            row = draw(st.lists(st.sampled_from(_POOL), min_size=length, max_size=length))
        else:
            row = [draw(st.sampled_from(_POOL))] * length
        rows.append(np.asarray(row, dtype=np.float64))
    budgets = [draw(st.integers(1, 8)) for _ in rows]
    seeds = [draw(st.one_of(st.integers(0, 3), rng_seeds)) for _ in rows]
    return rows, budgets, seeds


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestKMeansRows:
    @given(case=kmeans_rows_case())
    @settings(max_examples=150, deadline=None)
    def test_each_row_equals_the_per_row_reference(self, case):
        rows, budgets, seeds = case
        result = kmeans_rows(np.concatenate(rows), [r.size for r in rows], budgets, seeds)
        for index, (row, budget, seed) in enumerate(zip(rows, budgets, seeds)):
            expected = kmeans_1d_reference(row, budget, seed=seed)
            got = result.row(index)
            assert _same(got.centroids, expected.centroids)
            assert got.assignments.dtype == expected.assignments.dtype
            assert _same(got.assignments, expected.assignments)
            assert got.n_iterations == expected.n_iterations
            assert _same(np.float64(got.inertia), np.float64(expected.inertia))

    @given(case=kmeans_rows_case(), max_iterations=st.integers(0, 3),
           init=st.sampled_from(["kmeans++", "linear", "quantile"]))
    @settings(max_examples=60, deadline=None)
    def test_iteration_caps_and_inits(self, case, max_iterations, init):
        rows, budgets, seeds = case
        result = kmeans_rows(
            np.concatenate(rows), [r.size for r in rows], budgets, seeds,
            max_iterations=max_iterations, init=init,
        )
        for index, (row, budget, seed) in enumerate(zip(rows, budgets, seeds)):
            expected = kmeans_1d_reference(
                row, budget, max_iterations=max_iterations, seed=seed, init=init
            )
            got = result.row(index)
            assert _same(got.centroids, expected.centroids)
            assert _same(got.assignments, expected.assignments)
            assert got.n_iterations == expected.n_iterations

    def test_underflowing_distances_repeat_the_first_centroid(self):
        # Squared distances of ~1e-170 underflow to 0: seeding stops early.
        row = np.array([1e-170, 2e-170, 3e-170, 4e-170])
        expected = kmeans_1d_reference(row, 3, seed=5)
        got = kmeans_1d(row, 3, seed=5)
        assert _same(got.centroids, expected.centroids)
        assert _same(got.assignments, expected.assignments)

    def test_long_row_equals_reference(self):
        values = np.random.default_rng(0).normal(size=300)
        expected = kmeans_1d_reference(values, 8, seed=3)
        got = kmeans_1d(values, 8, seed=3)
        assert _same(got.centroids, expected.centroids)
        assert got.n_iterations == expected.n_iterations

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            kmeans_rows(np.ones(3), [3, 0], 2)
        with pytest.raises(ValueError, match="n_clusters"):
            kmeans_rows(np.ones(3), [3], 0)
        with pytest.raises(ValueError, match="seeds"):
            kmeans_rows(np.ones(3), [1, 2], 2, seeds=[0])


class TestGroupSums:
    @given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=64), max_size=40),
           seed=rng_seeds)
    @settings(max_examples=100, deadline=None)
    def test_matches_add_reduce_per_group(self, values, seed):
        values = np.asarray(values, dtype=np.float64)
        groups = np.random.default_rng(seed).integers(0, 3, size=values.size)
        sums, counts = group_sums(values, groups, 4)
        for group in range(4):
            members = values[groups == group]
            assert counts[group] == members.size
            assert _same(sums[group], np.add.reduce(members))


def _clustered_population(seed: int, n_models: int):
    """Same-topology models; every other one pruned (masked zeros)."""
    rng = np.random.default_rng(seed)
    hidden = int(rng.integers(4, 12))
    models = []
    for index in range(n_models):
        model = build_mlp(7, [hidden], 4, seed=seed + index)
        if index % 2:
            prune_by_magnitude(model, [0.5, 0.3], global_ranking=False)
        models.append(model)
    return models


class TestClusterPopulation:
    @given(seed=st.integers(0, 2**16), n_models=st.integers(1, 5), budget=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_equals_per_row_clustering(self, seed, n_models, budget):
        models = _clustered_population(seed, n_models)
        expected = [
            [
                cluster_weights_reference(
                    layer.weights,
                    layer.mask if layer.mask is not None else np.ones_like(layer.weights),
                    budget,
                    seed + index,
                )
                for layer in model.dense_layers
            ]
            for index, model in enumerate(models)
        ]
        results = cluster_population(
            models, [budget] * n_models, [seed + i for i in range(n_models)]
        )
        for model, weights, result in zip(models, expected, results):
            for layer, reference in zip(model.dense_layers, weights):
                assert _same(layer.weights, reference)
            assert result.total_distinct_products == distinct_products(model)
            assert result.total_connections == model.n_active_connections()

    def test_population_result_equals_one_model_result(self):
        models = _clustered_population(3, 3)
        singles = [model.clone() for model in models]
        batched = cluster_population(models, [(2, 3), 4, (1, 5)], [7, 8, 9])
        for model, single, budget, seed, result in zip(
            models, singles, [(2, 3), 4, (1, 5)], [7, 8, 9], batched
        ):
            alone = cluster_model_weights(single, budget, seed=seed)
            assert result.as_dict() == alone.as_dict()
            for ours, theirs in zip(result.per_layer, alone.per_layer):
                assert all(_same(a, b) for a, b in zip(ours.centroids, theirs.centroids))
                assert all(_same(a, b) for a, b in zip(ours.assignments, theirs.assignments))

    @given(seed=st.integers(0, 2**16), n_models=st.integers(1, 4),
           per_position=st.booleans(), noise=st.floats(1e-6, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_reprojection_equals_per_row_loop(self, seed, n_models, per_position, noise):
        models = _clustered_population(seed, n_models)
        budgets = [3, (2, 6), 9, (1, 1)][:n_models]
        results = cluster_population(models, budgets, list(range(n_models)), per_position)
        rng = np.random.default_rng(seed)
        for model in models:  # fine-tuning moves every weight a little
            for layer in model.dense_layers:
                layer.weights = layer.weights + rng.normal(scale=noise, size=layer.weights.shape)
        references = [model.clone() for model in models]
        for reference, result in zip(references, results):
            reproject_reference(reference, result)
        skipped = models[0].clone()
        reproject_population(models + [skipped], results + [None])
        for model, reference in zip(models, references):
            for ours, theirs in zip(model.dense_layers, reference.dense_layers):
                assert _same(ours.weights, theirs.weights)


    @pytest.mark.parametrize("per_position", [True, False])
    def test_fully_pruned_layers(self, per_position):
        # No kept weight anywhere: nothing to cluster, nothing to re-project.
        models = _clustered_population(0, 2)
        for layer in models[0].dense_layers:
            layer.mask = np.zeros_like(layer.weights)
        results = cluster_population(models, [2, 2], [0, 1], per_position)
        assert results[0].total_connections == 0
        assert results[0].total_distinct_products == 0
        for model in models:
            for layer in model.dense_layers:
                layer.weights = layer.weights + 0.25
        references = [model.clone() for model in models]
        for reference, result in zip(references, results):
            reproject_reference(reference, result)
        reproject_population(models, results)
        for model, reference in zip(models, references):
            for ours, theirs in zip(model.dense_layers, reference.dense_layers):
                assert _same(ours.weights, theirs.weights)


def _minimized_models(seed: int, n_models: int):
    rng = np.random.default_rng(seed)
    hidden = [int(rng.integers(3, 12)) for _ in range(int(rng.integers(1, 3)))]
    models, bits = [], []
    for index in range(n_models):
        model = build_mlp(8, hidden, 5, seed=seed)
        n_layers = len(model.dense_layers)
        if rng.random() < 0.7:
            prune_by_magnitude(
                model, [float(rng.choice([0.0, 0.4, 0.9, 0.999])) for _ in range(n_layers)],
                global_ranking=False,
            )
        if rng.random() < 0.5:
            cluster_model_weights(model, [int(rng.integers(1, 5)) for _ in range(n_layers)],
                                  seed=index)
        layer_bits = [int(rng.integers(2, 9)) for _ in range(n_layers)]
        if rng.random() < 0.6:
            attach_quantizers(model, layer_bits)
        models.append(model)
        bits.append(layer_bits)
    return models, bits


def _assert_reports_equal(got, expected):
    assert got == expected
    assert list(got.total.gate_counts) == list(expected.total.gate_counts)
    for ours, theirs in ((got.by_kind, expected.by_kind), (got.by_layer, expected.by_layer)):
        assert list(ours) == list(theirs)
        for key in theirs:
            assert list(ours[key].gate_counts) == list(theirs[key].gate_counts)
    assert list(got.component_counts) == list(expected.component_counts)
    assert repr(got) == repr(expected)


class TestSynthesizePopulation:
    @given(seed=st.integers(0, 2**16), n_models=st.integers(1, 5),
           share=st.booleans(), method=st.sampled_from(["csd", "binary"]),
           io=st.booleans(), input_bits=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_each_report_equals_the_netlist_report(
        self, seed, n_models, share, method, io, input_bits
    ):
        models, bits = _minimized_models(seed, n_models)
        configs = [
            BespokeConfig(input_bits=input_bits, weight_bits=layer_bits, share_products=share,
                          multiplier_method=method, include_io_registers=io)
            for layer_bits in bits
        ]
        names = [f"design{i}" for i in range(n_models)]
        reports = synthesize_population(models, configs, names=names)
        for model, config, name, report in zip(models, configs, names, reports):
            expected = report_from_circuit(build_bespoke_circuit(model, config, name=name))
            _assert_reports_equal(report, expected)

    def test_one_architecture_and_convention_per_call(self):
        first, _ = _minimized_models(1, 2)
        second, _ = _minimized_models(2, 1)
        assert synthesize_population([]) == []
        with pytest.raises(ValueError, match="one architecture"):
            synthesize_population([first[0], second[0]])
        with pytest.raises(ValueError, match="one architecture"):
            synthesize_population(first, [BespokeConfig(), BespokeConfig(share_products=False)])
        reports = synthesize_population(first, [BespokeConfig(4, 3), BespokeConfig(4, 6)])
        for model, bits, report in zip(first, (3, 6), reports):
            _assert_reports_equal(report, synthesize_cost_only(model, BespokeConfig(4, bits)))


class TestDistinctProducts:
    @given(weights=weight_tensors())
    @settings(max_examples=80, deadline=None)
    def test_float_rows_match_set_counts(self, weights):
        weights = np.where(np.abs(weights) < 1.0, 0.0, np.round(weights, 1))
        assert distinct_magnitude_counts(weights).tolist() == distinct_products_reference(weights)

    @given(seed=rng_seeds)
    @settings(max_examples=40, deadline=None)
    def test_integer_rows_match_set_counts(self, seed):
        weights = np.random.default_rng(seed).integers(-4, 5, size=(6, 9))
        expected = [len(set(abs(int(v)) for v in row if v != 0)) for row in weights]
        assert distinct_products_per_input(weights) == expected

    def test_model_total_matches_set_counts(self):
        model = build_mlp(6, (8,), 4, seed=0)
        cluster_model_weights(model, 2, seed=0)
        expected = sum(
            sum(distinct_products_reference(layer.effective_weights()))
            for layer in model.dense_layers
        )
        assert distinct_products(model) == expected
