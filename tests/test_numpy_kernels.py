"""The population kernels' direct numpy calls against their serial oracles.

The stacked trainer, the batched fixed-point simulator, the vectorized
NSGA-II ranking and the Monte Carlo fault sampler each run a handful of
numpy kernels over a population axis. Every one of them has a serial
counterpart that defines the result: the per-model training loop in
``tests/oracles.py`` (per-step quantizer calls, per-array Adam),
``FixedPointSimulator.simulate_batch``, the reference non-dominated sort and
crowding distance, and per-trial draw sampling. The tests below pin each
kernel to its oracle byte for byte (float kernels) or exactly (integer and
index kernels), so any change to the float operation order shows up here
before it shows up as a drifted golden front.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from oracles import adam_reference, train_reference

from repro.bespoke import BespokeConfig, FixedPointSimulator, population_accuracy
from repro.bespoke.simulator import simulate_population
from repro.hardware.fixed_point import max_symmetric_level
from repro.nn.network import build_mlp
from repro.nn.optimizers import StackedAdam, adam_step
from repro.nn.stacked import TrainerConfig, finetune_stacked, predict_stacked, quantize_into
from repro.pruning.magnitude import prune_by_magnitude
from repro.quantization.qat import attach_quantizers
from repro.quantization.quantizers import SymmetricQuantizer
from repro.reliability import FaultInjectionConfig
from repro.reliability.monte_carlo import (
    _HALF_U64,
    _draw_matrix,
    _draws_per_trial,
    _fault_sites,
    _layer_flats,
    _sample_patterns,
    _trial_draws,
    fault_trial_seed,
)
from repro.search.nsga2 import (
    crowding_distance,
    crowding_distance_reference,
    dominates,
    fast_non_dominated_sort,
    fast_non_dominated_sort_reference,
    nsga2_rank,
    select_survivors,
)

BIT_WIDTHS = [2, 3, 4, 6, 8]


def _levels(scale, bits, shape):
    """Per-element ``(scale, -max_level, +max_level)`` buffers for ``quantize_into``."""
    max_level = float(max_symmetric_level(bits))
    return (
        np.full(shape, scale),
        np.full(shape, -max_level),
        np.full(shape, max_level),
    )


# -- fake quantization --------------------------------------------------------------


class TestQuantizeInto:
    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    def test_matches_the_serial_quantizer(self, bits):
        values = np.random.default_rng(bits).standard_normal((4, 25)) * 3
        quantizer = SymmetricQuantizer(bits=bits).calibrate(values)
        scale, neg, pos = _levels(quantizer.scale, bits, values.shape)
        out = np.empty_like(values)
        quantize_into(values, scale, neg, pos, out)
        assert out.tobytes() == quantizer(values).tobytes()

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    def test_outputs_are_bounded_integral_levels(self, bits):
        values = np.random.default_rng(100 + bits).standard_normal((3, 40)) * 10
        scale, neg, pos = _levels(0.25, bits, values.shape)
        out = quantize_into(values, scale, neg, pos, np.empty_like(values))
        levels = out / scale
        assert np.array_equal(levels, np.rint(levels))
        assert levels.max() <= max_symmetric_level(bits)
        assert levels.min() >= -max_symmetric_level(bits)

    def test_per_row_formats_match_row_by_row_quantizers(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((len(BIT_WIDTHS), 30))
        quantizers = [
            SymmetricQuantizer(bits=bits).calibrate(row)
            for bits, row in zip(BIT_WIDTHS, values)
        ]
        scale = np.stack([np.full(30, q.scale) for q in quantizers])
        pos = np.stack([np.full(30, float(q.max_level)) for q in quantizers])
        out = quantize_into(values, scale, -pos, pos, np.empty_like(values))
        for row, quantizer, expected_row in zip(out, quantizers, values):
            assert row.tobytes() == quantizer(expected_row).tobytes()

    def test_negative_zero_is_normalized(self):
        values = np.array([-0.2, -0.49, 0.2, -0.0])
        scale, neg, pos = _levels(1.0, 4, values.shape)
        out = quantize_into(values, scale, neg, pos, np.empty_like(values))
        assert np.array_equal(out, np.zeros(4))
        assert not np.signbit(out).any()

    def test_saturates_at_the_top_levels(self):
        values = np.array([-1e6, -9.0, 9.0, 1e6])
        scale, neg, pos = _levels(0.5, 3, values.shape)
        out = quantize_into(values, scale, neg, pos, np.empty_like(values))
        assert out.tolist() == [-1.5, -1.5, 1.5, 1.5]

    def test_rounds_half_to_even(self):
        values = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        scale, neg, pos = _levels(1.0, 8, values.shape)
        out = quantize_into(values, scale, neg, pos, np.empty_like(values))
        assert out.tolist() == [0.0, 2.0, 2.0, 0.0, -2.0, -2.0]

    def test_writes_into_and_returns_out(self):
        values = np.linspace(-1, 1, 9)
        scale, neg, pos = _levels(0.1, 4, values.shape)
        out = np.full_like(values, np.nan)
        assert quantize_into(values, scale, neg, pos, out) is out
        assert not np.isnan(out).any()

    def test_leaves_its_inputs_untouched(self):
        values = np.random.default_rng(4).standard_normal(16)
        scale, neg, pos = _levels(0.3, 4, values.shape)
        before = [array.copy() for array in (values, scale, neg, pos)]
        quantize_into(values, scale, neg, pos, np.empty_like(values))
        for array, copy in zip((values, scale, neg, pos), before):
            assert array.tobytes() == copy.tobytes()


# -- Adam ------------------------------------------------------------------------------


def _adam_inputs(seed, shape):
    rng = np.random.default_rng(seed)
    params, grads, m = (rng.standard_normal(shape) for _ in range(3))
    v = np.abs(rng.standard_normal(shape))
    return params, grads, m, v


def _fused(params, grads, m, v, lr, beta1, beta2, epsilon, t):
    params, m, v = params.copy(), m.copy(), v.copy()
    step, sq, denom = (np.empty_like(params) for _ in range(3))
    adam_step(grads, m, v, step, sq, denom, lr, beta1, beta2, epsilon, t)
    params -= step
    return params, m, v


class TestAdamStep:
    @pytest.mark.parametrize("t", [1, 2, 10, 1000])
    def test_matches_the_legacy_expression(self, t):
        params, grads, m, v = _adam_inputs(t, (3, 20))
        fused = _fused(params, grads, m, v, 0.003, 0.9, 0.999, 1e-8, t)
        legacy = adam_reference(params, grads, m, v, 0.003, 0.9, 0.999, 1e-8, t)
        for ours, theirs in zip(fused, legacy):
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize(
        "beta1, beta2, epsilon", [(0.0, 0.0, 1e-8), (0.5, 0.9, 1e-3), (0.99, 0.9999, 1e-12)]
    )
    def test_matches_the_legacy_expression_for_any_hyperparameters(
        self, beta1, beta2, epsilon
    ):
        params, grads, m, v = _adam_inputs(11, (2, 15))
        fused = _fused(params, grads, m, v, 0.01, beta1, beta2, epsilon, 3)
        legacy = adam_reference(params, grads, m, v, 0.01, beta1, beta2, epsilon, 3)
        for ours, theirs in zip(fused, legacy):
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_rate_column_equals_scalar_rate_per_row(self, n_rows):
        params, grads, m, v = _adam_inputs(20 + n_rows, (n_rows, 12))
        rates = np.linspace(0.001, 0.01, n_rows).reshape(-1, 1)
        stacked = _fused(params, grads, m, v, rates, 0.9, 0.999, 1e-8, 5)
        for row in range(n_rows):
            lone = _fused(
                params[row], grads[row], m[row], v[row],
                float(rates[row, 0]), 0.9, 0.999, 1e-8, 5,
            )
            for ours, theirs in zip(stacked, lone):
                assert ours[row].tobytes() == theirs.tobytes()

    def test_updates_moments_in_place_and_keeps_gradients(self):
        _, grads, m, v = _adam_inputs(30, (8,))
        grads_before = grads.copy()
        expected_m = 0.9 * m + (1.0 - 0.9) * grads
        expected_v = 0.999 * v + (1.0 - 0.999) * (grads * grads)
        step, sq, denom = (np.empty_like(m) for _ in range(3))
        adam_step(grads, m, v, step, sq, denom, 0.01, 0.9, 0.999, 1e-8, 1)
        assert m.tobytes() == expected_m.tobytes()
        assert v.tobytes() == expected_v.tobytes()
        assert grads.tobytes() == grads_before.tobytes()

    def test_first_step_moves_every_weight_by_about_the_rate(self):
        grads = np.array([3.0, -0.5, 1e-3, -20.0])
        zeros = np.zeros(4)
        params, _, _ = _fused(zeros, grads, zeros, zeros, 0.01, 0.9, 0.999, 1e-8, 1)
        np.testing.assert_allclose(params, -0.01 * np.sign(grads), rtol=1e-4)

    def test_zero_gradients_from_zero_moments_leave_params(self):
        params = np.arange(6.0)
        zeros = np.zeros(6)
        moved, m, v = _fused(params, zeros, zeros, zeros, 0.1, 0.9, 0.999, 1e-8, 1)
        assert moved.tobytes() == params.tobytes()
        assert not m.any() and not v.any()


def _parameter_sets(seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((5, 4)), rng.standard_normal(4), rng.standard_normal((4, 3))]


class TestAdamPaths:
    @pytest.mark.parametrize("n_steps", [1, 5, 20])
    def test_stacked_rows_follow_single_model_adam(self, n_steps):
        rates = [0.001, 0.004, 0.02]
        rng = np.random.default_rng(50 + n_steps)
        stack = rng.standard_normal((3, 17))
        singles = [row.copy() for row in stack]
        moments = [(np.zeros(17), np.zeros(17)) for _ in rates]
        stacked = StackedAdam(rates)
        for step in range(1, n_steps + 1):
            grads = rng.standard_normal(stack.shape)
            stacked.update(stack, grads)
            for index, rate in enumerate(rates):
                singles[index], m, v = adam_reference(
                    singles[index], grads[index], *moments[index], rate, 0.9, 0.999, 1e-8, step
                )
                moments[index] = (m, v)
        for index, row in enumerate(singles):
            assert stack[index].tobytes() == row.tobytes()


# -- Monte Carlo draws -------------------------------------------------------------------


class TestDrawMatrix:
    def test_words_are_big_endian(self):
        config = FaultInjectionConfig(fault_rate=0.1, n_trials=1, seed=9)
        matrix = _draw_matrix(config, [0], 4)
        raw = _trial_draws(fault_trial_seed(9, 0), 4)
        expected = [int.from_bytes(raw[i : i + 8], "big") for i in range(0, 32, 8)]
        assert matrix[0].tolist() == expected

    @pytest.mark.parametrize("n_draws", [1, 7, 64])
    def test_shape_and_native_dtype(self, n_draws):
        config = FaultInjectionConfig(fault_rate=0.1, n_trials=3, seed=1)
        matrix = _draw_matrix(config, range(3), n_draws)
        assert matrix.shape == (3, n_draws)
        assert matrix.dtype == np.uint64
        assert matrix.dtype.isnative

    def test_batched_rows_equal_one_trial_at_a_time(self):
        config = FaultInjectionConfig(fault_rate=0.1, n_trials=6, seed=2)
        batched = _draw_matrix(config, range(6), 10)
        for trial in range(6):
            assert np.array_equal(batched[trial], _draw_matrix(config, [trial], 10)[0])

    def test_rows_follow_the_trial_order(self):
        config = FaultInjectionConfig(fault_rate=0.1, n_trials=4, seed=5)
        forward = _draw_matrix(config, [0, 1, 2, 3], 6)
        permuted = _draw_matrix(config, [2, 0, 3, 1], 6)
        assert np.array_equal(permuted, forward[[2, 0, 3, 1]])

    def test_more_draws_extend_the_same_stream(self):
        config = FaultInjectionConfig(fault_rate=0.1, n_trials=2, seed=6)
        short = _draw_matrix(config, range(2), 5)
        long = _draw_matrix(config, range(2), 12)
        assert np.array_equal(long[:, :5], short)

    def test_seeds_give_different_streams(self):
        first = _draw_matrix(FaultInjectionConfig(fault_rate=0.1, seed=0), [0], 8)
        second = _draw_matrix(FaultInjectionConfig(fault_rate=0.1, seed=1), [0], 8)
        assert not np.array_equal(first, second)

    def test_no_trials_gives_an_empty_matrix(self):
        config = FaultInjectionConfig(fault_rate=0.1, seed=0)
        assert _draw_matrix(config, [], 5).shape == (0, 5)

    def test_stream_is_pinned(self):
        digest = hashlib.shake_256((123).to_bytes(8, "big")).digest(16)
        assert _trial_draws(123, 2) == digest


# -- Monte Carlo site sampling -----------------------------------------------------------


@pytest.fixture(scope="module")
def fault_simulator(seeds_model):
    return FixedPointSimulator(seeds_model, BespokeConfig(input_bits=4, weight_bits=4))


def _patterns(simulator, config, trials):
    sites = _fault_sites(simulator, config)
    flats = _layer_flats(simulator, config)
    draws = _draw_matrix(config, trials, _draws_per_trial(sites))
    return sites, draws, _sample_patterns(draws, sites, flats, config)


class TestSamplePatterns:
    @pytest.mark.parametrize("fault_model", ["open", "short", "level_shift"])
    def test_batched_sampling_equals_per_trial_sampling(self, fault_simulator, fault_model):
        config = FaultInjectionConfig(
            fault_rate=0.2, fault_model=fault_model, n_trials=5, seed=4, include_bias=True
        )
        _, _, batched = _patterns(fault_simulator, config, range(5))
        for trial in range(5):
            _, _, single = _patterns(fault_simulator, config, [trial])
            for (b_idx, b_val), (s_idx, s_val) in zip(batched, single):
                assert np.array_equal(b_idx[trial], s_idx[0])
                assert np.array_equal(b_val[trial], s_val[0])

    @pytest.mark.parametrize("fault_rate", [0.05, 0.3, 0.9])
    def test_hits_are_the_smallest_keys(self, fault_simulator, fault_rate):
        config = FaultInjectionConfig(fault_rate=fault_rate, n_trials=4, seed=7)
        sites, draws, pattern = _patterns(fault_simulator, config, range(4))
        cursor = 0
        for site, (indices, _) in zip(sites, pattern):
            keys = draws[:, cursor : cursor + site.eligible.size]
            cursor += site.eligible.size + site.n_hit
            for row in range(draws.shape[0]):
                smallest = np.argsort(keys[row], kind="stable")[: site.n_hit]
                assert indices[row].tolist() == site.eligible[np.sort(smallest)].tolist()

    def test_hits_are_sorted_unique_eligible_sites(self, fault_simulator):
        config = FaultInjectionConfig(fault_rate=0.4, n_trials=6, seed=8, include_bias=True)
        sites, _, pattern = _patterns(fault_simulator, config, range(6))
        for site, (indices, values) in zip(sites, pattern):
            assert indices.shape == values.shape == (6, site.n_hit)
            for row in indices:
                assert np.all(np.diff(row) > 0)
                assert np.isin(row, site.eligible).all()

    def test_open_faults_zero_the_hit_sites(self, fault_simulator):
        config = FaultInjectionConfig(fault_rate=0.5, fault_model="open", n_trials=3, seed=1)
        _, _, pattern = _patterns(fault_simulator, config, range(3))
        for _, values in pattern:
            assert values.dtype == np.int64
            assert not values.any()

    def test_short_faults_take_the_signed_extreme(self, fault_simulator):
        config = FaultInjectionConfig(fault_rate=0.5, fault_model="short", n_trials=3, seed=2)
        sites, draws, pattern = _patterns(fault_simulator, config, range(3))
        cursor = 0
        for site, (_, values) in zip(sites, pattern):
            signs = draws[:, cursor + site.eligible.size : cursor + site.eligible.size + site.n_hit]
            cursor += site.eligible.size + site.n_hit
            expected = np.where(signs < _HALF_U64, site.extreme, -site.extreme)
            assert np.array_equal(values, expected)

    def test_level_shift_moves_one_step_within_range(self, fault_simulator):
        config = FaultInjectionConfig(
            fault_rate=0.5, fault_model="level_shift", n_trials=4, seed=3
        )
        sites, _, pattern = _patterns(fault_simulator, config, range(4))
        flats = _layer_flats(fault_simulator, config)
        for site, flat, (indices, values) in zip(sites, flats, pattern):
            shift = np.abs(values - flat[indices])
            clipped = np.abs(values) == site.extreme
            assert np.all((shift == config.level_shift_levels) | clipped)
            assert np.abs(values).max() <= site.extreme

    def test_zero_rate_hits_nothing(self, fault_simulator):
        config = FaultInjectionConfig(fault_rate=0.0, n_trials=2, seed=0)
        _, _, pattern = _patterns(fault_simulator, config, range(2))
        for indices, values in pattern:
            assert indices.shape == values.shape == (2, 0)

    def test_full_rate_hits_every_site(self, fault_simulator):
        config = FaultInjectionConfig(fault_rate=1.0, n_trials=2, seed=0)
        sites, _, pattern = _patterns(fault_simulator, config, range(2))
        for site, (indices, _) in zip(sites, pattern):
            for row in indices:
                assert np.array_equal(row, site.eligible)


# -- NSGA-II ---------------------------------------------------------------------------


def _pairwise_domination(objectives):
    n = len(objectives)
    return {(i, j) for i in range(n) for j in range(n) if dominates(objectives[i], objectives[j])}


class TestNsga2Kernels:
    @pytest.mark.parametrize("n_objectives", [1, 2, 3, 5])
    def test_sort_matches_reference(self, n_objectives):
        objectives = np.random.default_rng(n_objectives).standard_normal((30, n_objectives))
        objectives[4] = objectives[17]
        assert fast_non_dominated_sort(objectives) == fast_non_dominated_sort_reference(
            objectives
        )

    @pytest.mark.parametrize("n_objectives", [2, 3])
    def test_sort_matches_reference_on_tied_grids(self, n_objectives):
        grid = np.random.default_rng(60 + n_objectives).integers(0, 3, size=(40, n_objectives))
        objectives = grid.astype(np.float64)
        assert fast_non_dominated_sort(objectives) == fast_non_dominated_sort_reference(
            objectives
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fronts_respect_pairwise_dominance(self, seed):
        objectives = np.random.default_rng(70 + seed).standard_normal((18, 2)).tolist()
        fronts = fast_non_dominated_sort(objectives)
        rank = {i: r for r, front in enumerate(fronts) for i in front}
        assert sorted(rank) == list(range(18))
        for i, j in _pairwise_domination(objectives):
            assert rank[i] < rank[j]
        for front in fronts:
            for i in front:
                for j in front:
                    assert not dominates(objectives[i], objectives[j])

    @pytest.mark.parametrize("n_objectives", [2, 3, 5])
    def test_crowding_matches_reference(self, n_objectives):
        objectives = np.random.default_rng(80 + n_objectives).standard_normal((15, n_objectives))
        objectives[2] = objectives[9]
        assert (
            crowding_distance(objectives).tobytes()
            == crowding_distance_reference(objectives).tobytes()
        )

    def test_crowding_matches_reference_with_constant_objective(self):
        objectives = np.random.default_rng(90).standard_normal((10, 3))
        objectives[:, 1] = 0.25
        assert (
            crowding_distance(objectives).tobytes()
            == crowding_distance_reference(objectives).tobytes()
        )

    def test_rank_keys_follow_the_reference_fronts(self):
        objectives = np.random.default_rng(91).standard_normal((25, 3))
        keys = nsga2_rank(objectives)
        fronts = fast_non_dominated_sort_reference(objectives)
        for r, front in enumerate(fronts):
            distances = crowding_distance_reference(objectives[front])
            for i, distance in zip(front, distances):
                assert keys[i] == (r, -distance)

    @pytest.mark.parametrize("n_survivors", [1, 12, 25])
    def test_survivors_are_the_best_ranked(self, n_survivors):
        objectives = np.random.default_rng(92).standard_normal((25, 2))
        keys = nsga2_rank(objectives)
        survivors = select_survivors(objectives, n_survivors)
        assert len(survivors) == n_survivors == len(set(survivors))
        worst_kept = max(keys[i] for i in survivors)
        for i in set(range(25)) - set(survivors):
            assert keys[i] >= worst_kept


# -- batched fixed-point simulation ------------------------------------------------------


def _simulators(model, weight_bits, input_bits=4):
    return [
        FixedPointSimulator(model, BespokeConfig(input_bits=input_bits, weight_bits=w))
        for w in weight_bits
    ]


class TestSimulatorPopulationKernels:
    @pytest.mark.parametrize("weight_bits", [(2,), (3, 4, 6), (8, 2, 8, 5)])
    def test_scores_equal_simulate_batch(self, seeds_model, seeds_data, weight_bits):
        simulators = _simulators(seeds_model, weight_bits)
        features = seeds_data.test.features
        scores = simulate_population(simulators, features)
        assert scores.dtype == np.int64
        for g, simulator in enumerate(simulators):
            assert np.array_equal(scores[g], simulator.simulate_batch(features))

    @pytest.mark.parametrize("input_bits", [2, 4, 6])
    def test_accuracy_equals_evaluate_accuracy(self, seeds_model, seeds_data, input_bits):
        simulators = _simulators(seeds_model, (3, 4, 6), input_bits=input_bits)
        features, labels = seeds_data.test.features, seeds_data.test.labels
        batched = population_accuracy(simulators, features, labels)
        serial = [sim.evaluate_accuracy(features, labels) for sim in simulators]
        assert batched.tolist() == serial

    def test_argmax_ties_go_to_the_first_class(self, seeds_model, seeds_data):
        simulators = _simulators(seeds_model, (2,))
        features = seeds_data.test.features
        scores = simulate_population(simulators, features)[0]
        predictions = simulators[0].predict(features)
        assert np.array_equal(predictions, np.argmax(scores, axis=-1))
        tied = scores == scores.max(axis=-1, keepdims=True)
        assert np.array_equal(predictions, tied.argmax(axis=-1))


# -- stacked training and prediction -----------------------------------------------------


def _quantized_population(n_features=7, n_classes=3, hidden=(4,)):
    models = []
    for bits, do_prune, seed in [(3, True, 0), (4, False, 1), (6, True, 2)]:
        model = build_mlp(n_features, list(hidden), n_classes, seed=seed)
        if do_prune:
            prune_by_magnitude(model, [0.4] + [0.2] * len(hidden), global_ranking=False)
        attach_quantizers(model, bits)
        models.append(model)
    return models


class TestStackedKernels:
    @pytest.mark.parametrize("learning_rate", [0.001, 0.003, 0.03])
    def test_finetune_matches_serial(self, learning_rate):
        generator = np.random.default_rng(5)
        x = generator.normal(size=(120, 7))
        y = generator.integers(0, 3, size=120)
        seeds = [21, 22, 23]
        serial = _quantized_population()
        # finetune's schedule: patience max(3, epochs // 3).
        config = TrainerConfig(epochs=3, batch_size=32, early_stopping_patience=3)
        for model, seed in zip(serial, seeds):
            train_reference(
                model, x, y, learning_rate=learning_rate, config=config, seed=seed
            )
        stacked = _quantized_population()
        finetune_stacked(stacked, x, y, epochs=3, learning_rate=learning_rate, seeds=seeds)
        for a, b in zip(serial, stacked):
            for la, lb in zip(a.dense_layers, b.dense_layers):
                assert la.weights.tobytes() == lb.weights.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()

    @pytest.mark.parametrize("hidden", [(4,), (6, 3)])
    def test_predict_matches_serial(self, hidden):
        features = np.random.default_rng(8).normal(size=(50, 7))
        models = _quantized_population(hidden=hidden)
        expected = np.stack([model.predict(features) for model in models])
        assert np.array_equal(predict_stacked(models, features), expected)
