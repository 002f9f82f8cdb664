"""Bit-identity tests of the stacked population trainer.

The stacked trainer's contract is that genome ``g`` of a stack evolves
through exactly the float operations a one-model run applies to it alone,
and that a one-model run takes the float steps of the plain per-batch loop
in ``tests/oracles.py``. These tests train the same populations both ways
and assert byte equality of the resulting weights and the full training
histories — for mixed bit-widths, mixed pruning masks, per-genome seeds,
and populations whose genomes early-stop at different epochs (exercising
stack compaction).
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import adam_reference, gradients_reference, train_reference

from repro.nn.activations import Softmax
from repro.nn.layers import ActivationLayer, Dense, Layer
from repro.nn.network import MLP, build_mlp
from repro.nn.optimizers import StackedAdam
from repro.nn.stacked import (
    StackedTrainer,
    _softmax_cross_entropy_rows,
    finetune_stacked,
    predict_stacked,
    supports_stacking,
)
from repro.nn.trainer import TrainerConfig, finetune
from repro.pruning.magnitude import prune_by_magnitude
from repro.quantization.qat import attach_quantizers


def _problem(rng, n=260, n_features=9, n_classes=4):
    x = rng.normal(size=(n, n_features))
    y = rng.integers(0, n_classes, size=n)
    return x, y


def _population(n_features=9, n_classes=4, specs=None):
    """Heterogeneous population: varying bits, masks and initializations."""
    if specs is None:
        specs = [(2, True, 0), (3, False, 1), (4, True, 2), (8, True, 3), (6, False, 4)]
    models = []
    for bits, do_prune, seed in specs:
        model = build_mlp(n_features, [10], n_classes, seed=seed)
        if do_prune:
            prune_by_magnitude(model, [0.5, 0.3], global_ranking=False)
        attach_quantizers(model, bits)
        models.append(model)
    return models


def _assert_identical(reference_models, stacked_models, reference_hist, stacked_hist):
    assert len(reference_models) == len(stacked_models)
    for index, (a, b) in enumerate(zip(reference_models, stacked_models)):
        for la, lb in zip(a.dense_layers, b.dense_layers):
            assert la.weights.tobytes() == lb.weights.tobytes(), f"weights {index}"
            assert la.bias.tobytes() == lb.bias.tobytes(), f"bias {index}"
    for index, (ha, hb) in enumerate(zip(reference_hist, stacked_hist)):
        assert ha.as_dict() == hb.as_dict(), f"history {index}"


class TestStackedFinetuneBitIdentity:
    """A stacked population == one one-model ``finetune`` per genome."""

    def test_quantized_masked_population(self, rng):
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=70)
        seeds = [11, 12, 13, 14, 15]
        serial = _population()
        serial_hist = [
            finetune(m, x, y, xv, yv, epochs=8, learning_rate=0.003, seed=s)
            for m, s in zip(serial, seeds)
        ]
        stacked = _population()
        assert supports_stacking(stacked)
        stacked_hist = finetune_stacked(
            stacked, x, y, xv, yv, epochs=8, learning_rate=0.003, seeds=seeds
        )
        _assert_identical(serial, stacked, serial_hist, stacked_hist)

    def test_heterogeneous_early_stopping(self, rng):
        """Genomes stop at different epochs -> the stack compacts mid-run."""
        x, y = _problem(rng, n=300)
        xv, yv = _problem(rng, n=80)
        specs = [(b, i % 2 == 0, i) for i, b in enumerate([2, 3, 4, 6, 8, 5, 7, 3])]
        seeds = list(range(100, 108))
        serial = _population(specs=specs)
        serial_hist = [
            finetune(m, x, y, xv, yv, epochs=30, learning_rate=0.01, seed=s)
            for m, s in zip(serial, seeds)
        ]
        stacked = _population(specs=specs)
        stacked_hist = finetune_stacked(
            stacked, x, y, xv, yv, epochs=30, learning_rate=0.01, seeds=seeds
        )
        # The point of this configuration: stopping epochs must differ.
        assert len({h.epochs_run for h in serial_hist}) > 1
        _assert_identical(serial, stacked, serial_hist, stacked_hist)

    def test_no_validation_data(self, rng):
        x, y = _problem(rng)
        seeds = [5, 6, 7, 8, 9]
        serial = _population()
        serial_hist = [
            finetune(m, x, y, epochs=5, learning_rate=0.003, seed=s)
            for m, s in zip(serial, seeds)
        ]
        stacked = _population()
        stacked_hist = finetune_stacked(
            stacked, x, y, epochs=5, learning_rate=0.003, seeds=seeds
        )
        _assert_identical(serial, stacked, serial_hist, stacked_hist)

    def test_unquantized_population(self, rng):
        """Plain float fine-tuning (no quantizers, no fake-quantization pass)
        also stacks bit-identically."""
        x, y = _problem(rng)
        seeds = [1, 2, 3]
        serial = [build_mlp(9, [8], 4, seed=i) for i in range(3)]
        stacked = [build_mlp(9, [8], 4, seed=i) for i in range(3)]
        assert supports_stacking(stacked)
        serial_hist = [
            finetune(m, x, y, epochs=4, learning_rate=0.01, seed=s)
            for m, s in zip(serial, seeds)
        ]
        stacked_hist = finetune_stacked(
            stacked, x, y, epochs=4, learning_rate=0.01, seeds=seeds
        )
        _assert_identical(serial, stacked, serial_hist, stacked_hist)


class TestStackedPredictions:
    def test_predict_stacked_matches_serial(self, rng):
        x, y = _problem(rng)
        models = _population()
        seeds = [21, 22, 23, 24, 25]
        finetune_stacked(models, x, y, epochs=3, seeds=seeds)
        predictions = predict_stacked(models, x)
        assert predictions.shape == (len(models), x.shape[0])
        for index, model in enumerate(models):
            assert (predictions[index] == model.predict(x)).all()

    def test_predict_stacked_rejects_empty(self):
        with pytest.raises(ValueError):
            predict_stacked([], np.zeros((3, 4)))


class TestSupportsStacking:
    def test_rejects_empty_and_mismatched(self):
        assert not supports_stacking([])
        a = build_mlp(6, [8], 3, seed=0)
        b = build_mlp(6, [9], 3, seed=0)
        assert not supports_stacking([a, b])

    def test_rejects_custom_layers(self):
        class Scale(Layer):
            def forward(self, inputs):
                return 2.0 * inputs

        model = build_mlp(6, [8], 3, seed=0)
        model.layers.insert(2, Scale())
        assert not supports_stacking([model])
        with pytest.raises(ValueError, match="Scale layer"):
            StackedTrainer([model], learning_rate=0.01)

    def test_rejects_mixed_quantizer_patterns(self):
        a = build_mlp(6, [8], 3, seed=0)
        attach_quantizers(a, 4)
        b = build_mlp(6, [8], 3, seed=1)
        assert not supports_stacking([a, b])

    def test_rejects_frozen_scales(self):
        a = build_mlp(6, [8], 3, seed=0)
        quantizers = attach_quantizers(a, 4)
        quantizers[0].calibrate(a.dense_layers[0].weights)
        assert not supports_stacking([a])

    def test_constructor_raises_for_unstackable(self):
        a = build_mlp(6, [8], 3, seed=0)
        b = build_mlp(6, [9], 3, seed=0)
        with pytest.raises(ValueError, match="different architecture"):
            StackedTrainer([a, b], learning_rate=0.01)


class TestStackedAdam:
    def test_matches_per_model_adam(self, rng):
        """Each row of the stacked update == the per-array Adam expression."""
        n_models, size = 4, 23
        stacked_params = rng.normal(size=(n_models, size))
        rows = [stacked_params[i].copy() for i in range(n_models)]
        moments = [(np.zeros(size), np.zeros(size)) for _ in range(n_models)]
        rates = [0.01, 0.003, 0.02, 0.001]
        stacked = StackedAdam(rates)
        for step in range(1, 21):
            grads = rng.normal(size=(n_models, size))
            stacked.update(stacked_params, grads)
            for index, rate in enumerate(rates):
                rows[index], m, v = adam_reference(
                    rows[index], grads[index], *moments[index], rate, 0.9, 0.999, 1e-8, step
                )
                moments[index] = (m, v)
        for index in range(n_models):
            assert stacked_params[index].tobytes() == rows[index].tobytes()

    def test_compact_preserves_survivor_rows(self, rng):
        params = rng.normal(size=(3, 7))
        reference = params[1].copy().reshape(1, -1)
        stacked = StackedAdam([0.01, 0.01, 0.01])
        lone = StackedAdam([0.01])
        grads = rng.normal(size=(3, 7))
        stacked.update(params, grads)
        lone.update(reference, grads[1].copy().reshape(1, -1))
        keep = np.array([1], dtype=np.intp)
        params = params[keep]
        stacked.compact(keep)
        for _ in range(5):
            grad = rng.normal(size=(1, 7))
            stacked.update(params, grad)
            lone.update(reference, grad.copy())
        assert params.tobytes() == reference.tobytes()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            StackedAdam([])
        with pytest.raises(ValueError):
            StackedAdam([0.0])
        optimizer = StackedAdam([0.01])
        with pytest.raises(ValueError):
            optimizer.update(np.zeros((1, 3)), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            optimizer.update(np.zeros((2, 3)), np.zeros((2, 3)))


class TestTrainerConfigInteractions:
    def test_monitor_val_loss(self, rng):
        """The val_loss monitor drives identical early stopping either way."""
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=60)
        config = TrainerConfig(
            epochs=6, batch_size=32, early_stopping_patience=3, monitor="val_loss"
        )
        seeds = [41, 42, 43, 44, 45]
        serial = _population()
        serial_hist = [
            StackedTrainer([model], 0.003, config=config, seeds=[seed]).fit(x, y, xv, yv)[0]
            for model, seed in zip(serial, seeds)
        ]
        stacked = _population()
        trainer = StackedTrainer(stacked, 0.003, config=config, seeds=seeds)
        stacked_hist = trainer.fit(x, y, xv, yv)
        _assert_identical(serial, stacked, serial_hist, stacked_hist)


def _leading_activation_model():
    model = MLP()
    model.add(ActivationLayer("relu"))
    layer_rng = np.random.default_rng(5)
    model.add(Dense(9, 8, rng=layer_rng))
    model.add(ActivationLayer("relu"))
    model.add(Dense(8, 4, rng=layer_rng))
    return model


class TestAgainstReferenceLoop:
    """The stacked loop == one model, one batch and one array at a time."""

    SPECS = [(2, True, 0), (5, False, 1), (8, True, 2)]

    def _compare(self, make_models, x, y, xv, yv, config, learning_rate, seeds):
        reference = make_models()
        reference_hist = [
            train_reference(
                model, x, y, xv, yv, learning_rate=learning_rate, config=config, seed=seed
            )
            for model, seed in zip(reference, seeds)
        ]
        stacked = make_models()
        trainer = StackedTrainer(stacked, learning_rate, config=config, seeds=seeds)
        stacked_hist = trainer.fit(x, y, xv, yv)
        _assert_identical(reference, stacked, reference_hist, stacked_hist)
        return stacked_hist

    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_quantized_masked_models(self, rng, n_models, with_validation):
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=70) if with_validation else (None, None)
        config = TrainerConfig(epochs=6, batch_size=32, early_stopping_patience=3)
        self._compare(
            lambda: _population(specs=self.SPECS[:n_models]),
            x, y, xv, yv, config, 0.003, [31, 32, 33][:n_models],
        )

    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("with_validation", [True, False])
    def test_heterogeneous_early_stopping(self, rng, n_models, with_validation):
        x, y = _problem(rng, n=300)
        xv, yv = _problem(rng, n=80) if with_validation else (None, None)
        config = TrainerConfig(epochs=30, batch_size=32, early_stopping_patience=4)
        specs = [(3, True, 7), (6, False, 8), (4, True, 9)][:n_models]
        histories = self._compare(
            lambda: _population(specs=specs),
            x, y, xv, yv, config, 0.01, [51, 52, 53][:n_models],
        )
        assert all(h.epochs_run < 30 for h in histories)
        if n_models > 1:
            assert len({h.epochs_run for h in histories}) > 1

    @pytest.mark.parametrize("n_models", [1, 3])
    def test_float_models(self, rng, n_models):
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=60)
        config = TrainerConfig(epochs=5, batch_size=16, early_stopping_patience=None)
        self._compare(
            lambda: [build_mlp(9, [8], 4, seed=i) for i in range(n_models)],
            x, y, xv, yv, config, 0.01, [61, 62, 63][:n_models],
        )

    def test_leading_activation_layer(self, rng):
        """The dead-gradient skip applies only to the model's literal first
        layer: a Dense after a leading activation still propagates."""
        x, y = _problem(rng)
        config = TrainerConfig(epochs=3, batch_size=32)
        self._compare(lambda: [_leading_activation_model()], x, y, None, None, config, 0.003, [4])

    def test_monitor_val_loss_and_decay(self, rng):
        x, y = _problem(rng)
        xv, yv = _problem(rng, n=60)
        config = TrainerConfig(
            epochs=12, batch_size=64, early_stopping_patience=4, monitor="val_loss",
            lr_decay_factor=0.1, min_learning_rate=5e-3,
        )
        self._compare(
            lambda: _population(specs=self.SPECS), x, y, xv, yv, config, 0.01, [71, 72, 73]
        )


class TestReferenceGradients:
    def test_gradients_match_numerical(self, rng):
        """The oracle's backward pass is the gradient of its loss."""
        model = build_mlp(3, [4], 2, seed=5)
        x = rng.normal(size=(6, 3))
        targets = np.eye(2)[rng.integers(0, 2, size=6)]
        _, gradients = gradients_reference(model, x, targets)
        epsilon = 1e-6
        slots = [(layer, name) for layer in model.dense_layers for name in ("weights", "bias")]
        for (layer, name), grad in zip(slots, gradients):
            array = getattr(layer, name)
            numeric = np.zeros_like(array)
            for index in np.ndindex(array.shape):
                array[index] += epsilon
                plus = gradients_reference(model, x, targets)[0]
                array[index] -= 2 * epsilon
                minus = gradients_reference(model, x, targets)[0]
                array[index] += epsilon
                numeric[index] = (plus - minus) / (2 * epsilon)
            np.testing.assert_allclose(grad, numeric, atol=1e-6)


def _one_hot_targets(labels, n_classes):
    return np.eye(n_classes)[labels]


class TestTrainingLoss:
    """The softmax cross-entropy both the epoch loop and validation use."""

    def test_perfect_prediction_is_near_zero(self):
        targets = np.eye(3)[None]
        scores = 50.0 * targets
        assert _softmax_cross_entropy_rows(scores, targets)[0] < 1e-12

    @pytest.mark.parametrize("n_classes", [2, 3, 7])
    def test_uniform_prediction_is_log_classes(self, n_classes):
        targets = np.eye(n_classes)[None]
        scores = np.zeros((1, n_classes, n_classes))
        loss = _softmax_cross_entropy_rows(scores, targets)
        np.testing.assert_allclose(loss, [np.log(n_classes)], rtol=1e-12)

    def test_matches_softmax_activation_composition(self, rng):
        scores = rng.normal(size=(1, 8, 5))
        targets = _one_hot_targets(rng.integers(0, 5, size=8), 5)[None]
        probs = Softmax().forward(scores)
        expected = np.mean(-np.sum(targets * np.log(probs), axis=-1), axis=-1)
        np.testing.assert_allclose(
            _softmax_cross_entropy_rows(scores, targets), expected, rtol=1e-12
        )

    def test_large_logits_stay_finite(self):
        scores = np.array([[[1000.0, -1000.0], [-1000.0, 1000.0]]])
        wrong = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        loss = _softmax_cross_entropy_rows(scores, wrong)
        assert np.isfinite(loss).all()
        # Probabilities are clipped at 1e-12, so a confident miss costs -log(1e-12).
        np.testing.assert_allclose(loss, [-np.log(1e-12)], rtol=1e-12)

    def test_rows_are_independent_genomes(self, rng):
        scores = rng.normal(size=(3, 10, 4))
        targets = np.broadcast_to(_one_hot_targets(rng.integers(0, 4, size=10), 4), (3, 10, 4))
        stacked = _softmax_cross_entropy_rows(scores, targets)
        for row in range(3):
            alone = _softmax_cross_entropy_rows(scores[row : row + 1], targets[row : row + 1])
            assert stacked[row] == alone[0]

    @pytest.mark.parametrize("n_models", [1, 3])
    def test_first_epoch_train_loss_is_the_initial_loss(self, rng, n_models):
        """With one batch per epoch, epoch 1's loss is taken before any update."""
        x, y = _problem(rng, n=40)
        models = [build_mlp(9, [6], 4, seed=i) for i in range(n_models)]
        initial = [
            _softmax_cross_entropy_rows(model.forward(x)[None], _one_hot_targets(y, 4)[None])[0]
            for model in models
        ]
        config = TrainerConfig(epochs=1, batch_size=40, early_stopping_patience=None)
        histories = StackedTrainer(models, 0.01, config=config).fit(x, y)
        for history, loss in zip(histories, initial):
            np.testing.assert_allclose(history.train_loss, [loss], rtol=1e-12)

    def test_history_describes_the_written_back_weights(self, rng):
        x, y = _problem(rng, n=120)
        xv, yv = _problem(rng, n=50)
        models = _population(specs=[(4, True, 0), (6, False, 1)])
        config = TrainerConfig(
            epochs=4, batch_size=32, early_stopping_patience=None, restore_best_weights=False
        )
        histories = StackedTrainer(models, 0.01, config=config, seeds=[1, 2]).fit(x, y, xv, yv)
        for model, history in zip(models, histories):
            val_loss = _softmax_cross_entropy_rows(
                model.forward(xv)[None], _one_hot_targets(yv, 4)[None]
            )[0]
            np.testing.assert_allclose(history.val_loss[-1], val_loss, rtol=1e-12)
            assert history.val_accuracy[-1] == model.evaluate_accuracy(xv, yv)
            assert history.train_accuracy[-1] == model.evaluate_accuracy(x, y)


class TestFirstStepGradients:
    """StackedTrainer's own backward pass, checked against finite differences.

    Adam's first bias-corrected step is ``-lr * g / (|g| + eps)``: every
    parameter with a clear gradient moves by about ``lr`` against its sign
    and every parameter without one stays put. One full-batch epoch is one
    step, so the weight deltas expose the signs of the trainer's gradients.
    """

    LEARNING_RATE = 0.01

    @staticmethod
    def _loss(model, x, targets):
        return _softmax_cross_entropy_rows(model.forward(x)[None], targets[None])[0]

    def _numerical_gradients(self, model, x, targets, epsilon=1e-6):
        gradients = []
        for layer in model.dense_layers:
            for name in ("weights", "bias"):
                array = getattr(layer, name)
                if array is None:
                    continue
                numeric = np.zeros_like(array)
                for index in np.ndindex(array.shape):
                    array[index] += epsilon
                    plus = self._loss(model, x, targets)
                    array[index] -= 2 * epsilon
                    minus = self._loss(model, x, targets)
                    array[index] += epsilon
                    numeric[index] = (plus - minus) / (2 * epsilon)
                gradients.append(numeric)
        return gradients

    def _check(self, model, rng):
        x, y = _problem(rng, n=24, n_features=model.topology()[0], n_classes=3)
        numeric = self._numerical_gradients(model, x, _one_hot_targets(y, 3))
        before = [
            array.copy()
            for layer in model.dense_layers
            for array in (layer.weights, layer.bias)
            if array is not None
        ]
        config = TrainerConfig(
            epochs=1, batch_size=24, early_stopping_patience=None, restore_best_weights=False
        )
        StackedTrainer([model], self.LEARNING_RATE, config=config, seeds=[0]).fit(x, y)
        after = [
            array
            for layer in model.dense_layers
            for array in (layer.weights, layer.bias)
            if array is not None
        ]
        assert len(after) == len(numeric)
        n_clear = 0
        for old, new, grad in zip(before, after, numeric):
            delta = new - old
            clear = np.abs(grad) > 1e-5
            n_clear += int(clear.sum())
            np.testing.assert_array_equal(np.sign(delta[clear]), -np.sign(grad[clear]))
            np.testing.assert_allclose(
                np.abs(delta[clear]), self.LEARNING_RATE, rtol=2e-3
            )
            flat = np.abs(grad) < 1e-10
            assert (np.abs(delta[flat]) < 1e-2 * self.LEARNING_RATE).all()
        assert n_clear > 0

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid", "leaky_relu"])
    def test_one_hidden_layer(self, rng, activation):
        self._check(build_mlp(5, [6], 3, hidden_activation=activation, seed=2), rng)

    def test_two_hidden_layers(self, rng):
        self._check(build_mlp(5, [6, 4], 3, hidden_activation="tanh", seed=3), rng)

    def test_single_layer_perceptron(self, rng):
        self._check(build_mlp(5, [], 3, seed=4), rng)

    def test_without_biases(self, rng):
        self._check(build_mlp(5, [6], 3, hidden_activation="tanh", use_bias=False, seed=5), rng)

    def test_leading_activation_layer(self, rng):
        model = MLP()
        model.add(ActivationLayer("tanh"))
        layer_rng = np.random.default_rng(6)
        model.add(Dense(5, 6, rng=layer_rng))
        model.add(ActivationLayer("sigmoid"))
        model.add(Dense(6, 3, rng=layer_rng))
        self._check(model, rng)
