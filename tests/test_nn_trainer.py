"""Unit and integration tests for repro.nn.trainer."""

import numpy as np
import pytest

from repro.nn.network import build_mlp
from repro.nn.stacked import StackedTrainer
from repro.nn.trainer import TrainerConfig, TrainingHistory, finetune, train_classifier
from repro.quantization import PowerOfTwoQuantizer, post_training_quantize


@pytest.fixture
def problem(tiny_problem):
    return tiny_problem


class TestTrainerConfig:
    def test_defaults_valid(self):
        TrainerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"monitor": "train_loss"},
            {"lr_decay_factor": 0.0},
            {"lr_decay_factor": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_below_one_rejected(self, patience):
        # 0 and negative values would stop and decay exactly like 1.
        with pytest.raises(ValueError, match="early_stopping_patience"):
            TrainerConfig(early_stopping_patience=patience)

    def test_negative_min_learning_rate_rejected(self):
        # A negative floor would act exactly like 0.
        with pytest.raises(ValueError, match="min_learning_rate"):
            TrainerConfig(min_learning_rate=-1e-3)

    def test_patience_none_and_zero_floor_accepted(self):
        TrainerConfig(early_stopping_patience=None, min_learning_rate=0.0)


class TestTrainingBehaviour:
    def test_learns_separable_problem(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        history = train_classifier(
            model, features, labels, epochs=40, batch_size=16, seed=0
        )
        assert model.evaluate_accuracy(features, labels) > 0.9
        assert isinstance(history, TrainingHistory)
        assert history.epochs_run >= 1

    def test_history_records_validation(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        history = train_classifier(
            model,
            features[:80],
            labels[:80],
            features[80:],
            labels[80:],
            epochs=10,
            seed=0,
        )
        assert len(history.val_accuracy) == history.epochs_run
        assert len(history.val_loss) == history.epochs_run
        assert 0.0 <= history.best_val_accuracy <= 1.0

    def test_no_validation_history_empty(self, problem):
        features, labels = problem
        model = build_mlp(4, (4,), 2, seed=0)
        history = train_classifier(model, features, labels, epochs=5, seed=0)
        assert history.val_accuracy == []

    def test_early_stopping_limits_epochs(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        config = TrainerConfig(epochs=500, early_stopping_patience=3)
        trainer = StackedTrainer([model], 0.01, config=config, seeds=[0])
        history = trainer.fit(features, labels)[0]
        assert history.epochs_run < 500

    def test_restore_best_weights(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        config = TrainerConfig(epochs=30, restore_best_weights=True, early_stopping_patience=None)
        trainer = StackedTrainer([model], 0.01, config=config, seeds=[0])
        trainer.fit(features[:80], labels[:80], features[80:], labels[80:])
        # After restoring, validation accuracy equals the best recorded value.
        final_val = model.evaluate_accuracy(features[80:], labels[80:])
        assert final_val >= 0.8

    def test_mismatched_rows_rejected(self, problem):
        features, labels = problem
        with pytest.raises(ValueError):
            train_classifier(build_mlp(4, (3,), 2, seed=0), features, labels[:-5], seed=0)

    def test_deterministic_given_seed(self, problem):
        features, labels = problem

        def run():
            model = build_mlp(4, (5,), 2, seed=1)
            train_classifier(model, features, labels, epochs=8, seed=7)
            return model.dense_layers[0].weights.copy()

        np.testing.assert_array_equal(run(), run())

    def test_invalid_learning_rate_rejected(self, problem):
        features, labels = problem
        with pytest.raises(ValueError, match="learning_rate"):
            train_classifier(build_mlp(4, (3,), 2, seed=0), features, labels, learning_rate=0.0)


class TestFinetune:
    def test_finetune_improves_perturbed_model(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        train_classifier(model, features, labels, epochs=40, seed=0)
        baseline = model.evaluate_accuracy(features, labels)

        # Damage the weights, then fine-tune back.
        for layer in model.dense_layers:
            layer.weights += np.random.default_rng(0).normal(scale=0.8, size=layer.weights.shape)
        damaged = model.evaluate_accuracy(features, labels)
        finetune(model, features, labels, epochs=25, learning_rate=0.01, seed=0)
        recovered = model.evaluate_accuracy(features, labels)
        assert recovered >= damaged
        assert recovered >= baseline - 0.1

    def test_finetune_respects_mask(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        layer = model.dense_layers[0]
        mask = np.ones_like(layer.weights)
        mask[0, :] = 0.0
        layer.mask = mask
        finetune(model, features, labels, epochs=5, seed=0)
        assert np.all(layer.effective_weights()[0, :] == 0.0)

    def test_finetune_leaves_pruned_shadow_weights(self, problem):
        # The mask also zeroes the weight gradient, so pruned shadow weights
        # never move and a later unmasking cannot resurrect trained values.
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        layer = model.dense_layers[0]
        layer.mask = np.ones_like(layer.weights)
        layer.mask[1, :] = 0.0
        before = layer.weights.copy()
        finetune(model, features, labels, epochs=5, learning_rate=0.05, seed=0)
        assert layer.weights[1].tobytes() == before[1].tobytes()
        assert not np.array_equal(layer.weights[0], before[0])

    def test_history_as_dict_keys(self, problem):
        features, labels = problem
        model = build_mlp(4, (3,), 2, seed=0)
        history = finetune(model, features, labels, epochs=3, seed=0)
        data = history.as_dict()
        assert set(data) == {"train_loss", "train_accuracy", "val_loss", "val_accuracy"}


class TestTrainingHistory:
    def test_epochs_run_counts_train_losses(self):
        assert TrainingHistory().epochs_run == 0
        assert TrainingHistory(train_loss=[0.9, 0.7, 0.6]).epochs_run == 3

    def test_best_val_accuracy_is_the_maximum(self):
        history = TrainingHistory(val_accuracy=[0.5, 0.8, 0.75])
        assert history.best_val_accuracy == 0.8

    def test_best_val_accuracy_is_nan_without_validation(self):
        assert np.isnan(TrainingHistory().best_val_accuracy)

    def test_as_dict_returns_copies(self):
        history = TrainingHistory(train_loss=[1.0], val_accuracy=[0.5])
        data = history.as_dict()
        data["train_loss"].append(2.0)
        data["val_accuracy"][0] = 0.0
        assert history.train_loss == [1.0]
        assert history.val_accuracy == [0.5]

    def test_early_stopped_run_has_aligned_series(self, problem):
        features, labels = problem
        model = build_mlp(4, (3,), 2, seed=0)
        config = TrainerConfig(epochs=60, batch_size=16, early_stopping_patience=2)
        history = StackedTrainer([model], 0.05, config=config, seeds=[0]).fit(
            features, labels, features, labels
        )[0]
        assert 1 <= history.epochs_run < 60
        for series in history.as_dict().values():
            assert len(series) == history.epochs_run


class TestUntrainableModels:
    """Models outside ``supports_stacking`` are rejected, naming the cause."""

    def test_frozen_scale_model_rejected(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        frozen = post_training_quantize(model, 4).model
        with pytest.raises(ValueError, match="frozen-scale"):
            finetune(frozen, features, labels, epochs=2, seed=0)
        with pytest.raises(ValueError, match="frozen-scale"):
            train_classifier(frozen, features, labels, epochs=2, seed=0)

    def test_power_of_two_hook_rejected(self, problem):
        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        model.dense_layers[1].weight_quantizer = PowerOfTwoQuantizer(bits=4)
        with pytest.raises(ValueError, match="PowerOfTwoQuantizer"):
            finetune(model, features, labels, epochs=2, seed=0)
        with pytest.raises(ValueError, match="PowerOfTwoQuantizer"):
            train_classifier(model, features, labels, epochs=2, seed=0)

    def test_custom_layer_rejected(self, problem):
        from repro.nn.layers import Layer

        class Scale(Layer):
            def forward(self, inputs):
                return 2.0 * inputs

        features, labels = problem
        model = build_mlp(4, (6,), 2, seed=0)
        model.layers.insert(1, Scale())
        with pytest.raises(ValueError, match="Scale layer"):
            train_classifier(model, features, labels, epochs=2, seed=0)
