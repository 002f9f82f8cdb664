"""Unit tests for repro.nn.layers: Dense hooks, activation layers, summaries."""

import numpy as np
import pytest

from repro.nn.layers import ActivationLayer, Dense, layer_summary


@pytest.fixture
def dense():
    return Dense(4, 3, rng=np.random.default_rng(0))


class TestDenseForward:
    def test_output_shape(self, dense):
        out = dense.forward(np.zeros((7, 4)))
        assert out.shape == (7, 3)

    def test_1d_input_promoted_to_batch(self, dense):
        out = dense.forward(np.zeros(4))
        assert out.shape == (1, 3)

    def test_wrong_feature_count_raises(self, dense):
        with pytest.raises(ValueError):
            dense.forward(np.zeros((2, 5)))

    def test_linear_in_inputs(self, dense):
        x = np.random.default_rng(1).normal(size=(5, 4))
        y = dense.forward(2.0 * x) - dense.forward(np.zeros((5, 4)))
        expected = 2.0 * (dense.forward(x) - dense.forward(np.zeros((5, 4))))
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_bias_disabled(self):
        layer = Dense(3, 2, use_bias=False, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((1, 3)))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, -1)


class TestDenseHooks:
    def test_mask_zeroes_connections(self, dense):
        mask = np.ones_like(dense.weights)
        mask[0, :] = 0.0
        dense.mask = mask
        assert np.all(dense.effective_weights()[0, :] == 0.0)

    def test_quantizer_applied_in_forward(self, dense):
        dense.weight_quantizer = lambda w: np.zeros_like(w)
        dense.bias_quantizer = lambda b: np.zeros_like(b)
        out = dense.forward(np.ones((1, 4)))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_quantizer_does_not_touch_shadow_weights(self, dense):
        original = dense.weights.copy()
        dense.weight_quantizer = lambda w: np.round(w)
        dense.forward(np.ones((1, 4)))
        np.testing.assert_array_equal(dense.weights, original)

    def test_sparsity_reflects_mask(self, dense):
        assert dense.sparsity() == 0.0
        mask = np.ones_like(dense.weights)
        mask[:, 0] = 0.0
        dense.mask = mask
        assert dense.sparsity() == pytest.approx(1.0 / 3.0)


class TestSetWeights:
    def test_set_weights_roundtrip(self, dense):
        new_weights = np.full_like(dense.weights, 0.5)
        new_bias = np.full_like(dense.bias, -1.0)
        dense.set_weights(new_weights, new_bias)
        np.testing.assert_array_equal(dense.weights, new_weights)
        np.testing.assert_array_equal(dense.bias, new_bias)

    def test_shape_mismatch_rejected(self, dense):
        with pytest.raises(ValueError):
            dense.set_weights(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dense.set_weights(np.zeros_like(dense.weights), np.zeros(99))


class TestActivationLayer:
    def test_activation_layer_from_string(self):
        layer = ActivationLayer("relu")
        out = layer.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])


class TestLayerSummary:
    def test_dense_summary_fields(self, dense):
        info = layer_summary(dense)
        assert info["type"] == "Dense"
        assert info["n_inputs"] == 4
        assert info["n_outputs"] == 3
        assert info["parameters"] == 4 * 3 + 3

    def test_activation_summary(self):
        info = layer_summary(ActivationLayer("tanh"))
        assert info == {"type": "ActivationLayer", "activation": "tanh"}
