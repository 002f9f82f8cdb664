"""Unit tests for repro.nn.optimizers: convergence and state handling of StackedAdam."""

import numpy as np
import pytest

from repro.nn.optimizers import StackedAdam


def run_optimizer(optimizer, steps=300, start=10.0):
    """Minimize f(p) = 0.5 * ||p - 3||^2 from ``(start, -start)``."""
    params = np.array([[start, -start]])
    for _ in range(steps):
        optimizer.update(params, params - 3.0)
    return params[0]


class TestConvergence:
    def test_adam_converges(self):
        final = run_optimizer(StackedAdam([0.1]), steps=600)
        np.testing.assert_allclose(final, [3.0, 3.0], atol=1e-2)


class TestStateHandling:
    def test_updates_are_in_place(self):
        params = np.zeros((1, 3))
        reference = params
        StackedAdam([0.1]).update(params, np.ones((1, 3)))
        assert params is reference
        assert np.all(reference != 0.0)

    def test_adam_bias_correction_first_step(self):
        params = np.array([[0.0]])
        StackedAdam([0.1]).update(params, np.array([[1.0]]))
        # With bias correction the first step magnitude equals the lr.
        assert params[0, 0] == pytest.approx(-0.1, rel=1e-6)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            StackedAdam([0.1]).update(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_one_dimensional_stack_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            StackedAdam([0.1]).update(np.zeros(3), np.zeros(3))

    def test_row_count_must_match_learning_rates(self):
        with pytest.raises(ValueError, match="3 rows but 2 learning rates"):
            StackedAdam([0.1, 0.2]).update(np.zeros((3, 4)), np.zeros((3, 4)))

    def test_step_counter_advances_per_update(self):
        optimizer = StackedAdam([0.1])
        params = np.zeros((1, 2))
        for _ in range(3):
            optimizer.update(params, np.ones((1, 2)))
        assert optimizer.t == 3

    def test_rows_follow_their_own_learning_rates(self):
        params = np.zeros((2, 3))
        StackedAdam([0.1, 0.01]).update(params, np.ones((2, 3)))
        np.testing.assert_allclose(params[0], -0.1, rtol=1e-6)
        np.testing.assert_allclose(params[1], -0.01, rtol=1e-6)

    def test_compact_keeps_surviving_rates(self):
        optimizer = StackedAdam([0.1, 0.2, 0.3])
        optimizer.update(np.zeros((3, 2)), np.ones((3, 2)))
        optimizer.compact(np.array([0, 2]))
        np.testing.assert_array_equal(optimizer.learning_rates[:, 0], [0.1, 0.3])
        params = np.zeros((2, 2))
        optimizer.update(params, np.ones((2, 2)))
        assert optimizer.t == 2


class TestValidation:
    @pytest.mark.parametrize("bad_lr", [0.0, -1.0])
    def test_invalid_learning_rate(self, bad_lr):
        with pytest.raises(ValueError):
            StackedAdam([bad_lr])

    def test_empty_learning_rates_rejected(self):
        with pytest.raises(ValueError):
            StackedAdam([])

    @pytest.mark.parametrize("bad_epsilon", [0.0, -1e-8])
    def test_invalid_epsilon(self, bad_epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            StackedAdam([0.1], epsilon=bad_epsilon)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            StackedAdam([0.1], beta1=1.0)
        with pytest.raises(ValueError):
            StackedAdam([0.1], beta2=-0.1)
