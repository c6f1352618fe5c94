import numpy as np
import pytest

from dlstf.linalg import (ActivationKind, activation_apply, activation_derivative,
                          affine_combine)
from conftest import seeded_rng


class TestAffineCombine:
    def test_bias_passthrough(self):
        out = affine_combine(np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2)),
                             np.zeros(2), np.array([1.0, 2.0]))
        assert np.array_equal(out, np.array([1.0, 2.0]))

    def test_hand_computed(self):
        out = affine_combine(np.eye(1), np.array([3.0]), np.eye(1),
                             np.array([4.0]), np.array([-7.0]))
        assert np.array_equal(out, np.array([0.0]))

    def test_empty_bias(self):
        out = affine_combine(np.zeros((0, 2)), np.zeros(2), np.zeros((0, 0)),
                             np.zeros(0), np.zeros(0))
        assert out.shape == (0,)

    @pytest.mark.parametrize("w,x,u,h,b", [
        (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2)), np.zeros(2), np.zeros(2)),
        (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 5)), np.zeros(2), np.zeros(2)),
        (np.zeros((2, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2), np.zeros(2)),
    ])
    def test_shape_errors(self, w, x, u, h, b):
        with pytest.raises(ValueError):
            affine_combine(w, x, u, h, b)


class TestActivations:
    def test_analytic_points(self):
        assert activation_apply(np.array([0.0]), ActivationKind.SIGMOID)[0] == 0.5
        assert activation_apply(np.array([0.0]), ActivationKind.TANH)[0] == 0.0
        assert activation_apply(np.array([-2.0]), ActivationKind.RELU)[0] == 0.0
        assert activation_apply(np.array([3.5]), ActivationKind.IDENTITY)[0] == 3.5

    def test_sigmoid_derivative_at_zero(self):
        d = activation_derivative(ActivationKind.SIGMOID, np.array([0.0]))[0]
        assert d == 0.25
        eps = 1e-6
        fd = (activation_apply(np.array([eps]), ActivationKind.SIGMOID)[0]
              - activation_apply(np.array([-eps]), ActivationKind.SIGMOID)[0]) / (2 * eps)
        assert abs(d - fd) < 1e-8

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_derivative_matches_finite_differences(self, kind):
        rng = seeded_rng(4, list(ActivationKind).index(kind))
        z = rng.uniform(-5.0, 5.0, 1000)
        eps = 1e-6
        analytic = activation_derivative(kind, z)
        fd = (activation_apply(z + eps, kind) - activation_apply(z - eps, kind)) / (2 * eps)
        rel = np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
        assert rel.max() < 1e-6

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = activation_apply(np.array([-1e4, 1e4]), ActivationKind.SIGMOID)
        assert np.array_equal(out, np.array([0.0, 1.0]))

    def test_relu_subgradient_at_zero_is_zero(self):
        assert activation_derivative(ActivationKind.RELU, np.array([0.0]))[0] == 0.0
