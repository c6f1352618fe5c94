import math

import numpy as np
import pytest

import dlstf.training as training_mod
from dlstf.errors import NumericsError
from dlstf.lstm import NetworkGradients, init_params, net_backward, net_forward
from dlstf.training import (RmspropState, TrainConfig, clip_global_norm, mae_loss,
                            rmsprop_update, train_model)
from conftest import seeded_rng


class TestMaeLoss:
    def test_perfect_prediction(self):
        loss, grad = mae_loss(np.array([1.0, -2.0]), np.array([1.0, -2.0]))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_hand_computed_pair(self):
        loss, grad = mae_loss(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
        assert loss == 1.0
        assert np.array_equal(grad, np.array([-0.5, 0.5]))

    def test_hand_computed_scalar(self):
        loss, grad = mae_loss(np.array([3.0]), np.array([5.0]))
        assert loss == 2.0
        assert np.array_equal(grad, np.array([-1.0]))

    def test_errors(self):
        with pytest.raises(ValueError):
            mae_loss(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            mae_loss(np.array([]), np.array([]))


class TestRmsprop:
    def test_zero_gradient_is_noop(self):
        params = [np.array([1.5, -2.0])]
        state = RmspropState(params)
        rmsprop_update(params, [np.zeros(2)], state, TrainConfig())
        assert np.array_equal(params[0], np.array([1.5, -2.0]))

    def test_scalar_hand_computation(self):
        cfg = TrainConfig(learning_rate=0.001, rho=0.9, epsilon=1e-8)
        params = [np.array([0.0])]
        state = RmspropState(params)
        rmsprop_update(params, [np.array([2.0])], state, cfg)
        s_expect = 0.9 * 0.0 + 0.1 * 4.0
        theta_expect = -0.001 * 2.0 / math.sqrt(s_expect + 1e-8)
        assert abs(state.acc[0][0] - s_expect) < 1e-15
        assert abs(params[0][0] - theta_expect) < 1e-9
        assert abs(params[0][0] - (-0.0031623)) < 1e-6

    def test_constant_gradient_moves_monotonically(self):
        cfg = TrainConfig()
        params = [np.array([0.0])]
        state = RmspropState(params)
        seen = [0.0]
        for _ in range(10):
            rmsprop_update(params, [np.array([0.7])], state, cfg)
            seen.append(params[0][0])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_scale_free_step_magnitude(self):
        # with epsilon vanishing, one step from zero state moves by
        # lr / sqrt(1 - rho) regardless of |g| (clipping keeps that invariant)
        cfg = TrainConfig(learning_rate=0.001, rho=0.9, epsilon=1e-12, clip_norm=5.0)
        expected = cfg.learning_rate / math.sqrt(1.0 - cfg.rho)
        for g in (0.01, 1.0, 100.0):
            for sign in (1.0, -1.0):
                params = [np.array([0.0])]
                state = RmspropState(params)
                rmsprop_update(params, [np.array([sign * g])], state, cfg)
                assert abs(abs(params[0][0]) - expected) < 1e-6
                assert params[0][0] * sign < 0  # moves against the gradient

    def test_clipping_applied_before_update(self):
        cfg = TrainConfig(clip_norm=5.0)
        grads = [np.array([30.0, 40.0])]  # norm 50 -> scaled by 0.1
        norm = clip_global_norm(grads, cfg.clip_norm)
        assert norm == 50.0
        assert np.allclose(grads[0], [3.0, 4.0], atol=1e-12)

    def test_shape_mismatch(self):
        params = [np.zeros(2)]
        state = RmspropState(params)
        with pytest.raises(ValueError):
            rmsprop_update(params, [np.zeros(3)], state, TrainConfig())


def make_linear_task(n_samples, length, n, seed):
    """Toy task: target = 0.5 * mean of the input rows."""
    rng = seeded_rng(seed)
    samples = []
    for _ in range(n_samples):
        seq = rng.uniform(0.0, 1.0, (length, n))
        samples.append((seq, 0.5 * seq.mean(axis=0)))
    return samples


class TestTrainModel:
    def test_deterministic_same_seed(self):
        samples = make_linear_task(60, 4, 2, 31)
        cfg = TrainConfig(max_epochs=4, batch_size=16, seed=5)
        net = init_params([6], 2, 5)
        m1, h1 = train_model(net, samples[:48], samples[48:], cfg)
        m2, h2 = train_model(net, samples[:48], samples[48:], cfg)
        assert h1.train_losses == h2.train_losses
        assert h1.val_losses == h2.val_losses
        for a, b in zip(m1.param_arrays(), m2.param_arrays()):
            assert np.array_equal(a, b)

    def test_loss_decreases_on_toy_task(self):
        samples = make_linear_task(200, 5, 3, 77)
        cfg = TrainConfig(max_epochs=12, batch_size=32, seed=7)
        net = init_params([8], 3, 7)
        _, hist = train_model(net, samples[:170], samples[170:], cfg)
        assert hist.train_losses[-1] < hist.train_losses[0]

    def test_batch_gradient_is_mean_of_sample_gradients(self, monkeypatch):
        samples = make_linear_task(10, 3, 2, 13)
        net = init_params([4], 2, 3)
        captured = []

        def fake_update(params, grads, state, cfg):
            captured.append([g.copy() for g in grads])

        monkeypatch.setattr(training_mod, "rmsprop_update", fake_update)
        cfg = TrainConfig(max_epochs=1, batch_size=10, seed=21, patience=1)
        train_model(net, samples, samples[:2], cfg)
        assert len(captured) == 1

        order = seeded_rng(21, 1).permutation(10)
        manual = NetworkGradients.zeros_like(net)
        manual_arrays = manual.arrays()
        for idx in order:
            seq, target = samples[idx]
            pred, cache = net_forward(net, seq)
            _, dpred = mae_loss(pred, target)
            g = net_backward(net, cache, dpred)
            for a, b in zip(manual_arrays, g.arrays()):
                a += b
        for a in manual_arrays:
            a *= 1.0 / 10
        # the batch sums its samples inside BLAS products, not one by one
        for got, want in zip(captured[0], manual_arrays):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_early_stopping_arithmetic(self):
        # injected validation schedule: 5, 4, 3, 4, 5, ... with patience 2
        schedule = {1: 5.0, 2: 4.0, 3: 3.0}
        snapshots = {}

        def val_fn(net, epoch):
            snapshots[epoch] = [p.copy() for p in net.param_arrays()]
            return schedule.get(epoch, 2.0 + epoch)

        samples = make_linear_task(20, 3, 2, 3)
        cfg = TrainConfig(max_epochs=50, batch_size=8, patience=2, seed=9)
        net = init_params([4], 2, 9)
        best, hist = train_model(net, samples, None, cfg, _val_loss_fn=val_fn)
        assert hist.stopped_epoch == 5
        assert hist.best_epoch == 3
        assert len(hist.train_losses) == 5
        assert len(hist.val_losses) == 5
        for got, want in zip(best.param_arrays(), snapshots[3]):
            assert np.array_equal(got, want)

    def test_returned_parameters_match_best_epoch(self):
        samples = make_linear_task(80, 4, 2, 55)
        cfg = TrainConfig(max_epochs=6, batch_size=16, seed=4)
        net = init_params([5], 2, 4)
        best, hist = train_model(net, samples[:64], samples[64:], cfg)
        assert hist.best_epoch == int(np.argmin(hist.val_losses)) + 1
        from dlstf.training import _mean_val_mae
        assert _mean_val_mae(best, samples[64:]) == hist.val_losses[hist.best_epoch - 1]

    def test_empty_training_set_rejected(self):
        net = init_params([4], 2, 0)
        with pytest.raises(ValueError, match="empty"):
            train_model(net, [], make_linear_task(2, 3, 2, 1), TrainConfig())

    def test_nan_abort_names_epoch_and_batch(self):
        samples = make_linear_task(64, 3, 2, 17)
        cfg = TrainConfig(learning_rate=1e308, max_epochs=3, batch_size=32, seed=2)
        net = init_params([4], 2, 2)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericsError, match=r"epoch 1, batch 2"):
                train_model(net, samples, samples[:4], cfg)
