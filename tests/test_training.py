import math
import tracemalloc

import numpy as np
import pytest

import dlstf.training as training_mod
from dlstf.dataset import SampleSet
from dlstf.errors import NumericsError
from dlstf.lstm import init_params, net_backward, net_forward, predict_batches
from dlstf.training import (TrainConfig, clip_global_norm, mae_loss,
                            rmsprop_update, train_model)
from conftest import seeded_rng


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["learning_rate", "epsilon", "clip_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_optimizer_settings_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            TrainConfig(**{name: value})

    def test_nan_rho_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            TrainConfig(rho=math.nan)


class TestMaeLoss:
    def test_perfect_prediction(self):
        loss, grad = mae_loss(np.array([[1.0, -2.0]]), np.array([[1.0, -2.0]]))
        assert loss == 0.0
        assert np.array_equal(grad[0], np.zeros(2))

    def test_hand_computed_pair(self):
        loss, grad = mae_loss(np.array([[0.0, 0.0]]), np.array([[1.0, -1.0]]))
        assert loss == 1.0
        assert np.array_equal(grad[0], np.array([-0.5, 0.5]))

    def test_hand_computed_scalar(self):
        loss, grad = mae_loss(np.array([[3.0]]), np.array([[5.0]]))
        assert loss == 2.0
        assert np.array_equal(grad[0], np.array([-1.0]))

    def test_errors(self):
        with pytest.raises(ValueError):
            mae_loss(np.array([[1.0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            mae_loss(np.empty((1, 0)), np.empty((1, 0)))

    def test_refuses_a_1d_pair(self):
        with pytest.raises(ValueError, match=r"expected \(B, n\) pred and target"):
            mae_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


class TestRmsprop:
    def test_zero_gradient_is_noop(self):
        params = [np.array([1.5, -2.0])]
        acc = [np.zeros_like(p) for p in params]
        rmsprop_update(params, [np.zeros(2)], acc, TrainConfig())
        assert np.array_equal(params[0], np.array([1.5, -2.0]))

    def test_scalar_hand_computation(self):
        cfg = TrainConfig(learning_rate=0.001, rho=0.9, epsilon=1e-8)
        params = [np.array([0.0])]
        acc = [np.zeros_like(p) for p in params]
        rmsprop_update(params, [np.array([2.0])], acc, cfg)
        s_expect = 0.9 * 0.0 + 0.1 * 4.0
        theta_expect = -0.001 * 2.0 / math.sqrt(s_expect + 1e-8)
        assert abs(acc[0][0] - s_expect) < 1e-15
        assert abs(params[0][0] - theta_expect) < 1e-9
        assert abs(params[0][0] - (-0.0031623)) < 1e-6

    def test_constant_gradient_moves_monotonically(self):
        cfg = TrainConfig()
        params = [np.array([0.0])]
        acc = [np.zeros_like(p) for p in params]
        seen = [0.0]
        for _ in range(10):
            rmsprop_update(params, [np.array([0.7])], acc, cfg)
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
                acc = [np.zeros_like(p) for p in params]
                rmsprop_update(params, [np.array([sign * g])], acc, cfg)
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
        acc = [np.zeros_like(p) for p in params]
        with pytest.raises(ValueError):
            rmsprop_update(params, [np.zeros(3)], acc, TrainConfig())


def make_linear_task(n_samples, length, n, seed):
    """Toy task: target = 0.5 * mean of the input rows."""
    rng = seeded_rng(seed)
    seqs = [rng.uniform(0.0, 1.0, (length, n)) for _ in range(n_samples)]
    x = np.stack(seqs, axis=1) if seqs else np.empty((length, 0, n))
    return SampleSet(x, 0.5 * x.mean(axis=0), np.arange(n_samples), 0)


def rows(samples, a, b):
    """Samples a..b-1 of a SampleSet."""
    return SampleSet(samples.x[:, a:b], samples.y[a:b], samples.target_indices[a:b], 0)


class TestTrainModel:
    def test_deterministic_same_seed(self):
        samples = make_linear_task(60, 4, 2, 31)
        cfg = TrainConfig(max_epochs=4, batch_size=16, seed=5)
        net = init_params([6], 2, 5)
        m1, h1, _ = train_model(net, rows(samples, 0, 48), rows(samples, 48, 60), cfg)
        m2, h2, _ = train_model(net, rows(samples, 0, 48), rows(samples, 48, 60), cfg)
        assert h1.train_losses == h2.train_losses
        assert h1.val_losses == h2.val_losses
        for a, b in zip(m1.param_arrays(), m2.param_arrays()):
            assert np.array_equal(a, b)

    def test_loss_decreases_on_toy_task(self):
        samples = make_linear_task(200, 5, 3, 77)
        cfg = TrainConfig(max_epochs=12, batch_size=32, seed=7)
        net = init_params([8], 3, 7)
        _, hist, _ = train_model(net, rows(samples, 0, 170), rows(samples, 170, 200), cfg)
        assert hist.train_losses[-1] < hist.train_losses[0]

    def test_batch_gradient_is_mean_of_sample_gradients(self, monkeypatch):
        samples = make_linear_task(10, 3, 2, 13)
        net = init_params([4], 2, 3)
        captured = []

        def fake_update(params, grads, acc, cfg):
            captured.append([g.copy() for g in grads])

        monkeypatch.setattr(training_mod, "rmsprop_update", fake_update)
        cfg = TrainConfig(max_epochs=1, batch_size=10, seed=21, patience=1)
        train_model(net, samples, rows(samples, 0, 2), cfg)
        assert len(captured) == 1

        order = seeded_rng(21, 1).permutation(10)
        manual_arrays = [np.zeros_like(p) for p in net.param_arrays()]
        for idx in order:
            seq, target = samples.x[:, idx], samples.y[idx]
            pred, cache = net_forward(net, seq[:, None])
            _, dpred = mae_loss(pred, target[None])
            g = net_backward(net, cache, dpred)
            for a, b in zip(manual_arrays, g.param_arrays()):
                a += b
        for a in manual_arrays:
            a *= 1.0 / 10
        # the batch sums its samples inside BLAS products, not one by one
        for got, want in zip(captured[0], manual_arrays):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_early_stopping_arithmetic(self, monkeypatch):
        # injected validation schedule: 5, 4, 3, 4, 5, ... with patience 2
        schedule = {1: 5.0, 2: 4.0, 3: 3.0}
        snapshots, preds = [], []
        real_predict = training_mod.predict_batches

        def predict_fn(net, x):
            snapshots.append([p.copy() for p in net.param_arrays()])
            preds.append(real_predict(net, x))
            return preds[-1]

        def val_fn(pred, target):
            epoch = len(snapshots)
            return schedule.get(epoch, 2.0 + epoch)

        monkeypatch.setattr(training_mod, "predict_batches", predict_fn)
        monkeypatch.setattr(training_mod, "_mean_val_mae", val_fn)
        samples = make_linear_task(20, 3, 2, 3)
        cfg = TrainConfig(max_epochs=50, batch_size=8, patience=2, seed=9)
        net = init_params([4], 2, 9)
        best, hist, val_pred = train_model(net, samples, rows(samples, 0, 4), cfg)
        assert hist.stopped_epoch == 5
        assert hist.best_epoch == 3
        assert len(hist.train_losses) == 5
        assert len(hist.val_losses) == 5
        for got, want in zip(best.param_arrays(), snapshots[2]):
            assert np.array_equal(got, want)
        # one forward-only pass per epoch, and the best epoch's is returned
        assert len(preds) == 5
        assert val_pred is preds[2]

    def test_no_finite_validation_mae_returns_the_initial_network(self, monkeypatch):
        monkeypatch.setattr(training_mod, "_mean_val_mae", lambda pred, target: math.nan)
        samples = make_linear_task(20, 3, 2, 3)
        cfg = TrainConfig(max_epochs=3, batch_size=8, patience=2, seed=9)
        net = init_params([4], 2, 9)
        val = rows(samples, 0, 4)
        best, hist, val_pred = train_model(net, samples, val, cfg)
        assert hist.best_epoch == 0
        for got, want in zip(best.param_arrays(), net.param_arrays()):
            assert np.array_equal(got, want)
        assert np.array_equal(val_pred, predict_batches(net, val.x))

    def test_returned_parameters_match_best_epoch(self):
        samples = make_linear_task(80, 4, 2, 55)
        cfg = TrainConfig(max_epochs=6, batch_size=16, seed=4)
        net = init_params([5], 2, 4)
        val = rows(samples, 64, 80)
        best, hist, val_pred = train_model(net, rows(samples, 0, 64), val, cfg)
        assert hist.best_epoch == int(np.argmin(hist.val_losses)) + 1
        assert np.array_equal(val_pred, predict_batches(best, val.x))
        val_mae = training_mod._mean_val_mae(val_pred, val.y)
        assert val_mae == hist.val_losses[hist.best_epoch - 1]

    def test_empty_training_set_rejected(self):
        net = init_params([4], 2, 0)
        with pytest.raises(ValueError, match="empty"):
            train_model(net, make_linear_task(0, 3, 2, 1), make_linear_task(2, 3, 2, 1),
                        TrainConfig())

    def test_nan_abort_names_epoch_and_batch(self):
        samples = make_linear_task(64, 3, 2, 17)
        cfg = TrainConfig(learning_rate=1e308, max_epochs=3, batch_size=32, seed=2)
        net = init_params([4], 2, 2)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericsError, match=r"epoch 1, batch 2"):
                train_model(net, samples, rows(samples, 0, 4), cfg)


def fresh_buffer_training(net, train, val, cfg):
    """train_model's loop without early stopping, every batch in fresh arrays:
    no cache or gradients passed back in, RMSprop by its allocating formulas.
    Returns the best epoch's parameters and predictions and the loss curves."""
    work = net.clone()
    params = work.param_arrays()
    acc = [np.zeros_like(p) for p in params]
    rng = seeded_rng(cfg.seed, 1)
    train_losses, val_losses, best = [], [], None
    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(train))
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            pred, cache = net_forward(work, train.x[:, batch])
            loss, dpred = mae_loss(pred, train.y[batch])
            loss_sum += loss * len(batch)
            grads = net_backward(work, cache, dpred).param_arrays()
            clip_global_norm(grads, cfg.clip_norm)
            for p, g, s in zip(params, grads, acc):
                s *= cfg.rho
                s += (1.0 - cfg.rho) * g * g
                p -= cfg.learning_rate * g / np.sqrt(s + cfg.epsilon)
        train_losses.append(loss_sum / len(train))
        val_pred = predict_batches(work, val.x)
        val_losses.append(training_mod._mean_val_mae(val_pred, val.y))
        if best is None or val_losses[-1] < best[0]:
            best = (val_losses[-1], [p.copy() for p in params], val_pred)
    return best[1], best[2], train_losses, val_losses


class TestBufferReuse:
    """train_model passes each batch's cache and gradients back in."""

    @pytest.mark.parametrize("widths", [[6], [5, 4]])
    def test_matches_a_loop_with_fresh_buffers_bit_for_bit(self, widths):
        samples = make_linear_task(90, 5, 3, 41)
        train, val = rows(samples, 0, 70), rows(samples, 70, 90)
        # 70 = 4 * 16 + 6: every epoch ends with a tail batch
        cfg = TrainConfig(max_epochs=4, patience=4, batch_size=16, seed=8, learning_rate=0.01)
        net = init_params(widths, 3, 8)
        best, hist, val_pred = train_model(net, train, val, cfg)
        params, pred, train_losses, val_losses = fresh_buffer_training(net, train, val, cfg)
        assert hist.train_losses == train_losses
        assert hist.val_losses == val_losses
        for got, want in zip(best.param_arrays(), params):
            assert np.array_equal(got, want)
        assert np.array_equal(val_pred, pred)

    def test_batches_after_the_first_allocate_no_step_arrays(self, monkeypatch):
        steps, batch, hid = 8, 32, 16
        samples = make_linear_task(4 * batch + 4, steps, 2, 5)
        train, val = rows(samples, 0, 4 * batch), rows(samples, 4 * batch, 4 * batch + 4)
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=batch, seed=3)
        net = init_params([hid], 2, 3)
        peaks = []
        real_update = training_mod.rmsprop_update

        def update(*args):
            real_update(*args)
            if not peaks:
                peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(training_mod, "rmsprop_update", update)
        tracemalloc.start()
        try:
            train_model(net, train, val, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # one (L, B, 4H) float64 array: the gates of one layer pass
        assert peaks[1] - peaks[0] < steps * batch * 4 * hid * 8
