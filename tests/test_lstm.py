import math

import numpy as np
import pytest

import dlstf.lstm as lstm_mod
from dlstf.lstm import (LstmLayerParams, LstmNetwork, gradient_check, init_params,
                        net_backward, net_forward, predict_batches)
from conftest import (GRADCHECK_CASES, gradcheck_instance, layer_record, scalar_unroll,
                      seeded_rng)


def scalar_params(weight=1.0, bias=0.0, **bias_overrides):
    # one hidden unit: row g of the fused arrays is gate g in f, i, k, o order
    return LstmLayerParams(1, 1, np.full((4, 1), weight), np.full((4, 1), weight),
                           np.array([bias_overrides.get(g, bias) for g in "fiko"]))


def random_layer(input_dim, hidden_dim, seed):
    rng = seeded_rng(seed)
    return LstmLayerParams(
        input_dim, hidden_dim,
        rng.uniform(-1, 1, (4 * hidden_dim, input_dim)),
        rng.uniform(-1, 1, (4 * hidden_dim, hidden_dim)),
        rng.uniform(-1, 1, 4 * hidden_dim))


def split_gates(gates):
    """(..., 4H) fused gates -> f, i, k, o."""
    return np.split(gates, 4, axis=-1)


class TestStepForward:
    """The gate equations of one step, read from net_forward's forward record."""

    def test_all_zero_parameters(self):
        p = LstmLayerParams(2, 3, np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
        gates, c, h = layer_record(p, [[5.0, -1.0]])
        f, i, k, o = split_gates(gates[0])
        assert np.array_equal(f, np.full(3, 0.5))
        assert np.array_equal(i, np.full(3, 0.5))
        assert np.array_equal(o, np.full(3, 0.5))
        assert np.array_equal(k, np.zeros(3))
        assert np.array_equal(c[1], np.zeros(3))
        assert np.array_equal(h[1], np.zeros(3))

    def test_scalar_hand_computation(self):
        # independent scalar oracle computed with math formulas only
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        tanh1 = math.tanh(1.0)
        c_expect = sig1 * tanh1
        h_expect = sig1 * math.tanh(c_expect)
        gates, c, h = layer_record(scalar_params(), [[1.0]])
        f, i, k, o = gates[0]
        assert abs(f - sig1) < 1e-4
        assert abs(i - sig1) < 1e-4
        assert abs(o - sig1) < 1e-4
        assert abs(k - tanh1) < 1e-4
        assert abs(c[1, 0] - c_expect) < 1e-4
        assert abs(h[1, 0] - h_expect) < 1e-4
        assert abs(c[1, 0] - 0.55677) < 1e-4
        assert abs(h[1, 0] - 0.3696) < 1e-4

    def test_saturated_gates_preserve_memory(self):
        # step 1 writes c_1 = tanh(atanh(0.37)) through an open input gate;
        # step 2 saturates the forget gate open and the input gate shut
        p = LstmLayerParams(1, 1, np.array([[0.0], [100.0], [math.atanh(0.37)], [0.0]]),
                            np.zeros((4, 1)), np.array([100.0, 0.0, 0.0, 0.0]))
        gates, c, _ = layer_record(p, [[1.0], [-1.0]])
        assert gates[1, 0] == 1.0 and gates[1, 1] == 0.0
        assert abs(c[1, 0] - 0.37) < 1e-12
        assert abs(c[2, 0] - c[1, 0]) < 1e-12

    def test_gate_ranges(self):
        # two steps, so that step 2 starts from a nonzero h and c
        for seed in range(10):
            p = random_layer(3, 5, seed)
            gates, c, _ = layer_record(p, seeded_rng(seed, 9).uniform(-10, 10, (2, 3)))
            assert np.all(c[1] != 0.0)
            f, i, k, o = split_gates(gates)
            for gate in (f, i, o):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(k > -1.0) and np.all(k < 1.0)

    def test_shape_mismatch(self):
        net = one_layer_network(random_layer(3, 5, 0), 2, 0)
        with pytest.raises(ValueError, match="expected"):
            net_forward(net, np.zeros((1, 1, 4)))
        with pytest.raises(ValueError, match="expected"):
            net_forward(net, np.zeros((1, 2, 4)))


class TestBatchOnly:
    """The core's one shape is the time-major batch; a refusal names it."""

    def test_net_forward_refuses_a_2d_sequence(self):
        net = init_params([4], 2, 0)
        with pytest.raises(ValueError, match=r"expected an \(L, B, 2\) batch, got \(3, 2\)"):
            net_forward(net, np.zeros((3, 2)))

    def test_net_backward_refuses_a_1d_gradient(self):
        net = init_params([4], 2, 0)
        _, cache = net_forward(net, np.zeros((3, 1, 2)))
        with pytest.raises(ValueError, match=r"the \(B, n\) shape \(1, 2\), got \(2,\)"):
            net_backward(net, cache, np.zeros(2))


def one_layer_network(p, n_out, seed):
    rng = seeded_rng(seed, 5)
    return LstmNetwork([p], rng.uniform(-1, 1, (n_out, p.hidden_dim)),
                       rng.uniform(-1, 1, n_out))


class TestStepBackward:
    """The per-step gate calculus of net_backward, run over a batch of sequences."""

    def test_zero_upstream_gives_zero_grads(self):
        net = one_layer_network(random_layer(2, 4, 1), 2, 1)
        _, cache = net_forward(net, np.ones((1, 3, 2)))
        grads = net_backward(net, cache, np.zeros((3, 2)))
        for arr in grads.param_arrays():
            assert np.array_equal(arr, np.zeros_like(arr))

    @pytest.mark.parametrize("input_dim,hidden_dim,seed", [(1, 1, 6), (3, 4, 21)])
    def test_matches_finite_differences(self, input_dim, hidden_dim, seed):
        # FD of a fixed linear readout of a batch's predictions w.r.t. every parameter
        net = one_layer_network(random_layer(input_dim, hidden_dim, seed), 2, seed)
        rng = seeded_rng(seed, 3)
        x = rng.uniform(-1, 1, (2, 3, input_dim))
        readout = rng.uniform(0.5, 1.5, (3, 2)) * rng.choice([-1.0, 1.0], (3, 2))

        def value():
            pred, _ = net_forward(net, x, keep_cache=False)
            return float(np.sum(readout * pred))

        _, cache = net_forward(net, x)
        grads = net_backward(net, cache, readout)
        eps = 1e-5
        worst = 0.0
        for arr, garr in zip(net.param_arrays(), grads.param_arrays()):
            flat, gflat = arr.reshape(-1), garr.reshape(-1)
            for idx in range(flat.size):
                saved = flat[idx]
                flat[idx] = saved + eps
                up = value()
                flat[idx] = saved - eps
                down = value()
                flat[idx] = saved
                fd = (up - down) / (2 * eps)
                rel = abs(gflat[idx] - fd) / max(1e-8, abs(gflat[idx]) + abs(fd))
                worst = max(worst, rel)
        assert worst < 1e-6

    def test_gated_off_candidate_path(self):
        p = scalar_params(weight=0.5, i=-100.0)
        net = LstmNetwork([p], np.ones((1, 1)), np.zeros(1))
        _, cache = net_forward(net, np.array([[1.0], [0.3]])[:, None])
        grads = net_backward(net, cache, np.array([[1.0]]))
        g = grads.layers[0]  # one hidden unit: row 2 is the candidate k
        assert abs(g.w[2, 0]) <= 1e-30
        assert abs(g.u[2, 0]) <= 1e-30
        assert abs(g.b[2]) <= 1e-30


def zero_network(dims, n):
    layers = []
    d = n
    for hid in dims:
        layers.append(LstmLayerParams(d, hid, np.zeros((4 * hid, d)),
                                      np.zeros((4 * hid, hid)), np.zeros(4 * hid)))
        d = hid
    return LstmNetwork(layers, np.zeros((n, d)), np.zeros(n))


class TestNetForward:
    def test_zero_network_predicts_zero(self):
        net = zero_network([4, 3], 2)
        pred, _ = net_forward(net, np.ones((5, 2))[:, None])
        assert np.array_equal(pred[0], np.zeros(2))

    def test_bit_identical_repeatability(self):
        net = init_params([6, 5], 3, 11)
        seq = seeded_rng(11, 4).uniform(-1, 1, (7, 3))
        p1, _ = net_forward(net, seq[:, None])
        p2, _ = net_forward(net, seq[:, None])
        assert np.array_equal(p1, p2)

    def test_empty_sequence_rejected(self):
        net = init_params([4], 2, 0)
        with pytest.raises(ValueError, match="empty"):
            net_forward(net, [])

    def test_manual_unroll_oracle(self):
        # a scalar math loop sums and rounds in its own order, so the two
        # agree to rounding
        net = init_params([5], 3, 17)
        seq = seeded_rng(17, 4).uniform(-1, 1, (3, 3))
        pred, _ = net_forward(net, seq[:, None])
        manual = scalar_unroll(net, seq)
        assert np.allclose(pred[0], manual, rtol=1e-12, atol=1e-15)

    def test_two_layer_composition_exact(self):
        net = init_params([5, 4], 3, 23)
        seq = seeded_rng(23, 4).uniform(-1, 1, (6, 3))
        pred, _ = net_forward(net, seq[:, None])
        # feed layer 0's h sequence into a one-layer net built from layer 1 + head
        lower = LstmNetwork([net.layers[0]], np.zeros((3, 5)), np.zeros(3))
        _, cache = net_forward(lower, seq[:, None])
        h_seq = cache.layers[0].h[1:, 0]
        upper = LstmNetwork([net.layers[1]], net.head_w, net.head_b)
        pred_upper, _ = net_forward(upper, h_seq[:, None])
        assert np.array_equal(pred, pred_upper)

    def test_batch_matches_single_sequences(self):
        net = init_params([5, 4], 3, 29)
        batch = seeded_rng(29, 4).uniform(-1, 1, (6, 7, 3))
        pred, _ = net_forward(net, batch)
        assert pred.shape == (7, 3)
        for b in range(7):
            single, _ = net_forward(net, batch[:, b:b + 1])
            assert np.allclose(pred[b], single[0], rtol=1e-12, atol=1e-15)

    def test_forward_without_cache(self):
        net = init_params([4], 2, 3)
        seq = seeded_rng(3, 4).uniform(-1, 1, (5, 2))
        pred, cache = net_forward(net, seq[:, None], keep_cache=False)
        assert cache is None
        assert np.array_equal(pred, net_forward(net, seq[:, None])[0])


def reference_layer(p, x):
    """One layer's forward record by the step arithmetic the in-place loop must
    keep bit for bit, each step in fresh arrays: one sigmoid over the fused
    block, tanh on the candidate, f*c_prev + i*k, then o*tanh(c). Step 0 adds
    h_0 U^T too, which the loop skips, so this stays the oracle for the skip."""
    steps, batch, d = x.shape
    hid = p.hidden_dim
    xw = (x.reshape(steps * batch, d) @ p.w.T).reshape(steps, batch, 4 * hid)
    xw += p.b
    gates, tanh_c = [], []
    c, h = [np.zeros((batch, hid))], [np.zeros((batch, hid))]
    for t in range(steps):
        pre = xw[t] + h[t] @ p.u.T
        g = 0.5 * (np.tanh(0.5 * pre) + 1.0)
        g[:, 2 * hid:3 * hid] = np.tanh(pre[:, 2 * hid:3 * hid])
        f, i, k, o = split_gates(g)
        c_t = f * c[t]
        c_t += i * k
        gates.append(g)
        c.append(c_t)
        tanh_c.append(np.tanh(c_t))
        h.append(o * tanh_c[t])
    return [np.stack(a) for a in (gates, c, tanh_c, h)]


class TestInPlaceSteps:
    """The in-place step loop keeps the bits of the per-step arithmetic."""

    # a one-step pass is step 0 alone, the step the loop finds by its carried
    # h_prev; the 12-step cases keep the ids they had before L varied
    @pytest.mark.parametrize("steps, batch, widths", [
        pytest.param(steps, batch, widths, id=f"{batch}-widths{k}" + ("-L1" if steps == 1 else ""))
        for steps in (12, 1) for batch in (1, 7, 32, 33)
        for k, widths in enumerate([(32,), (64, 64), (5, 3)])])
    def test_matches_the_unrolled_steps_bit_for_bit(self, steps, batch, widths):
        net = init_params(list(widths), 6, batch)
        x = seeded_rng(batch, len(widths)).uniform(-2, 2, (steps, batch, 6))
        records, layer_in = [], x
        for p in net.layers:
            records.append(reference_layer(p, layer_in))
            layer_in = records[-1][3][1:]
        expected = layer_in[-1] @ net.head_w.T + net.head_b
        pred, cache = net_forward(net, x)
        assert np.array_equal(pred, expected)
        assert np.array_equal(net_forward(net, x, keep_cache=False)[0], expected)
        layer_in = x
        for lc, (gates, c, tanh_c, h) in zip(cache.layers, records):
            assert np.array_equal(lc.x, layer_in)
            for got, want in ((lc.gates, gates), (lc.c, c), (lc.tanh_c, tanh_c), (lc.h, h)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
            layer_in = h[1:]

    @pytest.mark.parametrize("count", [1, 32, 33, 70])
    def test_predict_batches_is_net_forward_chunk_by_chunk(self, count):
        net = init_params([5, 3], 4, count)
        x = seeded_rng(count, 9).uniform(-2, 2, (7, count, 4))
        chunk = lstm_mod.PREDICT_CHUNK
        expected = np.concatenate([net_forward(net, x[:, lo:lo + chunk])[0]
                                   for lo in range(0, count, chunk)])
        assert np.array_equal(predict_batches(net, x), expected)

    def test_predict_batches_of_no_sequences_is_empty(self):
        net = init_params([5], 4, 0)
        assert predict_batches(net, np.empty((7, 0, 4))).shape == (0, 4)


def cache_arrays(cache):
    """Every array of a forward cache's record, prediction first."""
    return [cache.prediction] + [a for lc in cache.layers
                                 for a in (lc.x, lc.gates, lc.c, lc.tanh_c, lc.h)]


class TestCacheReuse:
    """A cache or gradient network passed back in is overwritten, bit for bit
    as if fresh."""

    @pytest.mark.parametrize("widths", [(32,), (64, 64), (5, 3)])
    @pytest.mark.parametrize("batch", [1, 7, 32, 33])
    @pytest.mark.parametrize("capacity", [0, 3], ids=["same", "larger"])
    def test_reused_cache_matches_a_fresh_pass(self, widths, batch, capacity):
        net = init_params(list(widths), 6, batch)
        rng = seeded_rng(batch, len(widths), 1)
        x = rng.uniform(-2, 2, (12, batch, 6))
        fresh_pred, fresh = net_forward(net, x)
        _, old = net_forward(net, rng.uniform(-2, 2, (12, batch + capacity, 6)))
        pred, cache = net_forward(net, x, cache=old)
        assert np.array_equal(pred, fresh_pred)
        for got, want in zip(cache_arrays(cache), cache_arrays(fresh)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        # the pass wrote into the passed cache's buffer and allocated none
        assert cache.buffer is old.buffer
        assert np.shares_memory(pred, old.buffer)
        for lc in cache.layers:
            for a in (lc.gates, lc.c, lc.tanh_c, lc.h, lc.dh):
                assert np.shares_memory(a, old.buffer)

    def test_a_cache_too_small_is_left_untouched(self):
        net = init_params([5, 3], 4, 2)
        rng = seeded_rng(2, 5)
        _, small = net_forward(net, rng.uniform(-1, 1, (6, 7, 4)))
        before = small.buffer.copy()
        x = rng.uniform(-1, 1, (6, 32, 4))
        pred, cache = net_forward(net, x, cache=small)
        assert np.array_equal(small.buffer, before)
        assert not np.shares_memory(cache.buffer, small.buffer)
        assert np.array_equal(pred, net_forward(net, x)[0])

    def test_single_sequence_reuses_a_batch_cache(self):
        net = init_params([5], 3, 4)
        rng = seeded_rng(4, 5)
        _, old = net_forward(net, rng.uniform(-1, 1, (6, 4, 3)))
        seq = rng.uniform(-1, 1, (6, 3))
        pred, cache = net_forward(net, seq[:, None], cache=old)
        assert pred.shape == (1, 3)
        assert cache.buffer is old.buffer
        assert np.array_equal(pred, net_forward(net, seq[:, None])[0])

    @pytest.mark.parametrize("widths,batch", [((32,), 7), ((64, 64), 33), ((5, 3), 1)])
    def test_backward_into_reused_buffers_matches_fresh_gradients(self, widths, batch):
        net = init_params(list(widths), 6, batch)
        rng = seeded_rng(batch, 7)
        x = rng.uniform(-2, 2, (12, batch, 6))
        upstream = rng.uniform(-1, 1, (batch, 6))
        _, fresh_cache = net_forward(net, x)
        fresh = net_backward(net, fresh_cache, upstream)
        _, old = net_forward(net, rng.uniform(-2, 2, (12, batch + 2, 6)))
        net_backward(net, old, rng.uniform(-1, 1, (batch + 2, 6)))
        _, cache = net_forward(net, x, cache=old)
        grads = net.clone()
        for arr in grads.param_arrays():
            arr.fill(np.nan)    # every array must be overwritten
        got = net_backward(net, cache, upstream, grads)
        assert got is grads
        for a, b in zip(got.param_arrays(), fresh.param_arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("widths", [(32,), (64, 64)])
    @pytest.mark.parametrize("batch", [1, 7, 33])
    def test_gradients_through_a_consumed_and_refilled_cache_match_fresh_ones(
            self, widths, batch):
        net = init_params(list(widths), 6, batch)
        rng = seeded_rng(batch, len(widths), 2)
        x = rng.uniform(-2, 2, (12, batch, 6))
        upstream = rng.uniform(-1, 1, (batch, 6))
        _, fresh_cache = net_forward(net, x)
        fresh = net_backward(net, fresh_cache, upstream)
        # the reused buffer's gates were overwritten by a backward pass and
        # then by a predict_batches pass that ran in it
        _, cache = net_forward(net, rng.uniform(-2, 2, (12, batch, 6)))
        net_backward(net, cache, rng.uniform(-1, 1, (batch, 6)))
        predict_batches(net, rng.uniform(-2, 2, (12, batch, 6)), cache)
        pred, refilled = net_forward(net, x, cache=cache)
        assert refilled is cache
        assert np.array_equal(pred, fresh_cache.prediction)
        got = net_backward(net, cache, upstream)
        for a, b in zip(got.param_arrays(), fresh.param_arrays()):
            assert np.array_equal(a, b)

    def test_gradients_of_another_shape_rejected(self):
        net = init_params([4], 2, 1)
        _, cache = net_forward(net, np.ones((3, 2))[:, None])
        with pytest.raises(ValueError, match="grads"):
            net_backward(net, cache, np.zeros((1, 2)), init_params([5], 2, 1))


class TestConsumedCache:
    """A cache whose gates were overwritten is refused until refilled."""

    def test_second_backward_on_one_cache_rejected(self):
        net = init_params([5, 3], 4, 3)
        x = seeded_rng(3, 11).uniform(-1, 1, (6, 7, 4))
        _, cache = net_forward(net, x)
        net_backward(net, cache, np.ones((7, 4)))
        with pytest.raises(ValueError, match="consumed"):
            net_backward(net, cache, np.ones((7, 4)))
        net_forward(net, x, cache=cache)
        net_backward(net, cache, np.ones((7, 4)))

    def test_backward_after_predict_batches_borrowed_the_cache_rejected(self):
        net = init_params([5], 4, 3)
        rng = seeded_rng(3, 12)
        x = rng.uniform(-1, 1, (6, 32, 4))
        _, cache = net_forward(net, x)
        expected = predict_batches(net, x[:, :20])
        assert np.array_equal(predict_batches(net, x[:, :20], cache), expected)
        with pytest.raises(ValueError, match="consumed"):
            net_backward(net, cache, np.ones((32, 4)))

    def test_a_buffer_too_small_is_left_untouched(self):
        net = init_params([5], 4, 3)
        rng = seeded_rng(3, 13)
        _, cache = net_forward(net, rng.uniform(-1, 1, (6, 2, 4)))
        before = cache.buffer.copy()
        x = rng.uniform(-1, 1, (6, 40, 4))
        assert np.array_equal(predict_batches(net, x, cache), predict_batches(net, x))
        assert np.array_equal(cache.buffer, before)
        assert not cache.consumed
        net_backward(net, cache, np.ones((2, 4)))


class TestNetBackward:
    def test_zero_upstream(self):
        net = init_params([4, 3], 2, 5)
        _, cache = net_forward(net, seeded_rng(5, 4).uniform(-1, 1, (4, 2))[:, None])
        grads = net_backward(net, cache, np.zeros((1, 2)))
        for arr in grads.param_arrays():
            assert np.array_equal(arr, np.zeros_like(arr))

    def test_layer0_gradients_flow_through_depth(self):
        net, (seq, target) = gradcheck_instance([8, 8], 3, 5, 13310)
        pred, cache = net_forward(net, seq[:, None])
        grads = net_backward(net, cache, (pred - target) / 3)
        g0 = grads.layers[0]
        assert np.max(np.abs(g0.w)) > 0
        assert np.max(np.abs(g0.u)) > 0
        assert np.max(np.abs(g0.b)) > 0

    def test_cache_mismatch_rejected(self):
        net_a = init_params([4], 2, 1)
        net_b = init_params([4, 4], 2, 1)
        _, cache = net_forward(net_a, np.ones((3, 2))[:, None])
        with pytest.raises(ValueError, match="cache"):
            net_backward(net_b, cache, np.zeros((1, 2)))


class TestGradientCheck:
    def test_zero_network_zero_target(self):
        net = zero_network([3], 2)
        assert gradient_check(net, (np.zeros((3, 2)), np.zeros(2)), 1e-5) == 0.0

    @pytest.mark.parametrize("dims,n,length,seed", GRADCHECK_CASES)
    def test_seeded_networks_pass(self, dims, n, length, seed):
        net, sample = gradcheck_instance(dims, n, length, seed)
        assert gradient_check(net, sample, 1e-5) < 1e-6

    def test_corrupted_backward_detected(self, monkeypatch):
        net, sample = gradcheck_instance([6], 2, 4, 1276)
        assert gradient_check(net, sample, 1e-5) < 1e-6
        exact = lstm_mod._layer_backward

        def corrupted(p, lc, dh_seq, g):
            rows = exact(p, lc, dh_seq, g)
            g.w[2 * p.hidden_dim:3 * p.hidden_dim] *= -1.0  # candidate gate's sign flipped
            return rows

        monkeypatch.setattr(lstm_mod, "_layer_backward", corrupted)
        assert gradient_check(net, sample, 1e-5) > 1e-2

    def test_invalid_eps(self):
        net = zero_network([3], 2)
        with pytest.raises(ValueError):
            gradient_check(net, (np.zeros((3, 2)), np.zeros(2)), 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        net = zero_network([3], 2)
        with pytest.raises(ValueError, match="finite"):
            gradient_check(net, (np.zeros((3, 2)), np.zeros(2)), eps)

    def test_nan_gradient_fails_the_gate(self, nan_gradient):
        net, sample = gradcheck_instance([6], 2, 4, 1276)
        err = gradient_check(net, sample, 1e-5)
        assert not err < 1e-6


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params([8, 4], 3, 99)
        b = init_params([8, 4], 3, 99)
        for x, y in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(x, y)

    def test_fan_in_bounds(self):
        net = init_params([8, 4], 3, 7)
        assert np.max(np.abs(net.layers[0].w)) <= 1 / math.sqrt(3)
        assert np.max(np.abs(net.layers[0].u)) <= 1 / math.sqrt(8)
        assert np.max(np.abs(net.layers[1].w)) <= 1 / math.sqrt(8)
        assert np.max(np.abs(net.layers[1].u)) <= 1 / math.sqrt(4)
        assert np.max(np.abs(net.head_w)) <= 1 / math.sqrt(4)

    def test_bias_initialization(self):
        net = init_params([6], 4, 3)
        layer = net.layers[0]
        b_f, b_i, b_k, b_o = np.split(layer.b, 4)
        assert np.array_equal(b_f, np.ones(6))
        assert np.array_equal(b_i, np.zeros(6))
        assert np.array_equal(b_k, np.zeros(6))
        assert np.array_equal(b_o, np.zeros(6))
        assert np.array_equal(net.head_b, np.zeros(4))

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params([], 3, 0)


class TestActivations:
    """The one-pass gate activation, read from net_forward's forward record."""

    @staticmethod
    def gates(z):
        """The activated f, i, k and o of one step whose four gates all get the
        pre-activations z: a one-step layer with identity w and zero u and b,
        one sequence per value of z."""
        z = np.asarray(z, dtype=np.float64)
        p = LstmLayerParams(4, 1, np.eye(4), np.zeros((4, 1)), np.zeros(4))
        net = LstmNetwork([p], np.zeros((1, 1)), np.zeros(1))
        _, cache = net_forward(net, np.repeat(z[None, :, None], 4, axis=2))
        return [g[:, 0] for g in split_gates(cache.layers[0].gates[0])]

    @classmethod
    def sig(cls, z):
        """The forget gate, a sigmoid as the input and output gates are."""
        return cls.gates(z)[0]

    def test_analytic_points(self):
        f, i, k, o = self.gates([0.0])
        assert f[0] == i[0] == o[0] == 0.5
        assert k[0] == 0.0

    def test_sigmoid_derivative_at_zero(self):
        s = self.sig([0.0])[0]
        d = s * (1.0 - s)
        assert d == 0.25
        eps = 1e-6
        fd = (self.sig([eps])[0] - self.sig([-eps])[0]) / (2 * eps)
        assert abs(d - fd) < 1e-8

    def test_sigmoid_derivative_matches_finite_differences(self):
        z = seeded_rng(4, 0).uniform(-5.0, 5.0, 1000)
        eps = 1e-6
        s = self.sig(z)
        analytic = s * (1.0 - s)
        fd = (self.sig(z + eps) - self.sig(z - eps)) / (2 * eps)
        rel = np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
        assert rel.max() < 1e-6

    def test_gates_keep_the_sigmoid_and_tanh_bits(self):
        # nonzero z: the projection keeps every such value's bits, while a BLAS
        # product turns a -0.0 input into +0.0 before the activation sees it
        z = seeded_rng(5, 0).uniform(-30.0, 30.0, 1000)
        f, i, k, o = self.gates(z)
        sigmoid = 0.5 * (np.tanh(0.5 * z) + 1.0)
        for gate in (f, i, o):
            assert gate.tobytes() == sigmoid.tobytes()
        assert k.tobytes() == np.tanh(z).tobytes()

    def test_sigmoid_extreme_inputs_stay_finite(self):
        f, i, k, o = self.gates([-1e4, 1e4])
        for gate in (f, i, o):
            assert np.array_equal(gate, np.array([0.0, 1.0]))
        assert np.array_equal(k, np.array([-1.0, 1.0]))
