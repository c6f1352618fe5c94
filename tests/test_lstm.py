import math

import numpy as np
import pytest

import dlstf.lstm as lstm_mod
from dlstf.linalg import ActivationKind
from dlstf.lstm import (LstmLayerParams, LstmNetwork, NetworkGradients,
                        gradient_check, init_params, lstm_step_forward,
                        net_backward, net_forward)
from conftest import GRADCHECK_CASES, gradcheck_instance, seeded_rng


def scalar_params(weight=1.0, bias=0.0, **bias_overrides):
    blocks = {f"w_{g}": np.array([[weight]]) for g in "fiko"}
    blocks.update({f"u_{g}": np.array([[weight]]) for g in "fiko"})
    blocks.update({f"b_{g}": np.array([bias_overrides.get(g, bias)]) for g in "fiko"})
    return LstmLayerParams.from_gates(
        blocks["w_f"], blocks["w_i"], blocks["w_k"], blocks["w_o"],
        blocks["u_f"], blocks["u_i"], blocks["u_k"], blocks["u_o"],
        blocks["b_f"], blocks["b_i"], blocks["b_k"], blocks["b_o"])


def random_layer(input_dim, hidden_dim, seed):
    rng = seeded_rng(seed)
    return LstmLayerParams(
        input_dim, hidden_dim,
        rng.uniform(-1, 1, (4 * hidden_dim, input_dim)),
        rng.uniform(-1, 1, (4 * hidden_dim, hidden_dim)),
        rng.uniform(-1, 1, 4 * hidden_dim))


class TestStepForward:
    def test_all_zero_parameters(self):
        p = LstmLayerParams(2, 3, np.zeros((12, 2)), np.zeros((12, 3)), np.zeros(12))
        st = lstm_step_forward(p, np.array([5.0, -1.0]), np.zeros(3), np.zeros(3))
        assert np.array_equal(st.f, np.full(3, 0.5))
        assert np.array_equal(st.i, np.full(3, 0.5))
        assert np.array_equal(st.o, np.full(3, 0.5))
        assert np.array_equal(st.k, np.zeros(3))
        assert np.array_equal(st.c, np.zeros(3))
        assert np.array_equal(st.h, np.zeros(3))

    def test_scalar_hand_computation(self):
        # independent scalar oracle computed with math formulas only
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        tanh1 = math.tanh(1.0)
        c_expect = sig1 * tanh1
        h_expect = sig1 * math.tanh(c_expect)
        st = lstm_step_forward(scalar_params(), np.array([1.0]), np.zeros(1), np.zeros(1))
        assert abs(st.f[0] - sig1) < 1e-4
        assert abs(st.i[0] - sig1) < 1e-4
        assert abs(st.o[0] - sig1) < 1e-4
        assert abs(st.k[0] - tanh1) < 1e-4
        assert abs(st.c[0] - c_expect) < 1e-4
        assert abs(st.h[0] - h_expect) < 1e-4
        assert abs(st.c[0] - 0.55677) < 1e-4
        assert abs(st.h[0] - 0.3696) < 1e-4

    def test_saturated_gates_preserve_memory(self):
        p = scalar_params(weight=0.0, f=100.0, i=-100.0)
        c_prev = np.array([0.37])
        st = lstm_step_forward(p, np.array([2.0]), np.array([0.5]), c_prev)
        assert abs(st.c[0] - c_prev[0]) < 1e-12

    def test_gate_ranges(self):
        for seed in range(10):
            p = random_layer(3, 5, seed)
            rng = seeded_rng(seed, 9)
            st = lstm_step_forward(p, rng.uniform(-10, 10, 3),
                                   rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
            for gate in (st.f, st.i, st.o):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(st.k > -1.0) and np.all(st.k < 1.0)

    def test_shape_mismatch(self):
        p = random_layer(3, 5, 0)
        with pytest.raises(ValueError):
            lstm_step_forward(p, np.zeros(4), np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            lstm_step_forward(p, np.zeros(3), np.zeros(5), np.zeros(4))


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
        for arr in grads.arrays():
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
        for arr, garr in zip(net.param_arrays(), grads.arrays()):
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
        _, cache = net_forward(net, np.array([[1.0], [0.3]]))
        grads = net_backward(net, cache, np.array([1.0]))
        g = grads.layers[0]
        assert abs(g.w_k[0, 0]) <= 1e-30
        assert abs(g.u_k[0, 0]) <= 1e-30
        assert abs(g.b_k[0]) <= 1e-30


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
        pred, _ = net_forward(net, np.ones((5, 2)))
        assert np.array_equal(pred, np.zeros(2))

    def test_bit_identical_repeatability(self):
        net = init_params([6, 5], 3, 11)
        seq = seeded_rng(11, 4).uniform(-1, 1, (7, 3))
        p1, _ = net_forward(net, seq)
        p2, _ = net_forward(net, seq)
        assert np.array_equal(p1, p2)

    def test_empty_sequence_rejected(self):
        net = init_params([4], 2, 0)
        with pytest.raises(ValueError, match="empty"):
            net_forward(net, [])

    def test_manual_unroll_oracle(self):
        # the unroll projects one input row at a time, the network all rows
        # in one product, so the two agree to rounding
        net = init_params([5], 3, 17)
        seq = seeded_rng(17, 4).uniform(-1, 1, (3, 3))
        pred, _ = net_forward(net, seq)
        p = net.layers[0]
        h, c = np.zeros(5), np.zeros(5)
        for t in range(3):
            st = lstm_step_forward(p, seq[t], h, c)
            h, c = st.h, st.c
        manual = net.head_w @ h + net.head_b
        assert np.allclose(pred, manual, rtol=1e-12, atol=1e-15)

    def test_two_layer_composition_exact(self):
        net = init_params([5, 4], 3, 23)
        seq = seeded_rng(23, 4).uniform(-1, 1, (6, 3))
        pred, _ = net_forward(net, seq)
        # feed layer 0's h sequence into a one-layer net built from layer 1 + head
        lower = LstmNetwork([net.layers[0]], np.zeros((3, 5)), np.zeros(3))
        _, cache = net_forward(lower, seq)
        h_seq = cache.layers[0].h[1:, 0]
        upper = LstmNetwork([net.layers[1]], net.head_w, net.head_b, net.head_activation)
        pred_upper, _ = net_forward(upper, h_seq)
        assert np.array_equal(pred, pred_upper)

    def test_batch_matches_single_sequences(self):
        net = init_params([5, 4], 3, 29)
        batch = seeded_rng(29, 4).uniform(-1, 1, (6, 7, 3))
        pred, _ = net_forward(net, batch)
        assert pred.shape == (7, 3)
        for b in range(7):
            single, _ = net_forward(net, batch[:, b])
            assert np.allclose(pred[b], single, rtol=1e-12, atol=1e-15)

    def test_forward_without_cache(self):
        net = init_params([4], 2, 3)
        seq = seeded_rng(3, 4).uniform(-1, 1, (5, 2))
        pred, cache = net_forward(net, seq, keep_cache=False)
        assert cache is None
        assert np.array_equal(pred, net_forward(net, seq)[0])


class TestNetBackward:
    def test_zero_upstream(self):
        net = init_params([4, 3], 2, 5)
        _, cache = net_forward(net, seeded_rng(5, 4).uniform(-1, 1, (4, 2)))
        grads = net_backward(net, cache, np.zeros(2))
        for arr in grads.arrays():
            assert np.array_equal(arr, np.zeros_like(arr))

    def test_layer0_gradients_flow_through_depth(self):
        net, (seq, target) = gradcheck_instance([8, 8], 3, 5, 13310)
        pred, cache = net_forward(net, seq)
        grads = net_backward(net, cache, (pred - target) / 3)
        g0 = grads.layers[0]
        assert np.max(np.abs(g0.w)) > 0
        assert np.max(np.abs(g0.u)) > 0
        assert np.max(np.abs(g0.b)) > 0

    def test_cache_mismatch_rejected(self):
        net_a = init_params([4], 2, 1)
        net_b = init_params([4, 4], 2, 1)
        _, cache = net_forward(net_a, np.ones((3, 2)))
        with pytest.raises(ValueError, match="cache"):
            net_backward(net_b, cache, np.zeros(2))


class TestGradientCheck:
    def test_zero_network_zero_target(self):
        net = zero_network([3], 2)
        assert gradient_check(net, (np.zeros((3, 2)), np.zeros(2)), 1e-5) == 0.0

    @pytest.mark.parametrize("dims,n,length,seed", GRADCHECK_CASES)
    def test_seeded_networks_pass(self, dims, n, length, seed):
        net, sample = gradcheck_instance(dims, n, length, seed)
        assert gradient_check(net, sample, 1e-5) < 1e-6

    def test_corrupted_backward_detected(self):
        net, sample = gradcheck_instance([6], 2, 4, 1276)
        lstm_mod._CORRUPT_BACKWARD = True
        try:
            err = gradient_check(net, sample, 1e-5)
        finally:
            lstm_mod._CORRUPT_BACKWARD = False
        assert err > 1e-2

    def test_invalid_eps(self):
        net = zero_network([3], 2)
        with pytest.raises(ValueError):
            gradient_check(net, (np.zeros((3, 2)), np.zeros(2)), 0.0)


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
        assert np.array_equal(layer.b_f, np.ones(6))
        assert np.array_equal(layer.b_i, np.zeros(6))
        assert np.array_equal(layer.b_k, np.zeros(6))
        assert np.array_equal(layer.b_o, np.zeros(6))
        assert np.array_equal(net.head_b, np.zeros(4))

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params([], 3, 0)

    def test_gate_view_shapes(self):
        net = init_params([5], 3, 1)
        layer = net.layers[0]
        for block in (layer.w_f, layer.w_i, layer.w_k, layer.w_o):
            assert block.shape == (5, 3)
        for block in (layer.u_f, layer.u_i, layer.u_k, layer.u_o):
            assert block.shape == (5, 5)
        for block in (layer.b_f, layer.b_i, layer.b_k, layer.b_o):
            assert block.shape == (5,)
        # views share memory with the fused arrays
        assert layer.w_f.base is layer.w
