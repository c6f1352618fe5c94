"""Stacked LSTM network with an exact hand-derived backward pass.

One recurrence step computes, in order,

    f_t = g(W_f x_t + U_f h_{t-1} + b_f)        forget gate
    i_t = g(W_i x_t + U_i h_{t-1} + b_i)        input gate
    k_t = tanh(W_k x_t + U_k h_{t-1} + b_k)     candidate
    c_t = f_t * c_{t-1} + i_t * k_t             cell state
    o_t = g(W_o x_t + U_o h_{t-1} + b_o)        output gate
    h_t = o_t * tanh(c_t)

with g the gate activation (sigmoid by default). A network stacks one or
more such layers and applies a dense head to the top layer's final h.

Parameters are stored with the four gates fused row-wise in the order
f, i, k, o: w is (4H, D), u is (4H, H), b is (4H,). The per-gate blocks
(w_f, u_k, ...) are zero-copy views into the fused arrays.

The network runs time-major over a batch of B sequences: layer inputs are
(L, B, D) arrays. The input projection x_t W^T + b of all L*B rows is one
matrix product taken before the recurrence, which then only adds h_{t-1} U^T
to one (B, 4H) gate block per step; the backward pass forms each weight
gradient as one product over the L*B rows (Appleyard et al. 2016,
arXiv:1604.01946). A single (L, n) sequence is the B = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (ActivationKind, activation_apply, activation_derivative_from_output,
                     affine_combine, as_vector)

# Test-only hook: when True, the candidate-gate term of every backward step
# has its sign flipped. Used to prove gradient_check detects a wrong backward.
_CORRUPT_BACKWARD = False


class _GateViews:
    """Per-gate views into fused (4H, ...) arrays, shared by params and grads."""

    def _block(self, arr: np.ndarray, g: int) -> np.ndarray:
        hid = self.hidden_dim
        return arr[g * hid:(g + 1) * hid]

    @property
    def w_f(self): return self._block(self.w, 0)
    @property
    def w_i(self): return self._block(self.w, 1)
    @property
    def w_k(self): return self._block(self.w, 2)
    @property
    def w_o(self): return self._block(self.w, 3)
    @property
    def u_f(self): return self._block(self.u, 0)
    @property
    def u_i(self): return self._block(self.u, 1)
    @property
    def u_k(self): return self._block(self.u, 2)
    @property
    def u_o(self): return self._block(self.u, 3)
    @property
    def b_f(self): return self._block(self.b, 0)
    @property
    def b_i(self): return self._block(self.b, 1)
    @property
    def b_k(self): return self._block(self.b, 2)
    @property
    def b_o(self): return self._block(self.b, 3)


@dataclass
class LstmLayerParams(_GateViews):
    """One LSTM layer: fused gate weights w (4H, D), u (4H, H), biases b (4H,)."""

    input_dim: int
    hidden_dim: int
    w: np.ndarray
    u: np.ndarray
    b: np.ndarray
    gate_activation: ActivationKind = ActivationKind.SIGMOID

    def __post_init__(self):
        hid, d = self.hidden_dim, self.input_dim
        self.w = np.ascontiguousarray(self.w, dtype=np.float64)
        self.u = np.ascontiguousarray(self.u, dtype=np.float64)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.w.shape != (4 * hid, d):
            raise ValueError(f"w must be {(4*hid, d)}, got {self.w.shape}")
        if self.u.shape != (4 * hid, hid):
            raise ValueError(f"u must be {(4*hid, hid)}, got {self.u.shape}")
        if self.b.shape != (4 * hid,):
            raise ValueError(f"b must be {(4*hid,)}, got {self.b.shape}")
        if self.gate_activation not in (ActivationKind.SIGMOID, ActivationKind.RELU):
            raise ValueError(f"gate activation must be sigmoid or relu, got {self.gate_activation}")

    @classmethod
    def from_gates(cls, w_f, w_i, w_k, w_o, u_f, u_i, u_k, u_o, b_f, b_i, b_k, b_o,
                   gate_activation: ActivationKind = ActivationKind.SIGMOID) -> "LstmLayerParams":
        w = np.vstack([w_f, w_i, w_k, w_o]).astype(np.float64)
        u = np.vstack([u_f, u_i, u_k, u_o]).astype(np.float64)
        b = np.concatenate([b_f, b_i, b_k, b_o]).astype(np.float64)
        hid = w.shape[0] // 4
        return cls(input_dim=w.shape[1], hidden_dim=hid, w=w, u=u, b=b,
                   gate_activation=gate_activation)

    def clone(self) -> "LstmLayerParams":
        return LstmLayerParams(self.input_dim, self.hidden_dim,
                               self.w.copy(), self.u.copy(), self.b.copy(),
                               self.gate_activation)


@dataclass
class LstmStepState:
    """Gate activations, cell state and output of one recurrence step."""

    f: np.ndarray
    i: np.ndarray
    k: np.ndarray
    o: np.ndarray
    c: np.ndarray
    h: np.ndarray


@dataclass
class LayerGrads(_GateViews):
    """Gradients for one layer in the same fused layout as LstmLayerParams."""

    hidden_dim: int
    w: np.ndarray
    u: np.ndarray
    b: np.ndarray


def _flat_arrays(obj) -> list[np.ndarray]:
    return [a for l in obj.layers for a in (l.w, l.u, l.b)] + [obj.head_w, obj.head_b]


@dataclass
class LstmNetwork:
    """Stacked LSTM layers plus a dense head mapping the final h to n outputs."""

    layers: list[LstmLayerParams]
    head_w: np.ndarray
    head_b: np.ndarray
    head_activation: ActivationKind = ActivationKind.IDENTITY

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for lo, hi in zip(self.layers, self.layers[1:]):
            if hi.input_dim != lo.hidden_dim:
                raise ValueError(
                    f"layer dimension chain broken: {lo.hidden_dim} -> {hi.input_dim}")
        self.head_w = np.ascontiguousarray(self.head_w, dtype=np.float64)
        self.head_b = np.ascontiguousarray(self.head_b, dtype=np.float64)
        last = self.layers[-1].hidden_dim
        if self.head_w.ndim != 2 or self.head_w.shape[1] != last:
            raise ValueError(f"head_w must be (n, {last}), got {self.head_w.shape}")
        if self.head_b.shape != (self.head_w.shape[0],):
            raise ValueError(f"head_b must be ({self.head_w.shape[0]},), got {self.head_b.shape}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.head_w.shape[0]

    def clone(self) -> "LstmNetwork":
        return LstmNetwork([l.clone() for l in self.layers],
                           self.head_w.copy(), self.head_b.copy(), self.head_activation)

    def param_arrays(self) -> list[np.ndarray]:
        """Flat parameter list in a fixed order: per layer w, u, b; then head."""
        return _flat_arrays(self)


@dataclass
class NetworkGradients:
    layers: list[LayerGrads]
    head_w: np.ndarray
    head_b: np.ndarray

    @classmethod
    def zeros_like(cls, net: LstmNetwork) -> "NetworkGradients":
        return cls([LayerGrads(l.hidden_dim, np.zeros_like(l.w), np.zeros_like(l.u),
                               np.zeros_like(l.b)) for l in net.layers],
                   np.zeros_like(net.head_w), np.zeros_like(net.head_b))

    def arrays(self) -> list[np.ndarray]:
        """Gradient arrays in the order of LstmNetwork.param_arrays."""
        return _flat_arrays(self)


@dataclass
class _LayerCache:
    """One layer's time-major forward record: input x (L, B, D), activated gates
    (L, B, 4H), tanh_c (L, B, H), and c, h (L+1, B, H) led by the zero state."""

    x: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class ForwardCache:
    """Everything net_backward needs: per-layer records and the head output."""

    layers: list[_LayerCache]
    prediction: np.ndarray    # as net_forward returned it: (n,) or (B, n)


def _cell(p: LstmLayerParams, pre: np.ndarray, c_prev: np.ndarray):
    """The gate equations of one step, given the pre-activation x_t W^T + b + h_{t-1} U^T.

    Works on single rows and on (B, ·) blocks alike. Returns the activated
    gates (f, i, k, o fused like the pre-activations), c_t, tanh(c_t) and h_t.
    """
    hid = p.hidden_dim
    # one activation call over the fused block, then tanh over the candidate
    # slice: cheaper per step than three calls on the f, i and o slices
    gates = activation_apply(pre, p.gate_activation)
    gates[..., 2 * hid:3 * hid] = np.tanh(pre[..., 2 * hid:3 * hid])
    c = gates[..., :hid] * c_prev
    c += gates[..., hid:2 * hid] * gates[..., 2 * hid:3 * hid]
    tanh_c = np.tanh(c)
    return gates, c, tanh_c, gates[..., 3 * hid:] * tanh_c


def lstm_step_forward(p: LstmLayerParams, x_t: np.ndarray, h_prev: np.ndarray,
                      c_prev: np.ndarray) -> LstmStepState:
    """One recurrence step on single vectors, through the same gate code as net_forward."""
    hid = p.hidden_dim
    c_prev = as_vector(c_prev)
    if c_prev.shape != (hid,):
        raise ValueError(f"c_prev must have length {hid}, got {c_prev.shape[0]}")
    gates, c, _, h = _cell(p, affine_combine(p.w, x_t, p.u, h_prev, p.b), c_prev)
    return LstmStepState(*(gates[g * hid:(g + 1) * hid] for g in range(4)), c=c, h=h)


def _layer_forward(p: LstmLayerParams, x: np.ndarray, keep_cache: bool):
    """Run one layer over (L, B, D) inputs; returns the (L, B, H) h sequence and,
    with keep_cache, the layer's _LayerCache."""
    steps, batch, d = x.shape
    hid = p.hidden_dim
    xw = (x.reshape(steps * batch, d) @ p.w.T).reshape(steps, batch, 4 * hid)
    xw += p.b
    h_all = np.zeros((steps + 1, batch, hid))
    c = np.zeros((batch, hid))
    if keep_cache:
        gates_all = np.empty((steps, batch, 4 * hid))
        c_all = np.zeros((steps + 1, batch, hid))
        tanh_all = np.empty((steps, batch, hid))
    for t in range(steps):
        gates, c, tanh_c, h_all[t + 1] = _cell(p, xw[t] + h_all[t] @ p.u.T, c)
        if keep_cache:
            gates_all[t], c_all[t + 1], tanh_all[t] = gates, c, tanh_c
    cache = _LayerCache(x, gates_all, c_all, tanh_all, h_all) if keep_cache else None
    return h_all[1:], cache


def net_forward(net: LstmNetwork, seq, keep_cache: bool = True
                ) -> tuple[np.ndarray, ForwardCache | None]:
    """Run sequences through all layers and the head.

    `seq` is one sequence, an (L, n) array or a length-L list of vectors, or a
    time-major (L, B, n) batch, L >= 1. Initial h and c are zero for every
    layer. Returns the head output, (n,) or (B, n), and the caches required
    by net_backward, or None when keep_cache is false.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.size == 0:
        raise ValueError("net_forward: empty input sequence")
    single = x.ndim == 2
    if single:
        x = x[:, None, :]
    if x.ndim != 3 or x.shape[2] != net.input_dim:
        raise ValueError(
            f"net_forward: expected (L, {net.input_dim}) or (L, B, {net.input_dim}) input, "
            f"got {np.shape(seq)}")
    layer_caches: list[_LayerCache] = []
    for p in net.layers:
        x, cache = _layer_forward(p, x, keep_cache)
        layer_caches.append(cache)
    head_pre = x[-1] @ net.head_w.T + net.head_b
    prediction = activation_apply(head_pre, net.head_activation)
    if single:
        prediction = prediction[0]
    cache = ForwardCache(layer_caches, prediction) if keep_cache else None
    return prediction, cache


def predict_batches(net: LstmNetwork, x: np.ndarray, chunk: int) -> np.ndarray:
    """Forward-only (N, n) predictions for a time-major (L, N, n) input, `chunk`
    sequences per pass so that no pass holds more than a chunk's activations."""
    return np.concatenate([net_forward(net, x[:, lo:lo + chunk], keep_cache=False)[0]
                           for lo in range(0, x.shape[1], chunk)])


def _layer_backward(p: LstmLayerParams, lc: _LayerCache, dh_seq: np.ndarray,
                    g: LayerGrads) -> np.ndarray:
    """BPTT through one layer, given the (L, B, H) gradient arriving at each h_t
    from above. Adds the parameter gradients into g; returns the (L*B, 4H)
    gradient at the gate pre-activations."""
    steps, batch, d = lc.x.shape
    hid = p.hidden_dim
    gact = p.gate_activation
    dpre = np.empty((steps, batch, 4 * hid))
    dh_carry = np.zeros((batch, hid))
    dc = np.zeros((batch, hid))
    for t in range(steps - 1, -1, -1):
        dh = dh_seq[t] + dh_carry
        gates, tanh_c = lc.gates[t], lc.tanh_c[t]
        f, i, k, o = (gates[:, q * hid:(q + 1) * hid] for q in range(4))
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        # gate derivatives come from the cached activations
        dpre[t, :, :hid] = dc * lc.c[t] * activation_derivative_from_output(gact, f)
        dpre[t, :, hid:2 * hid] = dc * k * activation_derivative_from_output(gact, i)
        dpre[t, :, 2 * hid:3 * hid] = dc * i * (1.0 - k * k)
        dpre[t, :, 3 * hid:] = dh * tanh_c * activation_derivative_from_output(gact, o)
        if _CORRUPT_BACKWARD:
            dpre[t, :, 2 * hid:3 * hid] *= -1.0
        dc = dc * f
        dh_carry = dpre[t] @ p.u
    rows = dpre.reshape(steps * batch, 4 * hid)
    g.w += rows.T @ lc.x.reshape(steps * batch, d)
    g.u += rows.T @ lc.h[:-1].reshape(steps * batch, hid)
    g.b += rows.sum(axis=0)
    return rows


def net_backward(net: LstmNetwork, cache: ForwardCache,
                 dloss_dpred: np.ndarray) -> NetworkGradients:
    """Exact loss gradient w.r.t. every parameter, by backpropagation through time.

    `dloss_dpred` has the shape of the prediction net_forward returned; the
    gradients of a batch are the sums over its sequences.
    """
    if len(cache.layers) != len(net.layers):
        raise ValueError("cache does not match network: layer count differs")
    for p, lc in zip(net.layers, cache.layers):
        if lc.x.shape[2] != p.input_dim or lc.h.shape[2] != p.hidden_dim:
            raise ValueError("cache does not match network: layer width differs")
    dloss_dpred = np.asarray(dloss_dpred, dtype=np.float64)
    if dloss_dpred.shape != cache.prediction.shape:
        raise ValueError(f"dloss_dpred must have shape {cache.prediction.shape}, "
                         f"got {dloss_dpred.shape}")

    grads = NetworkGradients.zeros_like(net)
    out = cache.prediction.reshape(-1, net.output_dim)
    dpre_head = dloss_dpred.reshape(out.shape) * activation_derivative_from_output(
        net.head_activation, out)
    top = cache.layers[-1]
    grads.head_w += dpre_head.T @ top.h[-1]
    grads.head_b += dpre_head.sum(axis=0)

    # dh arriving at each step of the current layer from the layer above
    dh_seq = np.zeros_like(top.tanh_c)
    dh_seq[-1] = dpre_head @ net.head_w
    for j in range(len(net.layers) - 1, -1, -1):
        dpre = _layer_backward(net.layers[j], cache.layers[j], dh_seq, grads.layers[j])
        if j > 0:
            dh_seq = (dpre @ net.layers[j].w).reshape(cache.layers[j].x.shape)
    return grads


def gradient_check(net: LstmNetwork, sample, eps: float) -> float:
    """Max relative error between net_backward and central finite differences.

    `sample` is a (sequence, target) pair. The scalar functional checked is
    the smooth quadratic 0.5 * mean((prediction - target)^2); relative error
    for each parameter is |a - fd| / max(1e-8, |a| + |fd|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    seq, target = sample
    target = as_vector(target)
    m = target.shape[0]

    def loss_of(network: LstmNetwork) -> float:
        pred, _ = net_forward(network, seq, keep_cache=False)
        d = pred - target
        return float(0.5 * np.dot(d, d) / m)

    pred, cache = net_forward(net, seq)
    analytic = net_backward(net, cache, (pred - target) / m)

    worst = 0.0
    for arr, garr in zip(net.param_arrays(), analytic.arrays()):
        flat = arr.reshape(-1)
        gflat = garr.reshape(-1)
        for idx in range(flat.shape[0]):
            saved = flat[idx]
            flat[idx] = saved + eps
            up = loss_of(net)
            flat[idx] = saved - eps
            down = loss_of(net)
            flat[idx] = saved
            fd = (up - down) / (2.0 * eps)
            a = gflat[idx]
            rel = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            if rel > worst:
                worst = rel
    return worst


def init_params(layer_dims: list[int], n: int, seed: int,
                gate_activation: ActivationKind = ActivationKind.SIGMOID,
                head_activation: ActivationKind = ActivationKind.IDENTITY) -> LstmNetwork:
    """Build a seeded random network with `layer_dims` hidden widths and n in/out.

    Weights are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)] drawn from
    Generator(PCG64(SeedSequence(seed))) in a fixed order (per layer w then u,
    finally the head matrix). Biases start at zero except the forget-gate
    biases, which start at 1.0.
    """
    if not layer_dims:
        raise ValueError("layer_dims must be nonempty")
    if any(d <= 0 for d in layer_dims) or n <= 0:
        raise ValueError("all dimensions must be positive")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    layers = []
    d = n
    for hid in layer_dims:
        bw = 1.0 / np.sqrt(d)
        bu = 1.0 / np.sqrt(hid)
        w = rng.uniform(-bw, bw, size=(4 * hid, d))
        u = rng.uniform(-bu, bu, size=(4 * hid, hid))
        b = np.zeros(4 * hid)
        b[:hid] = 1.0
        layers.append(LstmLayerParams(d, hid, w, u, b, gate_activation))
        d = hid
    bh = 1.0 / np.sqrt(d)
    head_w = rng.uniform(-bh, bh, size=(n, d))
    head_b = np.zeros(n)
    return LstmNetwork(layers, head_w, head_b, head_activation)
