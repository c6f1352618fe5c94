"""Stacked LSTM network with an exact hand-derived backward pass.

One recurrence step computes, in order,

    f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)    forget gate
    i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)    input gate
    k_t = tanh(W_k x_t + U_k h_{t-1} + b_k)       candidate
    c_t = f_t * c_{t-1} + i_t * k_t               cell state
    o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)    output gate
    h_t = o_t * tanh(c_t)

A network stacks one or more such layers and applies a linear dense head to
the top layer's final h.

Parameters are stored with the four gates fused row-wise in the order
f, i, k, o: w is (4H, D), u is (4H, H), b is (4H,); gate g's block of w is
w[g*H:(g+1)*H], and likewise for u and b.

The network runs time-major over a batch of B sequences: layer inputs are
(L, B, D) arrays. The input projection x_t W^T + b of all L*B rows is one
matrix product taken before the recurrence, which then only adds h_{t-1} U^T
to one (B, 4H) gate block per step; the backward pass forms each weight
gradient as one product over the L*B rows (Appleyard et al. 2016,
arXiv:1604.01946). One (L, n) sequence runs as the B = 1 batch seq[:, None].
The forward-only pass writes every step's gates into one (B, 4H) slot whose
f, i, k and o views it makes once: at B = 1 numpy's per-call cost bounds a step.

Training keeps its activations in one buffer (ForwardCache) and nothing beside
it: the backward writes each step's gate gradients over that step's gates, and
validation's passes run in the same buffer. Either consumes the cache, which
net_backward then refuses until net_forward refills it.

Each step activates its (B, 4H) gate block in one pass, s * (tanh(s * v) + a)
with per-gate scale s = [1/2, 1/2, 1, 1/2] and shift a = [1, 1, -0.0, 1]: f, i
and o get sigmoid(v) = (tanh(v/2) + 1)/2 and k gets tanh(v) bit for bit, since
x * 1 and x + (-0.0) are x for every x, signed zeros included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

# sequences per forward-only pass of predict_batches; its outputs' bytes depend on it
PREDICT_CHUNK = 32


@dataclass
class LstmLayerParams:
    """One LSTM layer: fused gate weights w (4H, D), u (4H, H), biases b (4H,)."""

    input_dim: int
    hidden_dim: int
    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

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

    def clone(self) -> "LstmLayerParams":
        return LstmLayerParams(self.input_dim, self.hidden_dim,
                               self.w.copy(), self.u.copy(), self.b.copy())


@dataclass
class LstmNetwork:
    """Stacked LSTM layers plus a dense head mapping the final h to n outputs."""

    layers: list[LstmLayerParams]
    head_w: np.ndarray
    head_b: np.ndarray

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for j, (lo, hi) in enumerate(zip(self.layers, self.layers[1:]), start=2):
            if hi.input_dim != lo.hidden_dim:
                raise ValueError(f"layer dimension chain broken at layer {j}: "
                                 f"{lo.hidden_dim} -> {hi.input_dim}")
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
                           self.head_w.copy(), self.head_b.copy())

    def param_arrays(self) -> list[np.ndarray]:
        """Flat parameter list in a fixed order: per layer w, u, b; then head."""
        return [a for l in self.layers for a in (l.w, l.u, l.b)] + [self.head_w, self.head_b]


@dataclass
class _LayerCache:
    """One layer's time-major forward record: input x (L, B, D), activated gates
    (L, B, 4H), tanh_c (L, B, H), and c, h (L+1, B, H) led by the zero state;
    then dh (L, B, H), the gradient at each h_t, which net_backward writes and
    the layers of a cache share (see ForwardCache.for_pass). The backward
    writes each step's gate pre-activation gradients over that step's gates."""

    x: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    dh: np.ndarray


@dataclass
class ForwardCache:
    """Everything net_backward needs: per-layer records and the head output,
    all but layer 0's x views of one flat buffer. The cache is consumed once
    its gates no longer hold the record of the pass that filled it: the
    backward writes their gradients over them, and predict_batches runs its
    passes in the buffer. net_backward refuses a consumed cache until
    net_forward refills it."""

    layers: list[_LayerCache]
    prediction: np.ndarray    # (B, n), as net_forward returned it
    buffer: np.ndarray
    consumed: bool = False

    @staticmethod
    def _shapes(net: "LstmNetwork", steps: int, batch: int) -> list[tuple[int, ...]]:
        """The record's shapes in buffer order: per layer gates, c, tanh_c and
        h; then one dh block sized for the widest layer, and the prediction.
        The backward runs one layer at a time, so the layers share that block."""
        widest = steps * batch * max(p.hidden_dim for p in net.layers)
        return [shape for p in net.layers for shape in (
            (steps, batch, 4 * p.hidden_dim), (steps + 1, batch, p.hidden_dim),
            (steps, batch, p.hidden_dim), (steps + 1, batch, p.hidden_dim))
        ] + [(widest,), (batch, net.output_dim)]

    def fits(self, net: "LstmNetwork", steps: int, batch: int) -> bool:
        """Whether the record of a pass of net over (L, B) inputs fits in the buffer."""
        return self.buffer.size >= sum(map(math.prod, self._shapes(net, steps, batch)))

    @classmethod
    def for_pass(cls, previous: "ForwardCache | None", net: "LstmNetwork", steps: int,
                 batch: int) -> "ForwardCache":
        """The cache of a pass of net over (L, B) inputs: previous, refilled with
        consecutive views of the leading part of its buffer, when the record
        fits there, else a new cache. Each layer's x is set by the pass."""
        shapes = cls._shapes(net, steps, batch)
        sizes = [math.prod(shape) for shape in shapes]
        if previous is not None and previous.buffer.size >= sum(sizes):
            cache = previous
        else:
            cache = cls([], None, np.empty(sum(sizes)))
        *records, dh, cache.prediction = (cache.buffer[end - size:end].reshape(shape)
                                          for shape, size, end
                                          in zip(shapes, sizes, accumulate(sizes)))
        cache.layers = [_LayerCache(None, *records[4 * j:4 * j + 4],
                                    dh[:records[4 * j + 2].size].reshape(records[4 * j + 2].shape))
                        for j in range(len(net.layers))]
        cache.consumed = False
        return cache


def _layer_forward(p: LstmLayerParams, x: np.ndarray, lc: _LayerCache | None) -> np.ndarray:
    """Run one layer over (L, B, D) inputs and return its (L, B, H) h sequence.

    Every step works in place: it adds h_{t-1} U^T into its row of the input
    projection and activates that row into its gates. With a cache lc the
    pass writes step t into row t of lc's arrays, whose zero state it sets,
    and the gates overwrite the projection row. Without one each step writes
    into the same slots: the gates' (B, 4H) block, c (c_t overwrites c_{t-1})
    and tanh(c); only h keeps every step.
    """
    steps, batch, d = x.shape
    hid = p.hidden_dim
    if lc is None:
        proj, h = np.empty((steps, batch, 4 * hid)), np.empty((steps, batch, hid))
        gates, tanh_c = np.empty((batch, 4 * hid)), np.empty((batch, hid))
        c_prev = c = np.zeros((batch, hid))
    else:
        lc.x = x
        lc.c[0], lc.h[0] = 0.0, 0.0
        proj = gates = lc.gates
        h, c_prev, c, tanh_c = lc.h[1:], lc.c[:-1], lc.c[1:], lc.tanh_c
    slots = (gates, *(gates[..., q * hid:(q + 1) * hid] for q in range(4)), c_prev, c, tanh_c)
    per_step = repeat(slots) if lc is None else zip(*slots)
    np.matmul(x.reshape(steps * batch, d), p.w.T, out=proj.reshape(steps * batch, 4 * hid))
    proj += p.b
    # the activation's per-gate scale and shift, at the gate block's full
    # shape: broadcast (4H,) rows make each step slower
    scale, shift = np.full((batch, 4 * hid), 0.5), np.ones((batch, 4 * hid))
    scale[:, 2 * hid:3 * hid], shift[:, 2 * hid:3 * hid] = 1.0, -0.0
    hu, ik = np.empty((batch, 4 * hid)), np.empty((batch, hid))
    u_t = p.u.T
    h_prev = None
    for g, h_t, (gate, f_t, i_t, k_t, o_t, c_prev, c_t, tc) in zip(proj, h, per_step):
        # h_0 = 0, so step 0's gate pre-activation is its projection row as it is
        if h_prev is not None:
            np.dot(h_prev, u_t, hu)
            np.add(hu, g, g)
        # one activation pass over the gate block; k's shift is -0.0, as +0.0
        # would turn a -0.0 candidate into +0.0
        np.multiply(g, scale, gate)
        np.tanh(gate, gate)
        np.add(gate, shift, gate)
        np.multiply(gate, scale, gate)
        np.multiply(f_t, c_prev, c_t)
        np.multiply(i_t, k_t, ik)
        np.add(c_t, ik, c_t)
        np.tanh(c_t, tc)
        np.multiply(o_t, tc, h_t)
        h_prev = h_t
    return h


def net_forward(net: LstmNetwork, seq, keep_cache: bool = True,
                cache: ForwardCache | None = None) -> tuple[np.ndarray, ForwardCache | None]:
    """Run a batch of sequences through all layers and the head.

    `seq` is a time-major (L, B, n) batch, L >= 1 and B >= 1; one sequence is
    the B = 1 batch seq[:, None]. Initial h and c are zero for every layer.
    Returns the (B, n) head output and the caches required by net_backward,
    or None when keep_cache is false, which only predict_batches asks for.

    A `cache` returned by an earlier pass is refilled and returned, prediction
    included, when this pass's record fits in its buffer, as it does for the
    same network over as many sequences or fewer, so a training loop
    allocates it once. A cache too small is left untouched and the pass
    returns a new one. Without keep_cache, `cache` is not used.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.size == 0:
        raise ValueError("net_forward: empty input sequence")
    if x.ndim != 3 or x.shape[2] != net.input_dim:
        raise ValueError(
            f"net_forward: expected an (L, B, {net.input_dim}) batch, got {np.shape(seq)}")
    steps, batch, _ = x.shape
    cache = ForwardCache.for_pass(cache, net, steps, batch) if keep_cache else None
    for j, p in enumerate(net.layers):
        x = _layer_forward(p, x, None if cache is None else cache.layers[j])
    prediction = np.empty((batch, net.output_dim)) if cache is None else cache.prediction
    np.matmul(x[-1], net.head_w.T, out=prediction)
    prediction += net.head_b
    return prediction, cache


def predict_batches(net: LstmNetwork, x: np.ndarray,
                    cache: ForwardCache | None = None) -> np.ndarray:
    """Forward-only (N, n) predictions for a time-major (L, N, n) input,
    PREDICT_CHUNK sequences per pass so that no pass holds more than a chunk's
    activations. Validation, the training overlays and every walk run through it.

    Given a training `cache`, a pass whose record fits in its buffer runs
    there, keeping its record, which gives the same bits and allocates no
    activations; the cache is then consumed. Other passes allocate theirs."""
    out = np.empty((x.shape[1], net.output_dim))
    for lo in range(0, x.shape[1], PREDICT_CHUNK):
        chunk = x[:, lo:lo + PREDICT_CHUNK]
        borrow = cache is not None and cache.fits(net, *chunk.shape[:2])
        out[lo:lo + PREDICT_CHUNK] = net_forward(net, chunk, keep_cache=borrow, cache=cache)[0]
        if borrow:
            cache.consumed = True
    return out


def _layer_backward(p: LstmLayerParams, lc: _LayerCache, dh_seq: np.ndarray,
                    g: LstmLayerParams) -> np.ndarray:
    """BPTT through one layer, given the (L, B, H) gradient arriving at each h_t
    from above. Writes the parameter gradients into g; returns the (L*B, 4H)
    gradient at the gate pre-activations, which step t writes over lc.gates[t]
    once it has read them."""
    steps, batch, d = lc.x.shape
    hid = p.hidden_dim
    dh_carry = np.zeros((batch, hid))
    dc = np.zeros((batch, hid))
    for t in range(steps - 1, -1, -1):
        dh = dh_seq[t] + dh_carry
        gates, tanh_c = lc.gates[t], lc.tanh_c[t]
        f, i, k, o = (gates[:, q * hid:(q + 1) * hid] for q in range(4))
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        # gate derivatives come from the cached activations: sigmoid' = s (1 - s).
        # Each right side is evaluated in full before its slots are written, so
        # i and k, which each read the other, and f, which the carry dc * f
        # reads, are read before their gradients replace them
        o[...] = dh * tanh_c * (o * (1.0 - o))
        i[...], k[...] = dc * k * (i * (1.0 - i)), dc * i * (1.0 - k * k)
        dc, f[...] = dc * f, dc * lc.c[t] * (f * (1.0 - f))
        if t:    # nothing reads the carry into h_0
            dh_carry = gates @ p.u
    rows = lc.gates.reshape(steps * batch, 4 * hid)
    np.matmul(rows.T, lc.x.reshape(steps * batch, d), out=g.w)
    np.matmul(rows.T, lc.h[:-1].reshape(steps * batch, hid), out=g.u)
    np.sum(rows, axis=0, out=g.b)
    return rows


def net_backward(net: LstmNetwork, cache: ForwardCache, dloss_dpred: np.ndarray,
                 grads: LstmNetwork | None = None) -> LstmNetwork:
    """Exact loss gradient w.r.t. every parameter, by backpropagation through time.

    `dloss_dpred` has the (B, n) shape of the prediction net_forward returned;
    the gradients of a batch are the sums over its sequences. They come back
    as an LstmNetwork of net's shape whose arrays are the gradients: `grads`
    when given, every array of it overwritten, else a fresh one. The pass
    writes its working arrays into the cache: each layer's gate gradients
    over its gates, and the gradients at h into dh. That consumes the cache,
    and a consumed cache is refused with ValueError until net_forward
    refills it.
    """
    if cache.consumed:
        raise ValueError("cache is consumed: a backward pass or predict_batches overwrote "
                         "its gates; net_forward must refill it first")
    if len(cache.layers) != len(net.layers):
        raise ValueError("cache does not match network: layer count differs")
    for p, lc in zip(net.layers, cache.layers):
        if lc.x.shape[2] != p.input_dim or lc.h.shape[2] != p.hidden_dim:
            raise ValueError("cache does not match network: layer width differs")
    dloss_dpred = np.asarray(dloss_dpred, dtype=np.float64)
    if dloss_dpred.shape != cache.prediction.shape:
        raise ValueError(f"dloss_dpred must have the (B, n) shape {cache.prediction.shape}, "
                         f"got {dloss_dpred.shape}")
    if grads is None:
        grads = net.clone()    # every array is overwritten below
    elif [a.shape for a in grads.param_arrays()] != [a.shape for a in net.param_arrays()]:
        raise ValueError("grads does not match network: parameter shapes differ")
    cache.consumed = True

    # the head is linear: its pre-activation gradient is dloss_dpred itself
    top = cache.layers[-1]
    np.matmul(dloss_dpred.T, top.h[-1], out=grads.head_w)
    np.sum(dloss_dpred, axis=0, out=grads.head_b)

    # dh arriving at each step of the current layer from the layer above
    top.dh[:-1] = 0.0
    np.matmul(dloss_dpred, net.head_w, out=top.dh[-1])
    for j in range(len(net.layers) - 1, -1, -1):
        lc = cache.layers[j]
        dpre = _layer_backward(net.layers[j], lc, lc.dh, grads.layers[j])
        if j > 0:    # overwrites this layer's dh, which its backward has read
            below = cache.layers[j - 1].dh
            np.matmul(dpre, net.layers[j].w, out=below.reshape(-1, below.shape[2]))
    return grads


def gradient_check(net: LstmNetwork, sample, eps: float) -> float:
    """Max relative error between net_backward and central finite differences.

    `sample` is an (L, n) sequence and (n,) target pair, run as a B = 1 batch:
    net_backward gives the analytic gradient, predict_batches the finite
    differences. The scalar functional checked is the smooth quadratic
    0.5 * mean((prediction - target)^2); relative error for each parameter
    is |a - fd| / max(1e-8, |a| + |fd|). A NaN error in any parameter makes
    the result NaN, which fails every `<` gate.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    x = np.asarray(sample[0], dtype=np.float64)[:, None]
    target = np.asarray(sample[1], dtype=np.float64)
    if target.ndim != 1:
        raise ValueError(f"target must be a 1-D vector, got shape {target.shape}")
    m = target.shape[0]

    def loss_of(network: LstmNetwork) -> float:
        d = predict_batches(network, x)[0] - target
        return float(0.5 * np.dot(d, d) / m)

    pred, cache = net_forward(net, x)
    analytic = net_backward(net, cache, (pred - target) / m)

    worst = 0.0
    for arr, garr in zip(net.param_arrays(), analytic.param_arrays()):
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
            # np.maximum, unlike max and >, carries a NaN through
            worst = np.maximum(worst, rel)
    return float(worst)


def init_params(layer_dims: list[int], n: int, seed: int) -> LstmNetwork:
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
        layers.append(LstmLayerParams(d, hid, w, u, b))
        d = hid
    bh = 1.0 / np.sqrt(d)
    head_w = rng.uniform(-bh, bh, size=(n, d))
    head_b = np.zeros(n)
    return LstmNetwork(layers, head_w, head_b)
