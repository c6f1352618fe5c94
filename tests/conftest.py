import math

import numpy as np
import pytest

import dlstf.lstm as lstm_mod
from dlstf.lstm import LstmNetwork, init_params, net_forward


def seeded_rng(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def gradcheck_instance(dims, n, length, seed):
    """Frozen seeded (net, sample) pairs used by the finite-difference tests.

    The seeds were chosen so that no parameter's gradient sits near the
    float64 finite-difference noise floor (~1e-12 absolute), keeping the
    per-parameter relative error well below the 1e-6 gate.
    """
    net = init_params(dims, n, seed)
    rng = seeded_rng(seed, 2)
    seq = rng.uniform(-1.0, 1.0, (length, n))
    target = rng.uniform(-1.0, 1.0, n)
    return net, (seq, target)


# (layer widths, n, sequence length, seed) within the contract bounds:
# at most 2 layers, hidden <= 8, n <= 4, L <= 6
GRADCHECK_CASES = [
    ([8, 8], 3, 5, 13310),
    ([8], 4, 6, 2702),
    ([5, 4], 3, 4, 1193),
    ([4, 3], 2, 6, 87),
    ([6], 2, 4, 1276),
]


def layer_record(p, seq):
    """One layer's forward record over one (L, D) sequence, run by net_forward
    as a B = 1 batch.

    Returns the gates (L, 4H) fused f, i, k, o, and c and h (L+1, H), whose
    row 0 is the zero initial state and row t the state after step t.
    """
    net = LstmNetwork([p], np.zeros((1, p.hidden_dim)), np.zeros(1))
    _, cache = net_forward(net, np.asarray(seq, dtype=np.float64)[:, None])
    lc = cache.layers[0]
    return lc.gates[:, 0], lc.c[:, 0], lc.h[:, 0]


def scalar_unroll(net, seq):
    """Prediction of a one-layer network by a plain-Python loop over `math`.

    An oracle that shares no code with the package: each gate is a dot
    product over lists, sigmoid is 1 / (1 + exp(-z)), tanh is math.tanh.
    """
    p = net.layers[0]
    hid = p.hidden_dim
    w, u, b = p.w.tolist(), p.u.tolist(), p.b.tolist()
    h, c = [0.0] * hid, [0.0] * hid
    for x in np.asarray(seq).tolist():
        pre = [b[r] + sum(wr * xj for wr, xj in zip(w[r], x))
               + sum(ur * hj for ur, hj in zip(u[r], h)) for r in range(4 * hid)]
        for q in range(hid):
            f = 1.0 / (1.0 + math.exp(-pre[q]))
            i = 1.0 / (1.0 + math.exp(-pre[hid + q]))
            k = math.tanh(pre[2 * hid + q])
            o = 1.0 / (1.0 + math.exp(-pre[3 * hid + q]))
            c[q] = f * c[q] + i * k
            h[q] = o * math.tanh(c[q])
    return [hb + sum(wq * hq for wq, hq in zip(hw, h))
            for hw, hb in zip(net.head_w.tolist(), net.head_b.tolist())]


@pytest.fixture
def rng():
    return seeded_rng(424242)


@pytest.fixture
def nan_gradient(monkeypatch):
    """Make net_backward, as gradient_check calls it, return one NaN entry."""
    exact = lstm_mod.net_backward

    def poisoned(*args):
        grads = exact(*args)
        grads.layers[0].w[0, 0] = math.nan
        return grads

    monkeypatch.setattr(lstm_mod, "net_backward", poisoned)
