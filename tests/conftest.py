import math

import numpy as np
import pytest

import dlstf.lstm as lstm_mod
from dlstf.bank import HorizonConfig, ModelBank
from dlstf.dataset import HOUR, Normalizer, TimeSeriesPanel
from dlstf.evaluation import bank_forecaster, block_walk
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


def offset_stub_bank(h, ell, n=2):
    """A bank whose model i forecasts exactly i at every station: a zero head
    with bias i on a one-unit LSTM, under a normalizer with min 0 and max 1."""
    layers = init_params([1], n, seed=0).layers
    models = [LstmNetwork(layers, np.zeros((n, 1)), np.full(n, float(i)))
              for i in range(1, h + 1)]
    ids = tuple(f"S{s:02d}" for s in range(n))
    return ModelBank(HorizonConfig(n=n, h=h, ell=ell, widths=((1,),) * h), models,
                     Normalizer(ids, np.zeros(n), np.ones(n)))


def stub_panel(rows, n=2):
    """A (rows, n) panel of zeros on an hourly grid from 2000-01-01."""
    start = np.datetime64("2000-01-01T00:00:00", "s")
    return TimeSeriesPanel(tuple(f"S{s:02d}" for s in range(n)),
                           start + np.arange(rows) * HOUR, np.zeros((rows, n)))


def walk_schedule_errors(bank, rows, first):
    """Rows of the stitched walk of `bank` over `rows` panel rows, its first
    block at row `first`, that break the block-relative schedule: each row t
    of a complete block holds (t - first) mod h + 1 at every station, every
    other row holds NaN."""
    h, n = bank.config.h, bank.config.n
    preds, _ = block_walk(bank_forecaster(bank), stub_panel(rows, n), bank.config,
                          first_block_index=first)
    expected = np.full((rows, n), np.nan)
    end = first + (rows - first) // h * h
    expected[first:end] = ((np.arange(first, end) - first) % h + 1.0)[:, None]
    wrong = (preds != expected) & ~(np.isnan(preds) & np.isnan(expected))
    return np.flatnonzero(wrong.any(axis=1)).tolist()


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
