"""Verify the hand-derived backward pass against finite differences.

The network's gradients are computed analytically by backpropagation through
time. This demo compares every parameter's analytic gradient with a central
finite difference of the forward pass, then shows that the check actually
catches a broken backward implementation.
"""

import numpy as np

import dlstf.lstm as lstm
from dlstf import gradient_check, init_params

# a small stacked network: 2 stations in, two LSTM layers, 2 outputs
net = init_params([6], 2, seed=1276)
rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1276, 2])))
sequence = rng.uniform(-1.0, 1.0, (4, 2))
target = rng.uniform(-1.0, 1.0, 2)

err = gradient_check(net, (sequence, target), eps=1e-5)
print(f"max relative error, healthy backward:   {err:.3e}")

# flip the sign of one gate's weight gradient and watch the check light up
exact = lstm._layer_backward


def corrupted(p, lc, dh_seq, g):
    rows = exact(p, lc, dh_seq, g)
    g.w[2 * p.hidden_dim:3 * p.hidden_dim] *= -1.0  # the candidate gate's rows
    return rows


lstm._layer_backward = corrupted
try:
    err_bad = gradient_check(net, (sequence, target), eps=1e-5)
finally:
    lstm._layer_backward = exact
print(f"max relative error, corrupted backward: {err_bad:.3e}")

assert err < 1e-6 < err_bad
print("the analytic gradients are exact; the check is sensitive.")
