"""Synthetic multi-station wind-speed-like panels with directional coupling.

One latent smooth driver (two sinusoids whose seeded random phases drift as
slow random walks) sweeps the station chain like a weather front: station s
observes a lagged copy of it, delayed 1 to 3 hours (drawn per station)
relative to its designated upwind neighbor, station s+1. The coupling
strength scales that shared component:

    x_s[t] = private_s[t] + coupling * D[t - lag_s] + noise * eps_s[t]

where lag_s accumulates hop delays down the chain and private_s is the
station's own smooth quasi-periodic signal (periods spaced a few hours apart
across stations, so with coupling = 0 any two stations are nearly
uncorrelated). The phase drift matters: the driver's realized trajectory is
unpredictable hours ahead from any single series, but downwind stations can
read it from upwind observations, so spatial information genuinely helps
when coupling > 0. Station 0 sits at the downwind end with a pinned 1-hour
final hop, making it the designated target with the strongest upwind signal.
The panel is finally shifted/scaled into a nonnegative wind-speed-like range
(about 0.5 to 11.5 m/s).
"""

from __future__ import annotations

import numpy as np

from .dataset import HOUR, TimeSeriesPanel

TARGET_STATION = "S00"


def synth_generate(n: int, T: int, seed: int, coupling: float = 0.8,
                   noise: float = 0.3) -> TimeSeriesPanel:
    """Generate an n-station, T-hour panel; same seed gives a bit-identical panel."""
    if n < 2:
        raise ValueError("need at least 2 stations")
    if T < 100:
        raise ValueError("need at least 100 time steps")
    if not 0.0 <= coupling <= 1.0:
        raise ValueError("coupling must lie in [0, 1]")
    if not 0.0 <= noise < np.inf:
        raise ValueError("noise must be finite and nonnegative")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    phase_drift = 0.25  # rad/hour random-walk step of the driver phases

    # latent driver: two sinusoids, quasi-daily periods, random wandering phases
    d_p1 = 21.0 + rng.uniform(0.0, 4.0)
    d_p2 = 55.0 + rng.uniform(0.0, 8.0)
    d_ph1, d_ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)

    # hop delays along the chain: station s lags its upwind neighbor s+1
    hop = np.empty(n, dtype=int)
    for s in range(n):
        hop[s] = 1 if s == 0 else int(rng.integers(1, 4))
    lags = np.empty(n, dtype=int)
    lags[n - 1] = 1
    for s in range(n - 2, -1, -1):
        lags[s] = lags[s + 1] + hop[s]
    max_lag = int(lags.max())

    span = T + max_lag
    t_axis = np.arange(-max_lag, T, dtype=np.float64)
    walk1 = d_ph1 + np.cumsum(phase_drift * rng.standard_normal(span))
    walk2 = d_ph2 + np.cumsum(phase_drift * rng.standard_normal(span))
    driver = 1.25 * np.sin(2.0 * np.pi * t_axis / d_p1 + walk1) \
        + 0.75 * np.sin(2.0 * np.pi * t_axis / d_p2 + walk2)

    x = np.empty((T, n))
    for s in range(n):
        p1 = 18.0 + 3.0 * s + rng.uniform(0.0, 2.0)
        p2 = 40.0 + 7.0 * s + rng.uniform(0.0, 3.0)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        private = 0.6 * np.sin(2.0 * np.pi * np.arange(T) / p1 + ph1) \
            + 0.35 * np.sin(2.0 * np.pi * np.arange(T) / p2 + ph2)
        shared = driver[max_lag - lags[s]:max_lag - lags[s] + T]
        x[:, s] = private + coupling * shared + noise * rng.standard_normal(T)

    lo, hi = x.min(), x.max()
    x = 0.5 + 11.0 * (x - lo) / (hi - lo)

    ids = tuple(f"S{s:02d}" for s in range(n))
    start = np.datetime64("2000-01-01T00:00:00", "s")
    timestamps = start + np.arange(T) * HOUR
    return TimeSeriesPanel(ids, timestamps, x)
