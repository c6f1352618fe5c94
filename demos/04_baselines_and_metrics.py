"""Reference forecasters and the block-walk evaluation protocol.

Every forecaster is scored the same way: walk the test range in blocks of h
hours, forecast each block from the real history before it, and accumulate
per-station MAE/RMSE/NRMSE on the actual (m/s) scale.
"""

import numpy as np

from dlstf import HorizonConfig, ar_fit, ar_forecast, synth_generate
from dlstf.evaluation import (ar_forecaster, evaluate, fit_ar_models,
                              persistence_forecaster)

panel = synth_generate(n=5, T=3000, seed=99, coupling=0.6)
holdout = 2400
fit_panel = panel.slice_rows(0, holdout)
cfg = HorizonConfig.default(n=5, h=6, ell=12)

print("persistence (repeat the last observation):")
report = evaluate(persistence_forecaster(cfg.h), panel, cfg, first_block_index=holdout)
print(f"  mean MAE {report.mean_mae:.3f}  RMSE {report.mean_rmse:.3f}  "
      f"NRMSE {report.mean_nrmse:.1f}%")

print("AR(3), least squares per station, recursive multi-step:")
models = fit_ar_models(fit_panel, p=3)
report_ar = evaluate(ar_forecaster(models, cfg.h), panel, cfg, first_block_index=holdout)
print(f"  mean MAE {report_ar.mean_mae:.3f}  RMSE {report_ar.mean_rmse:.3f}  "
      f"NRMSE {report_ar.mean_nrmse:.1f}%")

# a single fitted model, inspected
m = ar_fit(panel.values[:holdout, 0], p=3)
coef = ", ".join(f"{c:+.3f}" for c in m.coefficients)
print(f"\nstation {panel.station_ids[0]} AR(3): intercept {m.intercept:+.3f}, "
      f"lags [{coef}]")
print("3-step recursion from the last observations:",
      np.round(ar_forecast(m, panel.values[None, :holdout, 0], 3)[:, 0], 3))

report_ar.to_csv("baseline_report.csv")
print("\nwrote baseline_report.csv (station rows plus a MEAN row)")
