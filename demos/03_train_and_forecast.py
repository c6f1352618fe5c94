"""Train a small bank of per-offset models and forecast a moving-horizon block.

Real data arrives only every h hours. Offset 1's model sees ell real rows;
offset i's model replaces the most recent i-1 rows with the forecasts made
earlier in the same block. The bank trains one model per offset in cascade.
Scaled down here (4 stations, small widths, few epochs); takes about ten
seconds on one core.
"""

from dlstf import (HorizonConfig, TrainConfig, forecast_block, fraction_cuts, synth_generate,
                   train_bank)
from dlstf.evaluation import bank_forecaster, evaluate, persistence_forecaster

panel = synth_generate(n=4, T=1500, seed=7, coupling=0.8)
a, b = fraction_cuts(panel.n_times, 0.7, 0.15)
train_panel, val_panel, test_panel = (panel.slice_rows(0, a), panel.slice_rows(a, b),
                                      panel.slice_rows(b, panel.n_times))

cfg = HorizonConfig.default(n=4, h=6, ell=12, first_widths=(16,), later_widths=(24, 24))
# every model shares these settings; model i trains with seed 1 + i - 1
train = TrainConfig(seed=1, max_epochs=8, patience=4)


def progress(i, history):
    print(f"model {i}/{cfg.h}: stopped epoch {history.stopped_epoch}, "
          f"best val MAE {min(history.val_losses):.4f}")


bank = train_bank(train_panel, val_panel, cfg, train, progress=progress)

block_start = test_panel.timestamps[40]
block = forecast_block(bank, panel, block_start)
idx = panel.index_of(block_start)
actual = panel.values[idx:idx + cfg.h]

print(f"\none block, starting {block_start} (per-station m/s):")
for k in range(cfg.h):
    f_row = "  ".join(f"{v:5.2f}" for v in block.predictions[k])
    a_row = "  ".join(f"{v:5.2f}" for v in actual[k])
    print(f"  +{k + 1}h  forecast [{f_row}]   actual [{a_row}]")

# single blocks are noisy; the honest comparison averages over the test range
rep_bank = evaluate(bank_forecaster(bank), test_panel, cfg)
rep_persist = evaluate(persistence_forecaster(cfg.h), test_panel, cfg)
print(f"\ntest-range mean MAE: bank {rep_bank.mean_mae:.3f} m/s "
      f"vs persistence {rep_persist.mean_mae:.3f} m/s "
      f"(ratio {rep_bank.mean_mae / rep_persist.mean_mae:.2f})")
