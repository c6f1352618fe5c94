"""Multi-station multi-step forecasting with a bank of per-offset LSTM models.

The package trains h separate recurrent networks, one per hour inside a
moving horizon during which no real observations arrive; later offsets
consume the forecasts of earlier ones. Everything is built on numpy with
hand-derived gradients, deterministic seeded training, and a versioned
binary model format.
"""

from .bank import (HorizonConfig, ModelBank, ForecastBlock, forecast_block, load_bank,
                   save_bank, train_bank)
from .dataset import (GapReport, Normalizer, SampleSet, TimeSeriesPanel, assemble_input,
                      denormalize, fill_missing, fit_normalizer, fraction_cuts, ingest_csv,
                      make_samples, normalize, write_csv)
from .errors import DataError, NumericsError
from .evaluation import (ArModel, ErrorReport, ar_fit, ar_forecast, bank_forecaster,
                         compute_metrics, evaluate, persistence_forecast,
                         persistence_forecaster)
from .lstm import (LstmLayerParams, LstmNetwork, gradient_check, init_params,
                   net_backward, net_forward)
from .synth import synth_generate
from .training import TrainConfig, TrainHistory, mae_loss, rmsprop_update, train_model

__version__ = "0.1.0"
