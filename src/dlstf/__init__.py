"""Multi-station multi-step forecasting with a bank of per-offset LSTM models.

The package trains h separate recurrent networks, one per hour inside a
moving horizon during which no real observations arrive; later offsets
consume the forecasts of earlier ones. Everything is built on numpy with
hand-derived gradients, deterministic seeded training, and a versioned
binary model format.
"""

from .bank import (HorizonConfig, ModelBank, ForecastBlock, assemble_input,
                   forecast_block, load_bank, model_index, save_bank, train_bank)
from .dataset import (GapReport, Normalizer, SampleSet, SplitSpec, TimeSeriesPanel,
                      denormalize, fill_missing, fit_normalizer, fraction_split,
                      ingest_csv, make_samples, normalize, split, write_csv)
from .errors import DataError, NumericsError
from .evaluation import (ArModel, ErrorReport, ar_fit, ar_forecast, bank_forecaster,
                         compute_metrics, evaluate, persistence_forecast,
                         persistence_forecaster)
from .linalg import ActivationKind, activation_apply, activation_derivative
from .lstm import (LstmLayerParams, LstmNetwork, LstmStepState, gradient_check,
                   init_params, lstm_step_forward, net_backward, net_forward)
from .synth import synth_generate
from .training import RmspropState, TrainConfig, TrainHistory, mae_loss, \
    rmsprop_update, train_model

__version__ = "0.1.0"
