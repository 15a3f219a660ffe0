"""cfolab: a MIMO-OFDM carrier frequency offset estimation laboratory."""

import os
import sys
if "numpy" not in sys.modules and not os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    __import__("numpy")  # OpenBLAS reads it at load; an idle worker spins ~0.12 s (12 ticks)
    del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (bias_floor, comb_sum_can_vanish, cross_term, emcb,
                       optimal_diag_indices, predicted_mse)
from .channel import (ChannelProfile, draw_channel, model_matrix, model_receive,
                      reference_profile, transmit_receive)
from .estimator import (CfoEstimate, DegenerateDiagonalError, candidate_grid,
                        diag_ratio, estimate_ml_grid, estimate_simplified,
                        likelihood, stack)
from .harness import (ExperimentSpec, ResultRow, preset_spec, run_bench,
                      run_emcb, run_mse_vs_iota, run_mse_vs_snr, write_csv)
from .numerics import RandomSource, cyclic_shift, dft, phase_ramp
from .training import (OFFSETS_A, OFFSETS_B, ConfigError, SystemConfig,
                       TrainingSet, build_training, chu_sequence,
                       period_gram, reference_config)

__version__ = "0.1.0"
