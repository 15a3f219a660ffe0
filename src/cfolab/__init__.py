"""cfolab: a MIMO-OFDM carrier frequency offset estimation laboratory."""

from .analysis import (bias_floor, comb_sum_can_vanish, cross_term, emcb,
                       optimal_diag_indices, predicted_mse)
from .channel import (ChannelProfile, add_noise, draw_channel, model_matrix,
                      model_receive, reference_profile, transmit_receive)
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
