"""Score-based quickest change detection for unnormalized models.

The pieces: score models (Gaussian, Gaussian mixture, Gauss-Bernoulli RBM,
weighted score mixtures), samplers, the reflected CUSUM detector on
Hyvarinen-score differences, least-favorable pair identification over
uncertainty classes, false-alarm calibration, and a Monte Carlo ARL/EDD
benchmark harness.
"""

from .bench import (SweepRow, TrialSummary, arl_edd_sweep, estimate_drift,
                    run_lengths, write_sweep_csv)
from .calibration import (CalibrationError, DriftSignError, RhoSolution,
                          RHO_CAP, mgf_gap, solve_rho_star, threshold_for_arl)
from .detectors import (DetectorConfig, DetectorState, batch_scores,
                        cusum_log_lr_step, step)
from .lfd import (BetaNetwork, DisjointnessError, DriftConditionReport,
                  LfdPair, MeanPolytope, TrainConfig, TrainReport,
                  TrainingDivergedError, gaussian_polytope_lfd,
                  train_beta_networks, verify_drift_condition)
from .models import (Gaussian, GaussianMixture, Gbrbm, ModelError,
                     ScoreMixture, fisher_gaussian, fisher_mc,
                     hutchinson_laplacian)
from .rngs import RngStream, as_generator
from .samplers import LangevinConfig, gibbs_gbrbm, langevin_chain
from .serialize import dump_lfd_pair, load_lfd_pair, load_model, write_json

__version__ = "0.1.0"

__all__ = [
    "BetaNetwork", "CalibrationError", "DetectorConfig", "DetectorState",
    "DisjointnessError", "DriftConditionReport", "DriftSignError", "Gaussian",
    "GaussianMixture", "Gbrbm", "LangevinConfig", "LfdPair", "MeanPolytope",
    "ModelError", "RHO_CAP", "RhoSolution", "RngStream",
    "ScoreMixture", "SweepRow", "TrainConfig", "TrainReport",
    "TrainingDivergedError", "TrialSummary", "arl_edd_sweep", "as_generator",
    "batch_scores", "cusum_log_lr_step", "dump_lfd_pair", "estimate_drift",
    "fisher_gaussian", "fisher_mc", "gaussian_polytope_lfd", "gibbs_gbrbm",
    "hutchinson_laplacian", "langevin_chain", "load_lfd_pair", "load_model",
    "mgf_gap", "run_lengths", "solve_rho_star", "step",
    "threshold_for_arl", "train_beta_networks", "verify_drift_condition",
    "write_json", "write_sweep_csv",
]
