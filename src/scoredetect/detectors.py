"""Sequential change detectors driven by Hyvarinen-score differences.

The running statistic follows the reflected recursion

    Z(0) = 0,    Z(n) = max(Z(n-1) + rho * (S(x_n, model_inf) - S(x_n, model_post)), 0)

where ``S`` is the Hyvarinen score of a model at the observation, and an
alarm is raised the first time ``Z(n) >= omega``.  Because the increment
only touches scores and Laplacians, the recursion applies verbatim to
unnormalized models.  The same recursion with exact Gaussian
log-likelihood-ratio increments is provided as a classical baseline.

Stepping past an alarm is permitted: the recursion simply continues and
``stopped_at`` keeps the first crossing.
"""

import math
from dataclasses import dataclass

import numpy as np

# hutchinson_laplacian is unused here; perfbench/tracing.py wraps it in this
# module and in models, and reports its span only while both names exist
from .models import ModelError, Gaussian, hutchinson_laplacian  # noqa: F401

__all__ = [
    "DetectorConfig",
    "DetectorState",
    "RunResult",
    "batch_scores",
    "step",
    "run_stream",
    "cusum_log_lr_step",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Model pair, alarm threshold, and score multiplier.

    ``omega = 0`` is legal (the detector alarms on the first observation),
    which keeps threshold sweeps and the ``gamma = 1`` calibration corner
    well defined.
    """

    model_inf: object
    model_post: object
    omega: float
    rho: float = 1.0

    def __post_init__(self):
        if self.model_inf.dim != self.model_post.dim:
            raise ModelError("pre- and post-change models must share a dimension")
        if not (np.isfinite(self.omega) and self.omega >= 0):
            raise ValueError("omega must be finite and non-negative")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive")


@dataclass
class DetectorState:
    statistic: float = 0.0
    n: int = 0
    stopped_at: int | None = None


@dataclass(frozen=True)
class RunResult:
    """Outcome of feeding a finite stream to a detector."""

    stopping_time: int | None
    steps: int
    final_statistic: float

    @property
    def censored(self) -> bool:
        return self.stopping_time is None


def batch_scores(cfg: DetectorConfig, x):
    """Increments ``rho * (S(x, inf) - S(x, post))`` for one observation
    ``(d,)`` (a float) or a batch ``(..., d)``.

    ``step``, the benchmark sweeps and the calibration all call it, so a
    detector has the same increments everywhere.
    """
    return cfg.rho * (cfg.model_inf.hyvarinen(x) - cfg.model_post.hyvarinen(x))


def step(cfg: DetectorConfig, state: DetectorState, x) -> DetectorState:
    """Advance the reflected recursion by one observation (state is mutated)."""
    return _advance(state, float(batch_scores(cfg, x)), cfg.omega)


def _advance(state: DetectorState, increment: float, omega: float) -> DetectorState:
    state.statistic = max(state.statistic + increment, 0.0)
    state.n += 1
    if state.stopped_at is None and state.statistic >= omega:
        state.stopped_at = state.n
    return state


def run_stream(cfg: DetectorConfig, xs, cap: int) -> RunResult:
    """Run the detector over a stream until alarm or ``cap`` observations.

    Returns the first crossing as ``stopping_time``; a stream that ends (or
    hits the cap) without an alarm yields a censored result, so an empty
    stream is censored at 0.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    state = DetectorState()
    for x in xs:
        step(cfg, state, x)
        if state.stopped_at is not None:
            return RunResult(state.stopped_at, state.n, state.statistic)
        if state.n >= cap:
            break
    return RunResult(None, state.n, state.statistic)


def cusum_log_lr_step(p_inf, p_post, state: DetectorState, x,
                      omega: float = math.inf) -> DetectorState:
    """Classical CUSUM baseline: the same reflected recursion with exact
    log-likelihood-ratio increments.  Gaussians only, the one family here
    with tractable normalized densities."""
    if not (isinstance(p_inf, Gaussian) and isinstance(p_post, Gaussian)):
        raise ModelError("the likelihood-ratio baseline requires Gaussian models")
    inc = p_post.log_density(x) - p_inf.log_density(x)
    return _advance(state, float(inc), omega)
