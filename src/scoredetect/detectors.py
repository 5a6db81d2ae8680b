"""Sequential change detectors driven by Hyvarinen-score differences.

The running statistic follows the reflected recursion

    Z(0) = 0,    Z(n) = max(Z(n-1) + rho * (S(x_n, model_inf) - S(x_n, model_post)), 0)

where ``S`` is the Hyvarinen score of a model at the observation, and an
alarm is raised the first time ``Z(n) >= omega``.  Because the increment
only touches scores and Laplacians, the recursion applies verbatim to
unnormalized models.  The same recursion with exact Gaussian
log-likelihood-ratio increments is provided as a classical baseline.

For two Gaussians sharing a covariance ``V`` the increment is exactly
affine in ``x``: the quadratic terms and the traces cancel, leaving

    rho * (S(x, model_inf) - S(x, model_post)) = x . a + c,
    a = rho * A (mu_post - mu_inf),
    c = rho / 2 * (mu_inf' A mu_inf - mu_post' A mu_post),    A = V^-1 V^-1.

A ``DetectorConfig`` of such a pair (both models of type ``Gaussian``, their
``cov`` arrays equal bit for bit) builds ``(a, c)`` once, and
``batch_scores`` evaluates it; every other pair runs the two Hyvarinen
kernels, which stay the Gaussian oracle in the tests.

``batch_scores`` is the one increment function and ``step`` the recursion
on one increment.  Any pair scores a row to the same bits in any batch (for
a fixed numpy and BLAS build), so a stream can be scored in blocks of any
size and then stepped one increment at a time::

    for inc in batch_scores(cfg, xs).tolist():
        step(state, inc, cfg.omega)

Stepping past an alarm is permitted: the recursion simply continues and
``stopped_at`` keeps the first crossing.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# hutchinson_laplacian is unused here; perfbench/tracing.py wraps it in this
# module and in models, and reports its span only while both names exist
from .models import ModelError, Gaussian, hutchinson_laplacian  # noqa: F401

__all__ = ["DetectorConfig", "DetectorState", "batch_scores", "step", "cusum_log_lr_step"]


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
    # (a, c) of a shared-covariance Gaussian pair, else None
    _affine: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.model_inf.dim != self.model_post.dim:
            raise ModelError("pre- and post-change models must share a dimension")
        if not (np.isfinite(self.omega) and self.omega >= 0):
            raise ValueError("omega must be finite and non-negative")
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive")
        q, p = self.model_inf, self.model_post
        if type(q) is Gaussian and type(p) is Gaussian and np.array_equal(q.cov, p.cov):
            vinv, rho = q.cov_inv, self.rho
            a = rho * (vinv @ vinv @ (p.mean - q.mean))
            c = 0.5 * rho * float(q.mean @ vinv @ vinv @ q.mean - p.mean @ vinv @ vinv @ p.mean)
            object.__setattr__(self, "_affine", (a, c))


@dataclass
class DetectorState:
    statistic: float = 0.0
    n: int = 0
    stopped_at: int | None = None


def batch_scores(cfg: DetectorConfig, x):
    """Increments ``rho * (S(x, inf) - S(x, post))`` for one observation
    ``(d,)`` (a float) or a batch ``(..., d)``.

    ``detect``, the benchmark sweeps and the calibration all call it, so a
    detector has the same increments everywhere, whatever their batch: the
    points are made C-ordered, and a lone row is scored as the first of two,
    since numpy hands a one-row product to BLAS gemv, which can round it
    apart from the same row in a batch (gemm).
    """
    x = np.asarray(x, dtype=float, order="C")
    if x.ndim and x.size == x.shape[-1] == cfg.model_inf.dim:  # a lone row
        pair = np.repeat(x.reshape(1, -1), 2, axis=0)
        return batch_scores(cfg, pair)[:1].reshape(x.shape[:-1])[()]
    if cfg._affine is not None:
        a, c = cfg._affine
        # einsum, not x @ a: gemv can round a row apart from it in a larger batch
        return np.einsum("...i,i->...", cfg.model_inf._points(x), a) + c
    return cfg.rho * (cfg.model_inf.hyvarinen(x) - cfg.model_post.hyvarinen(x))


def step(state: DetectorState, increment: float, omega: float) -> DetectorState:
    """Advance the reflected recursion by one increment (state is mutated)."""
    state.statistic = max(state.statistic + increment, 0.0)
    state.n += 1
    if state.stopped_at is None and state.statistic >= omega:
        state.stopped_at = state.n
    return state


def cusum_log_lr_step(p_inf, p_post, state: DetectorState, x,
                      omega: float = math.inf) -> DetectorState:
    """Classical CUSUM baseline: the same reflected recursion with exact
    log-likelihood-ratio increments.  Gaussians only, the one family here
    with tractable normalized densities."""
    if not (isinstance(p_inf, Gaussian) and isinstance(p_post, Gaussian)):
        raise ModelError("the likelihood-ratio baseline requires Gaussian models")
    inc = p_post.log_density(x) - p_inf.log_density(x)
    return step(state, float(inc), omega)
