"""False-alarm calibration for score-based CUSUM detectors.

The scaled increment ``rho * z(X)`` of a detector pair ``(q_inf, q_post)``,
with ``X ~ p_inf``, admits an exponential no-overshoot bound on the average
run length as soon as ``E_inf[exp(rho z(X))] <= 1``.  With

    h(rho) = E_inf[exp(rho z(X))] - 1

(``h(0) = 0``, ``h`` strictly convex, ``h'(0) < 0`` whenever the pre-change
drift is negative), the largest admissible multiplier is the positive root
``rho*`` of ``h`` when one exists.  The detector adds the scaled increments,
so its statistic already carries ``rho``, and the threshold for a target
average run length ``gamma`` is ``omega = log(gamma)``, giving
``ARL >= exp(omega) = gamma`` for every admissible ``rho``.

``h`` is estimated by Monte Carlo with common random numbers: the increment
sample is drawn once and reused for every ``rho``, making the estimate a
deterministic, smooth and strictly convex function of ``rho``.  Its root is
found by geometric expansion to a point where the estimate is positive,
then Newton steps, which fall monotonically onto the estimate's own root.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detectors import DetectorConfig, affine_increment, batch_scores
from .models import Gaussian

__all__ = [
    "RhoSolution",
    "CalibrationError",
    "DriftSignError",
    "RHO_CAP",
    "mgf_gap",
    "solve_rho_star",
    "threshold_for_arl",
]

RHO_CAP = 65536.0  # 2**16: beyond this the pair is treated as degenerate

# largest exponent representable by a double, used for overflow reporting
_LOG_DBL_MAX = math.log(np.finfo(float).max)


class CalibrationError(RuntimeError):
    """Monte Carlo calibration failed (e.g. overflow even in log space)."""


class DriftSignError(RuntimeError):
    """The pre-change drift is not resolvably negative, so no positive
    multiplier can satisfy the false-alarm condition."""


@dataclass(frozen=True)
class RhoSolution:
    """Root-finding outcome.  ``h_curve`` records every evaluated
    ``(rho, h_hat, stderr)`` triple.  ``rho_star_stderr`` is the Monte Carlo
    standard error of ``rho_star`` (``0.0`` for the closed form, ``None``
    when degenerate).  ``degenerate`` marks the case where ``h`` stayed
    non-positive up to the cap, i.e. every multiplier in range satisfies the
    false-alarm condition and ``rho_star`` equals the cap."""

    rho_star: float
    h_curve: tuple[tuple[float, float, float], ...]
    method: str
    rho_star_stderr: float | None = 0.0
    degenerate: bool = False
    message: str = ""

    def __post_init__(self):
        if self.method not in ("closed_form", "monte_carlo"):
            raise ValueError("method must be 'closed_form' or 'monte_carlo'")
        if not self.rho_star > 0:
            raise ValueError("rho_star must be positive")


def _draw_increments(p_inf, q_inf, q_post, n: int, rng) -> np.ndarray:
    draws = p_inf.sample(n, rng)
    cfg = DetectorConfig(q_inf, q_post, omega=0.0, rho=1.0)
    return np.asarray(batch_scores(cfg, draws))


def _h_from_increments(z: np.ndarray, rho: float):
    """``(h_hat, stderr, slope)`` from a fixed increment sample, in log
    space: with ``w = exp(rho z - peak)``, the mean of ``exp(rho z)`` is
    ``exp(peak) mean(w)`` and the slope ``mean(z exp(rho z))`` is that times
    ``mean(z w) / mean(w)``.

    Raises :class:`CalibrationError` when the mean or its second moment
    overflows even after the log-sum-exp reduction, reporting the largest
    exponent encountered.
    """
    w = rho * z
    peak = float(w.max())
    w -= peak
    np.exp(w, out=w)
    mean_w = float(w.mean())
    log_mean = peak + math.log(mean_w)
    # the second moment is at least the squared mean, so one check covers both
    log_sq_mean = 2.0 * peak + math.log(float((w * w).mean()))
    if log_sq_mean > _LOG_DBL_MAX:
        raise CalibrationError(
            f"MGF estimate or its variance overflows at rho={rho:g}: max exponent {peak:.6g}"
        )
    var = max(math.exp(log_sq_mean) - math.exp(2.0 * log_mean), 0.0)
    slope = math.exp(log_mean) * float((z * w).mean()) / mean_w
    return math.expm1(log_mean), math.sqrt(var / z.size), slope


def mgf_gap(p_inf, q_inf, q_post, rho: float, n: int, rng):
    """Monte Carlo estimate of ``h(rho) = E_inf[exp(rho z)] - 1``.

    Returns ``(estimate, stderr)``; exact ``(0.0, 0.0)`` at ``rho = 0``.
    """
    if rho < 0:
        raise ValueError("rho must be non-negative")
    if n < 2:
        raise ValueError("need at least 2 samples")
    return _h_from_increments(_draw_increments(p_inf, q_inf, q_post, n, rng), rho)[:2]


def _closed_form(p_inf, q_inf, q_post):
    """For Gaussians sharing ``V`` the increment is affine in ``x`` (the
    detector's own ``affine_increment`` at ``rho = 1``), so
    ``h`` is a log-normal MGF minus one and the root is ``-2 m / s^2`` with
    ``m``, ``s^2`` the increment mean and variance under ``p_inf``."""
    models = (p_inf, q_inf, q_post)
    if not (all(isinstance(m, Gaussian) for m in models)
            and all(np.abs(m.cov - p_inf.cov).max() <= 1e-10 for m in models[1:])):
        raise CalibrationError(
            "closed-form calibration needs Gaussian models with a shared covariance"
        )
    coef, const = affine_increment(p_inf.cov_inv, q_inf.mean, q_post.mean)
    mean = float(coef @ p_inf.mean) + const
    var = float(coef @ p_inf.cov @ coef)
    if mean >= 0:
        raise DriftSignError(
            "nearness assumption violated: pre-change drift is non-negative"
        )
    rho = -2.0 * mean / var
    curve = tuple(
        (r, math.expm1(r * mean + 0.5 * r * r * var), 0.0)
        for r in (0.5 * rho, rho, 1.5 * rho)
    )
    return RhoSolution(rho, curve, "closed_form")


def solve_rho_star(p_inf, q_inf, q_post, n: int, rng,
                   method: str = "monte_carlo") -> RhoSolution:
    """Find the largest multiplier whose scaled increment satisfies the
    false-alarm condition ``E_inf[exp(rho z)] <= 1``.

    The Monte Carlo route draws the increment sample once (common random
    numbers), checks that the empirical drift is negative beyond 3 standard
    errors, and expands ``rho`` geometrically from 1 until the estimate is
    positive beyond 3 standard errors (cap ``RHO_CAP``).  The estimate is
    strictly convex, so Newton steps from there fall monotonically onto its
    root; they stop at the first step that does not lower ``rho``.  The
    root's standard error is the delta-method ``se(h) / h'`` there.  Hitting
    the cap returns a degenerate solution with ``rho_star = RHO_CAP``.
    ``method='closed_form'`` uses the shared-covariance Gaussian formula
    instead; ``'auto'`` prefers the closed form when applicable.
    """
    if method == "auto":
        try:
            return _closed_form(p_inf, q_inf, q_post)
        except CalibrationError:
            method = "monte_carlo"
    elif method == "closed_form":
        return _closed_form(p_inf, q_inf, q_post)
    elif method != "monte_carlo":
        raise ValueError("method must be 'monte_carlo', 'closed_form', or 'auto'")
    if n < 2:
        raise ValueError("need at least 2 samples")

    z = _draw_increments(p_inf, q_inf, q_post, n, rng)
    drift = float(z.mean())
    drift_se = float(z.std(ddof=1) / math.sqrt(z.size))
    if drift >= -3.0 * drift_se:
        raise DriftSignError(
            "nearness assumption violated: empirical pre-change drift "
            f"{drift:.6g} (stderr {drift_se:.2g}) is not negative beyond 3 stderr"
        )

    curve = []

    def h_at(rho):
        h_hat, se, slope = _h_from_increments(z, rho)
        curve.append((rho, h_hat, se))
        return h_hat, se, slope

    rho = 1.0
    h_hat, se, slope = h_at(rho)
    while not h_hat > 3.0 * se:
        rho *= 2.0
        if rho > RHO_CAP:
            return RhoSolution(
                RHO_CAP, tuple(curve), "monte_carlo", None, degenerate=True,
                message=(
                    "h stayed non-positive up to the cap; every multiplier in "
                    "range satisfies the false-alarm condition"
                ),
            )
        h_hat, se, slope = h_at(rho)
    while (step := rho - h_hat / slope) < rho:
        rho = step
        h_hat, se, slope = h_at(rho)
    return RhoSolution(rho, tuple(curve), "monte_carlo", se / slope)


def threshold_for_arl(gamma: float) -> float:
    """Threshold delivering ``ARL >= gamma`` for a detector whose multiplier
    satisfies ``E_inf[exp(rho z)] <= 1``: ``omega = log(gamma)``."""
    if not gamma >= 1:
        raise ValueError("gamma must be at least 1")
    return math.log(gamma)
