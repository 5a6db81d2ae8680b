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

One search finds it from the increment's mean ``m`` and variance ``s^2``:
exact when ``p_inf`` is Gaussian and the detector's increment is affine in
``x``, otherwise the moments of one increment sample drawn with common random
numbers, which makes the estimate of ``h`` a deterministic, smooth and
strictly convex function of ``rho``.  The search starts at the cumulant root
``-2 m / s^2``, which is ``rho*`` itself for a Gaussian increment; on a
sample, tangent steps (at most doubling) move it right of the estimate's
root, and Newton steps fall monotonically back onto it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detectors import DetectorConfig, batch_scores
from .models import Gaussian

__all__ = [
    "RhoSolution",
    "CalibrationError",
    "DriftSignError",
    "RHO_CAP",
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
    negative up to the cap, i.e. every multiplier in range satisfies the
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


def solve_rho_star(p_inf, q_inf, q_post, n: int, rng,
                   method: str = "monte_carlo") -> RhoSolution:
    """Find the largest multiplier whose scaled increment satisfies the
    false-alarm condition ``E_inf[exp(rho z)] <= 1``.

    The search takes the increment's mean ``m`` and variance ``s^2``: exact
    (``a . mu_p + c`` and ``a' V_p a``, stderr 0) when ``p_inf`` is a
    ``Gaussian`` and ``DetectorConfig(q_inf, q_post)`` builds its affine
    increment ``x . a + c``, else the moments of ``n`` increments drawn once
    from ``rng``.  ``method='closed_form'`` demands the exact moments,
    ``'monte_carlo'`` always samples and ``'auto'`` prefers the exact ones.

    ``m`` must be negative beyond 3 standard errors.  The search starts at
    the cumulant root ``-2 m / s^2``; on exact moments that is ``rho*``,
    returned with ``h`` at half, one and 1.5 times it.  On a sample, whose
    estimate is strictly convex, a point with ``h_hat < 0`` moves up to the
    smaller of twice itself and its tangent's zero, which lies right of the
    estimate's root.  From the first point with ``h_hat >= 0``, Newton steps
    fall monotonically onto the root and stop at the first step that does
    not lower ``rho``; the root's standard error is the delta-method
    ``se(h) / h'`` there.  No point exceeds ``RHO_CAP``: a zero-variance
    sample starts at it, and ``h_hat < 0`` there returns a degenerate
    solution with ``rho_star = RHO_CAP``.
    """
    if method not in ("monte_carlo", "closed_form", "auto"):
        raise ValueError("method must be 'monte_carlo', 'closed_form', or 'auto'")
    if n < 2:
        raise ValueError("need at least 2 samples")
    cfg = DetectorConfig(q_inf, q_post, omega=0.0)
    exact = method != "monte_carlo" and cfg._affine is not None and isinstance(p_inf, Gaussian)
    if method == "closed_form" and not exact:
        raise CalibrationError("closed-form calibration needs a Gaussian p_inf and a Gaussian"
                               " pair whose covariances are equal bit for bit")
    if exact:
        a, c = cfg._affine
        mean, var, se = float(a @ p_inf.mean) + c, float(a @ p_inf.cov @ a), 0.0
    else:
        z = np.asarray(batch_scores(cfg, p_inf.sample(n, rng)))
        mean, var = float(z.mean()), float(z.var(ddof=1))
        se = math.sqrt(var / n)
    if not mean < -3.0 * se:
        raise DriftSignError(f"nearness assumption violated: pre-change drift {mean:.6g}"
                             f" (stderr {se:.2g}) is not negative beyond 3 stderr")
    rho = -2.0 * mean / var if var > 0 else RHO_CAP
    if exact:
        curve = tuple((r, math.expm1(r * mean + 0.5 * r * r * var), 0.0)
                      for r in (0.5 * rho, rho, 1.5 * rho))
        return RhoSolution(rho, curve, "closed_form")

    curve = []

    def h_at(rho):
        h_hat, se, slope = _h_from_increments(z, rho)
        curve.append((rho, h_hat, se))
        return h_hat, se, slope

    rho = min(rho, RHO_CAP)
    h_hat, se, slope = h_at(rho)
    while h_hat < 0:
        up = min(rho - h_hat / slope if slope > 0 else math.inf, 2.0 * rho, RHO_CAP)
        if not up > rho:  # at the cap, or the tangent's zero rounds to rho
            break
        rho = up
        h_hat, se, slope = h_at(rho)
    if h_hat < 0 and rho == RHO_CAP:
        return RhoSolution(RHO_CAP, tuple(curve), "monte_carlo", None, degenerate=True,
                           message="h stayed negative up to the cap; every multiplier in"
                                   " range satisfies the false-alarm condition")
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
