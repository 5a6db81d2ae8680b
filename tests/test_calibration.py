import math

import numpy as np
import pytest

from conftest import GAP_NEAR, V_REF, drift_stats
from scoredetect import (CalibrationError, DriftSignError, Gaussian,
                         GaussianMixture, RHO_CAP, RhoSolution,
                         RngStream, gaussian_polytope_lfd, mgf_gap,
                         solve_rho_star, threshold_for_arl)
from scoredetect.calibration import _draw_increments, _h_from_increments

RHO_STAR = 2.2  # -2m/s^2 for the reference geometry


@pytest.fixture(scope="module")
def pair(families):
    """The least-favorable ``(q_inf, q_post)`` of the reference geometry."""
    lfd = gaussian_polytope_lfd(*families)
    return lfd.q_inf, lfd.q_post


# ---------------------------------------------------------------------------
# the h curve


def test_h_is_exactly_zero_at_rho_zero(inf_a, pair):
    assert mgf_gap(inf_a, *pair, 0.0, 100, RngStream(801)) == (0.0, 0.0)


def test_h_at_one_matches_the_lognormal_value(inf_a, pair):
    # the increment is linear in x, so exp(z) is lognormal with known MGF
    m, var = drift_stats(inf_a.mean, *(q.mean for q in pair))
    want = math.expm1(m + 0.5 * var)
    est, se = mgf_gap(inf_a, *pair, 1.0, 400000, RngStream(802))
    assert se > 0
    assert abs(est - want) <= 3 * se
    assert want == pytest.approx(-0.0277811, abs=1e-6)


def test_h_curve_is_convex_under_common_random_numbers(inf_a, pair):
    # reusing the stream reuses the draws, so the estimated curve is an
    # exact convex function of rho
    rhos = np.linspace(0.0, 3.0, 13)
    h = [mgf_gap(inf_a, *pair, float(r), 20000, RngStream(803))[0] for r in rhos]
    second = np.diff(h, 2)
    assert second.min() >= -1e-12
    assert h[1] < 0.0  # negative drift pulls h below zero near the origin


# ---------------------------------------------------------------------------
# closed-form route


def test_closed_form_recovers_the_exact_multiplier(inf_a, pair):
    sol = solve_rho_star(inf_a, *pair, 2, RngStream(804), method="closed_form")
    assert sol.method == "closed_form"
    assert not sol.degenerate
    assert sol.rho_star == pytest.approx(RHO_STAR, abs=1e-12)
    rhos, values, errs = zip(*sol.h_curve)
    assert rhos == (0.5 * sol.rho_star, sol.rho_star, 1.5 * sol.rho_star)
    assert values[0] < 0.0 and values[1] == 0.0 and values[2] > 0.0
    assert errs == (0.0, 0.0, 0.0)
    assert sol.rho_star_stderr == 0.0


def test_closed_form_same_for_every_pre_change_vertex(inf_b, pair):
    # rho* depends on the pair geometry only through -2m/s^2; for the far
    # vertex the drift and the variance scale together
    sol = solve_rho_star(inf_b, *pair, 2, RngStream(805), method="closed_form")
    m, var = drift_stats(inf_b.mean, *(q.mean for q in pair))
    assert sol.rho_star == pytest.approx(-2.0 * m / var, abs=1e-12)


def test_closed_form_rejects_mismatched_covariances(inf_a, pair):
    other = Gaussian(inf_a.mean, 1.3 * V_REF)
    with pytest.raises(CalibrationError, match="shared covariance"):
        solve_rho_star(other, *pair, 2, RngStream(806), method="closed_form")


def test_auto_prefers_the_closed_form(inf_a, pair):
    sol = solve_rho_star(inf_a, *pair, 2, RngStream(807), method="auto")
    assert sol.method == "closed_form"
    assert sol.rho_star == pytest.approx(RHO_STAR, abs=1e-12)


def test_auto_falls_back_to_monte_carlo(inf_a, pair):
    # a mixture wrapper has the same law but is not a plain Gaussian, so
    # the closed form does not apply
    wrapped = GaussianMixture([inf_a], [1.0])
    sol = solve_rho_star(wrapped, *pair, 50000, RngStream(808), method="auto")
    assert sol.method == "monte_carlo"
    assert sol.rho_star == pytest.approx(RHO_STAR, abs=0.25)


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_monte_carlo_root_matches_the_closed_form(inf_a, pair):
    sol = solve_rho_star(inf_a, *pair, 200000, RngStream(809))
    assert sol.method == "monte_carlo"
    assert not sol.degenerate
    assert abs(sol.rho_star - RHO_STAR) < 0.1
    # the recorded curve brackets the root: some negative, some positive
    values = [v for _, v, _ in sol.h_curve]
    assert min(values) < 0.0 < max(values)


def test_monte_carlo_root_is_the_estimates_own_root(inf_a, pair):
    n = 200000
    sol = solve_rho_star(inf_a, *pair, n, RngStream(809))
    assert sol.h_curve[-1][0] == sol.rho_star
    # Newton falls monotonically from the first point beyond 3 stderr
    rhos = [r for r, _, _ in sol.h_curve]
    first = next(i for i, (_, h, se) in enumerate(sol.h_curve) if h > 3.0 * se)
    assert rhos[:first + 1] == [2.0 ** i for i in range(first + 1)]
    assert all(b < a for a, b in zip(rhos[first:], rhos[first + 1:]))
    # one more Newton step on the same increments does not lower it
    z = _draw_increments(inf_a, *pair, n, RngStream(809))
    h_hat, se, slope = _h_from_increments(z, sol.rho_star)
    assert not sol.rho_star - h_hat / slope < sol.rho_star
    # the reported stderr is the delta-method value at the root, close to
    # the exact sqrt(expm1(-2 rho m) / n) / -m of a Gaussian increment
    assert sol.rho_star_stderr == se / slope
    m, _ = drift_stats(inf_a.mean, *(q.mean for q in pair))
    exact_se = math.sqrt(math.expm1(-2.0 * RHO_STAR * m) / n) / -m
    assert sol.rho_star_stderr == pytest.approx(exact_se, rel=0.1)
    assert abs(sol.rho_star - RHO_STAR) <= 4.0 * sol.rho_star_stderr


def test_slope_matches_a_central_difference(inf_a, pair):
    z = _draw_increments(inf_a, *pair, 20000, RngStream(820))
    for rho in (0.5, 2.2, 8.0):
        step = 1e-5 * rho
        up, down = (_h_from_increments(z, rho + sign * step)[0] for sign in (1, -1))
        fd = (up - down) / (2 * step)
        assert _h_from_increments(z, rho)[2] == pytest.approx(fd, rel=1e-6)


def test_swapped_pair_raises_drift_sign_error(inf_a, pair):
    with pytest.raises(DriftSignError, match="drift"):
        solve_rho_star(inf_a, *pair[::-1], 20000, RngStream(810))
    with pytest.raises(DriftSignError):
        solve_rho_star(inf_a, *pair[::-1], 2, RngStream(811), method="closed_form")


class _HeavierTail(Gaussian):
    """Same score as the base Gaussian with a constant added to the
    Hyvarinen score, so increments against the base are constant."""

    def hyvarinen(self, x):
        return super().hyvarinen(x) + 4.0


def test_every_multiplier_admissible_is_reported_degenerate(inf_a, pair):
    heavier = _HeavierTail(pair[0].mean, V_REF)
    sol = solve_rho_star(inf_a, pair[0], heavier, 1000, RngStream(812))
    assert sol.degenerate
    assert sol.rho_star == RHO_CAP
    assert sol.rho_star_stderr is None
    assert "cap" in sol.message
    assert all(v <= 0.0 for _, v, _ in sol.h_curve)


class _Spiker:
    """Deterministic 1-d increments: mostly -5 with one +800 outlier."""

    dim = 1

    def sample(self, n, rng):
        return np.linspace(-1.0, 1.0, n).reshape(-1, 1)

    def score(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def hyvarinen(self, x):
        return np.zeros(np.asarray(x).shape[0])


class _SpikerPost(_Spiker):
    def hyvarinen(self, x):
        x = np.asarray(x, dtype=float)[:, 0]
        return np.where(x > 0.999, -800.0, 5.0)


def test_mgf_overflow_is_reported():
    with pytest.raises(CalibrationError, match="overflow"):
        mgf_gap(_Spiker(), _Spiker(), _SpikerPost(), 1.0, 2000, RngStream(813))
    with pytest.raises(CalibrationError, match="overflow"):
        solve_rho_star(_Spiker(), _Spiker(), _SpikerPost(), 2000, RngStream(814))


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_reaches_the_target_arl_bound():
    # the detector already scales its increments by rho, so the bound
    # ARL >= exp(omega) needs omega = log(gamma) whatever rho is
    omega = threshold_for_arl(1e4)
    assert omega == pytest.approx(9.2103404, abs=1e-6)
    assert math.exp(omega) == pytest.approx(1e4, rel=1e-12)
    assert threshold_for_arl(1.0) == 0.0


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold_for_arl(0.5)
    with pytest.raises(ValueError):
        threshold_for_arl(math.nan)


# ---------------------------------------------------------------------------
# validation


def test_rho_solution_validation():
    with pytest.raises(ValueError):
        RhoSolution(1.0, (), "bogus")
    with pytest.raises(ValueError):
        RhoSolution(0.0, (), "monte_carlo")


def test_solver_validation(inf_a, pair):
    with pytest.raises(ValueError):
        mgf_gap(inf_a, *pair, -1.0, 100, RngStream(815))
    with pytest.raises(ValueError):
        mgf_gap(inf_a, *pair, 1.0, 1, RngStream(816))
    with pytest.raises(ValueError):
        solve_rho_star(inf_a, *pair, 1, RngStream(817))
    with pytest.raises(ValueError):
        solve_rho_star(inf_a, *pair, 100, RngStream(819), method="bogus")
