"""Shared fixtures: the two-vertex Gaussian reference geometry used across
the suite, random SPD covariances, a Gauss-Bernoulli RBM family builder,
the exact run length of Gaussian increments, and small finite-difference
oracles for score and Laplacian checks."""

import math

import numpy as np
import pytest

from scoredetect import Gaussian, Gbrbm, MeanPolytope, RngStream

# reference geometry: shared covariance, pre-change means on the negative
# diagonal, post-change means on the positive diagonal
V_REF = np.array([[2.0, 0.2], [0.2, 2.0]])
MEAN_INF_A = np.array([-0.25, -0.25])
MEAN_INF_B = np.array([-1.5, -1.5])
MEAN_POST_A = np.array([0.25, 0.25])
MEAN_POST_B = np.array([0.75, 0.75])

# (1, 1) is an eigenvector of V_REF with eigenvalue 2.2, so the Fisher
# divergence between two diagonal means at offset delta is delta^2 / 4.84
GAP_NEAR = 0.25 / 4.84  # 0.0516529...: the A-vertex pair
TRACE_VINV = 4.0 / 3.96  # trace of V_REF^{-1}


@pytest.fixture(scope="session")
def vcov():
    return V_REF.copy()


@pytest.fixture(scope="session")
def inf_a():
    return Gaussian(MEAN_INF_A, V_REF)


@pytest.fixture(scope="session")
def inf_b():
    return Gaussian(MEAN_INF_B, V_REF)


@pytest.fixture(scope="session")
def post_a():
    return Gaussian(MEAN_POST_A, V_REF)


@pytest.fixture(scope="session")
def post_b():
    return Gaussian(MEAN_POST_B, V_REF)


@pytest.fixture(scope="session")
def families():
    pre = MeanPolytope(np.stack([MEAN_INF_A, MEAN_INF_B]), V_REF)
    post = MeanPolytope(np.stack([MEAN_POST_A, MEAN_POST_B]), V_REF)
    return pre, post


def drift_stats(data_mean, mean_inf, mean_post, cov=V_REF):
    """Exact mean and variance of the detector increment under a Gaussian.

    For Gaussians sharing ``cov`` the increment is linear in x:
    ``z(x) = a.x + c`` with ``a = V^{-2}(mean_post - mean_inf)``, so its law
    under N(data_mean, cov) is Gaussian with the returned moments.
    """
    vinv = np.linalg.inv(cov)
    a = vinv @ vinv @ (mean_post - mean_inf)
    c = 0.5 * float(mean_inf @ vinv @ vinv @ mean_inf
                    - mean_post @ vinv @ vinv @ mean_post)
    return float(a @ np.asarray(data_mean) + c), float(a @ cov @ a)


def gaussian_run_length(mean, var, omega, tol=1e-6):
    """Exact mean run length of the reflected recursion
    ``Z_n = max(Z_{n-1} + z_n, 0)`` from ``Z_0 = 0`` to the first
    ``Z_n >= omega``, for i.i.d. increments ``z ~ N(mean, var)``.

    ``L(u)``, the mean run length from ``Z_0 = u``, solves Page's integral
    equation ``L(u) = 1 + L(0) F(-u) + int_0^omega L(v) f(v - u) dv``
    (Page 1954; Goel and Wu 1971), and the answer is ``L(0)``.  Nystrom
    solve on composite Gauss-Legendre panels no wider than the increment's
    standard deviation; the nodes per panel double from 4 until ``L(0)``
    moves by at most ``tol`` relative.
    """
    if omega == 0:
        return 1.0  # Z_1 >= 0 always
    sd = math.sqrt(var)
    edges = np.linspace(0.0, omega, math.ceil(omega / sd) + 1)
    half = np.diff(edges)[:, None] / 2.0
    previous = None
    for per_panel in (4, 8, 16):
        x, w = np.polynomial.legendre.leggauss(per_panel)
        nodes = (edges[:-1, None] + half * (x + 1.0)).ravel()
        u = np.concatenate(([0.0], nodes))  # unknowns L(0), L(nodes)
        a = np.empty((u.size, u.size))
        a[:, 0] = [-0.5 * math.erfc((ui + mean) / (sd * math.sqrt(2.0))) for ui in u]
        t = (nodes[None, :] - u[:, None] - mean) / sd
        a[:, 1:] = -(half * w).ravel() * np.exp(-0.5 * t * t) / (sd * math.sqrt(2.0 * math.pi))
        a[np.diag_indices_from(a)] += 1.0
        value = float(np.linalg.solve(a, np.ones(u.size))[0])
        if previous is not None and abs(value - previous) <= tol * value:
            return value
        previous = value
    raise AssertionError(f"run length at omega={omega} did not converge: {previous}")


def random_spd(gen, d):
    a = gen.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def make_rbm_family(stream: RngStream, n_visible=10, n_hidden=8):
    """Fresh shared-parameter RBM bases: one weight matrix plus four
    element-wise offsets defines two pre-change and two post-change members,
    ordered so the last pre-change and first post-change members are the
    nearest pair."""
    gen = stream.generator()
    w = gen.standard_normal((n_visible, n_hidden))
    b = gen.standard_normal(n_visible)
    c = gen.standard_normal(n_hidden)
    basis_inf = [Gbrbm(w - 0.2, b, c), Gbrbm(w - 0.05, b, c)]
    basis_post = [Gbrbm(w, b, c), Gbrbm(w + 0.05, b, c)]
    return basis_inf, basis_post


def fd_score(logp, x, h=1e-5):
    """Central-difference gradient of a log-density callable at one point."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        down = x.copy()
        up[i] += h
        down[i] -= h
        out[i] = (float(logp(up)) - float(logp(down))) / (2.0 * h)
    return out


def fd_laplacian(logp, x, h=1e-4):
    """Central second-difference Laplacian of a log-density callable."""
    x = np.asarray(x, dtype=float)
    mid = float(logp(x))
    total = 0.0
    for i in range(x.size):
        up = x.copy()
        down = x.copy()
        up[i] += h
        down[i] -= h
        total += (float(logp(up)) - 2.0 * mid + float(logp(down))) / (h * h)
    return total


def fd_divergence(model, x, h=1e-5):
    """Trace of the central-difference Jacobian of ``model.score`` at a
    batch of points ``(n, d)``; needs no log density, so it also checks
    score fields that are not gradients."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    for i in range(x.shape[1]):
        step = np.zeros(x.shape[1])
        step[i] = h
        out += (np.asarray(model.score(x + step))[:, i]
                - np.asarray(model.score(x - step))[:, i]) / (2.0 * h)
    return out


def assert_scores_match(model, logp, points, rel=1e-5):
    for x in points:
        want = fd_score(logp, x)
        got = np.asarray(model.score(x))
        scale = max(1.0, float(np.linalg.norm(want)))
        assert np.abs(got - want).max() <= rel * scale, (
            f"score mismatch at {x}: {got} vs {want}"
        )


def assert_laplacians_match(model, logp, points, tol=1e-4):
    for x in points:
        want = fd_laplacian(logp, x)
        got = float(model.laplacian(x))
        assert abs(got - want) <= tol, f"laplacian mismatch at {x}: {got} vs {want}"
