"""Independent reference computations for the benchmark's checks.

Nothing here imports ``scoredetect``: every quantity is derived again from
the model parameters as they appear in the JSON descriptions the program
reads, so a fault in the program cannot hide in its own reference.
"""

import math

import numpy as np


def sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


# ---------------------------------------------------------------------------
# Gaussians sharing one covariance: the Hyvarinen-score increment is linear


def gaussian_increment(mean_inf, mean_post, cov):
    """``(a, c)`` with ``z(x) = a.x + c = H(x; q_inf) - H(x; q_post)``.

    ``H = 0.5 ||grad log q||^2 + lap log q``; the Laplacians cancel because
    the covariance is shared, leaving ``a = V^-2 (m_post - m_inf)`` and
    ``c = 0.5 (m_inf' V^-2 m_inf - m_post' V^-2 m_post)``.
    """
    vinv = np.linalg.inv(np.asarray(cov, float))
    v2 = vinv @ vinv
    m_i = np.asarray(mean_inf, float)
    m_p = np.asarray(mean_post, float)
    return v2 @ (m_p - m_i), 0.5 * float(m_i @ v2 @ m_i - m_p @ v2 @ m_p)


def gaussian_increment_law(a, c, data_mean, cov):
    """Mean and variance of ``a.x + c`` under ``N(data_mean, cov)``."""
    return float(a @ np.asarray(data_mean, float)) + c, float(a @ np.asarray(cov, float) @ a)


def gaussian_rho_star(mean, var):
    """Positive root of ``h(rho) = exp(rho m + rho^2 s^2 / 2) - 1``."""
    if mean >= 0:
        raise ValueError("pre-change drift must be negative")
    return -2.0 * mean / var


def gaussian_fisher(mean_p, mean_q, cov):
    """Fisher divergence ``0.5 ||V^-1 (m_p - m_q)||^2`` for a shared ``V``."""
    v = np.linalg.solve(np.asarray(cov, float), np.asarray(mean_p, float) - np.asarray(mean_q, float))
    return 0.5 * float(v @ v)


def gaussian_log_density(x, mean, cov):
    """Log density up to a constant, for finite-difference tests."""
    y = np.asarray(x, float) - np.asarray(mean, float)
    return -0.5 * float(y @ np.linalg.solve(np.asarray(cov, float), y))


# ---------------------------------------------------------------------------
# Gauss-Bernoulli RBM with unit visible variance


class Rbm:
    """Score, exact Laplacian and block Gibbs draws from a ``gbrbm`` dict."""

    def __init__(self, desc):
        self.w = np.asarray(desc["weights"], float)
        self.b = np.asarray(desc["visible_bias"], float)
        self.c = np.asarray(desc["hidden_bias"], float)
        self.dim = self.b.size

    def log_density(self, x):
        x = np.asarray(x, float)
        t = x @ self.w + self.c
        return -0.5 * np.sum((x - self.b) ** 2, axis=-1) + np.sum(np.logaddexp(0.0, t), axis=-1)

    def score(self, x):
        x = np.asarray(x, float)
        return self.b - x + sigmoid(x @ self.w + self.c) @ self.w.T

    def laplacian(self, x):
        p = sigmoid(np.asarray(x, float) @ self.w + self.c)
        return np.sum(p * (1.0 - p) * np.sum(self.w ** 2, axis=0), axis=-1) - self.dim

    def gibbs(self, n, gen, chains=32, burn_in=2000, thin=5):
        """``n`` draws from ``chains`` lockstep chains, interleaved in time."""
        x = self.b + gen.standard_normal((chains, self.dim))
        out = []
        for t in range(burn_in + thin * -(-n // chains)):
            h = (gen.random((chains, self.c.size)) < sigmoid(x @ self.w + self.c)).astype(float)
            x = self.b + h @ self.w.T + gen.standard_normal((chains, self.dim))
            if t >= burn_in and (t - burn_in) % thin == thin - 1:
                out.append(x)
        return np.concatenate(out)[:n]


# ---------------------------------------------------------------------------
# score mixtures weighted by a softmax network


def beta_network(desc, x):
    """Weights ``beta(x)`` and their Jacobian ``d beta / dx``: ``(n, m)``
    and ``(n, m, d)``, for ``softmax(W2 relu(W1 x + b1) + b2)``."""
    w1, b1 = np.asarray(desc["w1"], float), np.asarray(desc["b1"], float)
    w2, b2 = np.asarray(desc["w2"], float), np.asarray(desc["b2"], float)
    pre = x @ w1.T + b1
    logits = np.maximum(pre, 0.0) @ w2.T + b2
    logits -= logits.max(axis=-1, keepdims=True)
    beta = np.exp(logits)
    beta /= beta.sum(axis=-1, keepdims=True)
    dlogits = np.einsum("lh,nh,hd->nld", w2, (pre > 0).astype(float), w1)
    jac = beta[:, :, None] * (dlogits - np.einsum("nl,nld->nd", beta, dlogits)[:, None, :])
    return beta, jac


class NetworkMixture:
    """``s(x) = sum_k beta_k(x) s_k(x)`` over RBM members, with the exact
    divergence ``sum_k (beta_k lap_k + grad beta_k . s_k)``."""

    def __init__(self, desc):
        self.basis = [Rbm(b) for b in desc["basis"]]
        self.net = desc["beta"]

    def score(self, x):
        beta, _ = beta_network(self.net, x)
        return np.einsum("nk,knd->nd", beta, np.stack([b.score(x) for b in self.basis]))

    def divergence(self, x):
        beta, jac = beta_network(self.net, x)
        scores = np.stack([b.score(x) for b in self.basis], axis=1)
        laps = np.stack([b.laplacian(x) for b in self.basis], axis=1)
        return np.sum(beta * laps, axis=1) + np.einsum("nkd,nkd->n", jac, scores)

    def hyvarinen(self, x):
        s = self.score(x)
        return 0.5 * np.sum(s * s, axis=-1) + self.divergence(x)


def rbm_hyvarinen(rbm, x):
    s = rbm.score(x)
    return 0.5 * np.sum(s * s, axis=-1) + rbm.laplacian(x)


def in_chunks(fn, x, rows=10_000):
    """``fn(x)`` on ``rows`` rows at a time, so that its intermediate arrays
    stay small next to the program's own."""
    return np.concatenate([fn(x[i:i + rows]) for i in range(0, len(x), rows)])


# ---------------------------------------------------------------------------
# detector recursion and Monte Carlo summaries


def first_crossing(increments, omega):
    """Reflected recursion ``Z = max(Z + z, 0)`` in plain floats; returns
    ``(n, Z_n)`` at the first ``Z_n >= omega``, or ``(None, Z_end)``."""
    z = 0.0
    for n, inc in enumerate(increments.tolist(), start=1):
        z = max(z + inc, 0.0)
        if z >= omega:
            return n, z
    return None, z


def mean_se(values):
    values = np.asarray(values, float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def mgf_gap(z, rho):
    """``h(rho) = mean(exp(rho z)) - 1`` with its standard error and the
    sample size."""
    e = np.exp(rho * np.asarray(z, float))
    return float(e.mean() - 1.0), float(e.std(ddof=1) / math.sqrt(e.size)), e.size


def wald_window(omega, mean, var):
    """Window for the expected delay at threshold ``omega`` of a reflected
    recursion whose increments have the given mean and variance.

    Wald's identity gives ``mean * E[tau] = E[Z_tau] - E[R_tau]``, where
    ``Z_tau >= omega`` and ``R`` is the reflection term.  The upper edge is
    acceptance criterion 5's, ``1.15 omega / mean`` plus the overshoot
    term.  The lower edge bounds ``E[R]`` by the Brownian value
    ``var / (2 mean)`` instead of taking ``0.85 omega / mean``, which at
    small thresholds lies above the true delay.
    """
    return (omega / mean - var / (2.0 * mean * mean),
            1.15 * omega / mean + (mean * mean + var) / (mean * mean))
