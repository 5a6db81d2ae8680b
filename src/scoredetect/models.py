"""Score-based probability models: densities known only up to normalization.

Every model exposes three quantities that are invariant to multiplying the
density by a positive constant:

* ``score(x)``      -- gradient of the log density,
* ``laplacian(x)``  -- Laplacian of the log density,
* ``hyvarinen(x)``  -- ``0.5 * ||score(x)||^2 + laplacian(x)``.

Normalizing constants are never computed anywhere in this package; models
with a closed-form (unnormalized) log density also expose ``log_density``,
defined only up to an additive constant, for finite-difference checks and
likelihood-ratio baselines.

All operations accept a single point of shape ``(d,)`` or a batch
``(..., d)`` and vectorize over the leading axes.
"""

import abc
import math

import numpy as np

from .rngs import as_generator
from .samplers import LangevinConfig, _sigmoid, gibbs_gbrbm, langevin_chain

__all__ = [
    "ModelError",
    "ScoreModel",
    "Gaussian",
    "GaussianMixture",
    "Gbrbm",
    "ScoreMixture",
    "hutchinson_laplacian",
    "fisher_gaussian",
    "fisher_mc",
]

# central-difference step scale shared by the Hutchinson divergence probes
FD_STEP_SCALE = 1e-4


class ModelError(ValueError):
    """Invalid model parameters or evaluation points."""


def _softplus(t):
    return np.logaddexp(0.0, t)


def _logsumexp(a, axis=-1):
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return np.squeeze(peak, axis=axis) + np.log(
        np.sum(np.exp(a - peak), axis=axis)
    )


class ScoreModel(abc.ABC):
    """Common interface for all model families."""

    dim: int

    def _points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise ModelError(
                f"expected points with last dimension {self.dim}, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ModelError("non-finite evaluation point")
        return x

    @abc.abstractmethod
    def score(self, x) -> np.ndarray:
        """Gradient of the log density at ``x``; same shape as ``x``."""

    @abc.abstractmethod
    def _score_and_laplacian(self, x):
        """Score and Laplacian (broadcastable to ``x.shape[:-1]``) at checked ``x``."""

    def laplacian(self, x):
        """Laplacian of the log density at ``x``; shape ``x.shape[:-1]``."""
        x = self._points(x)
        out = np.full(x.shape[:-1], self._score_and_laplacian(x)[1])
        return float(out) if out.ndim == 0 else out

    def hyvarinen(self, x):
        """``0.5 * ||score||^2 + laplacian`` at ``x``, from one kernel call."""
        s, lap = self._score_and_laplacian(self._points(x))
        s *= s  # in place: a batch needs no second (..., d) array
        return 0.5 * s.sum(axis=-1) + lap

    def log_density(self, x):
        """Log density up to an additive constant (where available)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a closed-form log density"
        )

    def sample(self, n: int, rng) -> np.ndarray:
        raise ModelError(f"{type(self).__name__} has no sampler")

    def to_dict(self) -> dict:
        raise NotImplementedError


class Gaussian(ScoreModel):
    """Multivariate normal with full covariance.

    The covariance must be symmetric positive definite; construction fails
    otherwise rather than regularizing, since downstream nearest-point
    geometry would silently change under jitter.
    """

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1:
            raise ModelError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise ModelError(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ModelError("non-finite Gaussian parameters")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ModelError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ModelError("covariance must be positive definite") from None
        inv = np.linalg.inv(cov)
        inv = 0.5 * (inv + inv.T)
        if np.abs(cov @ inv - np.eye(mean.size)).max() > 1e-10:
            raise ModelError("covariance is too ill-conditioned to invert reliably")
        self.mean = mean
        self.cov = cov
        self.dim = mean.size
        self.chol = chol
        self.cov_inv = inv
        self.trace_inv = float(np.trace(inv))
        self._logdet = 2.0 * float(np.log(np.diag(chol)).sum())

    def score(self, x):
        x = self._points(x)
        return -(x - self.mean) @ self.cov_inv

    def _score_and_laplacian(self, x):
        return -(x - self.mean) @ self.cov_inv, -self.trace_inv

    laplacian = ScoreModel.laplacian  # restated: perfbench traces only a class's own methods

    def log_density(self, x):
        out = self._log_density(self._points(x))
        return float(out) if out.ndim == 0 else out

    def _log_density(self, x):
        y = x - self.mean
        # two operands: a three-operand einsum sums a row in a batch-dependent order
        maha = np.einsum("...i,...i->...", y @ self.cov_inv, y)
        return -0.5 * (maha + self._logdet + self.dim * math.log(2.0 * math.pi))

    def sample(self, n, rng):
        gen = as_generator(rng)
        return self.mean + gen.standard_normal((n, self.dim)) @ self.chol.T

    def to_dict(self):
        return {"type": "gaussian", "mean": self.mean.tolist(), "cov": self.cov.tolist()}


class GaussianMixture(ScoreModel):
    """Finite mixture of Gaussians.

    Responsibilities are evaluated in log space, so scores stay accurate far
    into the tails where individual component densities underflow.
    """

    def __init__(self, components, weights):
        components = tuple(components)
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if len(components) < 1:
            raise ModelError("mixture needs at least one component")
        if not all(isinstance(c, Gaussian) for c in components):
            raise ModelError("mixture components must be Gaussian")
        if weights.shape != (len(components),):
            raise ModelError("one weight per component required")
        if weights.min() < 0 or abs(weights.sum() - 1.0) > 1e-12:
            raise ModelError("weights must be non-negative and sum to 1")
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise ModelError("components must share a dimension")
        self.components = components
        self.weights = weights
        self.dim = components[0].dim
        with np.errstate(divide="ignore"):
            self._log_weights = np.log(weights)

    def _log_joint(self, x):
        # (..., m): log w_i + log N_i(x), normalized densities so that
        # responsibilities are correct under unequal covariances
        return np.stack([c._log_density(x) for c in self.components], axis=-1) + self._log_weights

    def _responsibilities(self, x):
        lj = self._log_joint(x)
        return np.exp(lj - _logsumexp(lj)[..., None])

    def responsibilities(self, x):
        return self._responsibilities(self._points(x))

    def score(self, x):
        return self._score_and_laplacian(self._points(x))[0]

    def _score_and_laplacian(self, x):
        u = self._responsibilities(x)
        s, laps = zip(*(c._score_and_laplacian(x) for c in self.components))
        s, laps = np.stack(s, axis=-2), np.stack(laps, axis=-1)
        sbar = np.sum(u[..., None] * s, axis=-2)
        lap = np.sum(u * (laps + np.sum(s * s, axis=-1)), axis=-1)
        return sbar, lap - np.sum(sbar * sbar, axis=-1)

    def log_density(self, x):
        out = _logsumexp(self._log_joint(self._points(x)))
        return float(out) if out.ndim == 0 else out

    def sample(self, n, rng):
        gen = as_generator(rng)
        idx = gen.choice(len(self.components), size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for i, comp in enumerate(self.components):
            mask = idx == i
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(count, gen)
        return out

    def to_dict(self):
        return {
            "type": "gmm",
            "weights": self.weights.tolist(),
            "components": [c.to_dict() for c in self.components],
        }


class Gbrbm(ScoreModel):
    """Gauss-Bernoulli restricted Boltzmann machine with unit visible variance.

    The visible marginal has unnormalized log density
    ``-0.5 ||x - b||^2 + sum_j softplus(w_j . x + c_j)`` where ``w_j`` is the
    j-th column of the weight matrix.  Hidden units are binary and only
    materialized inside the block Gibbs sampler.
    """

    def __init__(self, weights, visible_bias, hidden_bias):
        weights = np.asarray(weights, dtype=float)
        visible_bias = np.atleast_1d(np.asarray(visible_bias, dtype=float))
        hidden_bias = np.atleast_1d(np.asarray(hidden_bias, dtype=float))
        if weights.ndim != 2:
            raise ModelError("weight matrix must be 2-d (visible x hidden)")
        if weights.shape != (visible_bias.size, hidden_bias.size):
            raise ModelError("bias sizes must match the weight matrix")
        for arr in (weights, visible_bias, hidden_bias):
            if not np.isfinite(arr).all():
                raise ModelError("non-finite RBM parameters")
        self.weights = weights
        self.visible_bias = visible_bias
        self.hidden_bias = hidden_bias
        self.dim = visible_bias.size
        self._col_sq_norms = np.sum(weights * weights, axis=0)

    def score(self, x):
        x = self._points(x)
        act = _sigmoid(x @ self.weights + self.hidden_bias)
        return self.visible_bias - x + act @ self.weights.T

    def _score_and_laplacian(self, x):
        act = _sigmoid(x @ self.weights + self.hidden_bias)
        lap = np.sum(act * (1.0 - act) * self._col_sq_norms, axis=-1) - self.dim
        return self.visible_bias - x + act @ self.weights.T, lap

    laplacian = ScoreModel.laplacian  # restated for perfbench, as in Gaussian

    def energy(self, x):
        x = self._points(x)
        diff = x - self.visible_bias
        out = 0.5 * np.sum(diff * diff, axis=-1) - np.sum(
            _softplus(x @ self.weights + self.hidden_bias), axis=-1
        )
        return float(out) if out.ndim == 0 else out

    def log_density(self, x):
        return -self.energy(x)

    def sample(self, n, rng, burn_in=1000, thin=10):
        return gibbs_gbrbm(self, n, burn_in=burn_in, thin=thin, rng=rng)

    def to_dict(self):
        return {
            "type": "gbrbm",
            "weights": self.weights.tolist(),
            "visible_bias": self.visible_bias.tolist(),
            "hidden_bias": self.hidden_bias.tolist(),
        }


class ScoreMixture(ScoreModel):
    """Convex combination of basis scores with fixed or point-dependent weights.

    ``beta`` is either a fixed vector on the simplex or a callable mapping a
    batch ``(..., d)`` to weights ``(..., m)`` (e.g. a trained softmax
    network) whose ``weights_and_jacobian(x)`` also returns ``d beta / dx``,
    ``(..., m, d)``.  The Laplacian is exact whenever the members' are:
    ``div(sum_k beta_k s_k) = sum_k (beta_k lap_k + grad beta_k . s_k)``.
    """

    def __init__(self, basis, beta):
        basis = tuple(basis)
        if len(basis) < 1:
            raise ModelError("score mixture needs at least one basis member")
        dims = {b.dim for b in basis}
        if len(dims) != 1:
            raise ModelError("basis members must share a dimension")
        self.basis = basis
        self.dim = basis[0].dim
        if callable(beta):
            if not callable(getattr(beta, "weights_and_jacobian", None)):
                raise ModelError("beta callable must provide weights_and_jacobian(x)")
            self.beta = beta
            self._const_beta = None
        else:
            beta = np.atleast_1d(np.asarray(beta, dtype=float))
            if beta.shape != (len(basis),):
                raise ModelError("one weight per basis member required")
            if beta.min() < -1e-9 or abs(beta.sum() - 1.0) > 1e-9:
                raise ModelError("constant beta must lie on the simplex")
            self.beta = None
            self._const_beta = np.clip(beta, 0.0, None)

    def _checked_weights(self, x, w):
        w = np.asarray(w, dtype=float)
        if w.shape != x.shape[:-1] + (len(self.basis),):
            raise ModelError("beta callable returned weights of the wrong shape")
        if w.min() < -1e-9 or np.abs(w.sum(axis=-1) - 1.0).max() > 1e-9:
            raise ModelError("beta callable left the simplex")
        return w

    def score(self, x):
        x = self._points(x)
        s = np.stack([b.score(x) for b in self.basis], axis=-2)
        w = self._const_beta if self.beta is None else self._checked_weights(x, self.beta(x))
        return np.sum(w[..., None] * s, axis=-2)

    def _score_and_laplacian(self, x):
        # each member's kernel runs once, filling its slot of the stacked arrays
        s = np.empty(x.shape[:-1] + (len(self.basis), self.dim))
        lap = np.empty(s.shape[:-1])
        for k, member in enumerate(self.basis):
            s[..., k, :], lap[..., k] = member._score_and_laplacian(x)
        if self._const_beta is not None:
            w, grad_term = self._const_beta, 0.0
        else:
            w, jac = self.beta.weights_and_jacobian(x)
            w, jac = self._checked_weights(x, w), np.asarray(jac, dtype=float)
            if jac.shape != s.shape:
                raise ModelError("beta callable returned a Jacobian of the wrong shape")
            grad_term = np.sum(jac * s, axis=(-2, -1))
        return np.sum(w[..., None] * s, axis=-2), np.sum(w * lap, axis=-1) + grad_term

    def sample(self, n, rng):
        """Draw via the first basis member's sampler, then Langevin-refresh
        the particles toward this mixture's law with ``LangevinConfig()``."""
        gen = as_generator(rng)
        return langevin_chain(self, self.basis[0].sample(n, gen), LangevinConfig(), gen)

    def to_dict(self):
        if self._const_beta is not None:
            beta = self._const_beta.tolist()
        elif hasattr(self.beta, "to_dict"):
            beta = self.beta.to_dict()
        else:
            raise NotImplementedError("beta callable is not serializable")
        return {
            "type": "score_mixture",
            "basis": [b.to_dict() for b in self.basis],
            "beta": beta,
        }


def hutchinson_laplacian(model, x, n_probes, rng=None, return_stderr=False):
    """Randomized divergence of a score field (trace of its Jacobian).

    For each standard-normal probe ``eps`` the quadratic form
    ``eps' J(x) eps`` is evaluated by a central finite difference of the
    directional function ``t -> eps . score(x + t eps)`` with step
    ``1e-4 * max(1, ||x||)``; the estimate averages over probes.  Every
    model's own ``laplacian`` is exact; this is their oracle in the tests.
    """
    if n_probes < 1:
        raise ModelError("n_probes must be at least 1")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    step = FD_STEP_SCALE * np.maximum(1.0, np.linalg.norm(pts, axis=-1, keepdims=True))
    gen = as_generator(rng)
    vals = np.empty((n_probes,) + pts.shape[:-1])
    for k in range(n_probes):
        eps = gen.standard_normal(pts.shape)
        up = np.sum(eps * np.asarray(model.score(pts + step * eps)), axis=-1)
        down = np.sum(eps * np.asarray(model.score(pts - step * eps)), axis=-1)
        vals[k] = (up - down) / (2.0 * step[..., 0])
    est = vals.mean(axis=0)
    if scalar:
        est = float(est[0])
    if not return_stderr:
        return est
    if n_probes > 1:
        se = vals.std(axis=0, ddof=1) / math.sqrt(n_probes)
    else:
        se = np.zeros(pts.shape[:-1])
    return est, (float(se[0]) if scalar else se)


def fisher_gaussian(p: Gaussian, q: Gaussian) -> float:
    """Closed-form Fisher divergence between Gaussians sharing a covariance:
    ``0.5 * ||V^{-1}(mean_p - mean_q)||^2``."""
    if not (isinstance(p, Gaussian) and isinstance(q, Gaussian)):
        raise ModelError("fisher_gaussian requires Gaussian arguments")
    if p.dim != q.dim:
        raise ModelError("dimension mismatch")
    if np.abs(p.cov - q.cov).max() > 1e-10:
        raise ModelError("covariances differ; use fisher_mc instead")
    v = p.cov_inv @ (p.mean - q.mean)
    return 0.5 * float(v @ v)


def fisher_mc(p, q, n: int, rng):
    """Monte Carlo Fisher divergence ``E_p[0.5 ||score_p - score_q||^2]``.

    Returns ``(estimate, stderr)``.  ``p`` must support sampling.
    """
    if n < 2:
        raise ModelError("need at least 2 samples for a standard error")
    if p.dim != q.dim:
        raise ModelError("dimension mismatch")
    gen = as_generator(rng)
    draws = p.sample(n, gen)
    diff = np.asarray(p.score(draws)) - np.asarray(q.score(draws))
    t = 0.5 * np.sum(diff * diff, axis=-1)
    return float(t.mean()), float(t.std(ddof=1) / math.sqrt(n))
