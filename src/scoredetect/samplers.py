"""Samplers: block Gibbs for the Gauss-Bernoulli RBM and unadjusted
Langevin refreshes for score mixtures.  Exact draws are each model's own
``sample`` method.

All functions are pure given their inputs and an explicit RNG; none touch
global random state.  Models are duck-typed: anything exposing the handful
of attributes used here works.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rngs import as_generator

__all__ = ["LangevinConfig", "gibbs_gbrbm", "langevin_chain"]

_GIBBS_CHAINS = 64  # lockstep Gibbs chains; part of the determinism contract


@dataclass(frozen=True)
class LangevinConfig:
    """Unadjusted Langevin settings: step size and steps per refresh.
    ``steps = 0`` is allowed and makes the refresh a no-op."""

    step: float = 0.01
    steps: int = 1000

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("Langevin step size must be positive")
        if self.steps < 0:
            raise ValueError("Langevin step count must be non-negative")


def _sigmoid(t):
    # cannot overflow; within 1e-16 of exp(-softplus(-t)); faster on batches, slower on one row
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def gibbs_gbrbm(model, n: int, burn_in: int = 1000, thin: int = 10, rng=None) -> np.ndarray:
    """Block Gibbs sampler for a Gauss-Bernoulli RBM.

    Alternates ``h ~ Bernoulli(sigmoid(W'x + c))`` and
    ``x ~ N(b + W h, I)``, which leaves the model's visible marginal
    invariant.  ``min(64, n)`` independent chains run in lockstep; every
    ``thin``-th state after ``burn_in`` is kept and the per-chain draws are
    concatenated in chain order, so results are reproducible for a fixed
    stream regardless of how the caller schedules work.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    if burn_in < 0 or thin < 1:
        raise ValueError("need burn_in >= 0 and thin >= 1")
    gen = as_generator(rng)
    w = model.weights
    vis_bias = model.visible_bias
    hid_bias = model.hidden_bias
    n_vis = vis_bias.size
    chains = min(_GIBBS_CHAINS, n)
    keep = -(-n // chains)  # ceil division
    x = vis_bias + gen.standard_normal((chains, n_vis))
    kept = np.empty((chains, keep, n_vis))
    total = burn_in + keep * thin
    for t in range(total):
        probs = _sigmoid(x @ w + hid_bias)
        hid = gen.random(probs.shape) < probs
        x = vis_bias + hid @ w.T + gen.standard_normal((chains, n_vis))
        j = t - burn_in
        if j >= 0 and (j + 1) % thin == 0:
            kept[:, (j + 1) // thin - 1] = x
    return kept.reshape(chains * keep, n_vis)[:n]


def langevin_chain(score_fn, particles: np.ndarray, cfg: LangevinConfig, rng) -> np.ndarray:
    """Apply ``cfg.steps`` unadjusted Langevin updates to a particle set.

    Each step moves every particle by ``step * score(x) + sqrt(2 step) * xi``
    with fresh standard-normal noise.  The array is updated in place (when
    already float64) and returned.  A non-finite particle after any step
    raises, naming the first offending index.
    """
    particles = np.asarray(particles, dtype=float)
    if particles.ndim != 2 or particles.shape[0] == 0:
        raise ValueError("particles must be a non-empty (n, d) array")
    gen = as_generator(rng)
    noise_scale = math.sqrt(2.0 * cfg.step)
    for _ in range(cfg.steps):
        drift = np.asarray(score_fn.score(particles))
        particles += cfg.step * drift + noise_scale * gen.standard_normal(particles.shape)
        finite = np.isfinite(particles).all(axis=1)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ValueError(
                f"particle {bad} became non-finite during a Langevin update;"
                " reduce the step size"
            )
    return particles
