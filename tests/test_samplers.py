import itertools

import numpy as np
import pytest

from conftest import make_rbm_family
from scoredetect import (Gaussian, Gbrbm, LangevinConfig, RngStream,
                         fisher_mc, gibbs_gbrbm, langevin_chain)


def test_langevin_config_validation():
    with pytest.raises(ValueError):
        LangevinConfig(step=0.0)
    with pytest.raises(ValueError):
        LangevinConfig(steps=-1)
    assert LangevinConfig(steps=0).steps == 0


def test_langevin_zero_steps_is_noop():
    particles = RngStream(501).generator().standard_normal((20, 2))
    before = particles.copy()
    out = langevin_chain(Gaussian([0.0, 0.0], np.eye(2)), particles,
                         LangevinConfig(steps=0), RngStream(502))
    assert np.array_equal(out, before)


def test_langevin_determinism():
    model = Gaussian([1.0, -1.0], np.eye(2))
    start = np.full((100, 2), 3.0)
    cfg = LangevinConfig(step=0.01, steps=25)
    a = langevin_chain(model, start.copy(), cfg, RngStream(503))
    b = langevin_chain(model, start.copy(), cfg, RngStream(503))
    assert np.array_equal(a, b)


def test_langevin_reaches_the_stationary_law():
    # start far away; after enough unadjusted steps the per-coordinate
    # second moment of N(0, I) should be near 1 (small step-size bias)
    model = Gaussian([0.0, 0.0], np.eye(2))
    start = np.full((10000, 2), 10.0)
    out = langevin_chain(model, start, LangevinConfig(step=0.01, steps=5000),
                         RngStream(504))
    second = (out * out).mean(axis=0)
    assert second.min() > 0.9 and second.max() < 1.1


def test_langevin_divergence_names_a_particle():
    class Exploder:
        dim = 2

        def score(self, x):
            with np.errstate(over="ignore"):
                return np.asarray(x) * 1e200

    particles = np.ones((4, 2))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="particle"):
        langevin_chain(Exploder(), particles, LangevinConfig(step=0.5, steps=5),
                       RngStream(505))


def test_langevin_validation():
    model = Gaussian([0.0], [[1.0]])
    with pytest.raises(ValueError):
        langevin_chain(model, np.empty((0, 1)), LangevinConfig(), RngStream(0))
    with pytest.raises(ValueError):
        langevin_chain(model, np.ones(3), LangevinConfig(), RngStream(0))


def test_gibbs_decoupled_chain_matches_the_gaussian_marginal():
    # with zero weights the visibles are exactly N(b, I) from the first sweep
    b = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    model = Gbrbm(np.zeros((5, 3)), b, np.zeros(3))
    draws = gibbs_gbrbm(model, 20000, burn_in=100, thin=1, rng=RngStream(506))
    assert draws.shape == (20000, 5)
    assert np.abs(draws.mean(axis=0) - b).max() < 3.5 / np.sqrt(20000)
    assert np.abs(draws.var(axis=0) - 1.0).max() < 0.05


def test_gibbs_matches_the_enumerated_visible_marginal():
    # summing out x from exp(-0.5||x - b||^2 + c.h + x.Wh) leaves
    # p(h) ~ exp(c.h + b.Wh + 0.5||Wh||^2) with x | h ~ N(b + Wh, I), so the
    # visible marginal is a 2^8-component Gaussian mixture; this member puts
    # at most 0.31 on one hidden state and its covariance has eigenvalue 7.8
    basis_inf, _ = make_rbm_family(RngStream(533))
    model = basis_inf[0]
    w, b, c = model.weights, model.visible_bias, model.hidden_bias
    hid = np.array(list(itertools.product((0.0, 1.0), repeat=c.size)))
    wh = hid @ w.T
    logp = hid @ c + wh @ b + 0.5 * np.sum(wh * wh, axis=1)
    weights = np.exp(logp - logp.max())
    weights /= weights.sum()
    mean = weights @ (b + wh)
    centred = b + wh - mean
    cov = np.eye(b.size) + centred.T @ (weights[:, None] * centred)
    # the 64 lockstep chains come back concatenated, 313 draws each; their
    # means are independent, so their spread gives batch-means stderrs
    chains = gibbs_gbrbm(model, 64 * 313, rng=RngStream(513)).reshape(64, 313, b.size)
    y = chains - mean
    for per_chain, want in ((y.mean(axis=1), 0.0), (np.einsum("cki,ckj->cij", y, y) / 313, cov)):
        se = per_chain.std(axis=0, ddof=1) / np.sqrt(64)
        # 65 distinct moments, each z a t with 63 degrees of freedom: a 5 se
        # bound keeps the family-wise false alarm near 3e-4
        assert np.abs((per_chain.mean(axis=0) - want) / se).max() < 5.0


def test_gibbs_determinism():
    basis_inf, _ = make_rbm_family(RngStream(507))
    model = basis_inf[0]
    a = gibbs_gbrbm(model, 500, burn_in=50, thin=2, rng=RngStream(508))
    b = gibbs_gbrbm(model, 500, burn_in=50, thin=2, rng=RngStream(508))
    assert np.array_equal(a, b)
    c = gibbs_gbrbm(model, 500, burn_in=50, thin=2, rng=RngStream(509))
    assert not np.array_equal(a, c)


def test_gibbs_output_is_sane_for_a_fresh_rbm():
    _, basis_post = make_rbm_family(RngStream(510))
    model = basis_post[0]
    draws = model.sample(2000, RngStream(511), burn_in=200, thin=5)
    assert draws.shape == (2000, 10)
    assert np.isfinite(model.energy(draws)).all()
    # a model is at Fisher distance zero from itself, with zero spread
    assert fisher_mc(model, model, 1000, RngStream(512)) == (0.0, 0.0)


def test_gibbs_validation():
    model = Gbrbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        gibbs_gbrbm(model, 0, rng=RngStream(0))
    with pytest.raises(ValueError):
        gibbs_gbrbm(model, 10, burn_in=-1, rng=RngStream(0))
    with pytest.raises(ValueError):
        gibbs_gbrbm(model, 10, thin=0, rng=RngStream(0))
