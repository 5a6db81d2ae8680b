"""The benchmark's oracles against finite differences and exact sums."""

import math

import numpy as np
import pytest

import oracles

V = [[2.0, 0.2], [0.2, 2.0]]


def fd_grad(f, x, h=1e-5):
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def fd_laplacian(f, x, h=1e-4):
    total = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        total += (f(x + e) - 2 * f(x) + f(x - e)) / (h * h)
    return total


def fd_hyvarinen(logp, x):
    g = fd_grad(logp, x)
    return 0.5 * float(g @ g) + fd_laplacian(logp, x)


def random_rbm(gen, dim=5, hidden=4):
    return {"type": "gbrbm", "weights": gen.standard_normal((dim, hidden)).tolist(),
            "visible_bias": gen.standard_normal(dim).tolist(),
            "hidden_bias": gen.standard_normal(hidden).tolist()}


def test_gaussian_increment_matches_finite_differences():
    m_inf, m_post = [-0.25, -0.25], [0.75, 0.5]
    a, c = oracles.gaussian_increment(m_inf, m_post, V)
    gen = np.random.default_rng(1)
    for x in gen.standard_normal((20, 2)) * 2:
        want = fd_hyvarinen(lambda y: oracles.gaussian_log_density(y, m_inf, V), x) \
            - fd_hyvarinen(lambda y: oracles.gaussian_log_density(y, m_post, V), x)
        assert a @ x + c == pytest.approx(want, abs=1e-5)


def test_gaussian_rho_star_is_the_root_of_the_mgf_by_quadrature():
    a, c = oracles.gaussian_increment([-0.25, -0.25], [0.25, 0.25], V)
    mean, var = oracles.gaussian_increment_law(a, c, [-0.25, -0.25], V)
    rho = oracles.gaussian_rho_star(mean, var)
    assert rho == pytest.approx(2.2, abs=1e-12)
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    mgf = lambda r: float(weights @ np.exp(r * (mean + math.sqrt(var) * nodes))) / math.sqrt(2 * math.pi)
    assert mgf(rho) == pytest.approx(1.0, abs=1e-12)
    assert mgf(0.9 * rho) < 1.0 < mgf(1.1 * rho)


def test_rbm_score_and_laplacian_match_finite_differences():
    gen = np.random.default_rng(2)
    rbm = oracles.Rbm(random_rbm(gen))
    for x in gen.standard_normal((20, rbm.dim)) * 1.5:
        np.testing.assert_allclose(rbm.score(x), fd_grad(rbm.log_density, x), atol=1e-6)
        assert rbm.laplacian(x) == pytest.approx(fd_laplacian(rbm.log_density, x), abs=1e-4)


def test_network_mixture_divergence_matches_finite_differences():
    gen = np.random.default_rng(3)
    dim, hidden, members = 5, 6, 3
    net = {"w1": gen.standard_normal((hidden, dim)).tolist(), "b1": gen.standard_normal(hidden).tolist(),
           "w2": gen.standard_normal((members, hidden)).tolist(), "b2": gen.standard_normal(members).tolist()}
    mix = oracles.NetworkMixture({"basis": [random_rbm(gen, dim) for _ in range(members)], "beta": net})
    x = gen.standard_normal((20, dim))
    beta, jac = oracles.beta_network(net, x)
    h = 1e-6
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        fd = (oracles.beta_network(net, x + e)[0] - oracles.beta_network(net, x - e)[0]) / (2 * h)
        np.testing.assert_allclose(jac[:, :, i], fd, atol=1e-6)
    h = 1e-5
    fd_div = sum((mix.score(x + h * np.eye(dim)[i])[:, i] - mix.score(x - h * np.eye(dim)[i])[:, i])
                 / (2 * h) for i in range(dim))
    np.testing.assert_allclose(mix.divergence(x), fd_div, atol=1e-5)


def test_gibbs_mean_matches_the_exact_mixture_of_gaussians():
    gen = np.random.default_rng(4)
    desc = random_rbm(gen, dim=3, hidden=3)
    rbm = oracles.Rbm(desc)
    hs = np.array([[(k >> j) & 1 for j in range(3)] for k in range(8)], float)
    centers = rbm.b + hs @ rbm.w.T
    logw = hs @ rbm.c + hs @ rbm.w.T @ rbm.b + 0.5 * np.sum((hs @ rbm.w.T) ** 2, axis=1)
    weights = np.exp(logw - logw.max())
    exact = weights @ centers / weights.sum()
    draws = rbm.gibbs(40_000, gen)
    se = draws.std(axis=0) / math.sqrt(draws.shape[0]) * 3  # thinned chains still correlate
    assert np.all(np.abs(draws.mean(axis=0) - exact) <= 4 * se)


def test_first_crossing_matches_the_closed_form_lindley_recursion():
    gen = np.random.default_rng(5)
    z = gen.normal(0.05, 1.0, 5000)
    s = np.cumsum(z)
    stat = s - np.minimum(np.minimum.accumulate(s), 0.0)
    omega = 0.9 * stat.max()
    n, value = oracles.first_crossing(z, omega)
    first = int(np.argmax(stat >= omega))
    assert n == first + 1
    assert value == pytest.approx(stat[first], rel=1e-9)
    assert oracles.first_crossing(z, stat.max() + 1.0)[0] is None
