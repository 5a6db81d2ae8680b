import math

import numpy as np
import pytest

from conftest import (GAP_NEAR, TRACE_VINV, V_REF, assert_laplacians_match,
                      assert_scores_match, fd_divergence, fd_score,
                      make_rbm_family, random_spd)
from scoredetect import (BetaNetwork, Gaussian, GaussianMixture, Gbrbm,
                         ModelError, RngStream, ScoreMixture, fisher_gaussian,
                         fisher_mc, hutchinson_laplacian)


# ---------------------------------------------------------------------------
# Gaussian


def test_gaussian_closed_forms(inf_a):
    assert inf_a.hyvarinen(inf_a.mean) == pytest.approx(-TRACE_VINV, abs=1e-12)
    one_d = Gaussian([0.0], [[1.0]])
    assert one_d.hyvarinen([2.0]) == pytest.approx(1.0, abs=1e-12)
    assert one_d.score([2.0])[0] == pytest.approx(-2.0, abs=1e-15)
    assert one_d.laplacian([2.0]) == pytest.approx(-1.0, abs=1e-15)


def test_gaussian_log_density_matches_quadratic_form(inf_a):
    x = np.array([0.3, -1.1])
    y = x - inf_a.mean
    want = -0.5 * (y @ inf_a.cov_inv @ y
                   + math.log(np.linalg.det(V_REF))
                   + 2 * math.log(2 * math.pi))
    assert inf_a.log_density(x) == pytest.approx(want, rel=1e-12)


def test_gaussian_fd_agreement():
    gen = RngStream(401).generator()
    model = Gaussian(gen.standard_normal(3), random_spd(gen, 3))
    points = model.mean + gen.standard_normal((25, 3)) * 2.0
    assert_scores_match(model, model.log_density, points)
    assert_laplacians_match(model, model.log_density, points)


def test_gaussian_sampling_moments():
    gen = RngStream(402).generator()
    model = Gaussian([1.0, -2.0], V_REF)
    draws = model.sample(40000, gen)
    assert np.abs(draws.mean(axis=0) - model.mean).max() < 0.03
    assert np.abs(np.cov(draws.T) - V_REF).max() < 0.05


def test_gaussian_validation():
    with pytest.raises(ModelError, match="symmetric"):
        Gaussian([0.0, 0.0], [[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(ModelError, match="positive definite"):
        Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ModelError):
        Gaussian([0.0, 0.0], np.eye(3))
    with pytest.raises(ModelError):
        Gaussian([np.nan, 0.0], np.eye(2))


def test_point_validation(inf_a):
    with pytest.raises(ModelError):
        inf_a.score([1.0, 2.0, 3.0])
    with pytest.raises(ModelError):
        inf_a.score([np.inf, 0.0])


def test_sampler_missing_error():
    class ScoreOnly(Gaussian):
        def sample(self, n, rng):
            return super(Gaussian, self).sample(n, rng)

    with pytest.raises(ModelError, match="no sampler"):
        ScoreOnly([0.0], [[1.0]]).sample(3, RngStream(0).generator())


# ---------------------------------------------------------------------------
# Gaussian mixture


@pytest.fixture(scope="module")
def gmm():
    gen = RngStream(403).generator()
    comps = [
        Gaussian([-2.0, 0.0], random_spd(gen, 2)),
        Gaussian([1.5, 1.0], random_spd(gen, 2)),
        Gaussian([0.0, -3.0], random_spd(gen, 2)),
    ]
    return GaussianMixture(comps, [0.5, 0.3, 0.2])


def test_gmm_fd_agreement(gmm):
    gen = RngStream(404).generator()
    points = gen.standard_normal((25, 2)) * 3.0
    assert_scores_match(gmm, gmm.log_density, points)
    assert_laplacians_match(gmm, gmm.log_density, points)


def test_gmm_responsibilities_on_simplex(gmm):
    gen = RngStream(405).generator()
    points = np.vstack([gen.standard_normal((50, 2)) * 5.0,
                        [[40.0, 40.0], [-40.0, 40.0], [0.0, -60.0]]])
    resp = gmm.responsibilities(points)
    assert resp.min() >= 0.0
    assert np.abs(resp.sum(axis=-1) - 1.0).max() < 1e-12


def test_gmm_tail_stability(gmm):
    far = np.array([[120.0, -90.0], [-500.0, 500.0]])
    assert np.isfinite(gmm.score(far)).all()
    assert np.isfinite(gmm.laplacian(far)).all()
    assert np.isfinite(gmm.log_density(far)).all()


def test_single_component_gmm_equals_gaussian(inf_a):
    mix = GaussianMixture([inf_a], [1.0])
    x = np.array([[0.4, -0.9], [2.0, 2.0]])
    assert np.allclose(mix.score(x), inf_a.score(x), atol=1e-12)
    assert np.allclose(mix.laplacian(x), inf_a.laplacian(x), atol=1e-12)
    assert np.allclose(mix.log_density(x), inf_a.log_density(x), atol=1e-12)


def test_gmm_sampling_mean(gmm):
    draws = gmm.sample(60000, RngStream(406).generator())
    want = sum(w * c.mean for w, c in zip([0.5, 0.3, 0.2], gmm.components))
    assert np.abs(draws.mean(axis=0) - want).max() < 0.05


def test_gmm_validation(inf_a, post_a):
    with pytest.raises(ModelError):
        GaussianMixture([inf_a, post_a], [0.7, 0.7])
    with pytest.raises(ModelError):
        GaussianMixture([inf_a, post_a], [1.5, -0.5])
    with pytest.raises(ModelError):
        GaussianMixture([], [])


# ---------------------------------------------------------------------------
# Gauss-Bernoulli RBM


@pytest.fixture(scope="module")
def rbm():
    basis_inf, _ = make_rbm_family(RngStream(407))
    return basis_inf[0]


def test_rbm_fd_agreement(rbm):
    gen = RngStream(408).generator()
    points = rbm.visible_bias + gen.standard_normal((25, rbm.dim)) * 2.0
    assert_scores_match(rbm, rbm.log_density, points)
    assert_laplacians_match(rbm, rbm.log_density, points)


def test_rbm_normalization_invariance(rbm):
    # score and laplacian come from the unnormalized density, so rescaling
    # it (adding a constant to the log) must not move them
    gen = RngStream(409).generator()
    x = gen.standard_normal(rbm.dim)
    shifted = lambda pt: rbm.log_density(pt) + 7.25  # noqa: E731
    got = rbm.score(x)
    assert np.abs(got - fd_score(shifted, x)).max() <= 1e-5 * max(
        1.0, float(np.linalg.norm(got))
    )


def test_rbm_zero_weight_closed_form():
    b = np.linspace(-1.0, 1.0, 10)
    model = Gbrbm(np.zeros((10, 4)), b, np.zeros(4))
    assert model.hyvarinen(b) == pytest.approx(-10.0, abs=1e-12)
    x = np.array([0.5] * 10)
    assert np.allclose(model.score(x), b - x, atol=1e-12)
    assert model.laplacian(x) == pytest.approx(-10.0, abs=1e-12)


def test_rbm_energy_matches_log_density(rbm):
    x = RngStream(410).generator().standard_normal((6, rbm.dim))
    assert np.allclose(rbm.log_density(x), -rbm.energy(x), atol=1e-12)


def test_rbm_validation():
    with pytest.raises(ModelError):
        Gbrbm(np.zeros((3, 2)), np.zeros(4), np.zeros(2))
    with pytest.raises(ModelError):
        Gbrbm(np.full((3, 2), np.nan), np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# score mixtures


def test_constant_mixture_exact_laplacian(inf_a, inf_b):
    mix = ScoreMixture([inf_a, inf_b], [0.25, 0.75])
    x = np.array([0.1, 0.2])
    want_score = 0.25 * inf_a.score(x) + 0.75 * inf_b.score(x)
    assert np.allclose(mix.score(x), want_score, atol=1e-12)
    assert mix.laplacian(x) == pytest.approx(-TRACE_VINV, abs=1e-12)


def test_constant_mixture_is_a_geometric_mixture_score(inf_a, inf_b):
    # constant weights correspond to the density prod p_i^beta_i, whose log
    # is the weighted sum, so the score must match its finite differences
    mix = ScoreMixture([inf_a, inf_b], [0.3, 0.7])
    logp = lambda x: 0.3 * inf_a.log_density(x) + 0.7 * inf_b.log_density(x)  # noqa: E731
    points = RngStream(411).generator().standard_normal((10, 2)) * 2.0
    assert_scores_match(mix, logp, points)
    assert_laplacians_match(mix, logp, points)


def test_rbm_mixture_laplacian_is_exact():
    # constant weights: the divergence is the weighted sum of the members'
    # closed-form Laplacians, deterministic and with no rng
    basis_inf, _ = make_rbm_family(RngStream(412))
    mix = ScoreMixture(basis_inf, [0.3, 0.7])
    x = RngStream(413).generator().standard_normal((5, 10))
    want = 0.3 * basis_inf[0].laplacian(x) + 0.7 * basis_inf[1].laplacian(x)
    assert np.allclose(mix.laplacian(x), want, rtol=0, atol=1e-12)
    assert mix.laplacian(x[0]) == pytest.approx(want[0], abs=1e-12)
    assert np.array_equal(mix.laplacian(x), mix.laplacian(x))


def _network_mixture(basis, seed):
    net = BetaNetwork.initialize(basis[0].dim, len(basis), RngStream(seed).generator())
    net.w2 = 30.0 * net.w2  # sharper weights make the grad-beta term count
    return ScoreMixture(basis, net)


def _exact_divergence_cases():
    basis_inf, _ = make_rbm_family(RngStream(430))
    gauss = [Gaussian([0.0, 1.0], V_REF), Gaussian([-1.0, 0.5], [[1.0, 0.3], [0.3, 0.5]])]
    gmm = GaussianMixture([gauss[0], Gaussian([1.0, -1.0], V_REF)], [0.4, 0.6])
    return {
        "constant_rbm": (ScoreMixture(basis_inf, [0.4, 0.6]), 10),
        "network_rbm": (_network_mixture(basis_inf, 431), 10),
        "network_gaussian": (_network_mixture(gauss, 432), 2),
        "constant_gmm_member": (ScoreMixture([gmm, gauss[1]], [0.5, 0.5]), 2),
    }


@pytest.mark.parametrize("case", ["constant_rbm", "network_rbm", "network_gaussian",
                                  "constant_gmm_member"])
def test_mixture_laplacian_matches_the_jacobian_trace(case):
    # the oracle differentiates the mixture score numerically, independent
    # of the closed form sum_k beta_k lap_k + grad beta_k . s_k
    mix, dim = _exact_divergence_cases()[case]
    x = RngStream(433).generator().standard_normal((200, dim)) * 1.5
    got = mix.laplacian(x)
    want = fd_divergence(mix, x)
    assert np.abs(got - want).max() <= 1e-7 * max(1.0, float(np.abs(want).max()))
    s = mix.score(x)
    assert np.allclose(mix.hyvarinen(x), 0.5 * np.sum(s * s, axis=-1) + got,
                       rtol=0, atol=1e-12)


def test_network_mixture_laplacian_agrees_with_many_hutchinson_probes():
    basis_inf, _ = make_rbm_family(RngStream(434))
    mix = _network_mixture(basis_inf, 435)
    x = RngStream(436).generator().standard_normal((3, 10))
    est, se = hutchinson_laplacian(mix, x, 4000, RngStream(437), return_stderr=True)
    assert np.all(np.abs(est - mix.laplacian(x)) <= 4 * se)


class _StubBeta:
    """Point-dependent weights from fixed outputs, with a zero Jacobian of
    a chosen shape."""

    def __init__(self, weights, jac_shape=None):
        self.weights = np.asarray(weights, dtype=float)
        self.jac_shape = jac_shape

    def __call__(self, x):
        return np.broadcast_to(self.weights, x.shape[:-1] + self.weights.shape)

    def weights_and_jacobian(self, x):
        shape = self.jac_shape or x.shape[:-1] + self.weights.shape + x.shape[-1:]
        return self(x), np.zeros(shape)


def test_mixture_beta_callable_validation(inf_a, inf_b):
    with pytest.raises(ModelError, match="weights_and_jacobian"):
        ScoreMixture([inf_a, inf_b], lambda x: np.full(x.shape[:-1] + (2,), 0.5))
    bad_shape = ScoreMixture([inf_a, inf_b], _StubBeta(np.ones(3) / 3))
    with pytest.raises(ModelError, match="shape"):
        bad_shape.score(np.zeros(2))
    with pytest.raises(ModelError, match="shape"):
        bad_shape.hyvarinen(np.zeros(2))
    off_simplex = ScoreMixture([inf_a, inf_b], _StubBeta([0.75, 0.75]))
    with pytest.raises(ModelError, match="simplex"):
        off_simplex.score(np.zeros(2))
    with pytest.raises(ModelError, match="simplex"):
        off_simplex.laplacian(np.zeros(2))
    bad_jac = ScoreMixture([inf_a, inf_b], _StubBeta([0.5, 0.5], jac_shape=(2, 3)))
    with pytest.raises(ModelError, match="Jacobian"):
        bad_jac.laplacian(np.zeros(2))


def test_mixture_validation(inf_a, inf_b):
    with pytest.raises(ModelError):
        ScoreMixture([], [])
    with pytest.raises(ModelError):
        ScoreMixture([inf_a, inf_b], [0.4, 0.4])
    with pytest.raises(ModelError):
        ScoreMixture([inf_a, Gaussian([0.0], [[1.0]])], [0.5, 0.5])


def test_mixture_sampling_tracks_member(inf_a):
    mix = ScoreMixture([inf_a], [1.0])  # default refresh: 1000 steps of 0.01
    draws = mix.sample(4000, RngStream(414).generator())
    assert draws.shape == (4000, 2)
    assert np.abs(draws.mean(axis=0) - inf_a.mean).max() < 0.1


# ---------------------------------------------------------------------------
# hyvarinen score and divergences


def _one_of_each_family():
    gen = RngStream(440).generator()
    basis_inf, _ = make_rbm_family(RngStream(441))
    gauss = Gaussian([0.5, -1.0], random_spd(gen, 2))
    return {
        "gaussian": gauss,
        "gmm": GaussianMixture([gauss, Gaussian([1.0, 2.0], V_REF)], [0.3, 0.7]),
        "rbm": basis_inf[0],
        "constant_mixture": ScoreMixture(basis_inf, [0.4, 0.6]),
        "network_mixture": _network_mixture(basis_inf, 442),
    }


FAMILIES = ["gaussian", "gmm", "rbm", "constant_mixture", "network_mixture"]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_fused_hyvarinen_is_bitwise_the_public_formula(family):
    # hyvarinen runs the fused kernel once; score and laplacian are the
    # public methods, and the finite-difference divergence is independent
    model = _one_of_each_family()[family]
    batch = RngStream(443).generator().standard_normal((64, model.dim)) * 1.5
    for x in (batch[0], batch):
        s = np.asarray(model.score(x))
        want = 0.5 * np.sum(s * s, axis=-1) + model.laplacian(x)
        got = model.hyvarinen(x)
        assert np.shape(got) == x.shape[:-1]
        assert _bits(got) == _bits(want)
    want = fd_divergence(model, batch)
    assert np.abs(model.laplacian(batch) - want).max() <= 1e-7 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("family", FAMILIES)
def test_hyvarinen_checks_its_points_and_leaves_them_alone(family):
    model = _one_of_each_family()[family]
    d = model.dim
    for bad in (np.zeros(d + 1), np.zeros((3, d - 1)), np.float64(0.0)):
        with pytest.raises(ModelError, match="dimension"):
            model.hyvarinen(bad)
    for value in (np.nan, np.inf, -np.inf):
        x = np.zeros((4, d))
        x[2, 1] = value
        for pts in (x, x[2]):
            with pytest.raises(ModelError, match="non-finite"):
                model.hyvarinen(pts)
    x = RngStream(444).generator().standard_normal((8, d))
    keep = x.copy()
    model.hyvarinen(x)
    model.hyvarinen(x[3])
    model.hyvarinen(x[:, ::-1])
    assert _bits(x) == _bits(keep)
    assert _bits(model.hyvarinen(list(x[3]))) == _bits(model.hyvarinen(keep[3]))


def test_hyvarinen_combines_score_and_laplacian(gmm):
    x = np.array([0.7, -0.4])
    s = gmm.score(x)
    want = 0.5 * float(s @ s) + gmm.laplacian(x)
    assert gmm.hyvarinen(x) == pytest.approx(want, rel=1e-12)


def test_fisher_gaussian_closed_forms(inf_a, inf_b, post_a, post_b):
    assert fisher_gaussian(post_a, inf_a) == pytest.approx(GAP_NEAR, abs=1e-15)
    assert fisher_gaussian(post_b, inf_a) == pytest.approx(1.0 / 4.84, abs=1e-15)
    assert fisher_gaussian(inf_a, inf_a) == 0.0
    # symmetric for a shared covariance
    assert fisher_gaussian(inf_a, post_b) == fisher_gaussian(post_b, inf_a)


def fisher_by_hand(p, q):
    # E 0.5*||A y + b||^2 with y ~ N(0, V_p), A the inverse-cov difference
    vp = np.asarray(p.cov)
    a = np.linalg.inv(q.cov) - np.linalg.inv(vp)
    b = np.linalg.inv(q.cov) @ (np.asarray(p.mean) - q.mean)
    return 0.5 * (np.trace(a @ vp @ a.T) + b @ b)


def test_fisher_gaussian_heteroscedastic_closed_form(inf_a, inf_b, post_a, post_b, gmm):
    p = Gaussian([0.5, -0.5], [[1.0, 0.3], [0.3, 0.8]])
    exact = fisher_gaussian(p, inf_a)
    assert exact == pytest.approx(fisher_by_hand(p, inf_a), abs=1e-12)
    est, se = fisher_mc(p, inf_a, 400_000, RngStream(445))
    assert abs(est - exact) <= 3 * se
    # bitwise-equal covariances make the trace term exactly zero, leaving
    # the shared-covariance formula's bits
    for a, b in ((post_a, inf_a), (inf_b, post_b), (inf_a, inf_b)):
        v = a.cov_inv @ (a.mean - b.mean)
        assert fisher_gaussian(a, b) == 0.5 * float(v @ v)
    with pytest.raises(ModelError, match="fisher_mc"):
        fisher_gaussian(gmm, inf_a)


def test_fisher_mc_matches_closed_form(inf_a, post_a):
    # shared covariance makes the score difference constant, so the Monte
    # Carlo average is exact up to rounding
    est, se = fisher_mc(post_a, inf_a, 100000, RngStream(415))
    assert est == pytest.approx(GAP_NEAR, abs=1e-12)
    assert se < 1e-12


def test_fisher_mc_heteroscedastic_pair(inf_a):
    p = Gaussian([0.5, -0.5], [[1.0, 0.3], [0.3, 0.8]])
    est, se = fisher_mc(p, inf_a, 100000, RngStream(419))
    assert se > 0
    assert abs(est - fisher_by_hand(p, inf_a)) <= 3 * se


def test_fisher_mc_identical_models_is_exactly_zero(inf_a):
    assert fisher_mc(inf_a, inf_a, 1000, RngStream(416)) == (0.0, 0.0)


def test_fisher_mc_nonnegative(gmm, inf_a):
    est, _ = fisher_mc(inf_a, gmm, 5000, RngStream(417))
    assert est >= 0.0
    with pytest.raises(ModelError):
        fisher_mc(inf_a, gmm, 1, RngStream(418))


# ---------------------------------------------------------------------------
# Hutchinson divergence estimation


def test_hutchinson_standard_gaussian_trace():
    model = Gaussian(np.zeros(10), np.eye(10))
    est = hutchinson_laplacian(model, np.zeros(10), 10000, RngStream(419))
    assert abs(est - (-10.0)) < 0.5


def test_hutchinson_matches_exact_within_stderr():
    gen = RngStream(420).generator()
    model = Gaussian(gen.standard_normal(4), random_spd(gen, 4))
    x = gen.standard_normal(4)
    est, se = hutchinson_laplacian(model, x, 1000, gen, return_stderr=True)
    assert se > 0
    assert abs(est - model.laplacian(x)) <= 3 * se


def test_hutchinson_shared_probes_are_deterministic(inf_a):
    # equally seeded streams draw the same probes
    x = np.array([[0.2, 0.3], [1.0, -1.0]])
    a = hutchinson_laplacian(inf_a, x, 8, RngStream(421))
    b = hutchinson_laplacian(inf_a, x, 8, RngStream(421))
    assert np.array_equal(a, b)


def test_hutchinson_single_probe_has_zero_stderr(inf_a):
    est, se = hutchinson_laplacian(inf_a, np.zeros(2), 1, RngStream(422),
                                   return_stderr=True)
    assert se == 0.0
    assert np.isfinite(est)


def test_hutchinson_validation(inf_a):
    with pytest.raises(ModelError):
        hutchinson_laplacian(inf_a, np.zeros(2), 0, RngStream(0))
