import dataclasses

import numpy as np
import pytest

from conftest import GAP_NEAR, V_REF, make_rbm_family, random_spd
from scoredetect import (BetaNetwork, DisjointnessError, Gaussian,
                         GaussianMixture, LangevinConfig, LfdPair,
                         MeanPolytope, ModelError, RngStream, ScoreMixture,
                         TrainConfig, TrainingDivergedError, fisher_gaussian,
                         fisher_mc, gaussian_polytope_lfd,
                         train_beta_networks, verify_drift_condition)
from scoredetect.lfd import loss_and_grads

EYE2 = np.eye(2)


# ---------------------------------------------------------------------------
# nearest-pair identification


def test_reference_geometry_returns_exact_vertices(families):
    pre, post = families
    pair = gaussian_polytope_lfd(pre, post)
    assert np.array_equal(pair.q_inf.mean, [-0.25, -0.25])
    assert np.array_equal(pair.q_post.mean, [0.25, 0.25])
    assert pair.provenance == "analytic"
    assert pair.notes == ()
    assert pair.fisher_gap == fisher_gaussian(pair.q_post, pair.q_inf)
    assert abs(pair.fisher_gap - GAP_NEAR) < 1e-15


def test_singleton_families_pass_through():
    pre = MeanPolytope([[1.0, 0.0]], EYE2)
    post = MeanPolytope([[4.0, 0.0]], EYE2)
    pair = gaussian_polytope_lfd(pre, post)
    assert np.array_equal(pair.q_inf.mean, [1.0, 0.0])
    assert np.array_equal(pair.q_post.mean, [4.0, 0.0])
    assert pair.fisher_gap == pytest.approx(4.5, abs=1e-12)


def test_edge_interior_optimum():
    # nearest point to a singleton lands mid-edge, not on a vertex
    pre = MeanPolytope([[-1.0, 0.0], [-1.0, 2.0]], EYE2)
    post = MeanPolytope([[1.0, 1.0]], EYE2)
    pair = gaussian_polytope_lfd(pre, post)
    assert np.allclose(pair.q_inf.mean, [-1.0, 1.0], atol=1e-9)
    assert pair.fisher_gap == pytest.approx(2.0, abs=1e-9)


def test_parallel_edges_flag_non_uniqueness():
    pre = MeanPolytope([[0.0, -1.0], [0.0, 1.0]], EYE2)
    post = MeanPolytope([[2.0, -3.0], [2.0, 5.0]], EYE2)
    pair = gaussian_polytope_lfd(pre, post)
    assert pair.fisher_gap == pytest.approx(2.0, abs=1e-9)
    assert any("not unique" in note for note in pair.notes)


def test_overlapping_families_are_rejected():
    pre = MeanPolytope([[0.0, 0.0], [2.0, 2.0]], EYE2)
    post = MeanPolytope([[1.0, 1.0], [3.0, 3.0]], EYE2)
    with pytest.raises(DisjointnessError):
        gaussian_polytope_lfd(pre, post)


# the overlap test is relative to the vertex scale: a distance left by rounding
# at large coordinates is overlap, and a tiny distance at tiny ones is not

def test_rounding_distance_at_large_coordinates_is_overlap():
    # of 2000 random hull pairs at scale 1e7, these two overlap but the
    # nearest-point solve leaves a distance of about 1e-9 from rounding
    rng = np.random.default_rng(1)
    hulls = {}
    for trial in range(1592):
        d, ka, kb = (int(rng.integers(lo, hi)) for lo, hi in ((2, 4), (1, 5), (1, 5)))
        hulls[trial] = (rng.standard_normal((ka, d)) * 1e7, rng.standard_normal((kb, d)) * 1e7)
    for trial in (939, 1591):
        va, vb = hulls[trial]
        eye = np.eye(va.shape[1])
        with pytest.raises(DisjointnessError, match="not disjoint"):
            gaussian_polytope_lfd(MeanPolytope(va, eye), MeanPolytope(vb, eye))


def test_tiny_separation_at_tiny_coordinates_is_disjoint():
    pair = gaussian_polytope_lfd(MeanPolytope([[0.0, 0.0]], EYE2),
                                 MeanPolytope([[5e-11, 0.0]], EYE2))
    assert pair.fisher_gap == pytest.approx(0.5 * 5e-11 ** 2, rel=1e-9)


def test_crossing_unit_segments_at_large_coordinates_overlap():
    s = 1e7
    pre = MeanPolytope([[s - 0.5, s], [s + 0.5, s]], EYE2)
    post = MeanPolytope([[s, s - 0.5], [s, s + 0.5]], EYE2)
    with pytest.raises(DisjointnessError, match="not disjoint"):
        gaussian_polytope_lfd(pre, post)


def test_parallel_unit_segments_at_large_coordinates_are_disjoint():
    s = 1e7
    pre = MeanPolytope([[s - 0.5, s], [s + 0.5, s]], EYE2)
    post = MeanPolytope([[s - 0.5, s + 1.0], [s + 0.5, s + 1.0]], EYE2)
    assert gaussian_polytope_lfd(pre, post).fisher_gap == pytest.approx(0.5, rel=1e-6)


def test_covariance_weighting_shapes_the_minimizer():
    # the nearest point is computed under the V-norm, so for an anisotropic
    # covariance it differs from the Euclidean projection; compare against
    # the one-dimensional quadratic solved directly in transformed space
    verts = np.array([[1.2, 1.2], [1.0, -1.0]])
    pre = MeanPolytope([[0.0, 0.0]], V_REF)
    pair = gaussian_polytope_lfd(pre, MeanPolytope(verts, V_REF))
    vinv = np.linalg.inv(V_REF)
    t0, t1 = verts @ vinv
    w = float(np.clip(-(t0 @ (t1 - t0)) / ((t1 - t0) @ (t1 - t0)), 0.0, 1.0))
    want_mean = (1.0 - w) * verts[0] + w * verts[1]
    assert 0.0 < w < 1.0
    assert np.allclose(pair.q_post.mean, want_mean, atol=1e-9)
    euclid = verts[np.argmin(np.linalg.norm(verts, axis=1))]
    assert not np.allclose(want_mean, euclid, atol=0.05)


def test_randomized_optimality_audit():
    # the returned pair must beat dense random sampling of both hulls
    gen = RngStream(701).generator()
    for _ in range(5):
        a = gen.standard_normal((4, 3))
        b = gen.standard_normal((4, 3)) + 6.0
        m = gen.standard_normal((3, 3))
        cov = m @ m.T + 3.0 * np.eye(3)
        pair = gaussian_polytope_lfd(MeanPolytope(a, cov), MeanPolytope(b, cov))
        vinv = np.linalg.inv(cov)
        wa = gen.dirichlet(np.ones(4), size=2000)
        wb = gen.dirichlet(np.ones(4), size=2000)
        sampled = np.linalg.norm((wa @ a - wb @ b) @ vinv, axis=1).min()
        found = np.linalg.norm(vinv @ (pair.q_inf.mean - pair.q_post.mean))
        assert found <= sampled + 1e-9


def test_many_vertex_polytopes_beat_dense_sampling():
    # more than 8 vertices per side, and hulls in general position
    gen = RngStream(714).generator()
    for ka, kb, d in ((12, 9, 3), (20, 16, 2)):
        a = gen.standard_normal((ka, d))
        b = gen.standard_normal((kb, d)) + 3.0
        m = gen.standard_normal((d, d))
        cov = m @ m.T + d * np.eye(d)
        pair = gaussian_polytope_lfd(MeanPolytope(a, cov), MeanPolytope(b, cov))
        assert pair.notes == ()
        vinv = np.linalg.inv(cov)
        wa = gen.dirichlet(np.ones(ka), size=4000)
        wb = gen.dirichlet(np.ones(kb), size=4000)
        sampled = min(np.linalg.norm((wa @ a - wb @ b) @ vinv, axis=1).min(),
                      np.linalg.norm((a[:, None] - b[None]) @ vinv, axis=-1).min())
        found = np.linalg.norm(vinv @ (pair.q_inf.mean - pair.q_post.mean))
        assert found <= sampled + 1e-9


def general_position_problems():
    """200 random polytope pairs, 1-8 vertices a side, d = 2-4."""
    g = np.random.default_rng(5)
    for _ in range(200):
        ka, kb = g.integers(1, 9), g.integers(1, 9)
        d = g.integers(2, 5)
        a = g.standard_normal((ka, d))
        b = g.standard_normal((kb, d)) + 4
        m = g.standard_normal((d, d))
        yield a, b, m @ m.T + d * np.eye(d)


def test_nearest_pair_meets_the_min_norm_optimality_condition():
    # d* is the min-norm point of conv{V^-1 (a_i - b_j)} exactly when
    # <p - d*, d*> >= 0 for every difference vertex p
    for a, b, cov in general_position_problems():
        pair = gaussian_polytope_lfd(MeanPolytope(a, cov), MeanPolytope(b, cov))
        vinv = np.linalg.inv(cov)
        gap = vinv @ (pair.q_inf.mean - pair.q_post.mean)
        diffs = ((a[:, None] - b[None]) @ vinv).reshape(-1, a.shape[1])
        assert ((diffs - gap) @ gap).min() >= -1e-12 * (1.0 + gap @ gap)


def test_general_position_problems_get_no_note():
    for i, (a, b, cov) in enumerate(general_position_problems()):
        pair = gaussian_polytope_lfd(MeanPolytope(a, cov), MeanPolytope(b, cov))
        assert pair.notes == (), i


def test_parallel_edges_touching_at_their_ends_have_a_unique_pair():
    pair = gaussian_polytope_lfd(MeanPolytope([[0.0, 0.0], [0.0, 1.0]], EYE2),
                                 MeanPolytope([[2.0, 1.0], [2.0, 2.0]], EYE2))
    assert np.array_equal(pair.q_inf.mean, [0.0, 1.0])
    assert np.array_equal(pair.q_post.mean, [2.0, 1.0])
    assert pair.notes == ()


def test_mean_polytope_validation():
    with pytest.raises(ModelError):
        MeanPolytope([[0.0, np.inf]], EYE2)
    with pytest.raises(ModelError):
        MeanPolytope([[0.0, 0.0, 0.0]], EYE2)
    with pytest.raises(ModelError):
        gaussian_polytope_lfd(MeanPolytope([[0.0, 0.0]], EYE2),
                              MeanPolytope([[5.0, 5.0]], 2.0 * EYE2))


def test_lfd_pair_validation(inf_a, post_a):
    with pytest.raises(ModelError):
        LfdPair(inf_a, post_a, fisher_gap=0.0, provenance="analytic")
    with pytest.raises(ModelError):
        LfdPair(inf_a, post_a, fisher_gap=1.0, provenance="guessed")


# ---------------------------------------------------------------------------
# drift-condition verification


def test_drift_condition_reference_geometry(families, inf_a, inf_b):
    pre, post = families
    pair = gaussian_polytope_lfd(pre, post)
    report = verify_drift_condition([inf_a, inf_b], pair.q_inf, pair.q_post, 50000,
                                    RngStream(702))
    assert report.verdict == "PASS"
    # all-Gaussian rows are exact closed forms
    want_gaps = (-GAP_NEAR, 1.5625 / 4.84 - 3.0625 / 4.84)
    for row, want in zip(report.rows, want_gaps):
        assert row.verdict == "PASS"
        assert row.gap == pytest.approx(want, abs=1e-12)
        assert row.gap_stderr == 0.0
        assert row.fisher_inf >= 0.0 and row.fisher_post >= 0.0


def test_drift_condition_fails_on_an_identical_pair(inf_a, inf_b, post_a):
    report = verify_drift_condition([inf_a, inf_b], post_a, post_a, 1000, RngStream(703))
    assert report.verdict == "FAIL"
    assert all(row.gap == 0.0 and row.gap_stderr == 0.0 for row in report.rows)


def test_drift_condition_inconclusive_when_underpowered():
    # a mixture is not Gaussian, so its row is a Monte Carlo estimate; its
    # gap is about -0.012 against a paired spread that 50 draws cannot
    # resolve, while 100k draws can
    comps = [Gaussian([-0.7, 0.3], V_REF), Gaussian([0.3, -0.7], V_REF)]
    p = GaussianMixture(comps, [0.5, 0.5])
    q_inf = Gaussian([0.25, 0.25], 1.3 * V_REF)
    q_post = Gaussian([-0.75, -0.75], 1.3 * V_REF)
    report = verify_drift_condition([p], q_inf, q_post, 50, RngStream(704))
    assert report.verdict == "INCONCLUSIVE"
    assert report.rows[0].gap_stderr > 0.0
    assert verify_drift_condition([p], q_inf, q_post, 100_000, RngStream(715)).verdict == "PASS"


@pytest.mark.parametrize("d", [2, 10])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "different"])
def test_exact_drift_rows_match_the_monte_carlo_oracle(shared, d):
    gen = RngStream(716 + d).generator()
    covs = [random_spd(gen, d)] * 3 if shared else [random_spd(gen, d) for _ in range(3)]
    mean_p = 0.5 * gen.standard_normal(d)
    means = (mean_p, mean_p + 0.1 * gen.standard_normal(d), mean_p + gen.standard_normal(d))
    p, q_inf, q_post = (Gaussian(m, c) for m, c in zip(means, covs))
    row = verify_drift_condition([p], q_inf, q_post, 2, RngStream(717)).rows[0]
    assert (row.fisher_inf_stderr, row.fisher_post_stderr, row.gap_stderr) == (0.0, 0.0, 0.0)
    assert row.verdict == "PASS"
    # a one-component mixture is the same law but not a Gaussian, so its
    # row is the paired Monte Carlo estimate of the same gap
    mc = verify_drift_condition([GaussianMixture([p], [1.0])], q_inf, q_post, 200_000,
                                RngStream(718)).rows[0]
    oracles = (fisher_mc(p, q_inf, 200_000, RngStream(719)),
               fisher_mc(p, q_post, 200_000, RngStream(720)), (mc.gap, mc.gap_stderr))
    for exact, (est, se) in zip((row.fisher_inf, row.fisher_post, row.gap), oracles):
        # a shared covariance makes each integrand constant, so its stderr
        # is rounding noise (about 1e-19) and the mean a few ulps off
        assert abs(exact - est) <= 3.0 * se + 1e-14


def test_exact_drift_rows_draw_nothing(monkeypatch):
    basis_inf, _ = make_rbm_family(RngStream(721))
    rbm = basis_inf[0]
    gauss = Gaussian(np.full(10, 0.5), np.eye(10))
    q_inf, q_post = Gaussian(np.zeros(10), np.eye(10)), Gaussian(np.ones(10), np.eye(10))
    calls = []
    for model in (gauss, rbm):
        def counted(n, rng, sample=model.sample, model=model):
            calls.append((model, n))
            return sample(n, rng)
        monkeypatch.setattr(model, "sample", counted)
    report = verify_drift_condition([gauss, rbm], q_inf, q_post, 500, RngStream(722))
    assert calls == [(rbm, 500)]
    assert report.rows[0].gap_stderr == 0.0 and report.rows[1].gap_stderr > 0.0
    # the exact row takes nothing from the generator, so the Monte Carlo
    # row draws what it would draw first in a basis of its own
    alone = verify_drift_condition([rbm], q_inf, q_post, 500, RngStream(722))
    assert report.rows[1] == dataclasses.replace(alone.rows[0], index=1)


@pytest.mark.parametrize("p, q_inf, q_post, sign", [
    # symmetric offsets under a shared inflated covariance: the gap is exactly zero
    (Gaussian([-0.25, -0.25], V_REF), Gaussian([0.25, 0.25], 1.3 * V_REF),
     Gaussian([-0.75, -0.75], 1.3 * V_REF), 0.0),
    # offsets (0.3, 0.4) and (0.5, 0) in decimal: the gap rounds to -2.5 ulps
    (Gaussian([1.1, 0.2], EYE2), Gaussian([1.4, 0.6], EYE2), Gaussian([1.6, 0.2], EYE2), -1.0),
], ids=["zero", "ulps_negative"])
def test_exact_drift_rows_fail_equidistant_pairs(p, q_inf, q_post, sign):
    row = verify_drift_condition([p], q_inf, q_post, 2, RngStream(723)).rows[0]
    assert np.sign(row.gap) == sign and abs(row.gap) < 1e-15
    assert row.verdict == "FAIL"


def test_monte_carlo_drift_rows_fail_equidistant_pairs():
    # a one-component mixture of the "ulps_negative" member above: its row is
    # a Monte Carlo estimate whose paired integrand is constant up to
    # rounding, so a gap and stderr far below the exact rows' rounding floor
    # fail as the exact row does
    p = GaussianMixture([Gaussian([1.1, 0.2], EYE2)], [1.0])
    q_inf, q_post = Gaussian([1.4, 0.6], EYE2), Gaussian([1.6, 0.2], EYE2)
    row = verify_drift_condition([p], q_inf, q_post, 1000, RngStream(724)).rows[0]
    assert -1e-16 < row.gap < -3.0 * row.gap_stderr < 0.0
    assert row.verdict == "FAIL"


# ---------------------------------------------------------------------------
# weight networks


def test_beta_network_outputs_live_on_the_simplex():
    net = BetaNetwork.initialize(4, 3, RngStream(705).generator())
    x = RngStream(706).generator().standard_normal((40, 4)) * 3.0
    w = net(x)
    assert w.shape == (40, 3)
    assert w.min() >= 0.0
    assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-12


def test_beta_network_param_roundtrip():
    net = BetaNetwork.initialize(3, 2, RngStream(707).generator())
    vec = net.get_params()
    other = BetaNetwork.initialize(3, 2, RngStream(708).generator())
    other.set_params(vec)
    x = np.ones((5, 3))
    assert np.array_equal(net(x), other(x))
    clone = BetaNetwork.from_dict(net.to_dict())
    assert np.array_equal(net(x), clone(x))


def test_beta_network_as_mixture_weights(inf_a, inf_b):
    net = BetaNetwork.initialize(2, 2, RngStream(709).generator())
    mix = ScoreMixture([inf_a, inf_b], net)
    x = np.array([[0.5, -0.5]])
    w = net(x)[0]
    want = w[0] * inf_a.score(x[0]) + w[1] * inf_b.score(x[0])
    assert np.allclose(mix.score(x[0]), want, atol=1e-12)


def test_gradients_match_finite_differences():
    gen = RngStream(710).generator()
    net_inf = BetaNetwork.initialize(4, 2, gen, hidden=5)
    net_post = BetaNetwork.initialize(4, 2, gen, hidden=5)
    x = gen.standard_normal((16, 4))
    s_inf = gen.standard_normal((16, 2, 4))
    s_post = gen.standard_normal((16, 2, 4))
    # keep clear of ReLU kinks so the loss is differentiable at the point
    assert min(np.abs(net_inf._forward_full(x)[2]).min(),
               np.abs(net_post._forward_full(x)[2]).min()) > 1e-4

    _, g_inf, g_post = loss_and_grads(net_inf, net_post, x, s_inf, s_post)

    def loss_at(net, params):
        saved = net.get_params()
        net.set_params(params)
        val = loss_and_grads(net_inf, net_post, x, s_inf, s_post)[0]
        net.set_params(saved)
        return val

    for net, grads in ((net_inf, g_inf), (net_post, g_post)):
        flat = np.concatenate([g.ravel() for g in grads])
        params = net.get_params()
        for idx in RngStream(711).generator().choice(params.size, 12, replace=False):
            h = 1e-6 * max(1.0, abs(params[idx]))
            up = params.copy()
            down = params.copy()
            up[idx] += h
            down[idx] -= h
            numeric = (loss_at(net, up) - loss_at(net, down)) / (2.0 * h)
            scale = max(abs(numeric), abs(flat[idx]), 1e-8)
            assert abs(numeric - flat[idx]) <= 1e-5 * scale


def test_identical_sides_give_zero_loss(inf_a, inf_b):
    gen = RngStream(712).generator()
    net = BetaNetwork.initialize(2, 2, gen)
    x = gen.standard_normal((8, 2))
    s = np.stack([np.asarray(m.score(x)) for m in (inf_a, inf_b)], axis=1)
    loss, g_inf, g_post = loss_and_grads(net, net, x, s, s)
    assert loss == 0.0
    assert all(np.array_equal(a, -b) for a, b in zip(g_inf, g_post))
    assert all(np.abs(g).max() == 0.0 for g in g_inf)


# ---------------------------------------------------------------------------
# training


def quick_train_config(seed, **overrides):
    base = dict(
        rng=RngStream(seed),
        epochs=8,
        learning_rate=0.2,
        langevin=LangevinConfig(step=0.01, steps=10),
        particle_count=2000,
        minibatch=256,
        holdout=500,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_training_identifies_the_near_vertices(inf_a, inf_b, post_a, post_b):
    pair, report = train_beta_networks(
        [inf_a, inf_b], [post_a, post_b],
        quick_train_config(713, epochs=16, particle_count=4000),
    )
    assert pair.provenance == "learned"
    assert pair.fisher_gap > 0
    assert report.holdout_count == 500
    assert len(report.loss_history) == 16
    assert report.loss_history[-1] < report.loss_history[0]
    # the nearest members are the first pre-change and first post-change
    assert report.avg_beta_inf[0] > 0.8
    assert report.avg_beta_post[0] > 0.8
    # holdout gap lands near the vertex gap, biased high while the far
    # members still carry a little weight
    assert GAP_NEAR / 2 < pair.fisher_gap < 2 * GAP_NEAR


def test_training_is_deterministic(inf_a, inf_b, post_a, post_b):
    runs = [
        train_beta_networks([inf_a, inf_b], [post_a, post_b],
                            quick_train_config(714))
        for _ in range(2)
    ]
    assert runs[0][1].loss_history == runs[1][1].loss_history
    assert np.array_equal(runs[0][1].avg_beta_inf, runs[1][1].avg_beta_inf)


def test_training_divergence_is_reported(post_a):
    # scores of order 1e300 overflow the quadratic loss on the first batch;
    # a single minibatch per epoch so the check fires before corrupted
    # parameters are evaluated again
    spiky = Gaussian([0.0, 0.0], 1e-300 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDivergedError):
        train_beta_networks([spiky], [post_a],
                            quick_train_config(715, epochs=1,
                                               particle_count=256,
                                               langevin=LangevinConfig(steps=0)))


def test_a_diverging_langevin_refresh_is_reported(inf_a, post_a):
    # a refresh that leaves the finite range is a training failure, while
    # langevin_chain itself keeps raising ValueError
    cfg = quick_train_config(716, epochs=1, langevin=LangevinConfig(step=1e200, steps=5))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDivergedError, match="particle .* non-finite"):
        train_beta_networks([inf_a], [post_a], cfg)


def test_training_validation(inf_a, post_a):
    with pytest.raises(ModelError):
        train_beta_networks([], [post_a], quick_train_config(716))
    with pytest.raises(ValueError):
        train_beta_networks([inf_a], [post_a],
                            quick_train_config(717, init_basis=3))
    with pytest.raises(ModelError):
        train_beta_networks([Gaussian([0.0], [[1.0]])], [post_a],
                            quick_train_config(718))
    with pytest.raises(ValueError):
        quick_train_config(719, epochs=0)
    with pytest.raises(TypeError):
        quick_train_config(720, rng=12345)
