import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GAP_NEAR, drift_stats, fd_divergence, make_rbm_family
from scoredetect import (BetaNetwork, DetectorConfig, DetectorState, Gaussian,
                         GaussianMixture, Gbrbm, ModelError, RngStream, ScoreMixture,
                         batch_scores, cusum_log_lr_step, step)


class CoordinateModel:
    """One-dimensional stand-in whose Hyvarinen score is ``sign * x``, so a
    detector on (CoordinateModel(), CoordinateModel(0)) has increment
    ``rho * x``."""

    dim = 1

    def __init__(self, sign=1.0):
        self.sign = sign

    def hyvarinen(self, x):
        return self.sign * np.asarray(x, dtype=float)[..., 0]


def walk(increments, omega):
    """The state after stepping every increment from a fresh state."""
    state = DetectorState()
    for inc in increments:
        step(state, inc, omega)
    return state


def first_crossing(cfg, xs):
    """``stopped_at`` of ``cfg`` stepped over the increments of ``xs``."""
    state = DetectorState()
    for inc in batch_scores(cfg, xs).tolist():
        if step(state, inc, cfg.omega).stopped_at is not None:
            return state.stopped_at
    return None


def test_config_validation(inf_a, post_a):
    DetectorConfig(inf_a, post_a, omega=0.0)  # the degenerate threshold is legal
    with pytest.raises(ValueError):
        DetectorConfig(inf_a, post_a, omega=-0.1)
    with pytest.raises(ValueError):
        DetectorConfig(inf_a, post_a, omega=math.inf)
    with pytest.raises(ValueError):
        DetectorConfig(inf_a, post_a, omega=1.0, rho=0.0)
    with pytest.raises(ModelError):
        DetectorConfig(inf_a, Gaussian([0.0], [[1.0]]), omega=1.0)


def test_increment_closed_forms(inf_a, post_a):
    cfg = DetectorConfig(inf_a, post_a, omega=1.0)
    assert batch_scores(cfg, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert batch_scores(cfg, [0.25, 0.25]) == pytest.approx(GAP_NEAR, abs=1e-12)
    assert batch_scores(cfg, [1.0, 1.0]) == pytest.approx(1.0 / 4.84, abs=1e-12)


def test_batch_scores_match_the_loop(inf_a, post_a):
    cfg = DetectorConfig(inf_a, post_a, omega=1.0, rho=1.7)
    xs = RngStream(601).generator().standard_normal((32, 2))
    batch = batch_scores(cfg, xs)
    loop = np.array([cfg.rho * (inf_a.hyvarinen(x) - post_a.hyvarinen(x)) for x in xs])
    assert np.allclose(batch, loop, atol=1e-12)
    single = np.array([batch_scores(cfg, x) for x in xs])
    assert np.allclose(batch, single, atol=1e-12)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def kernel_increments(cfg, x):
    """The generic increment: two Hyvarinen kernels."""
    return cfg.rho * (cfg.model_inf.hyvarinen(x) - cfg.model_post.hyvarinen(x))


def shared_pair(seed, d, rho):
    """Two Gaussians with random means and one random covariance."""
    gen = RngStream(seed).generator()
    root = gen.standard_normal((d, d))
    cov = root @ root.T / d + 0.5 * np.eye(d)
    return DetectorConfig(Gaussian(gen.standard_normal(d), cov),
                          Gaussian(gen.standard_normal(d), cov.copy()), omega=1.0, rho=rho)


@pytest.mark.parametrize("d", [2, 10])
def test_shared_covariance_rows_score_alike_in_every_batch(d):
    # a row's increment does not depend on the batch it is scored in, so
    # file-fed and pipe-fed detect and the bench blocks agree bit for bit
    cfg = shared_pair(611 + d, d, rho=2.2)
    xs = 3.0 * RngStream(612 + d).generator().standard_normal((4096, d))
    singles = np.array([batch_scores(cfg, x) for x in xs])  # (d,) rows
    for size in (1, 2, 3, 5, 17, 255, 256, 257, 4096):
        assert same_bits(batch_scores(cfg, xs[:size]), singles[:size]), size
    # a step-major (steps, paths, d) block, and a column-major batch
    assert same_bits(batch_scores(cfg, xs.reshape(16, 256, d)), singles.reshape(16, 256))
    assert same_bits(batch_scores(cfg, np.asfortranarray(xs)), singles)


@pytest.mark.parametrize("d", [2, 10])
@pytest.mark.parametrize("rho", [0.3, 1.0, 2.2])
def test_affine_increment_matches_the_hyvarinen_kernels(d, rho):
    for seed in range(621, 626):
        cfg = shared_pair(seed, d, rho)
        xs = 3.0 * RngStream(seed + 100).generator().standard_normal((256, d))
        got = batch_scores(cfg, xs)
        hyv_inf, hyv_post = cfg.model_inf.hyvarinen(xs), cfg.model_post.hyvarinen(xs)
        # relative to the kernels, whose difference cancels
        scale = rho * (np.abs(hyv_inf) + np.abs(hyv_post))
        assert np.all(np.abs(got - rho * (hyv_inf - hyv_post)) <= 1e-12 * scale)
        assert not same_bits(got, kernel_increments(cfg, xs))  # the affine form ran


def test_other_pairs_keep_the_two_kernels(inf_a, post_a):
    # each pair is affine in x, but only Gaussians of one bitwise covariance
    # take the affine form
    nudged = Gaussian(post_a.mean, post_a.cov + 1e-13 * np.array([[1.0, 0.5], [0.5, 1.0]]))
    pairs = [
        (inf_a, nudged),
        (GaussianMixture([inf_a], [1.0]), GaussianMixture([post_a], [1.0])),
        (Gaussian([0.0, 0.0], np.eye(2)), Gbrbm(np.zeros((2, 3)), np.ones(2), np.zeros(3))),
    ]
    xs = 3.0 * RngStream(631).generator().standard_normal((256, 2))
    for q, p in pairs:
        cfg = DetectorConfig(q, p, omega=1.0, rho=1.3)
        assert same_bits(batch_scores(cfg, xs), kernel_increments(cfg, xs))
        assert same_bits(batch_scores(cfg, xs[0]), kernel_increments(cfg, xs[0]))


def test_affine_path_checks_its_points(inf_a, post_a):
    cfg = DetectorConfig(inf_a, post_a, omega=1.0)
    for bad in ([np.nan, 0.0], [[0.0, 0.0], [0.0, np.inf]], [0.0, 0.0, 0.0], np.zeros((4, 3)), 1.0):
        with pytest.raises(ModelError):
            batch_scores(cfg, bad)


def test_constant_increment_walk_stops_on_schedule():
    state = DetectorState()
    for n in range(1, 11):
        step(state, 0.5, 3.0)
        assert (state.n, state.statistic) == (n, 0.5 * n)
        assert state.stopped_at == (None if n < 6 else 6)


def test_zero_threshold_alarms_immediately():
    state = step(DetectorState(), -2.0, 0.0)
    assert state.stopped_at == 1
    assert state.statistic == 0.0


def test_censoring_and_empty_stream():
    assert walk([-1.0] * 3, 5.0) == DetectorState(statistic=0.0, n=3, stopped_at=None)
    assert walk([], 5.0) == DetectorState(statistic=0.0, n=0, stopped_at=None)


def test_statistic_reflects_at_zero_and_stop_sticks():
    state = DetectorState()
    step(state, 4.0, 3.0)
    assert (state.statistic, state.stopped_at) == (4.0, 1)
    step(state, -10.0, 3.0)
    assert state.statistic == 0.0  # reflected, never negative
    assert state.stopped_at == 1  # first crossing is permanent
    step(state, 1.0, 3.0)
    step(state, 2.0, 3.0)
    assert state.statistic == 3.0
    assert state.stopped_at == 1


# Power-of-two scaling is exact only for normal floats: 0.25 * 5e-324
# underflows to 0.  Every draw below is 0 or at least 2**-960 in magnitude,
# so each value, partial sum (a multiple of 2**-1012) and scaled value by
# rho >= 1/4 stays normal.
_NORMAL_FLOOR = 2.0 ** -960


def _zero_or_normal(bound, signed=True):
    magnitude = st.floats(min_value=_NORMAL_FLOOR, max_value=bound)
    signs = (magnitude, magnitude.map(lambda v: -v)) if signed else (magnitude,)
    return st.one_of(st.just(0.0), *signs)


@settings(max_examples=60, deadline=None)
@given(
    rho=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]),
    increments=st.lists(_zero_or_normal(4.0), min_size=1, max_size=30),
    omega=_zero_or_normal(8.0, signed=False),
)
def test_multiplier_rescales_threshold_exactly(rho, increments, omega):
    # scaling the increments by a power of two and the threshold with them
    # is a bitwise no-op on the stopping law
    xs = np.array(increments)[:, None]
    scaled = DetectorConfig(CoordinateModel(), CoordinateModel(0.0), omega=rho * omega, rho=rho)
    assert batch_scores(scaled, xs).tolist() == [rho * inc for inc in increments]
    ref = walk(increments, omega)
    got = walk(batch_scores(scaled, xs).tolist(), scaled.omega)
    assert got.stopped_at == ref.stopped_at
    assert got.n == ref.n
    assert got.statistic == rho * ref.statistic


@settings(max_examples=60, deadline=None)
@given(increments=st.lists(
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40,
))
def test_statistic_is_never_negative(increments):
    state = DetectorState()
    for inc in increments:
        step(state, inc, math.exp(700))
        assert state.statistic >= 0.0


def test_mean_delay_tracks_the_wald_ratio(inf_b, post_b):
    # strong positive drift: mean stopping time should sit just above
    # omega / drift (overshoot adds a little)
    cfg = DetectorConfig(inf_b, post_b, omega=5.0)
    drift, var = drift_stats(post_b.mean, inf_b.mean, post_b.mean)
    data = post_b.sample(400 * 40, RngStream(602)).reshape(400, 40, 2)
    times = [first_crossing(cfg, path) for path in data]
    assert None not in times
    # reflection at zero can only speed the crossing up, so allow a small
    # shortfall below the free-walk ratio
    wald = cfg.omega / drift
    assert 0.95 * wald <= np.mean(times) <= 1.15 * wald + var / drift**2 + 1.0


def test_log_lr_baseline(inf_a, post_a):
    state = DetectorState()
    cusum_log_lr_step(inf_a, post_a, state, [1.0, 1.0])
    assert state.statistic == pytest.approx(2.0 / 4.4, abs=1e-12)
    cusum_log_lr_step(inf_a, post_a, state, [-10.0, -10.0])
    assert state.statistic == 0.0
    assert state.stopped_at is None  # default threshold is infinite
    done = DetectorState()
    cusum_log_lr_step(inf_a, post_a, done, [1.0, 1.0], omega=0.4)
    assert done.stopped_at == 1


def test_log_lr_requires_gaussians(inf_a):
    rbm = Gbrbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    with pytest.raises(ModelError):
        cusum_log_lr_step(inf_a, rbm, DetectorState(), [0.0, 0.0])


def test_rbm_mixture_increments_match_the_closed_form():
    # two zero-weight RBMs have linear scores and constant Laplacians, so
    # the mixture increment has a closed form
    b_inf = np.zeros(6)
    b_post = np.full(6, 0.8)
    mix_inf = ScoreMixture([Gbrbm(np.zeros((6, 3)), b_inf, np.zeros(3))], [1.0])
    mix_post = ScoreMixture([Gbrbm(np.zeros((6, 3)), b_post, np.zeros(3))], [1.0])
    cfg = DetectorConfig(mix_inf, mix_post, omega=1.0)
    xs = RngStream(603).generator().standard_normal((50, 6))
    got = batch_scores(cfg, xs)
    want = 0.5 * (np.sum((xs - b_inf) ** 2, axis=-1)
                  - np.sum((xs - b_post) ** 2, axis=-1))
    assert np.abs(got - want).max() < 1e-12


def _network_pair(seed, rho=1.0, omega=1.0):
    # learned-pair form: softmax weight networks over RBM bases
    basis_inf, basis_post = make_rbm_family(RngStream(seed))
    gen = RngStream(seed + 1).generator()
    nets = [BetaNetwork.initialize(10, 2, gen) for _ in range(2)]
    for net in nets:
        net.w2 = 30.0 * net.w2  # sharper weights make the grad-beta term count
    return DetectorConfig(ScoreMixture(basis_inf, nets[0]),
                          ScoreMixture(basis_post, nets[1]), omega=omega, rho=rho)


def test_network_mixture_increments_use_the_exact_divergence():
    cfg = _network_pair(605, rho=1.7)
    xs = RngStream(606).generator().standard_normal((40, 10))

    def oracle(model):
        s = model.score(xs)
        return 0.5 * np.sum(s * s, axis=-1) + fd_divergence(model, xs)

    want = 1.7 * (oracle(cfg.model_inf) - oracle(cfg.model_post))
    got = batch_scores(cfg, xs)
    assert np.abs(got - want).max() < 1e-6
    assert np.array_equal(got, batch_scores(cfg, xs))  # deterministic, no rng


def test_step_matches_batch_on_network_mixtures():
    # detect, bench and calibrate all score through batch_scores: on a
    # learned pair a single observation, a one-row batch and a row of a
    # larger batch give one increment up to rounding, and one step adds
    # exactly the increment it is given
    cfg = _network_pair(608, rho=1.3, omega=1e9)
    xs = RngStream(609).generator().standard_normal((20, 10))
    batch = batch_scores(cfg, xs)
    positive = 0
    for x, inc in zip(xs, batch.tolist()):
        want = batch_scores(cfg, x[None])[0]
        assert batch_scores(cfg, x) == want
        assert inc == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert step(DetectorState(), want, cfg.omega).statistic == max(want, 0.0)
        positive += want > 0.0
    assert positive  # so the reflection at zero does not hide every increment
