"""End-to-end acceptance checks.

Each test covers one numbered criterion; ``pytest -v tests/test_acceptance.py``
prints one pass/fail line per criterion.  Every randomized check runs under a
frozen per-criterion seed so the whole file is reproducible; the helper
functions take the seed as an argument so the seeds can be re-audited in
isolation.
"""

import csv
import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from conftest import (GAP_NEAR, MEAN_INF_A, MEAN_INF_B, MEAN_POST_A,
                      MEAN_POST_B, TRACE_VINV, V_REF, assert_laplacians_match,
                      assert_scores_match, drift_stats, gaussian_run_length,
                      make_rbm_family)
from scoredetect import (BetaNetwork, DetectorConfig, Gaussian,
                         GaussianMixture, LangevinConfig, MeanPolytope,
                         RngStream, ScoreMixture, TrainConfig,
                         arl_edd_sweep, estimate_drift, fisher_gaussian,
                         fisher_mc, gaussian_polytope_lfd,
                         hutchinson_laplacian, run_lengths, solve_rho_star,
                         threshold_for_arl, train_beta_networks,
                         verify_drift_condition, write_sweep_csv)
from scoredetect.cli import main as cli_main
from scoredetect.lfd import loss_and_grads

SEEDS = {
    "drift_table": 20128,
    "rho_star": 20103,
    "arl_bound": 20104,
    "edd": 20105,
    "triangle": 20106,
    "fd_oracles": 20107,
    "hutchinson": 20108,
    "gradcheck": 20109,
    "rbm": 20110,
    "shape": 20111,
    "determinism": 20112,
}

INF_A = Gaussian(MEAN_INF_A, V_REF)
INF_B = Gaussian(MEAN_INF_B, V_REF)
POST_A = Gaussian(MEAN_POST_A, V_REF)
POST_B = Gaussian(MEAN_POST_B, V_REF)

# the identified least-favorable pair (nearest vertices) and the detector
# built from the far pair, used by the mismatched trial N
DET_NEAR = DetectorConfig(INF_A, POST_A, omega=0.0, rho=1.0)
DET_FAR = DetectorConfig(INF_B, POST_B, omega=0.0, rho=1.0)
RHO_STAR = 2.2

# trial table: detector, pre-change data law, post-change data law, and the
# published drift pair the estimates must land within +-0.01 of
TRIALS = (
    ("R-AA", DET_NEAR, INF_A, POST_A, (-0.0518, 0.0495)),
    ("R-AB", DET_NEAR, INF_A, POST_B, (-0.0511, 0.155)),
    ("R-BA", DET_NEAR, INF_B, POST_A, (-0.311, 0.0519)),
    ("R-BB", DET_NEAR, INF_B, POST_B, (-0.309, 0.157)),
    ("N", DET_FAR, INF_A, POST_A, (0.124, 0.584)),
)


def closed_form_drift(detector, data_model):
    mean, var = drift_stats(data_model.mean, detector.model_inf.mean,
                            detector.model_post.mean)
    return detector.rho * mean, detector.rho * detector.rho * var


def run_drift_table(seed, n=50000):
    """One row per trial and phase: (label, estimate, stderr, closed form,
    published value)."""
    stream = RngStream(seed)
    rows = []
    for i, (name, det, p_inf, p_post, published) in enumerate(TRIALS):
        for j, (phase, model) in enumerate((("pre", p_inf), ("post", p_post))):
            est, se = estimate_drift(model, det, n, stream.substream(i, j))
            want, _ = closed_form_drift(det, model)
            rows.append((f"{name}/{phase}", est, se, want, published[j]))
    return rows


def test_criterion_01_drift_table_reproduction():
    rows = run_drift_table(SEEDS["drift_table"])
    for label, est, se, want, published in rows:
        print(f"{label}: est={est:+.6f} closed={want:+.6f} "
              f"published={published:+.4f} stderr={se:.2g}")
        assert abs(est - published) <= 0.01, label
        assert abs(est - want) <= 3 * se, label


def test_criterion_02_lfd_identification():
    pre = MeanPolytope(np.stack([MEAN_INF_A, MEAN_INF_B]), V_REF)
    post = MeanPolytope(np.stack([MEAN_POST_A, MEAN_POST_B]), V_REF)
    pair = gaussian_polytope_lfd(pre, post)
    print(f"q_inf={pair.q_inf.mean} q_post={pair.q_post.mean} "
          f"gap={pair.fisher_gap:.10g}")
    assert np.array_equal(pair.q_inf.mean, MEAN_INF_A)
    assert np.array_equal(pair.q_post.mean, MEAN_POST_A)
    assert abs(pair.fisher_gap - GAP_NEAR) <= 1e-9
    assert pair.fisher_gap == fisher_gaussian(POST_A, INF_A)


def run_rho_star(seed, n=3_000_000):
    return solve_rho_star(INF_A, INF_A, POST_A, n, RngStream(seed))


def test_criterion_03_rho_star():
    exact = solve_rho_star(INF_A, INF_A, POST_A, 2, RngStream(0), method="closed_form")
    assert exact.rho_star == pytest.approx(RHO_STAR, abs=1e-12)
    sol = run_rho_star(SEEDS["rho_star"])
    print(f"closed_form={exact.rho_star:.10g} monte_carlo={sol.rho_star:.6g}"
          f" stderr={sol.rho_star_stderr:.3g}")
    assert sol.method == "monte_carlo"
    assert abs(sol.rho_star - RHO_STAR) <= 0.02


def test_criterion_04_arl_lower_bound():
    stream = RngStream(SEEDS["arl_bound"])
    det = DetectorConfig(INF_A, POST_A, omega=0.0, rho=RHO_STAR)
    for k, gamma in enumerate((20.0, 50.0)):
        omega = threshold_for_arl(gamma)
        out, = run_lengths(INF_A, det, [omega], 2000, 100000, stream.substream(k))
        print(f"gamma={gamma:g} omega={omega:.4f} arl={out.mean_stop:.1f} "
              f"(stderr {out.stderr:.2f}, censored {out.censored})")
        assert out.mean_stop >= gamma


def test_criterion_05_edd_asymptotics():
    stream = RngStream(SEEDS["edd"])
    omega = 10.0
    det = DetectorConfig(INF_A, POST_A, omega=omega, rho=1.0)
    post_laws = (("R-AA", POST_A), ("R-AB", POST_B),
                 ("R-BA", POST_A), ("R-BB", POST_B))
    for k, (name, law) in enumerate(post_laws):
        mean, var = drift_stats(law.mean, MEAN_INF_A, MEAN_POST_A)
        out, = run_lengths(law, det, [omega], 5000, 100000, stream.substream(k))
        lo = 0.85 * omega / mean
        hi = 1.15 * omega / mean + (mean * mean + var) / (mean * mean)
        print(f"{name}: edd={out.mean_stop:.2f} (stderr {out.stderr:.2f}) "
              f"window=[{lo:.2f}, {hi:.2f}]")
        assert out.censored == 0
        assert lo <= out.mean_stop <= hi, name


def run_reverse_triangle(seed, combos=20, n=20000):
    stream = RngStream(seed)
    weights_gen = stream.substream(0).generator()
    post_vertices = np.stack([MEAN_POST_A, MEAN_POST_B])
    lhs = fisher_gaussian(POST_A, INF_A)
    results = []
    for k in range(combos):
        w = weights_gen.dirichlet(np.ones(len(post_vertices)))
        member = Gaussian(w @ post_vertices, V_REF)
        d_inf, se_inf = fisher_mc(member, INF_A, n, stream.substream(1, k))
        d_post, se_post = fisher_mc(member, POST_A, n, stream.substream(2, k))
        margin = (d_inf - d_post) - lhs
        results.append((w[1], margin, math.hypot(se_inf, se_post)))
    return lhs, results


def test_criterion_06_reverse_triangle_inequality():
    lhs, results = run_reverse_triangle(SEEDS["triangle"])
    worst = min(margin + 3 * se for _, margin, se in results)
    print(f"lhs={lhs:.6f} combos={len(results)} worst_slack={worst:.3g}")
    for weight, margin, se in results:
        assert margin + 3 * se >= 0.0, f"weight={weight}"


def test_criterion_07_score_and_laplacian_oracles():
    stream = RngStream(SEEDS["fd_oracles"])
    gmm = GaussianMixture(
        [INF_A, POST_B, Gaussian([1.0, -1.0], [[1.5, -0.3], [-0.3, 0.8]])],
        [0.5, 0.3, 0.2],
    )
    basis_inf, _ = make_rbm_family(stream.substream(0))
    rbm = basis_inf[0]
    geo = ScoreMixture([INF_A, POST_B], [0.4, 0.6])

    def gauss_logp(model):
        return lambda x: float(model.log_density(x))

    def geo_logp(x):
        return 0.4 * float(INF_A.log_density(x)) + 0.6 * float(POST_B.log_density(x))

    cases = (
        ("gaussian", INF_A, gauss_logp(INF_A)),
        ("gmm", gmm, gauss_logp(gmm)),
        ("gbrbm", rbm, gauss_logp(rbm)),
        ("score_mixture", geo, geo_logp),
    )
    for k, (name, model, logp) in enumerate(cases):
        gen = stream.substream(1, k).generator()
        points = gen.standard_normal((100, model.dim)) * 1.5
        assert_scores_match(model, logp, points, rel=1e-5)
        assert_laplacians_match(model, logp, points, tol=1e-4)
        print(f"{name}: 100 points within 1e-5 rel (score), 1e-4 abs (laplacian)")


def test_criterion_08_hutchinson_estimator():
    stream = RngStream(SEEDS["hutchinson"])
    pts = stream.substream(0).generator().standard_normal((5, 2)) * 2.0
    est, se = hutchinson_laplacian(INF_A, pts, 1000,
                                   stream.substream(1).generator(),
                                   return_stderr=True)
    print(f"gaussian: max |err|={np.abs(est + TRACE_VINV).max():.4f} "
          f"max 3se={3 * se.max():.4f}")
    assert np.all(np.abs(est - (-TRACE_VINV)) <= 3 * se)

    basis_inf, basis_post = make_rbm_family(stream.substream(2))
    mix = ScoreMixture([basis_inf[1], basis_post[0]], [0.4, 0.6])
    x = basis_post[0].sample(1, stream.substream(3).generator(), burn_in=200)
    few, few_se = hutchinson_laplacian(mix, x, 10,
                                       stream.substream(4).generator(),
                                       return_stderr=True)
    many, many_se = hutchinson_laplacian(mix, x, 10000,
                                         stream.substream(5).generator(),
                                         return_stderr=True)
    gap = float(np.abs(few - many)[0])
    bound = 3 * math.hypot(float(few_se[0]), float(many_se[0]))
    print(f"rbm mixture: 10-probe={float(few[0]):.3f} "
          f"10000-probe={float(many[0]):.3f} |diff|={gap:.3f} <= {bound:.3f}")
    assert gap <= bound


def test_criterion_09_beta_network_gradients():
    stream = RngStream(SEEDS["gradcheck"])
    gen = stream.generator()
    dim, members, batch = 4, 2, 16
    net_inf = BetaNetwork.initialize(dim, members, gen)
    net_post = BetaNetwork.initialize(dim, members, gen)
    x = gen.standard_normal((batch, dim))
    s_inf = gen.standard_normal((batch, members, dim))
    s_post = gen.standard_normal((batch, members, dim))
    for net in (net_inf, net_post):
        _, hid, pre = net._forward_full(x)
        assert np.abs(pre).min() > 1e-4  # keep clear of the ReLU kink

    def loss_at(net, params):
        saved = net.get_params()
        net.set_params(params)
        val = loss_and_grads(net_inf, net_post, x, s_inf, s_post)[0]
        net.set_params(saved)
        return val

    _, g_inf, g_post = loss_and_grads(net_inf, net_post, x, s_inf, s_post)
    checked = 0
    for net, grads in ((net_inf, g_inf), (net_post, g_post)):
        flat = np.concatenate([g.ravel() for g in grads])
        params = net.get_params()
        for idx in gen.choice(params.size, 25, replace=False):
            h = 1e-6 * max(1.0, abs(params[idx]))
            up = params.copy()
            down = params.copy()
            up[idx] += h
            down[idx] -= h
            numeric = (loss_at(net, up) - loss_at(net, down)) / (2.0 * h)
            scale = max(abs(numeric), abs(flat[idx]), 1e-8)
            assert abs(numeric - flat[idx]) <= 1e-5 * scale
            checked += 1
    print(f"checked {checked} parameter coordinates within 1e-5 relative")


def test_criterion_10_rbm_experiment():
    stream = RngStream(SEEDS["rbm"])
    basis_inf, basis_post = make_rbm_family(stream.substream(0))
    near_inf, near_post = basis_inf[1], basis_post[0]

    gap, gap_se = fisher_mc(near_post, near_inf, 20000, stream.substream(1))
    assert gap > 3 * gap_se

    # (a) drift condition holds across the pre-change family
    report = verify_drift_condition(basis_inf, near_inf, near_post, 50000,
                                    stream.substream(2).generator())
    for row in report.rows:
        print(f"verify vertex {row.index}: gap={row.gap:+.4f} "
              f"(stderr {row.gap_stderr:.2g}) {row.verdict}")
    assert report.verdict == "PASS"
    assert all(row.gap < 0 for row in report.rows)

    # (b) training concentrates the weights on the nearest member per side
    cfg = TrainConfig(rng=stream.substream(3), epochs=40, learning_rate=0.05,
                      langevin=LangevinConfig(step=0.01, steps=30),
                      particle_count=10000, minibatch=256, holdout=1000)
    learned, train_report = train_beta_networks(basis_inf, basis_post, cfg)
    print(f"avg_beta_inf={train_report.avg_beta_inf.round(4)} "
          f"avg_beta_post={train_report.avg_beta_post.round(4)}")
    assert learned.provenance == "learned"
    assert int(np.argmax(train_report.avg_beta_inf)) == 1
    assert int(np.argmax(train_report.avg_beta_post)) == 0
    assert train_report.avg_beta_inf.max() > 0.9
    assert train_report.avg_beta_post.max() > 0.9

    # (c) robust drifts: negative before the change, positive after
    robust = DetectorConfig(near_inf, near_post, omega=0.0, rho=1.0)
    data_laws = (("pre0", basis_inf[0], -1), ("pre1", basis_inf[1], -1),
                 ("post0", basis_post[0], +1), ("post1", basis_post[1], +1))
    for k, (name, law, sign) in enumerate(data_laws):
        est, se = estimate_drift(law, robust, 50000, stream.substream(4, k))
        print(f"robust drift {name}: {est:+.4f} (stderr {se:.2g})")
        assert sign * est > 3 * se, name

    # (d) the mismatched detector already drifts upward before the change
    mismatched = DetectorConfig(basis_inf[0], basis_post[1], omega=0.0, rho=1.0)
    est, se = estimate_drift(basis_inf[1], mismatched, 50000, stream.substream(5))
    print(f"mismatched pre-change drift: {est:+.4f} (stderr {se:.2g})")
    assert est > 3 * se


ROBUST_OMEGAS = (0.66, 1.21, 1.98, 3.08, 4.18, 5.28)
NONROBUST_OMEGAS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
SHAPE_SWEEPS = (
    ("robust", DetectorConfig(INF_A, POST_A, omega=0.0, rho=RHO_STAR), ROBUST_OMEGAS),
    ("nonrobust", DET_FAR, NONROBUST_OMEGAS),
)


def run_shape_sweeps(seed, tmp_path):
    """Matched-ARL sweeps, as read back from their CSVs: the robust
    detector (identified pair, rho*) against the far-pair detector on the
    same data."""
    stream = RngStream(seed)
    sweeps = {}
    for k, (name, det, omegas) in enumerate(SHAPE_SWEEPS):
        rows = arl_edd_sweep(INF_A, POST_A, det, omegas, arl_paths=2000,
                             edd_paths=5000, cap=100000, rng=stream.substream(k))
        path = tmp_path / f"{name}_sweep.csv"
        write_sweep_csv(rows, path)
        with open(path, newline="") as handle:
            sweeps[name] = [{key: float(v) for key, v in r.items()}
                            for r in csv.DictReader(handle)]
    return sweeps


def test_criterion_11_matched_arl_ordering(tmp_path):
    sweeps = run_shape_sweeps(SEEDS["shape"], tmp_path)
    # every row against the exact run length of its Gaussian increments:
    # two-sided, Bonferroni over all rows at family level 1%
    tested = 2 * sum(map(len, sweeps.values()))  # an ARL and an EDD per omega
    z_max = NormalDist().inv_cdf(1.0 - 0.01 / (2 * tested))
    worst = 0.0
    for name, det, _ in SHAPE_SWEEPS:
        for row in sweeps[name]:
            for col, law in (("arl", INF_A), ("edd", POST_A)):
                assert row[f"{col}_censored"] == 0, (name, col, row["omega"])
                exact = gaussian_run_length(*closed_form_drift(det, law), row["omega"])
                z = (row[col] - exact) / row[f"{col}_stderr"]
                worst = max(worst, abs(z))
                assert abs(z) <= z_max, (name, col, row["omega"], row[col], exact)
    print(f"{tested} ARL and EDD rows: largest |z| against the exact run "
          f"lengths {worst:.2f} (bound {z_max:.2f})")
    curves = {name: (np.array([r["arl"] for r in rows]), np.array([r["edd"] for r in rows]))
              for name, rows in sweeps.items()}
    arl_r, edd_r = curves["robust"]
    arl_n, edd_n = curves["nonrobust"]
    assert np.all(np.diff(arl_r) > 0) and np.all(np.diff(arl_n) > 0)
    top = min(arl_r[-1], arl_n[-1])
    assert top > 1000  # both sweeps reach deep into the low-false-alarm regime
    targets = np.geomspace(20.0, top, 25)
    interp_r = np.exp(np.interp(np.log(targets), np.log(arl_r), np.log(edd_r)))
    interp_n = np.exp(np.interp(np.log(targets), np.log(arl_n), np.log(edd_n)))
    tightest = int(np.argmin(interp_n - interp_r))
    print(f"matched ARL range [20, {top:.0f}]: robust EDD "
          f"{interp_r[tightest]:.2f} vs nonrobust {interp_n[tightest]:.2f} "
          f"at ARL={targets[tightest]:.0f} (tightest point)")
    assert np.all(interp_r < interp_n)


def test_criterion_12_cli_determinism(tmp_path):
    cov = [list(row) for row in V_REF]
    config = {
        "version": 1,
        "models": {
            "inf_a": {"type": "gaussian", "mean": list(MEAN_INF_A), "cov": cov},
            "post_a": {"type": "gaussian", "mean": list(MEAN_POST_A), "cov": cov},
        },
        "bench": {"trials": [{
            "name": "det",
            "detector": {"model_inf": "inf_a", "model_post": "post_a", "rho": 1.0},
            "p_inf": "inf_a", "p_post": "post_a",
            "drift_n": 5000,
            "omegas": [0.5, 1.5],
            "arl_paths": 400, "edd_paths": 400, "cap": 5000,
        }]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = cli_main(["--config", str(cfg_path), "--seed",
                         str(SEEDS["determinism"]), "--out", str(out), "bench"])
        assert code == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("drifts.csv", "det_sweep.csv")})
    assert outputs[0] == outputs[1]
    print("repeated bench runs byte-identical "
          f"({', '.join(sorted(outputs[0]))})")
