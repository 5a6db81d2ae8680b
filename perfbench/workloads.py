"""The workloads: inputs made from the benchmark seed, the CLI stages they
run, and the checks of every stage's outputs.

Each workload runs the paper's whole pipeline, ``lfd``, ``calibrate``,
``bench`` and ``detect``, so every end-to-end metric exists on each; what
differs is the stage that carries most of the work and the layer it
stresses:

* ``sweep_gauss``: the ARL/EDD sweep on the Gaussian reference geometry,
  many small increment batches (at most 256 paths per shard step);
* ``rbm_robust``: the learned least-favorable pair of an RBM family,
  Langevin refreshes, SGD, Hutchinson divergence and Gibbs sampling;
* ``calib_detect``: Monte Carlo ``rho*`` from 3M increments in one batch,
  then ``detect`` over a ~100k-observation stream, one increment per call.
"""

import contextlib
import io
import json
import math
import os
import time

import numpy as np

import checks
import oracles

# Gaussian reference geometry of the acceptance tests: shared covariance,
# pre-change means on the negative diagonal, post-change on the positive
V_REF = [[2.0, 0.2], [0.2, 2.0]]
MEANS = {"inf_a": [-0.25, -0.25], "inf_b": [-1.5, -1.5],
         "post_a": [0.25, 0.25], "post_b": [0.75, 0.75]}
# detect thresholds come from the bound ARL >= exp(omega) that holds for a
# multiplier at rho*, so a false alarm in the pre-change part of a stream
# of length T has probability at most about T exp(-omega)
DETECT_GAMMA = 1e10


def _gaussian(name):
    return {"type": "gaussian", "mean": MEANS[name], "cov": V_REF}


def write_stream(path, x):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for row in x:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


class Stage:
    """One CLI call; ``config`` builds its config just before the call,
    from the inputs and the earlier stages' outputs."""

    def __init__(self, command, config, extra=()):
        self.command = command
        self.config = config
        self.extra = tuple(extra)


class Workload:
    """Inputs, stages and checks of one workload in directory ``out``."""

    detect_omega = math.log(DETECT_GAMMA)

    def __init__(self, seed, out):
        self.seed = seed
        self.out = out
        # the benchmark's own draws; the program's streams use the seed alone
        self.gen = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.stdout = {}

    def stages(self):
        return [Stage("lfd", self.lfd_config), Stage("calibrate", self.calibrate_config),
                Stage("bench", self.bench_config),
                Stage("detect", self.detect_config, ("--input", self.path("stream.csv")))]

    def path(self, name):
        return os.path.join(self.out, name)

    def argv(self, stage):
        cfg_path = self.path(f"{stage.command}_config.json")
        with open(cfg_path, "w", encoding="utf-8") as handle:
            json.dump({"version": 1, **stage.config()}, handle)
        return ["--config", cfg_path, "--seed", str(self.seed), "--out", self.out,
                stage.command, *stage.extra]

    def run(self, stage, cli_main, span=contextlib.nullcontext):
        """Call the CLI for ``stage`` and keep its stdout; returns the exit
        code and the process CPU time of the call alone.  The program runs
        in one thread, so this is its compute time, without the time a
        shared host keeps the process off its cores."""
        argv = self.argv(stage)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), span():
            t0 = time.process_time()
            code = cli_main(argv)
            seconds = time.process_time() - t0
        self.stdout[stage.command] = buf.getvalue()
        return code, seconds

    def output_files(self):
        """The files the program wrote: not the configs, not the stream."""
        return sorted(f for f in os.listdir(self.out) if f.endswith((".json", ".csv"))
                      and not f.endswith("_config.json") and f != "stream.csv")

    # per-round facts the metrics use
    def sweeps(self):
        return [(t, checks.read_csv(self.path(f"{t['name']}_sweep.csv"))) for t in self.trials()]

    def path_steps(self):
        return sum(checks.path_steps(rows, t["arl_paths"], t["edd_paths"])
                   for t, rows in self.sweeps())

    def censored_paths(self):
        return sum(int(rows[-1]["arl_censored"] + rows[-1]["edd_censored"])
                   for _, rows in self.sweeps())

    def detect_obs(self):
        return int(checks.parse_fields(self.stdout["detect"])["stopped_at"])

    def h_evals(self):
        with open(self.path("calibration.json"), encoding="utf-8") as handle:
            return len(json.load(handle)["h_curve"])

    def rho_star(self):
        with open(self.path("calibration.json"), encoding="utf-8") as handle:
            return float(json.load(handle)["rho_star"])

    @property
    def detect_rho(self):
        return self.rho_star()

    def lfd_work(self):
        """SGD steps and Langevin particle-steps the lfd config implies."""
        return 0, 0

    def detect_check(self):
        """Replay the stream through the oracle's increments and recursion."""
        stop, stat = oracles.first_crossing(self.stream_increments(), self.detect_omega)
        return checks.check_detect(checks.parse_fields(self.stdout["detect"]), stop, stat,
                                   self.change_point)


class GaussianWorkload(Workload):
    """Shared pieces of the two workloads on the reference geometry."""

    verify_n: int
    calibrate_n: int
    calibrate_tol: float
    stream_len: int
    post_len: int

    def models(self):
        return {name: _gaussian(name) for name in MEANS}

    def increment(self, inf, post):
        return oracles.gaussian_increment(MEANS[inf], MEANS[post], V_REF)

    def law(self, inf, post, data, rho):
        a, c = self.increment(inf, post)
        mean, var = oracles.gaussian_increment_law(a, c, MEANS[data], V_REF)
        return rho * mean, rho * rho * var

    def closed_rho(self):
        return oracles.gaussian_rho_star(*self.law("inf_a", "post_a", "inf_a", 1.0))

    def prepare(self):
        pre = self.gen.multivariate_normal(MEANS["inf_a"], V_REF, self.stream_len - self.post_len)
        post = self.gen.multivariate_normal(MEANS["post_a"], V_REF, self.post_len)
        self.stream = np.concatenate([pre, post])
        self.change_point = self.stream_len - self.post_len
        write_stream(self.path("stream.csv"), self.stream)

    def stream_increments(self):
        a, c = self.increment("inf_a", "post_a")
        return self.detect_rho * (self.stream @ a + c)

    def lfd_config(self):
        return {"models": {}, "lfd": {
            "method": "analytic", "cov": V_REF,
            "pre_vertices": [MEANS["inf_a"], MEANS["inf_b"]],
            "post_vertices": [MEANS["post_a"], MEANS["post_b"]],
            "verify": {"n": self.verify_n}}}

    def calibrate_config(self):
        return {"models": self.models(), "calibrate": {
            "p_inf": "inf_a", "pair": {"q_inf": "inf_a", "q_post": "post_a"},
            "n": self.calibrate_n, "tol": self.calibrate_tol, "method": "monte_carlo"}}

    def bench_config(self):
        return {"models": self.models(), "bench": {"trials": self.trials()}}

    def detect_config(self):
        return {"models": self.models(), "detect": {"detector": {
            "model_inf": "inf_a", "model_post": "post_a",
            "rho": self.detect_rho, "omega": self.detect_omega}}}

    def check_lfd(self):
        with open(self.path("lfd.json"), encoding="utf-8") as handle:
            pair = json.load(handle)
        fails = []
        for side, want in (("q_inf", "inf_a"), ("q_post", "post_a")):
            if pair[side]["mean"] != MEANS[want]:
                fails.append(f"lfd {side} mean {pair[side]['mean']} is not vertex {want}")
        gap = oracles.gaussian_fisher(MEANS["post_a"], MEANS["inf_a"], V_REF)
        fails += checks.within("lfd fisher_gap", pair["fisher_gap"], gap, 1e-9)
        fails += checks.check_verdict(checks.parse_fields(self.stdout["lfd"]))
        return fails

    def check_trial(self, trial):
        det = trial["detector"]
        law = {phase: self.law(det["model_inf"], det["model_post"], trial[phase], det["rho"])
               for phase in ("p_inf", "p_post")}
        drifts = checks.read_drifts(self.path("drifts.csv"))
        fails = checks.check_drifts(drifts, {trial["name"]: ((law["p_inf"][0], 0.0),
                                                             (law["p_post"][0], 0.0))})
        rows = checks.read_csv(self.path(f"{trial['name']}_sweep.csv"))
        robust = trial["name"] == "robust"
        fails += checks.check_sweep(trial["name"], rows, post_law=law["p_post"],
                                    arl_bound=robust, uncensored=robust)
        return fails, rows


class SweepGauss(GaussianWorkload):
    verify_n = 1_000_000
    calibrate_n = 1_000_000
    calibrate_tol = 0.01
    stream_len = 30_000
    post_len = 1_000

    def trials(self):
        common = {"p_inf": "inf_a", "p_post": "post_a", "drift_n": 100_000,
                  "arl_paths": 4096, "edd_paths": 2048, "cap": 100_000}
        return [
            {"name": "robust", "detector": {"model_inf": "inf_a", "model_post": "post_a",
                                            "rho": self.closed_rho()},
             "omegas": [0.66, 1.21, 1.98, 2.5, 3.08], **common},
            {"name": "nonrobust", "detector": {"model_inf": "inf_b", "model_post": "post_b",
                                               "rho": 1.0},
             "omegas": [2.0, 4.0, 8.0, 16.0, 32.0, 64.0], **common},
        ]

    @property
    def detect_rho(self):
        return self.closed_rho()

    def check(self):
        fails = self.check_lfd()
        fails += self.check_rho(self.rho_star())
        robust_fails, robust = self.check_trial(self.trials()[0])
        nonrobust_fails, nonrobust = self.check_trial(self.trials()[1])
        fails += robust_fails + nonrobust_fails + checks.check_matched_arl(robust, nonrobust)
        return fails + self.detect_check()

    def check_rho(self, rho):
        # delta method at the root: se(rho) = sd(exp(rho z)) / (sqrt(n) |h'|),
        # with h' = -m and var(exp(rho* z)) = exp(-2 rho* m) - 1 for a
        # Gaussian increment of mean m
        m, _ = self.law("inf_a", "post_a", "inf_a", 1.0)
        exact = self.closed_rho()
        se = math.sqrt(math.expm1(-2.0 * exact * m) / self.calibrate_n) / -m
        return checks.within("calibrate rho_star", rho, exact, 4.0 * se + self.calibrate_tol)


class CalibDetect(GaussianWorkload):
    verify_n = 1_000_000
    calibrate_n = 3_000_000
    calibrate_tol = 0.005
    stream_len = 100_000
    post_len = 1_000

    def trials(self):
        return [{"name": "robust", "detector": {"model_inf": "inf_a", "model_post": "post_a",
                                                "rho": self.rho_star()},
                 "p_inf": "inf_a", "p_post": "post_a", "drift_n": 500_000,
                 "omegas": [0.66, 1.21, 1.98], "arl_paths": 1024, "edd_paths": 1024,
                 "cap": 100_000}]

    def check(self):
        fails = self.check_lfd()
        fails += checks.within("calibrate rho_star", self.rho_star(), self.closed_rho(), 0.02)
        fails += self.check_trial(self.trials()[0])[0]
        return fails + self.detect_check()


class RbmRobust(Workload):
    """The learned pipeline on a 10-visible / 8-hidden Gauss-Bernoulli RBM
    family: one weight matrix and four offsets give two pre-change and two
    post-change members, and ``inf1``/``post0`` are the nearest pair."""

    train = {"epochs": 10, "learning_rate": 0.05, "langevin": {"step": 0.01, "steps": 20},
             "particles": 2000, "minibatch": 256, "holdout": 1000}
    verify_n = 20_000
    calibrate_n = 20_000
    calibrate_tol = 0.01
    oracle_n = 100_000
    stream_pre = 20_000
    stream_post = 1_000

    def __init__(self, seed, out):
        super().__init__(seed, out)
        w = self.gen.standard_normal((10, 8))
        b = self.gen.standard_normal(10)
        c = self.gen.standard_normal(8)
        self.members = {
            name: {"type": "gbrbm", "weights": (w + off).tolist(),
                   "visible_bias": b.tolist(), "hidden_bias": c.tolist()}
            for name, off in (("inf0", -0.2), ("inf1", -0.05), ("post0", 0.0), ("post1", 0.05))}
        self._oracle = None

    def models(self):
        return dict(self.members)

    def prepare(self):
        inf1, post0 = oracles.Rbm(self.members["inf1"]), oracles.Rbm(self.members["post0"])
        self.stream = np.concatenate([inf1.gibbs(self.stream_pre, self.gen),
                                      post0.gibbs(self.stream_post, self.gen)])
        self.change_point = self.stream_pre
        write_stream(self.path("stream.csv"), self.stream)

    def learned(self):
        with open(self.path("lfd.json"), encoding="utf-8") as handle:
            return json.load(handle)

    def lfd_config(self):
        return {"models": self.models(), "lfd": {
            "method": "learned", "basis_inf": ["inf0", "inf1"], "basis_post": ["post0", "post1"],
            "train": self.train, "verify": {"basis_inf": ["inf0", "inf1"], "n": self.verify_n}}}

    def calibrate_config(self):
        return {"models": self.models(), "calibrate": {
            "p_inf": "inf1", "pair_file": self.path("lfd.json"),
            "n": self.calibrate_n, "tol": self.calibrate_tol}}

    def trials(self):
        return [{"name": "learned", "detector": {"model_inf": "q_inf", "model_post": "q_post",
                                                 "rho": self.rho_star()},
                 "p_inf": "inf1", "p_post": "post0", "drift_n": 20_000,
                 "omegas": [0.25, 0.5, 1.0], "arl_paths": 256, "edd_paths": 256, "cap": 10}]

    def bench_config(self):
        pair = self.learned()
        return {"models": {**self.models(), "q_inf": pair["q_inf"], "q_post": pair["q_post"]},
                "bench": {"trials": self.trials()}}

    def detect_config(self):
        # the learned weights concentrate on inf1/post0, so the deployed
        # detector is that member pair, whose divergence is exact
        return {"models": self.models(), "detect": {"detector": {
            "model_inf": "inf1", "model_post": "post0",
            "rho": self.detect_rho, "omega": self.detect_omega}}}

    def stream_increments(self):
        inf1, post0 = oracles.Rbm(self.members["inf1"]), oracles.Rbm(self.members["post0"])
        return self.detect_rho * oracles.in_chunks(
            lambda y: oracles.rbm_hyvarinen(inf1, y) - oracles.rbm_hyvarinen(post0, y), self.stream)

    def oracle_increments(self):
        """Exact increments of the learned detector on ``oracle_n`` of the
        benchmark's own draws from ``inf1`` and from ``post0``; computed once,
        since the learned pair repeats every round.  The draws are made here
        and dropped, so that they add nothing to the memory of the program's
        stages."""
        if self._oracle is None:
            pair = self.learned()
            q_inf = oracles.NetworkMixture(pair["q_inf"])
            q_post = oracles.NetworkMixture(pair["q_post"])
            self._oracle = {
                name: oracles.in_chunks(lambda y: q_inf.hyvarinen(y) - q_post.hyvarinen(y),
                                        oracles.Rbm(self.members[name]).gibbs(self.oracle_n, self.gen))
                for name in ("inf1", "post0")}
        return self._oracle

    def check(self):
        text = self.stdout["lfd"]
        fails = checks.check_learned_beta(checks.parse_beta(text, "avg_beta_inf"),
                                          checks.parse_beta(text, "avg_beta_post"), 1, 0)
        fails += checks.check_verdict(checks.parse_fields(text))
        z = self.oracle_increments()
        rho = self.rho_star()
        fails += checks.check_rho_bracket(rho, self.calibrate_tol,
                                          lambda r: oracles.mgf_gap(z["inf1"], r),
                                          self.calibrate_n)
        drifts = checks.read_drifts(self.path("drifts.csv"))
        pre, post = (oracles.mean_se(rho * z[k]) for k in ("inf1", "post0"))
        fails += checks.check_drifts(drifts, {"learned": (pre, post)})
        fails += checks.check_drift_signs(drifts, "learned")
        post_z = rho * z["post0"]
        rows = checks.read_csv(self.path("learned_sweep.csv"))
        fails += checks.check_sweep("learned", rows, post_law=(post_z.mean(), post_z.var()),
                                    uncensored=False, monotone=False, wald_rows="all")
        return fails + self.detect_check()

    def lfd_work(self):
        t = self.train
        sgd = t["epochs"] * -(-t["particles"] // t["minibatch"])
        particle_steps = (t["epochs"] * t["particles"] + t["holdout"]) * t["langevin"]["steps"]
        return sgd, particle_steps


WORKLOADS = {"sweep_gauss": SweepGauss, "rbm_robust": RbmRobust, "calib_detect": CalibDetect}
