import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import GAP_NEAR, MEAN_INF_A, MEAN_INF_B, MEAN_POST_A, MEAN_POST_B, V_REF
import scoredetect
from scoredetect import BetaNetwork, load_lfd_pair, ScoreMixture
from scoredetect.cli import main

COV = [list(row) for row in V_REF]


def gaussian(mean):
    return {"type": "gaussian", "mean": list(map(float, mean)), "cov": COV}


MODELS = {
    "inf_a": gaussian(MEAN_INF_A),
    "inf_b": gaussian(MEAN_INF_B),
    "post_a": gaussian(MEAN_POST_A),
    "post_b": gaussian(MEAN_POST_B),
}


def pair_json(**overrides):
    """A valid ``lfd.json`` for the A-vertex pair, with ``overrides``."""
    pair = {"provenance": "analytic", "fisher_gap": GAP_NEAR,
            "q_inf": MODELS["inf_a"], "q_post": MODELS["post_a"]}
    pair.update(overrides)
    return json.dumps(pair)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**sections):
    cfg = {"version": 1, "models": dict(MODELS)}
    cfg.update(sections)
    return cfg


# ---------------------------------------------------------------------------
# config handling


def test_missing_config_flag():
    assert main(["lfd"]) == 2


def test_config_must_declare_version(tmp_path, capsys):
    path = write_config(tmp_path, {"models": {}})
    assert main(["--config", path, "lfd"]) == 2
    assert "version" in capsys.readouterr().err


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "lfd"]) == 2
    assert "valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("payload, field", [
    ([1], "config"), ({"version": 1, "models": [], "lfd": {}}, "models"),
    ({"version": 1, "lfd": 5}, "lfd"),
])
def test_config_of_the_wrong_shape_names_the_field(tmp_path, capsys, payload, field):
    path = write_config(tmp_path, payload)
    assert main(["--config", path, "--seed", "1", "--out", str(tmp_path / "out"), "lfd"]) == 2
    assert f"{field} must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, field", [
    ("calibrate", [1], "calibrate"),
    ("calibrate", {"p_inf": "inf_a", "pair": ["inf_a", "post_a"]}, "calibrate.pair"),
    ("bench", {"trials": [5]}, "bench.trials[0]"),
    ("bench", {"trials": [{"name": "t", "detector": 5}]}, "t.detector"),
    ("detect", "x", "detect"),
    ("detect", {"detector": [1]}, "detect.detector"),
    ("sample", None, "sample"),
])
def test_section_of_the_wrong_shape_names_it(tmp_path, capsys, command, section, field):
    path = write_config(tmp_path, base_config(**{command: section}))
    assert main(["--config", path, "--seed", "1", "--out", str(tmp_path), command]) == 2
    assert f"{field} must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("seed, flag", [(1.5, []), (True, []), (-1, []), ("3", []),
                                        (1, ["--seed", "-1"])])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, seed, flag):
    cfg = base_config(sample={"model": "inf_a", "n": 5}, seed=seed)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, *flag, "--out", str(out), "sample"]) == 2
    assert "seed must be an integer of at least 0" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("field", ["bench.trials", "lfd.basis_inf", "lfd.basis_post",
                                   "lfd.verify.basis_inf", "calibrate.gammas"])
def test_array_field_of_the_wrong_type_names_it(tmp_path, capsys, field):
    cfg = learned_section()
    cfg.update(calibrate=calibrate_config()["calibrate"], bench={})
    *parents, leaf = field.split(".")
    section = cfg
    for name in parents:
        section = section.setdefault(name, {})
    section[leaf] = 5
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), parents[0]]) == 2
    assert f"{field} must be a JSON array, got int" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_unknown_model_reference(tmp_path, capsys):
    cfg = base_config(sample={"model": "nope", "n": 5})
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "1", "--out", str(tmp_path), "sample"]) == 2
    assert "nope" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# lfd


def test_lfd_analytic_reference_geometry(tmp_path, capsys):
    cfg = base_config(lfd={
        "method": "analytic",
        "cov": COV,
        "pre_vertices": [list(MEAN_INF_A), list(MEAN_INF_B)],
        "post_vertices": [list(MEAN_POST_A), list(MEAN_POST_B)],
        "verify": {"n": 20000},
    })
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "11", "--out", str(out), "lfd"]) == 0
    text = capsys.readouterr().out
    assert "provenance=analytic" in text
    assert "drift_condition=PASS" in text
    assert "vertex 0" in text and "vertex 1" in text
    pair = load_lfd_pair(json.loads((out / "lfd.json").read_text()))
    assert pair.fisher_gap == pytest.approx(GAP_NEAR, abs=1e-12)
    assert np.array_equal(pair.q_inf.mean, MEAN_INF_A)
    assert np.array_equal(pair.q_post.mean, MEAN_POST_A)


def learned_section(with_seed=True):
    cfg = base_config(lfd={
        "method": "learned",
        "basis_inf": ["inf_a", "inf_b"],
        "basis_post": ["post_a", "post_b"],
        "train": {
            "epochs": 4,
            "learning_rate": 0.2,
            "particles": 1000,
            "holdout": 200,
            "langevin": {"step": 0.01, "steps": 5},
        },
    })
    if with_seed:
        cfg["seed"] = 23
    return cfg


@pytest.mark.parametrize("verify, message", [
    ({"n": "many"}, "lfd.verify.n"), ({"n": 1}, "lfd.verify.n"), ({"n": 2.5}, "lfd.verify.n"),
    ([1], "lfd.verify must be a JSON object"),
])
def test_lfd_names_a_bad_verify_field(tmp_path, capsys, verify, message):
    cfg = base_config(lfd={"method": "analytic", "cov": COV,
                           "pre_vertices": [list(MEAN_INF_A)], "post_vertices": [list(MEAN_POST_A)],
                           "verify": verify})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "11", "--out", str(out), "lfd"]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "lfd.json").exists()


def test_lfd_learned_quick(tmp_path, capsys):
    path = write_config(tmp_path, learned_section())
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "lfd"]) == 0
    text = capsys.readouterr().out
    assert "provenance=learned" in text
    assert "avg_beta_inf=" in text
    report = json.loads((out / "lfd_report.json").read_text())
    assert len(report["loss_history"]) == 4
    assert report["holdout_count"] == 200
    pair = load_lfd_pair(json.loads((out / "lfd.json").read_text()))
    assert isinstance(pair.q_inf, ScoreMixture)
    assert callable(pair.q_inf.beta)


def test_lfd_learned_verify_needs_a_basis_before_training(tmp_path, capsys):
    cfg = learned_section()
    cfg["lfd"]["verify"] = {"n": 100}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "lfd"]) == 2
    assert "'lfd.verify' is missing 'basis_inf'" in capsys.readouterr().err
    assert not out.exists()


def test_lfd_learned_requires_a_seed(tmp_path, capsys):
    path = write_config(tmp_path, learned_section(with_seed=False))
    assert main(["--config", path, "--out", str(tmp_path), "lfd"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("particles", 1), ("epochs", "x"), ("epochs", 2.5), ("epochs", None), ("holdout", True),
    ("learning_rate", 0), ("learning_rate", float("nan")), ("minibatch", 0), ("hidden", 0),
    ("init_basis", -1), ("init_basis", 2), ("langevin.step", -0.1), ("langevin.steps", -1),
])
def test_lfd_names_the_bad_train_field(tmp_path, capsys, key, value):
    cfg = learned_section()
    section = cfg["lfd"]["train"]
    *parents, leaf = key.split(".")
    for name in parents:
        section = section[name]
    section[leaf] = value
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "lfd"]) == 2
    assert f"lfd.train.{key}" in capsys.readouterr().err
    assert not (out / "lfd.json").exists()


def test_lfd_train_must_be_an_object(tmp_path, capsys):
    cfg = learned_section()
    cfg["lfd"]["train"] = [4]
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path), "lfd"]) == 2
    assert "lfd.train" in capsys.readouterr().err


def test_lfd_bad_method(tmp_path, capsys):
    cfg = base_config(lfd={"method": "guess"})
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "lfd"]) == 2
    assert "method" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# calibrate


def calibrate_config(q_inf="inf_a", q_post="post_a", **extra):
    section = {"p_inf": "inf_a", "pair": {"q_inf": q_inf, "q_post": q_post}}
    section.update(extra)
    return base_config(calibrate=section)


def test_calibrate_closed_form(tmp_path, capsys):
    cfg = calibrate_config(method="closed_form", gammas=[10000, 20])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "7", "--out", str(out), "calibrate"]) == 0
    text = capsys.readouterr().out
    assert "rho_star=2.2 method=closed_form degenerate=False" in text
    assert "gamma=10000 omega=9.210340372" in text
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["rho_star"] == pytest.approx(2.2, abs=1e-12)
    assert len(payload["thresholds"]) == 2
    for row in payload["thresholds"]:
        assert np.exp(row["omega"]) == pytest.approx(row["gamma"], rel=1e-12)


def test_calibrate_monte_carlo(tmp_path, capsys):
    cfg = calibrate_config(n=20000, tol=0.05)
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "8", "--out", str(tmp_path),
                 "calibrate"]) == 0
    match = re.search(r"rho_star=([\d.]+) method=monte_carlo",
                      capsys.readouterr().out)
    assert match is not None
    assert 1.7 < float(match.group(1)) < 2.7


def test_calibrate_swapped_pair_is_an_assumption_failure(tmp_path, capsys):
    cfg = calibrate_config(q_inf="post_a", q_post="inf_a", n=5000)
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "9", "--out", str(tmp_path),
                 "calibrate"]) == 3
    assert "drift" in capsys.readouterr().err


def test_calibrate_names_a_missing_pair_model(tmp_path, capsys):
    cfg = base_config(calibrate={"p_inf": "inf_a", "pair": {"q_inf": "inf_a"}})
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "9", "--out", str(tmp_path),
                 "calibrate"]) == 2
    err = capsys.readouterr().err
    assert "calibrate.pair" in err and "q_post" in err


@pytest.mark.parametrize("content, message", [(None, "cannot read"),
                                              ("{not json", "not valid JSON"),
                                              ("[]", "must be a JSON object"),
                                              ('{"q_post": {}}', "missing 'q_inf'"),
                                              (pair_json(fisher_gap=[]), "'fisher_gap'"),
                                              (pair_json(fisher_gap_stderr="0"),
                                               "'fisher_gap_stderr'"),
                                              (pair_json(notes=5), "'notes'")])
def test_calibrate_names_an_unreadable_pair_file(tmp_path, capsys, content, message):
    pair_file = tmp_path / "lfd.json"
    if content is not None:
        pair_file.write_text(content)
    cfg = base_config(calibrate={"p_inf": "inf_a", "pair_file": str(pair_file), "n": 5000})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "9", "--out", str(out), "calibrate"]) == 2
    err = capsys.readouterr().err
    assert "calibrate.pair_file" in err and message in err
    assert not (out / "calibration.json").exists()


@pytest.mark.parametrize("key, value", [("n", "many"), ("n", 1), ("n", 2.5), ("tol", 0),
                                        ("tol", "x"), ("tol", float("inf")), ("gammas", ["x"]),
                                        ("gammas", [0.5]), ("gammas", [True]),
                                        ("gammas", [[10]])])
def test_calibrate_names_the_bad_field(tmp_path, capsys, key, value):
    path = write_config(tmp_path, calibrate_config(**{key: value}))
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "9", "--out", str(out), "calibrate"]) == 2
    assert f"calibrate.{key}" in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


def test_calibrate_identical_pair_is_an_assumption_failure(tmp_path, capsys):
    cfg = calibrate_config(q_post="inf_a", n=5000)
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "9", "--out", str(tmp_path),
                 "calibrate"]) == 3
    assert "drift" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def bench_config():
    return base_config(bench={"trials": [{
        "name": "tiny",
        "detector": {"model_inf": "inf_a", "model_post": "post_a", "rho": 1.0},
        "p_inf": "inf_a",
        "p_post": "post_a",
        "drift_n": 4000,
        "omegas": [0.5, 1.5],
        "arl_paths": 300,
        "edd_paths": 300,
        "cap": 2000,
    }]})


def test_bench_writes_deterministic_outputs(tmp_path, capsys):
    path = write_config(tmp_path, bench_config())
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["--config", path, "--seed", "5", "--out", str(out),
                     "bench"]) == 0
        outs.append(out)
    text = capsys.readouterr().out
    assert "tiny: pre_drift=" in text
    drifts = (outs[0] / "drifts.csv").read_bytes()
    assert drifts.splitlines()[0] == b"trial,pre_drift,pre_stderr,post_drift,post_stderr"
    assert drifts.splitlines()[1].startswith(b"tiny,")
    assert drifts == (outs[1] / "drifts.csv").read_bytes()
    sweep = (outs[0] / "tiny_sweep.csv").read_bytes()
    assert sweep.splitlines()[0].startswith(b"omega,arl,")
    assert len(sweep.splitlines()) == 3
    assert sweep == (outs[1] / "tiny_sweep.csv").read_bytes()


def test_bench_requires_trials(tmp_path, capsys):
    path = write_config(tmp_path, base_config(bench={}))
    assert main(["--config", path, "--seed", "5", "--out", str(tmp_path),
                 "bench"]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["arl_paths", "edd_paths", "cap"])
def test_bench_rejects_empty_sweeps(tmp_path, capsys, field):
    # a sweep without paths has no run lengths to average: the mean would
    # be NaN, so it is a config error rather than a result
    cfg = bench_config()
    cfg["bench"]["trials"][0][field] = 0
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "5", "--out", str(tmp_path),
                 "bench"]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert not (tmp_path / "tiny_sweep.csv").exists()


def test_bench_checks_every_trial_before_running_any(tmp_path, capsys):
    cfg = bench_config()
    second = dict(cfg["bench"]["trials"][0], name="second", edd_paths=0)
    cfg["bench"]["trials"].append(second)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "5", "--out", str(out), "bench"]) == 2
    captured = capsys.readouterr()
    assert "bench.trials[1].edd_paths" in captured.err
    assert captured.out == ""
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("field, value", [("drift_n", 1), ("omegas", [1.0, 0.5]),
                                          ("omegas", [-1.0]), ("omegas", {"a": 1.0})])
def test_bench_names_the_bad_trial_field(tmp_path, capsys, field, value):
    cfg = bench_config()
    cfg["bench"]["trials"][0][field] = value
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "5", "--out", str(tmp_path), "bench"]) == 2
    assert f"bench.trials[0].{field}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect


def detect_config(omega=2.9):
    return base_config(detect={"detector": {
        "model_inf": "inf_a", "model_post": "post_a",
        "omega": omega, "rho": 1.0,
    }})


def test_detect_alarm_on_a_crafted_stream(tmp_path, capsys):
    # at x = (2.42, 2.42) the increment is exactly 0.5, so the statistic
    # reaches 3.0 >= 2.9 on the sixth observation
    path = write_config(tmp_path, detect_config())
    stream = tmp_path / "stream.txt"
    stream.write_text("2.42,2.42\n" * 8)
    assert main(["--config", path, "detect", "--input", str(stream)]) == 0
    out = capsys.readouterr().out
    match = re.match(r"stopped_at=6 statistic=([\d.]+)", out)
    assert match is not None
    assert float(match.group(1)) == pytest.approx(3.0, abs=1e-9)


def test_detect_no_alarm(tmp_path, capsys):
    path = write_config(tmp_path, detect_config(omega=100.0))
    stream = tmp_path / "stream.txt"
    stream.write_text("2.42 2.42\n\n2.42 2.42\n2.42 2.42\n")  # blank line skipped
    assert main(["--config", path, "detect", "--input", str(stream)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("stopped_at=none steps=3 statistic=1.5")


def test_detect_reads_stdin(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, detect_config())
    monkeypatch.setattr("sys.stdin", io.StringIO("2.42,2.42\n" * 6))
    assert main(["--config", path, "detect"]) == 0
    assert capsys.readouterr().out.startswith("stopped_at=6")


def test_detect_cap_bounds_the_observations_read(tmp_path, capsys):
    cfg = detect_config(omega=100.0)
    cfg["detect"]["cap"] = 2
    path = write_config(tmp_path, cfg)
    stream = tmp_path / "stream.txt"
    stream.write_text("2.42 2.42\n" * 4)
    assert main(["--config", path, "detect", "--input", str(stream)]) == 0
    assert capsys.readouterr().out.startswith("stopped_at=none steps=2 statistic=1")


@pytest.mark.parametrize("cap", [0, -3, 2.9, "10", True])
def test_detect_names_a_bad_cap(tmp_path, capsys, cap):
    cfg = detect_config()
    cfg["detect"]["cap"] = cap
    path = write_config(tmp_path, cfg)
    stream = tmp_path / "stream.txt"
    stream.write_text("2.42 2.42\n" * 4)
    assert main(["--config", path, "detect", "--input", str(stream)]) == 2
    captured = capsys.readouterr()
    assert "detect.cap" in captured.err and captured.out == ""


@pytest.mark.parametrize("key, value", [("omega", None), ("omega", -1.0), ("omega", True),
                                        ("omega", "3"), ("omega", float("inf")), ("rho", 0),
                                        ("rho", None), ("rho", True), ("rho", float("nan"))])
def test_detect_names_a_bad_omega_or_rho(tmp_path, capsys, key, value):
    cfg = detect_config()
    cfg["detect"]["detector"][key] = value
    path = write_config(tmp_path, cfg)
    stream = tmp_path / "stream.txt"
    stream.write_text("2.42 2.42\n")
    assert main(["--config", path, "detect", "--input", str(stream)]) == 2
    captured = capsys.readouterr()
    assert f"detect.detector.{key} must be a finite number" in captured.err
    assert captured.out == ""


def test_detect_omega_zero_alarms_on_the_first_observation(tmp_path, capsys):
    path = write_config(tmp_path, detect_config(omega=0))
    stream = tmp_path / "stream.txt"
    stream.write_text("2.42 2.42\n" * 3)
    assert main(["--config", path, "detect", "--input", str(stream)]) == 0
    assert capsys.readouterr().out.startswith("stopped_at=1 ")


def test_detect_names_a_missing_input_file(tmp_path, capsys):
    path = write_config(tmp_path, detect_config())
    missing = tmp_path / "no_such_stream.txt"
    assert main(["--config", path, "detect", "--input", str(missing)]) == 2
    captured = capsys.readouterr()
    assert "--input" in captured.err and "no_such_stream.txt" in captured.err
    assert captured.out == ""


def test_detect_names_the_malformed_line(tmp_path, capsys):
    path = write_config(tmp_path, detect_config())
    stream = tmp_path / "stream.txt"
    stream.write_text("0.1 0.2\n0.3 0.4\nabc def\n")
    assert main(["--config", path, "detect", "--input", str(stream)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_detect_rejects_wrong_dimension(tmp_path, capsys):
    path = write_config(tmp_path, detect_config())
    stream = tmp_path / "stream.txt"
    stream.write_text("0.1 0.2\n0.5\n")
    assert main(["--config", path, "detect", "--input", str(stream)]) == 2
    assert "expected dimension 2" in capsys.readouterr().err


def learned_models(dim=2, outputs=2):
    net = BetaNetwork.initialize(dim, outputs, np.random.default_rng(31))
    return {
        "q_inf": {"type": "score_mixture", "basis": [MODELS["inf_a"], MODELS["inf_b"]],
                  "beta": net.to_dict()},
        "q_post": {"type": "score_mixture", "basis": [MODELS["post_a"], MODELS["post_b"]],
                   "beta": BetaNetwork.initialize(2, 2, np.random.default_rng(32)).to_dict()},
    }


def test_detect_on_a_learned_pair_needs_no_seed(tmp_path, capsys):
    # every mixture Laplacian is exact, so the statistic is a function of
    # the stream alone
    cfg = base_config(detect={"detector": {"model_inf": "q_inf", "model_post": "q_post",
                                           "omega": 100.0, "rho": 1.0}})
    cfg["models"].update(learned_models())
    path = write_config(tmp_path, cfg)
    stream = tmp_path / "stream.txt"
    stream.write_text("0.5,0.5\n1.0,0.2\n2.42,2.42\n")
    outs = []
    for _ in range(2):
        assert main(["--config", path, "detect", "--input", str(stream)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].startswith("stopped_at=none steps=3 statistic=")
    assert outs[0] == outs[1]


@pytest.mark.parametrize("dim, outputs, field", [(3, 2, "beta.dim"), (2, 3, "beta.outputs")])
def test_beta_network_must_fit_its_basis(tmp_path, capsys, dim, outputs, field):
    cfg = base_config(detect={"detector": {"model_inf": "q_inf", "model_post": "q_post",
                                           "omega": 1.0}})
    cfg["models"].update(learned_models(dim, outputs))
    path = write_config(tmp_path, cfg)
    stream = tmp_path / "stream.txt"
    stream.write_text("0.5,0.5\n")
    assert main(["--config", path, "detect", "--input", str(stream)]) == 2
    assert field in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sample


def test_sample_gaussian_deterministic(tmp_path, capsys):
    cfg = base_config(sample={"model": "inf_a", "n": 50})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "3", "--out", str(out), "sample"]) == 0
    assert "wrote 50 samples" in capsys.readouterr().out
    first = (out / "samples.csv").read_bytes()
    lines = first.decode("utf-8").splitlines()
    assert len(lines) == 50
    assert all(len(line.split(",")) == 2 for line in lines)
    assert main(["--config", path, "--seed", "3", "--out", str(out), "sample"]) == 0
    assert (out / "samples.csv").read_bytes() == first


RBM = {"type": "gbrbm", "weights": [[0.1, -0.2], [0.0, 0.3]],
       "visible_bias": [0.5, -0.5], "hidden_bias": [0.0, 0.1]}


def test_sample_gbrbm_with_gibbs_options(tmp_path, capsys):
    cfg = base_config(sample={"model": "rbm", "n": 12, "burn_in": 20, "thin": 2})
    cfg["models"]["rbm"] = RBM
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "4", "--out", str(out), "sample"]) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert len(lines) == 12


@pytest.mark.parametrize("extra, field", [
    ({"burn_in": 10}, "sample.burn_in"),
    ({"thin": 2}, "sample.thin"),
    ({"n": 0}, "sample.n"),
    ({"model": "rbm", "thin": 0}, "sample.thin"),
    ({"model": "rbm", "burn_in": -1}, "sample.burn_in"),
])
def test_sample_rejects_bad_fields_before_drawing(tmp_path, capsys, extra, field):
    cfg = base_config(sample={"model": "inf_a", "n": 3, **extra})
    cfg["models"]["rbm"] = RBM
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "1", "--out", str(out), "sample"]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_smoke(tmp_path):
    # the installed console script when there is one, else the module entry
    # point of the package this suite imports
    script = shutil.which("scoredetect")
    if script is not None:
        command, env = [script], None
    else:
        command = [sys.executable, "-m", "scoredetect.cli"]
        package_root = os.path.dirname(os.path.dirname(scoredetect.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
    cfg = base_config(sample={"model": "inf_a", "n": 5})
    path = write_config(tmp_path, cfg)
    proc = subprocess.run(
        command + ["--config", path, "--seed", "2", "--out", str(tmp_path), "sample"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "wrote 5 samples" in proc.stdout
