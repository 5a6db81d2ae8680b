import bisect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import GAP_NEAR, MEAN_INF_A, MEAN_INF_B, MEAN_POST_A, MEAN_POST_B, V_REF
import scoredetect
from scoredetect import (RHO_CAP, BetaNetwork, DetectorConfig, DetectorState, RhoSolution,
                         ScoreMixture, batch_scores, load_lfd_pair, load_model, step)
from scoredetect.cli import _READ_BYTES, main

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


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"version": 1, "models": {"caf\xe9": {}}}')
    assert main(["--config", str(path), "lfd"]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err


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


@pytest.mark.parametrize("desc, field", [
    ({"type": "gaussian", "mean": "abc", "cov": COV}, "models.bad: mean must be"),
    ({"type": "gaussian", "mean": {"x": 1}, "cov": COV}, "models.bad: mean must be"),
    ({"type": "gbrbm", "weights": [[1.0, 2.0], [3.0]], "visible_bias": [0.0, 0.0],
      "hidden_bias": [0.0, 0.0]}, "models.bad: weights must be"),
    ({"type": "score_mixture", "basis": [gaussian([0.0, 0.0])], "beta": "x"},
     "models.bad: beta must be"),
    ({"type": "score_mixture", "basis": [gaussian([0.0, 0.0])],
      "beta": {"kind": "beta_network", "w1": "x", "b1": [0.0], "w2": [[0.0]], "b2": [0.0]}},
     "models.bad: beta"),
], ids=["string", "object", "ragged", "beta-string", "beta-network"])
def test_model_field_that_is_not_numeric_names_it(tmp_path, capsys, desc, field):
    cfg = detect_config()
    cfg["models"]["bad"] = desc
    cfg["detect"]["detector"]["model_inf"] = "bad"
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "detect", "--input", path]) == 2
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""


@pytest.mark.parametrize("key", ["cov", "pre_vertices", "post_vertices"])
def test_lfd_names_a_non_numeric_polytope_field(tmp_path, capsys, key):
    section = {"cov": COV, "pre_vertices": [[0.0, 0.0]], "post_vertices": [[1.0, 1.0]]}
    section[key] = [[0.0], [1.0, "a"]]
    path = write_config(tmp_path, base_config(lfd=section))
    assert main(["--config", path, "--out", str(tmp_path), "lfd"]) == 2
    assert f"lfd.{key} must be an array of numbers" in capsys.readouterr().err


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


def test_lfd_analytic_drift_check_needs_no_seed(tmp_path, capsys):
    # every drift row of an analytic pair against Gaussian members is exact
    # and draws nothing, so the run needs no seed and a seed changes nothing
    cfg = base_config(lfd={"method": "analytic", "cov": COV,
                           "pre_vertices": [list(MEAN_INF_A), list(MEAN_INF_B)],
                           "post_vertices": [list(MEAN_POST_A), list(MEAN_POST_B)],
                           "verify": {"basis_inf": ["inf_a", "inf_b"]}})
    path = write_config(tmp_path, cfg)
    texts = []
    for flag in ([], ["--seed", "11"]):
        assert main(["--config", path, *flag, "--out", str(tmp_path), "lfd"]) == 0
        texts.append(capsys.readouterr().out)
    assert "drift_condition=PASS" in texts[0]
    assert texts[0] == texts[1]


def test_lfd_non_gaussian_verify_member_requires_a_seed(tmp_path, capsys):
    cfg = base_config(lfd={"method": "analytic", "cov": COV,
                           "pre_vertices": [list(MEAN_INF_A)], "post_vertices": [list(MEAN_POST_A)],
                           "verify": {"basis_inf": ["inf_a", "mix"]}})
    cfg["models"]["mix"] = {"type": "gmm", "weights": [1.0],
                            "components": [cfg["models"]["inf_a"]]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "lfd"]) == 2
    assert "an explicit seed is required" in capsys.readouterr().err
    assert not out.exists()


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
    # a present verify that is not an object is an error even when it is falsy
    ([], "lfd.verify must be a JSON object"), (0, "lfd.verify must be a JSON object"),
    (False, "lfd.verify must be a JSON object"), (None, "lfd.verify must be a JSON object"),
    (5, "lfd.verify must be a JSON object"),
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


def test_lfd_empty_verify_skips_the_drift_check(tmp_path, capsys):
    # {} means no verification: no seed is needed and no verdict is printed
    cfg = base_config(lfd={"method": "analytic", "cov": COV,
                           "pre_vertices": [list(MEAN_INF_A)], "post_vertices": [list(MEAN_POST_A)],
                           "verify": {}})
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--out", str(tmp_path), "lfd"]) == 0
    text = capsys.readouterr().out
    assert "provenance=analytic" in text and "drift_condition" not in text


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


@pytest.mark.parametrize("field", ["lfd.verify.basis_inf", "lfd.basis_post"])
def test_lfd_rejects_an_empty_model_list(tmp_path, capsys, field):
    cfg = learned_section()
    if field == "lfd.verify.basis_inf":
        cfg["lfd"]["verify"] = {"n": 100, "basis_inf": []}
    else:
        cfg["lfd"]["basis_post"] = []
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--out", str(out), "lfd"]) == 2
    assert f"{field} must name at least one model" in capsys.readouterr().err
    assert not (out / "lfd.json").exists()


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


@pytest.mark.parametrize("train", [{"learning_rate": 1e300}, {"langevin": {"step": 1e200}}],
                         ids=["learning_rate", "langevin_step"])
def test_lfd_names_training_that_diverges(tmp_path, capsys, train):
    # a loss or Langevin particles that leave the finite range are an
    # assumption failure, reported in one line
    cfg = learned_section()
    cfg["lfd"]["train"].update(train)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["--config", path, "--out", str(out), "lfd"]) == 3
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: training [^\n]*non-finite[^\n]*\n", captured.err)
    assert captured.out == "" and not (out / "lfd.json").exists()


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
    # a legacy "tol" key is ignored like any key the CLI does not read: the
    # run succeeds and writes the same bytes as one without it
    outs = []
    for name, cfg in (("legacy", calibrate_config(n=20000, tol=0.05)),
                      ("plain", calibrate_config(n=20000))):
        path = write_config(tmp_path, cfg, f"{name}.json")
        outs.append(tmp_path / name)
        assert main(["--config", path, "--seed", "8", "--out", str(outs[-1]),
                     "calibrate"]) == 0
    match = re.search(r"rho_star=([\d.]+) method=monte_carlo degenerate=False"
                      r" rho_star_stderr=([\d.e-]+)\n", capsys.readouterr().out)
    assert match is not None
    assert 1.7 < float(match.group(1)) < 2.7
    assert 0.0 < float(match.group(2)) < 0.2
    assert ((outs[0] / "calibration.json").read_bytes()
            == (outs[1] / "calibration.json").read_bytes())


def test_calibrate_writes_deterministic_outputs(tmp_path, capsys):
    path = write_config(tmp_path, calibrate_config(n=20000, gammas=[100]))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["--config", path, "--seed", "11", "--out", str(out), "calibrate"]) == 0
    first, second = capsys.readouterr().out.split("rho_star=")[1:]
    assert first == second
    payload = (outs[0] / "calibration.json").read_bytes()
    assert payload == (outs[1] / "calibration.json").read_bytes()
    sol = json.loads(payload)
    assert sol["method"] == "monte_carlo"
    assert sol["rho_star"] == sol["h_curve"][-1][0]
    assert sol["rho_star_stderr"] > 0.0


def test_calibrate_reports_no_stderr_for_a_degenerate_solution(tmp_path, capsys, monkeypatch):
    # no Gaussian config reaches the cap, so the solver's degenerate result
    # is fed in directly
    degenerate = RhoSolution(RHO_CAP, ((1.0, -0.5, 0.01),), "monte_carlo", None,
                             degenerate=True, message="cap")
    monkeypatch.setattr("scoredetect.cli.solve_rho_star", lambda *args, **kwargs: degenerate)
    path = write_config(tmp_path, calibrate_config(n=100))
    assert main(["--config", path, "--seed", "8", "--out", str(tmp_path), "calibrate"]) == 0
    assert "degenerate=True rho_star_stderr=none\n" in capsys.readouterr().out
    assert json.loads((tmp_path / "calibration.json").read_text())["rho_star_stderr"] is None


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
                                              # whole JSON documents make unreadable ids
                                              pytest.param(pair_json(fisher_gap=[]), "'fisher_gap'",
                                                           id="fisher_gap-list"),
                                              pytest.param(pair_json(fisher_gap_stderr="0"),
                                                           "'fisher_gap_stderr'",
                                                           id="fisher_gap_stderr-str"),
                                              pytest.param(pair_json(notes=5), "'notes'",
                                                           id="notes-int"),
                                              pytest.param(pair_json(provenance="bogus"),
                                                           "provenance must be", id="provenance-bogus"),
                                              pytest.param(pair_json(fisher_gap=0), "fisher_gap must be",
                                                           id="fisher_gap-zero"),
                                              pytest.param(pair_json(fisher_gap=float("nan")),
                                                           "fisher_gap must be", id="fisher_gap-nan"),
                                              pytest.param(pair_json().encode() + b"\xff", "not valid JSON",
                                                           id="not-utf8")])
def test_calibrate_names_an_unreadable_pair_file(tmp_path, capsys, content, message):
    pair_file = tmp_path / "lfd.json"
    if isinstance(content, bytes):
        pair_file.write_bytes(content)
    elif content is not None:
        pair_file.write_text(content)
    cfg = base_config(calibrate={"p_inf": "inf_a", "pair_file": str(pair_file), "n": 5000})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "9", "--out", str(out), "calibrate"]) == 2
    err = capsys.readouterr().err
    assert "calibrate.pair_file" in err and message in err
    assert not (out / "calibration.json").exists()


@pytest.mark.parametrize("key, value", [("n", "many"), ("n", 1), ("n", 2.5), ("method", "bogus"),
                                        ("method", 5), ("method", None), ("gammas", ["x"]),
                                        ("gammas", [0.5]), ("gammas", [True]),
                                        ("gammas", [[10]]), ("pair_file", 7), ("pair_file", ""),
                                        ("pair_file", ["lfd.json"]), ("pair_file", None)])
def test_calibrate_names_the_bad_field(tmp_path, capsys, key, value):
    path = write_config(tmp_path, calibrate_config(**{key: value}))
    out = tmp_path / "out"
    assert main(["--config", path, "--seed", "9", "--out", str(out), "calibrate"]) == 2
    assert f"calibrate.{key}" in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


@pytest.mark.parametrize("value", [5, [], False, "", None])
def test_out_must_be_a_non_empty_string(tmp_path, capsys, monkeypatch, value):
    # the config's out is checked even where --out overrides it
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, base_config(sample={"model": "inf_a", "n": 5}, out=value))
    for flag in ([], ["--out", str(tmp_path / "out")]):
        assert main(["--config", path, "--seed", "1", *flag, "sample"]) == 2
        assert f"out must be a non-empty JSON string, got {value!r}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


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
                                          ("omegas", [-1.0]), ("omegas", {"a": 1.0}),
                                          # falsy values that are not arrays either
                                          ("omegas", 0), ("omegas", False), ("omegas", ""),
                                          ("omegas", {}), ("omegas", None)])
def test_bench_names_the_bad_trial_field(tmp_path, capsys, field, value):
    cfg = bench_config()
    cfg["bench"]["trials"][0][field] = value
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "5", "--out", str(tmp_path), "bench"]) == 2
    assert f"bench.trials[0].{field}" in capsys.readouterr().err


@pytest.mark.parametrize("omegas", ["absent", []])
def test_bench_trial_without_thresholds_reports_drifts_only(tmp_path, capsys, omegas):
    cfg = bench_config()
    if omegas == "absent":
        del cfg["bench"]["trials"][0]["omegas"]
    else:
        cfg["bench"]["trials"][0]["omegas"] = omegas
    path = write_config(tmp_path, cfg)
    assert main(["--config", path, "--seed", "5", "--out", str(tmp_path), "bench"]) == 0
    assert "tiny: pre_drift=" in capsys.readouterr().out
    assert (tmp_path / "drifts.csv").exists() and not (tmp_path / "tiny_sweep.csv").exists()


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
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"2.42,2.42\n" * 6)))
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


@pytest.mark.parametrize("bad", ["nan,0.1", "inf,0.1", "0.1 -inf", "1e999,0.1"])
def test_detect_names_a_non_finite_line(tmp_path, capsys, bad):
    path = write_config(tmp_path, detect_config())
    stream = tmp_path / "stream.txt"
    stream.write_text(f"0.1 0.2\n\n{bad}\n0.3 0.4\n")
    assert main(["--config", path, "detect", "--input", str(stream)]) == 2
    captured = capsys.readouterr()
    assert "line 3: non-finite observation" in captured.err and captured.out == ""


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "pipe"])
def test_detect_names_text_that_is_not_utf8(tmp_path, capsys, monkeypatch, stdin):
    # bytes that are not UTF-8 make their own line bad: the rows ahead of it
    # are scored, and an alarm 3000 lines ahead is kept
    path = write_config(tmp_path, detect_config())
    for lines, code in ((2, 2), (3000, 0)):
        data = b"2.42,2.42\n" * lines + b"\xff\xfe\n"
        stream = tmp_path / "stream.txt"
        stream.write_bytes(data)
        argv = ["--config", path, "detect", "--input", str(stream)]
        if stdin:
            read, write = os.pipe()
            os.write(write, data)
            os.close(write)
            monkeypatch.setattr("sys.stdin", open(read, encoding="utf-8"))
            argv = argv[:-2]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == "error: line 3: not UTF-8 text\n" and captured.out == ""
        else:
            assert captured.out.startswith("stopped_at=6 ")
        if stdin:
            sys.stdin.close()


class Pipe:
    """A stdin whose writer has sent ``data`` (a str is sent as UTF-8) and
    closed it, like a shell pipe.  ``buffer.read1`` returns the next bytes,
    each read ending at the next offset in ``cuts`` or at the size asked
    for, and then ``b""``, the end of the stream."""

    def __init__(self, data, cuts=()):
        self.data = data.encode() if isinstance(data, str) else data
        self.ends = sorted(set(cuts) | {len(self.data)})
        self.pos = 0
        self.buffer = self

    def read1(self, size):
        i = bisect.bisect_right(self.ends, self.pos)
        end = min(self.ends[i], self.pos + size) if i < len(self.ends) else self.pos
        chunk, self.pos = self.data[self.pos:end], end
        return chunk


class LivePipe(Pipe):
    """A terminal whose writer has sent ``text`` a line at a time and keeps
    it open: each read returns one line, and reading past ``text`` fails the
    test, where a live stream would block."""

    def __init__(self, text):
        data = text.encode()
        super().__init__(data, [m.end() for m in re.finditer(b"\n", data)])

    def read1(self, size):
        if self.pos == len(self.data):
            raise AssertionError("read past the lines sent, where a live stream blocks")
        return super().read1(size)


def test_detect_on_a_pipe_alarms_without_reading_ahead(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, detect_config())
    monkeypatch.setattr("sys.stdin", LivePipe("2.42,2.42\n" * 6))
    assert main(["--config", path, "detect"]) == 0
    assert capsys.readouterr().out.startswith("stopped_at=6 ")


def test_detect_reads_a_pipe_split_anywhere(tmp_path, capsys, monkeypatch):
    # reads that end after 1 byte, between \r and \n, after a lone \r,
    # inside a multi-byte UTF-8 character and in mid-line give the lines,
    # the line numbers and the output of the file
    lines = [",".join(map(repr, row)) for row in
             np.random.default_rng(37).standard_normal((3000, 2)).tolist()]
    lines[100], lines[200], lines[300] = "\uff11\uff12 0.25", "0.75\u20000.5", ""
    text = "".join(line + ("\r\n", "\r", "\n")[i % 3] for i, line in enumerate(lines))
    data = text.encode()
    cuts = [1, data.index(b"\r\n") + 1, data.index(b"\r", data.index(b"\r\n") + 2) + 1,
            data.index("\uff12".encode()) + 2, data.index("\u2000".encode()) + 1,
            data.index(b",", len(data) // 2)]
    path = write_config(tmp_path, detect_config(omega=1e9))
    stream = tmp_path / "stream.txt"
    outs = []
    for bad in ("", "nan nan"):  # and a bad line just past a read's end
        stream.write_bytes(data + bad.encode())
        assert main(["--config", path, "detect", "--input", str(stream)]) == (2 if bad else 0)
        outs.append(capsys.readouterr())
        monkeypatch.setattr("sys.stdin", Pipe(data + bad.encode(), cuts + [len(data)]))
        assert main(["--config", path, "detect"]) == (2 if bad else 0)
        assert capsys.readouterr() == outs[-1]
    assert outs[0].out.startswith("stopped_at=none steps=2999 ")
    assert outs[1].err == "error: line 3001: non-finite observation\n"


@pytest.mark.parametrize("bad", ["abc def", "0.5", "nan,0.1"])
@pytest.mark.parametrize("stop", ["alarm", "cap"])
@pytest.mark.parametrize("stdin", [False, True], ids=["file", "pipe"])
def test_detect_ignores_a_bad_line_after_the_run_stops(tmp_path, capsys, monkeypatch,
                                                       bad, stop, stdin):
    # the alarm lands on line 6 at omega 2.9; with cap 2 the run ends on line 2
    cfg = detect_config() if stop == "alarm" else detect_config(omega=100.0)
    if stop == "cap":
        cfg["detect"]["cap"] = 2
    path = write_config(tmp_path, cfg)
    outs = []
    for text in ("2.42,2.42\n" * 8, "2.42,2.42\n" * 6 + f"{bad}\n" + "2.42,2.42\n" * 2):
        stream = tmp_path / "stream.txt"
        stream.write_text(text)
        argv = ["--config", path, "detect", "--input", str(stream)]
        if stdin:
            monkeypatch.setattr("sys.stdin", LivePipe(text))
            argv = argv[:-2]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("stopped_at=6 " if stop == "alarm" else "stopped_at=none steps=2 ")


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


def rbm_members(dim=3, hidden=2):
    gen = np.random.default_rng(33)
    w, c = gen.standard_normal((dim, hidden)).tolist(), gen.standard_normal(hidden).tolist()
    return {name: {"type": "gbrbm", "weights": w, "visible_bias": [bias] * dim,
                   "hidden_bias": c} for name, bias in (("r_inf", 0.0), ("r_post", 0.8))}


@pytest.mark.parametrize("models, names", [
    ({}, ("inf_a", "post_a")),
    (rbm_members(), ("r_inf", "r_post")),
    (learned_models(), ("q_inf", "q_post")),
], ids=["gaussian", "rbm", "network_mixture"])
def test_detect_replays_the_batch_increments(tmp_path, capsys, monkeypatch, models, names):
    # a stream of several reads whose first crossing falls after the first
    # read: detect prints what step looped over batch_scores of the whole
    # array gives, from a file read in 64 KiB blocks and from a terminal read
    # a line at a time
    cfg = base_config()
    cfg["models"].update(models)
    table = {name: load_model(cfg["models"][name]) for name in names}
    dim = table[names[0]].dim
    gen = np.random.default_rng(34)
    n, change = 9000, 5000
    xs = gen.standard_normal((n, dim)) + np.where(np.arange(n) < change, -0.5, 1.5)[:, None]
    increments = batch_scores(DetectorConfig(*table.values(), omega=0.0, rho=1.3), xs).tolist()
    free = DetectorState()  # no threshold: the whole reflected path
    walk = np.array([step(free, inc, float("inf")).statistic for inc in increments])
    first_max = int(np.argmax(walk))
    assert first_max >= change
    omega = 0.5 * (walk[first_max] + walk[:first_max].max())
    state = DetectorState()
    for inc in increments:
        if step(state, inc, omega).stopped_at is not None:
            break
    assert state.stopped_at == first_max + 1
    want = f"stopped_at={state.stopped_at} statistic={state.statistic:.10g}\n"

    cfg["detect"] = {"detector": {"model_inf": names[0], "model_post": names[1],
                                  "omega": omega, "rho": 1.3}}
    path = write_config(tmp_path, cfg)
    text = "".join(",".join(map(repr, row)) + "\n" for row in xs.tolist())
    stream = tmp_path / "stream.txt"
    stream.write_text(text)
    assert len(text) > _READ_BYTES
    assert main(["--config", path, "detect", "--input", str(stream)]) == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr("sys.stdin", LivePipe(text))
    assert main(["--config", path, "detect"]) == 0
    assert capsys.readouterr().out == want


def per_line_parse(text, dim):
    """The rows and the first error of the reference parse: ``float`` on each
    token of each non-blank line, commas read as spaces, lines counted with
    the blank ones."""
    rows = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        if not line.strip():
            continue
        try:
            row = [float(tok) for tok in line.replace(",", " ").split()]
        except ValueError:
            return rows, f"line {lineno}: cannot parse observation vector"
        if len(row) != dim:
            return rows, f"line {lineno}: expected dimension {dim}, got {len(row)}"
        if not all(map(math.isfinite, row)):
            return rows, f"line {lineno}: non-finite observation"
        rows.append(row)
    return rows, None


def record_batches(monkeypatch):
    """Route ``cli.batch_scores`` through a recorder: the arrays it was given."""
    calls = []

    def recording(detector, xs):
        calls.append(np.array(xs, copy=True))
        return batch_scores(detector, xs)

    monkeypatch.setattr("scoredetect.cli.batch_scores", recording)
    return calls


def line_offset(lines, k):
    """The byte offset of line ``k`` of ``lines`` joined by newlines."""
    return sum(len(line.encode()) + 1 for line in lines[:k - 1])


TRICKY_LINES = {
    "underscore": "1_0 2", "arabic_indic": "\u0661\u0662 3", "fullwidth": "\uff11\uff12 \uff13",
    "mixed_separators": "0.5, \t-1e-3", "double_comma": "1,,2", "form_feed": "1\x0c2",
    "nbsp": "1\xa02", "en_quad": "1\u20002", "vertical_tab": "1\x0b2",
    "file_separator": "1\x1c2", "whitespace_only": " \t ", "blank": "",
    "comment": "# comment", "nan": "nan,0.1", "minus_inf": "0.1 -inf", "overflow": "1e999 1",
    "underflow": "1e-400 1", "wrong_dimension": "1 2 3", "nul": "1\x002",
    "hex": "0x1p3 2", "signed_zero": "-0 +1",
}


@pytest.mark.parametrize("lineno", [3, 4096, 4097, 4098])
@pytest.mark.parametrize("tricky", list(TRICKY_LINES.values()), ids=list(TRICKY_LINES))
def test_detect_block_parse_matches_the_per_line_parse(tmp_path, capsys, monkeypatch,
                                                       tricky, lineno):
    # line 2 is blank, padded with spaces so that a read of the file ends in
    # line 4097: line 3 opens the first read, 4096 ends a read, 4097 spans
    # two and 4098 is the first line wholly in the next one; the pipe's first
    # read ends inside the tricky line; from a file and from a pipe, detect
    # must read the doubles, print the line and name the bad line the
    # reference parse gives
    lines = [",".join(map(repr, row)) for row in
             np.random.default_rng(35).standard_normal((4100, 2)).tolist()]
    lines[1], lines[lineno - 1] = "", tricky
    lines[1] = " " * (-(line_offset(lines, 4097) + len(lines[4096].encode()) // 2) % _READ_BYTES)
    text = "\n".join(lines) + "\n"
    cut = line_offset(lines, lineno) + len(tricky.encode()) // 2
    rows, error = per_line_parse(text, 2)
    cfg = detect_config(omega=1e9)
    table = {name: load_model(MODELS[name]) for name in ("inf_a", "post_a")}
    state = DetectorState()
    for inc in batch_scores(DetectorConfig(*table.values(), omega=1e9), np.array(rows)).tolist():
        step(state, inc, 1e9)
    want = "" if error else f"stopped_at=none steps={state.n} statistic={state.statistic:.10g}\n"

    path = write_config(tmp_path, cfg)
    stream = tmp_path / "stream.txt"
    stream.write_text(text, encoding="utf-8")
    for stdin in (False, True):
        calls = record_batches(monkeypatch)
        argv = ["--config", path, "detect", "--input", str(stream)]
        if stdin:
            monkeypatch.setattr("sys.stdin", Pipe(text, [cut]))
            argv = argv[:-2]
        assert main(argv) == (2 if error else 0)
        captured = capsys.readouterr()
        assert captured.out == want
        assert captured.err == (f"error: {error}\n" if error else "")
        seen = np.concatenate([np.atleast_2d(xs) for xs in calls])
        assert seen.tobytes() == np.array(rows).tobytes()
        if not (error or stdin):  # a read's block ends with line 4096
            ends = np.cumsum([len(xs) for xs in calls])
            assert len(per_line_parse("\n".join(lines[:4096]), 2)[0]) in ends


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


def test_internal_error_is_not_a_config_error(tmp_path):
    # exit 2 is for the errors load-time checks raise; a KeyError from a bug
    # inside a command ends in a traceback and exit 1
    package_root = os.path.dirname(os.path.dirname(scoredetect.__file__))
    script = ("import sys, scoredetect.cli as cli\n"
              "def broken(*args, **kwargs):\n"
              "    raise KeyError('internal')\n"
              "cli.threshold_for_arl = broken\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    path = write_config(tmp_path, calibrate_config(n=5000, gammas=[10.0]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, "--config", path, "--seed", "9",
                           "--out", str(tmp_path), "calibrate"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "KeyError: 'internal'" in proc.stderr
    assert "error: " not in proc.stderr


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
