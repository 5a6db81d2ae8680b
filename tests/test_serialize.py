import json

import numpy as np
import pytest

from conftest import make_rbm_family
from scoredetect import (BetaNetwork, Gaussian, GaussianMixture, LfdPair,
                         ModelError, RngStream, ScoreMixture, dump_lfd_pair,
                         load_lfd_pair, load_model, write_json)
from scoredetect.calibration import RhoSolution
from scoredetect.serialize import dump_rho_solution

POINTS = np.array([[0.1, -0.4], [1.5, 2.0], [-3.0, 0.7]])


def roundtrip(model):
    # through actual JSON text, not just the dict
    return load_model(json.loads(json.dumps(model.to_dict())))


def test_gaussian_roundtrip(inf_a):
    back = roundtrip(inf_a)
    assert isinstance(back, Gaussian)
    assert np.array_equal(back.mean, inf_a.mean)
    assert np.array_equal(back.cov, inf_a.cov)
    assert np.array_equal(back.score(POINTS), inf_a.score(POINTS))


def test_gmm_roundtrip(inf_a, post_a):
    gmm = GaussianMixture([inf_a, post_a], [0.25, 0.75])
    back = roundtrip(gmm)
    assert isinstance(back, GaussianMixture)
    assert np.array_equal(back.weights, gmm.weights)
    assert np.array_equal(back.log_density(POINTS), gmm.log_density(POINTS))
    assert np.array_equal(back.hyvarinen(POINTS), gmm.hyvarinen(POINTS))


def test_gbrbm_roundtrip():
    basis_inf, _ = make_rbm_family(RngStream(1001))
    rbm = basis_inf[0]
    back = roundtrip(rbm)
    pts = RngStream(1002).generator().standard_normal((5, rbm.dim))
    assert np.array_equal(back.weights, rbm.weights)
    assert np.array_equal(back.score(pts), rbm.score(pts))


def test_constant_mixture_roundtrip(inf_a, post_a):
    mix = ScoreMixture([inf_a, post_a], [0.3, 0.7])
    back = roundtrip(mix)
    assert isinstance(back, ScoreMixture)
    assert np.array_equal(back._const_beta, mix._const_beta)
    assert np.array_equal(back.score(POINTS), mix.score(POINTS))


def test_network_mixture_roundtrip(inf_a, post_a):
    net = BetaNetwork.initialize(2, 2, RngStream(1003).generator())
    mix = ScoreMixture([inf_a, post_a], net)
    d = mix.to_dict()
    assert isinstance(d["beta"], dict)
    back = load_model(json.loads(json.dumps(d)))
    assert callable(back.beta)
    assert np.array_equal(back.score(POINTS), mix.score(POINTS))
    assert np.array_equal(back.hyvarinen(POINTS), mix.hyvarinen(POINTS))


class _OpaqueBeta:
    """Point-dependent weights with a Jacobian but no dictionary form."""

    def __call__(self, x):
        return np.full(x.shape[:-1] + (2,), 0.5)

    def weights_and_jacobian(self, x):
        return self(x), np.zeros(x.shape[:-1] + (2, x.shape[-1]))


def test_opaque_beta_is_not_serializable(inf_a, post_a):
    mix = ScoreMixture([inf_a, post_a], _OpaqueBeta())
    with pytest.raises(NotImplementedError):
        mix.to_dict()


def test_load_model_rejects_bad_input():
    with pytest.raises(ModelError, match="type"):
        load_model({"mean": [0.0]})
    with pytest.raises(ModelError, match="type"):
        load_model("gaussian")
    with pytest.raises(ModelError, match="unknown model type"):
        load_model({"type": "student_t"})
    with pytest.raises(ModelError, match="missing field"):
        load_model({"type": "gaussian", "mean": [0.0]})


def test_lfd_pair_roundtrip(families):
    from scoredetect import gaussian_polytope_lfd

    pre, post = families
    pair = gaussian_polytope_lfd(pre, post)
    d = json.loads(json.dumps(dump_lfd_pair(pair)))
    back = load_lfd_pair(d)
    assert back.provenance == "analytic"
    assert back.fisher_gap == pair.fisher_gap
    assert back.notes == pair.notes
    assert isinstance(back.notes, tuple)
    assert np.array_equal(back.q_inf.mean, pair.q_inf.mean)
    assert np.array_equal(back.q_post.mean, pair.q_post.mean)
    # stderr key is optional on load
    d.pop("fisher_gap_stderr")
    assert load_lfd_pair(d).fisher_gap_stderr == 0.0


def test_lfd_pair_load_revalidates(inf_a, post_a):
    d = dump_lfd_pair(LfdPair(inf_a, post_a, 1.0, "analytic"))
    d["provenance"] = "guessed"
    with pytest.raises(ValueError):
        load_lfd_pair(d)


def test_rho_solution_dump_fields():
    sol = RhoSolution(2.2, ((1.0, -0.5, 0.01),), "monte_carlo",
                      degenerate=False, message="")
    d = dump_rho_solution(sol)
    assert set(d) == {"rho_star", "rho_star_stderr", "method", "degenerate", "message",
                      "h_curve"}
    assert d["rho_star_stderr"] == 0.0
    assert d["rho_star"] == 2.2
    assert d["h_curve"] == [[1.0, -0.5, 0.01]]
    assert json.loads(json.dumps(d)) == d


def test_write_json_is_stable(tmp_path):
    obj = {"b": 2, "a": [1.5, {"z": True, "y": None}]}
    out = tmp_path / "out.json"
    write_json(obj, out)
    raw = out.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    assert raw.index(b'"a"') < raw.index(b'"b"')  # keys sorted
    write_json(obj, out)  # rewriting is byte-identical
    assert out.read_bytes() == raw
