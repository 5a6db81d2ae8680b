"""JSON (de)serialization for models, learned pairs, and calibration output.

Model dictionaries are the exchange format used by the CLI config files;
dimensions and simplex constraints are re-validated on load by the model
constructors themselves.
"""

import json

import numpy as np

from .calibration import RhoSolution
from .lfd import BetaNetwork, LfdPair
from .models import Gaussian, GaussianMixture, Gbrbm, ModelError, ScoreMixture

__all__ = [
    "load_model",
    "load_lfd_pair",
    "dump_lfd_pair",
    "dump_rho_solution",
    "write_json",
]


def float_array(value, name):
    """``value`` as a float array, or a ModelError naming ``name``."""
    try:
        return np.asarray(value, float)
    except (TypeError, ValueError):
        raise ModelError(f"{name} must be an array of numbers") from None


def load_model(d: dict):
    """Rebuild a model from its dictionary form (see ``Model.to_dict``)."""
    if not isinstance(d, dict) or "type" not in d:
        raise ModelError("model description must be a dict with a 'type' key")
    kind = d["type"]
    try:
        if kind == "gaussian":
            return Gaussian(float_array(d["mean"], "mean"), float_array(d["cov"], "cov"))
        if kind == "gmm":
            comps = [load_model(c) for c in d["components"]]
            return GaussianMixture(comps, float_array(d["weights"], "weights"))
        if kind == "gbrbm":
            return Gbrbm(*(float_array(d[key], key)
                           for key in ("weights", "visible_bias", "hidden_bias")))
        if kind == "score_mixture":
            basis = [load_model(b) for b in d["basis"]]
            beta = d["beta"]
            if isinstance(beta, dict):
                beta = BetaNetwork.from_dict(beta)
                if {b.dim for b in basis} != {beta.dim}:
                    raise ModelError(f"beta.dim {beta.dim} does not match the basis dimension")
                if beta.outputs != len(basis):
                    raise ModelError(f"beta.outputs {beta.outputs} != {len(basis)} basis members")
            else:
                beta = float_array(beta, "beta")
            return ScoreMixture(basis, beta)
    except KeyError as exc:
        raise ModelError(f"model description missing field {exc}") from None
    raise ModelError(f"unknown model type {kind!r}")


def dump_lfd_pair(pair: LfdPair) -> dict:
    return {
        "provenance": pair.provenance,
        "fisher_gap": pair.fisher_gap,
        "fisher_gap_stderr": pair.fisher_gap_stderr,
        "notes": list(pair.notes),
        "q_inf": pair.q_inf.to_dict(),
        "q_post": pair.q_post.to_dict(),
    }


def _typed(d, key, kinds, default=None):
    value = d[key] if default is None else d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ModelError(f"'{key}' has the wrong type: {value!r}")
    return value


def load_lfd_pair(d: dict) -> LfdPair:
    return LfdPair(
        q_inf=load_model(d["q_inf"]),
        q_post=load_model(d["q_post"]),
        fisher_gap=float(_typed(d, "fisher_gap", (int, float))),
        provenance=d["provenance"],
        fisher_gap_stderr=float(_typed(d, "fisher_gap_stderr", (int, float), 0.0)),
        notes=tuple(_typed(d, "notes", list, [])),
    )


def dump_rho_solution(sol: RhoSolution) -> dict:
    return {
        "rho_star": sol.rho_star,
        "rho_star_stderr": sol.rho_star_stderr,
        "method": sol.method,
        "degenerate": sol.degenerate,
        "message": sol.message,
        "h_curve": [list(pt) for pt in sol.h_curve],
    }


def write_json(obj: dict, path) -> None:
    """Stable JSON output: sorted keys, fixed separators, LF newline."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
