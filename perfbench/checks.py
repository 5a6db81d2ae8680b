"""Checks of the program's outputs against the oracles.

Each check takes parsed outputs and reference values and returns a list of
failure messages (empty when the outputs pass), so a test can hand it a
perturbed output and see it rejected.
"""

import csv
import math

import numpy as np

from oracles import wald_window


# ---------------------------------------------------------------------------
# parsing the program's outputs


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return [{k: (v if k == "trial" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(handle)]


def read_drifts(path):
    return {row["trial"]: row for row in read_csv(path)}


def parse_fields(text):
    """``key=value`` tokens of a CLI stdout, last occurrence wins."""
    out = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def parse_beta(text, key):
    start = text.index(key + "=[") + len(key) + 2
    return np.array([float(v) for v in text[start:text.index("]", start)].split()])


def path_steps(rows, arl_paths, edd_paths):
    """Path-observations a sweep simulated: every path stays alive until it
    crosses the top threshold (or the cap), so the count is the top row's
    mean stopping times times the path counts."""
    top = rows[-1]
    return round(top["arl"] * arl_paths) + round(top["edd"] * edd_paths)


# ---------------------------------------------------------------------------
# checks


def within(label, value, want, tol):
    if not abs(value - want) <= tol:
        return [f"{label}: {value:.6g} is not within {tol:.3g} of {want:.6g}"]
    return []


def check_drifts(drifts, expected, k=4.0):
    """``expected[trial] = ((pre_mean, pre_se), (post_mean, post_se))`` from
    an oracle; the program's estimates must agree within ``k`` combined
    standard errors."""
    fails = []
    for trial, ((pre, pre_se), (post, post_se)) in expected.items():
        row = drifts.get(trial)
        if row is None:
            fails.append(f"{trial}: no drift row")
            continue
        for phase, want, se in (("pre", pre, pre_se), ("post", post, post_se)):
            tol = k * math.hypot(row[f"{phase}_stderr"], se)
            fails += within(f"{trial} {phase} drift", row[f"{phase}_drift"], want, tol)
    return fails


def check_drift_signs(drifts, trial, k=3.0):
    row = drifts.get(trial)
    if row is None:
        return [f"{trial}: no drift row"]
    fails = []
    if not row["pre_drift"] < -k * row["pre_stderr"]:
        fails.append(f"{trial}: pre-change drift {row['pre_drift']:.4g} is not below -{k:g} se")
    if not row["post_drift"] > k * row["post_stderr"]:
        fails.append(f"{trial}: post-change drift {row['post_drift']:.4g} is not above {k:g} se")
    return fails


def check_sweep(label, rows, post_law=None, arl_bound=True, uncensored=True,
                monotone=True, wald_rows="top"):
    """Properties a sweep must have.

    * ``arl_bound``: ``ARL + 3 se >= exp(omega)`` on uncensored rows, the
      guarantee of a multiplier at or below ``rho*``;
    * ``uncensored``: no path reached the cap;
    * ``monotone``: ARL and EDD rise strictly with omega;
    * ``post_law``: ``(mean, var)`` of the post-change increment; the EDD of
      the top row (``wald_rows='top'``) or of every uncensored row
      (``'all'``) must lie in :func:`oracles.wald_window`.
    """
    fails = []
    if not rows:
        return [f"{label}: empty sweep"]
    for r in rows:
        tag = f"{label} omega={r['omega']:g}"
        if uncensored and (r["arl_censored"] or r["edd_censored"]):
            fails.append(f"{tag}: censored paths")
        if arl_bound and not r["arl_censored"] and r["arl"] + 3 * r["arl_stderr"] < math.exp(r["omega"]):
            fails.append(f"{tag}: ARL {r['arl']:.4g} below exp(omega)={math.exp(r['omega']):.4g}")
    if monotone:
        for key in ("arl", "edd"):
            vals = [r[key] for r in rows]
            if not all(b > a for a, b in zip(vals, vals[1:])):
                fails.append(f"{label}: {key} does not rise strictly with omega: {vals}")
    if post_law is not None:
        checked = rows[-1:] if wald_rows == "top" else [r for r in rows if not r["edd_censored"]]
        for r in checked:
            lo, hi = wald_window(r["omega"], *post_law)
            if not lo <= r["edd"] <= hi:
                fails.append(f"{label} omega={r['omega']:g}: EDD {r['edd']:.4g} outside "
                             f"the Wald window [{lo:.4g}, {hi:.4g}]")
    return fails


def check_matched_arl(robust, nonrobust, points=25, floor=20.0):
    """Robust EDD below non-robust EDD at every matched ARL of the common
    range above ``floor``, interpolated log-log as in acceptance criterion
    11.  Below an ARL of about 20 the two curves meet within Monte Carlo
    error, so a strict order there would test the noise."""
    arl_r = np.array([r["arl"] for r in robust])
    arl_n = np.array([r["arl"] for r in nonrobust])
    lo, hi = max(arl_r[0], arl_n[0], floor), min(arl_r[-1], arl_n[-1])
    if not hi > lo:
        return [f"no common ARL range: robust [{arl_r[0]:.4g}, {arl_r[-1]:.4g}], "
                f"non-robust [{arl_n[0]:.4g}, {arl_n[-1]:.4g}]"]
    targets = np.log(np.geomspace(lo, hi, points))
    edd_r = np.interp(targets, np.log(arl_r), np.log([r["edd"] for r in robust]))
    edd_n = np.interp(targets, np.log(arl_n), np.log([r["edd"] for r in nonrobust]))
    bad = np.flatnonzero(edd_r >= edd_n)
    if bad.size:
        j = int(bad[0])
        return [f"robust EDD {math.exp(edd_r[j]):.4g} not below non-robust "
                f"{math.exp(edd_n[j]):.4g} at ARL {math.exp(targets[j]):.4g}"]
    return []


def check_detect(fields, oracle_stop, oracle_stat, change_point, rel=1e-9):
    """The alarm equals the oracle recursion's first crossing, with the
    statistic within ``rel``, and falls after the change."""
    if oracle_stop is None:
        return ["the oracle recursion never crosses the threshold"]
    stop = fields.get("stopped_at")
    if stop is None or stop == "none":
        return [f"detect raised no alarm (oracle: {oracle_stop})"]
    fails = []
    if int(stop) != oracle_stop:
        fails.append(f"detect stopped at {stop}, the oracle at {oracle_stop}")
    stat = float(fields["statistic"])
    if not abs(stat - oracle_stat) <= rel * abs(oracle_stat):
        fails.append(f"statistic {stat!r} differs from the oracle's {oracle_stat!r}")
    if not int(stop) > change_point:
        fails.append(f"alarm at {stop} is not after the change at {change_point}")
    return fails


def check_rho_bracket(rho, tol, h_at, program_n):
    """``[rho - tol, rho + tol]`` brackets the root of the oracle's ``h``
    within 3 standard errors of the difference between the oracle's
    estimate and the program's own, made from ``program_n`` draws.
    ``h_at(r)`` returns the oracle's ``(h, se, n)``."""
    fails = []
    for r, sign, word in ((rho - tol, 1, "large"), (rho + tol, -1, "small")):
        h, se, n = h_at(r)
        se = se * math.sqrt(1.0 + n / program_n)
        if sign * h > 3 * se:
            fails.append(f"oracle h({r:.5g}) = {h:.3g} is beyond 3 se ({se:.2g}): rho* too {word}")
    return fails


def check_learned_beta(avg_inf, avg_post, nearest_inf, nearest_post, floor=0.9):
    fails = []
    for side, avg, want in (("pre", avg_inf, nearest_inf), ("post", avg_post, nearest_post)):
        if int(np.argmax(avg)) != want or not avg.max() > floor:
            fails.append(f"{side}-change average beta {np.round(avg, 4).tolist()} does not "
                         f"peak above {floor} on member {want}")
    return fails


def check_verdict(fields):
    verdict = fields.get("drift_condition")
    return [] if verdict == "PASS" else [f"drift_condition={verdict}"]
