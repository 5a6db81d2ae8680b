"""Each workload's checks pass on the program's outputs and reject a
perturbed copy of them.  The pipelines run at reduced sizes."""

import contextlib
import csv
import io
import json

import pytest

import workloads
from scoredetect.cli import main as cli_main


class SmallSweep(workloads.SweepGauss):
    verify_n, calibrate_n, stream_len, post_len = 20_000, 100_000, 3_000, 1_000

    def trials(self):
        robust, nonrobust = super().trials()
        for trial in (robust, nonrobust):
            trial.update(arl_paths=512, edd_paths=512, drift_n=20_000)
        robust["omegas"] = [0.66, 1.21, 1.98]
        nonrobust["omegas"] = [2.0, 4.0, 8.0, 16.0]
        return [robust, nonrobust]


class SmallCalib(workloads.CalibDetect):
    verify_n, stream_len = 20_000, 20_000


class SmallRbm(workloads.RbmRobust):
    verify_n = calibrate_n = 5_000
    oracle_n, stream_pre, stream_post = 10_000, 1_000, 500

    def trials(self):
        [trial] = super().trials()
        trial.update(drift_n=5_000, arl_paths=64, edd_paths=64, cap=5)
        return [trial]


def run_pipeline(cls, tmp_path_factory):
    work = cls(7, str(tmp_path_factory.mktemp(cls.__name__)))
    work.prepare()
    for stage in work.stages():
        code, _ = work.run(stage, cli_main)
        assert code == 0, work.stdout.get(stage.command)
    assert work.check() == []
    return work


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return run_pipeline(SmallSweep, tmp_path_factory)


@pytest.fixture(scope="module")
def calib(tmp_path_factory):
    return run_pipeline(SmallCalib, tmp_path_factory)


@pytest.fixture(scope="module")
def rbm(tmp_path_factory):
    return run_pipeline(SmallRbm, tmp_path_factory)


def edit_csv(row_edit):
    def edit(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        row_edit(rows)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    return edit


def edit_json(key, fn):
    def edit(text):
        d = json.loads(text)
        d[key] = fn(d[key])
        return json.dumps(d)
    return edit


def scale(row, key, factor):
    row[key] = str(float(row[key]) * factor)


@contextlib.contextmanager
def perturbed(work, target, edit):
    """Apply ``edit`` to an output file, or to a stage's stdout given as
    ``stdout:<command>``, and restore it afterwards."""
    if target.startswith("stdout:"):
        command = target.split(":", 1)[1]
        saved = work.stdout[command]
        work.stdout[command] = edit(saved)
        try:
            yield
        finally:
            work.stdout[command] = saved
        return
    path = work.path(target)
    with open(path, encoding="utf-8") as handle:
        saved = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(edit(saved))
    try:
        yield
    finally:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(saved)


def rejects(work, target, edit, message):
    with perturbed(work, target, edit):
        fails = work.check()
    assert any(message in f for f in fails), fails


def bump_stop(text):
    fields = dict(tok.split("=") for tok in text.split())
    return text.replace(f"stopped_at={fields['stopped_at']}",
                        f"stopped_at={int(fields['stopped_at']) + 1}")


def nudge_statistic(text, factor):
    value = dict(tok.split("=") for tok in text.split())["statistic"]
    return text.replace(f"statistic={value}", f"statistic={float(value) * factor!r}")


SWEEP_CASES = [
    ("lfd.json", lambda t: t.replace("-0.25", "-0.3", 1), "lfd q_inf mean"),
    ("stdout:lfd", lambda t: t.replace("drift_condition=PASS", "drift_condition=FAIL"),
     "drift_condition=FAIL"),
    ("calibration.json", edit_json("rho_star", lambda r: r + 0.5), "calibrate rho_star"),
    ("drifts.csv", edit_csv(lambda rows: scale(rows[0], "pre_drift", 0.5)), "robust pre drift"),
    ("robust_sweep.csv", edit_csv(lambda rows: rows[1].update(arl=rows[0]["arl"])),
     "arl does not rise strictly"),
    ("robust_sweep.csv", edit_csv(lambda rows: rows[0].update(arl_censored="3")),
     "censored paths"),
    ("robust_sweep.csv", edit_csv(lambda rows: rows[0].update(arl="0.5")),
     "below exp(omega)"),
    ("robust_sweep.csv", edit_csv(lambda rows: scale(rows[-1], "edd", 3.0)),
     "outside the Wald window"),
    ("nonrobust_sweep.csv", edit_csv(lambda rows: [scale(r, "edd", 0.3) for r in rows]),
     "not below non-robust"),
    ("stdout:detect", bump_stop, "the oracle at"),
]


@pytest.mark.parametrize("target, edit, message", SWEEP_CASES,
                         ids=[c[2] for c in SWEEP_CASES])
def test_sweep_gauss_checks_reject_perturbed_outputs(sweep, target, edit, message):
    rejects(sweep, target, edit, message)


CALIB_CASES = [
    ("calibration.json", edit_json("rho_star", lambda r: r + 0.03), "calibrate rho_star"),
    ("stdout:detect", lambda t: nudge_statistic(t, 1 + 1e-7), "differs from the oracle"),
    ("stdout:detect", bump_stop, "the oracle at"),
    ("robust_sweep.csv", edit_csv(lambda rows: rows[-1].update(edd_censored="1")),
     "censored paths"),
]


@pytest.mark.parametrize("target, edit, message", CALIB_CASES,
                         ids=[c[2] for c in CALIB_CASES])
def test_calib_detect_checks_reject_perturbed_outputs(calib, target, edit, message):
    rejects(calib, target, edit, message)


def swap_post_beta(text):
    start = text.index("avg_beta_post=[") + len("avg_beta_post=[")
    end = text.index("]", start)
    return text[:start] + " ".join(reversed(text[start:end].split())) + text[end:]


RBM_CASES = [
    ("stdout:lfd", swap_post_beta, "does not peak"),
    ("stdout:lfd", lambda t: t.replace("drift_condition=PASS", "drift_condition=INCONCLUSIVE"),
     "drift_condition=INCONCLUSIVE"),
    ("calibration.json", edit_json("rho_star", lambda r: 1.5 * r), "rho* too large"),
    ("calibration.json", edit_json("rho_star", lambda r: 0.6 * r), "rho* too small"),
    ("drifts.csv", edit_csv(lambda rows: scale(rows[0], "post_drift", -1.0)),
     "post-change drift"),
    ("drifts.csv", edit_csv(lambda rows: scale(rows[0], "pre_drift", 0.3)), "learned pre drift"),
    ("learned_sweep.csv", edit_csv(lambda rows: rows[0].update(edd="40", edd_censored="0")),
     "outside the Wald window"),
    ("stdout:detect", bump_stop, "the oracle at"),
]


@pytest.mark.parametrize("target, edit, message", RBM_CASES,
                         ids=[c[2] for c in RBM_CASES])
def test_rbm_robust_checks_reject_perturbed_outputs(rbm, target, edit, message):
    rejects(rbm, target, edit, message)
