"""The traced run reports every per-layer metric of BENCHMARK.json, and
leaves out the metrics of a wrapped function that is gone without marking
the run incorrect.  The pipeline runs at reduced sizes."""

import json

import pytest

import run
import tracing
import workloads
from test_checks import SmallSweep

PER_LAYER = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
# the metrics that need bench.batch_scores traced
INCREMENT = {"detectors.increment_s", "detectors.increment_calls", "detectors.increment_obs",
             "bench.path_steps", "bench.shard_steps"}


def traced_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "sweep_gauss", SmallSweep)
    monkeypatch.setattr(run, "RUNS", tmp_path)
    argv = ["--workload", "sweep_gauss", "--seed", "7", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path, capsys):
    result = traced_run(monkeypatch, tmp_path, capsys)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER


@pytest.fixture
def without_bench_batch_scores(monkeypatch):
    """The tracer finds no ``scoredetect.bench.batch_scores``, as after a
    change that renames it; the program still calls it, untraced."""
    install = tracing.Tracer.install

    def install_without(self, package):
        with monkeypatch.context() as patch:
            patch.delattr(package.bench, "batch_scores")
            install(self, package)

    monkeypatch.setattr(tracing.Tracer, "install", install_without)


def test_traced_run_leaves_out_the_metrics_of_a_missing_function(
        without_bench_batch_scores, monkeypatch, tmp_path, capsys):
    result = traced_run(monkeypatch, tmp_path, capsys)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER - INCREMENT
