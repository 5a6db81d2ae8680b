"""Seeded benchmark of scoredetect's CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark makes its inputs from
``--seed``, then repeats whole rounds of the workload's CLI stages
(``scoredetect.cli.main``, in-process) until ``--seconds`` have passed,
checks every round's outputs against independent oracles, and prints one
JSON object as its last line.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run in
which the calls into each module's public functions are traced.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per process, so timings do not depend on the BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the pinning)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))

# one cold set-up in a fresh interpreter: import the program and load the
# model descriptions in the JSON file named by argv[2].  A few run after each
# round, so that their median spans the whole run
SETUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import scoredetect, scoredetect.cli
from scoredetect.serialize import load_model
with open(sys.argv[2], encoding="utf-8") as handle:
    for desc in json.load(handle).values():
        load_model(desc)
"""
SETUPS_PER_ROUND = 2

# CPU time of one ``Reference.sample`` on the reference machine when its
# host was quiet: times are reported at that speed (see ``Reference``)
REFERENCE_S = 0.0062
REFERENCE_SAMPLES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "bench_s": "s",
              "path_steps_per_s": "1/s", "lfd_s": "s", "calibrate_s": "s",
              "detect_obs_per_s": "1/s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    return "lines" if metric == "src.lines" else "count"


class Reference:
    """A fixed computation of the benchmark's own, timed right before and
    right after each CLI call to follow the speed of the cores it shares
    with other tenants.

    The host slows its cores for seconds to minutes at a time, in CPU time
    too: whole ``sweep_gauss`` runs took half as long again as others.  So
    a call's CPU time is reported at the reference speed,
    ``cpu * REFERENCE_S / median(samples around the call)``.  A sample
    streams through a 4 MB array and looks up a 50k-entry dict from Python,
    because the cores slow such work about as much as they slow the program
    (more than they slow a small loop that stays in the core's caches).
    Nothing of scoredetect runs in it, so a change to the program moves the
    stage times and not the reference.
    """

    def __init__(self):
        self.array = np.linspace(0.0, 1.0, 1 << 19)
        self.table = {i: i * 0.5 for i in range(50_000)}

    def sample(self):
        t0 = time.process_time()
        total = 0.0
        for _ in range(6):
            total += float((self.array * 1.0001 + 0.5).sum())
        for i in range(0, 50_000, 2):
            total += self.table[i]
        return time.process_time() - t0

    def samples(self):
        return [self.sample() for _ in range(REFERENCE_SAMPLES)]

    @staticmethod
    def scale(samples):
        """Factor that brings a CPU time measured among ``samples`` to the
        reference speed."""
        return REFERENCE_S / statistics.median(samples)


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_setups(models_path):
    """CPU times of fresh interpreters, each from its launch to its exit,
    that set the program up for the models in ``models_path``."""
    times = []
    for _ in range(SETUPS_PER_ROUND):
        t0 = _children_cpu()
        subprocess.run([sys.executable, "-c", SETUP, str(ROOT / "src"), str(models_path)],
                       check=True)
        times.append(_children_cpu() - t0)
    return times


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "scoredetect" / "__init__.py").is_file():
        print(f"error: no scoredetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = RUNS / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    work = workloads.WORKLOADS[args.workload](args.seed, str(out))
    models_path = out / "setup_config.json"
    models_path.write_text(json.dumps(work.models()), encoding="utf-8")

    sys.path.insert(0, str(ROOT / "src"))
    import scoredetect
    import scoredetect.cli
    work.prepare()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(scoredetect)

    stages = work.stages()
    reference = Reference()
    rounds, scales, setups, failures, first_outputs = [], [], [], [], None
    attempted = failed = 0
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < args.seconds:
        times, round_scales = {}, []
        for stage in stages:
            attempted += 1
            span = (lambda: tracer.span(f"cli.{stage.command}")) if tracer else contextlib.nullcontext
            before = reference.samples()
            code, seconds = work.run(stage, scoredetect.cli.main, span)
            round_scales.append(reference.scale(before + reference.samples()))
            times[stage.command] = seconds * round_scales[-1]
            if code != 0:
                failed += len(stages) - len(times) + 1
                attempted += len(stages) - len(times)
                failures.append(f"{stage.command} exited with code {code}")
                break
        else:
            failures += work.check()
            outputs = {f: hashlib.sha256((out / f).read_bytes()).digest()
                       for f in work.output_files()}
            if first_outputs is None:
                first_outputs = outputs
            elif outputs != first_outputs:
                failures.append("outputs differ from the first round's with the same seed")
            scales += round_scales
            rounds.append(round_metrics(work, times, statistics.median(round_scales),
                                        tracer, failures))
            if tracer:
                tracer.save(out / f"trace_round{len(rounds)}.npz")
                tracer.clear()
            else:
                before = reference.samples()
                cold = cold_setups(models_path)
                scale = reference.scale(before + reference.samples())
                setups += [t * scale for t in cold]
        if failures:
            break
    if tracer:
        tracer.uninstall()

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if not rounds:
        return 1
    if tracer:
        metrics = per_layer(rounds)
        metrics["src.lines"] = _src_lines()
        units = {m: _unit(m) for m in metrics}
    else:
        metrics = {m: statistics.median(r[m] for r in rounds)
                   for m in END_TO_END if m not in ("setup_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} CLI calls, {failed} failed, "
          f"median wall_s {wall_s:.4f}, speed scale {min(scales):.3f} to {max(scales):.3f}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in sorted(metrics)},
    }))
    return 0


def round_metrics(work, times, scale, tracer, failures):
    """End-to-end figures of one round, from stage times already at the
    reference speed, plus the traced layers when a tracer is installed,
    scaled by the round's ``scale``.  A traced count that differs from the
    total the outputs imply is added to ``failures``."""
    steps = work.path_steps()
    row = {"wall_s": sum(times.values()), "bench_s": times["bench"], "lfd_s": times["lfd"],
           "calibrate_s": times["calibrate"], "path_steps_per_s": steps / times["bench"],
           "detect_obs_per_s": work.detect_obs() / times["detect"]}
    if tracer is None:
        return row
    layers = {m: v * scale if _unit(m) in ("s", "us") else v
              for m, v in tracer.metrics().items()}
    layers["bench.censored_paths"] = work.censored_paths()
    layers["calibration.h_evals"] = work.h_evals()
    sgd, particle_steps = work.lfd_work()
    for metric, want in (("bench.path_steps", steps), ("detectors.step_calls", work.detect_obs()),
                         ("lfd.sgd_steps", sgd),
                         ("samplers.langevin_particle_steps", particle_steps)):
        # a metric whose functions are gone is not reported, nor checked
        if metric in layers and layers[metric] != want:
            failures.append(f"traced {metric}={layers[metric]}, the outputs imply {want}")
    layers.pop("detectors.step_calls", None)
    row["layers"] = layers
    return row


def per_layer(rounds):
    """Median of each layer's time over the rounds; counts repeat exactly."""
    out = {}
    for metric in rounds[0]["layers"]:
        values = [r["layers"][metric] for r in rounds]
        out[metric] = statistics.median(values) if _unit(metric) in ("s", "us") else values[0]
    return out


if __name__ == "__main__":
    sys.exit(main())
