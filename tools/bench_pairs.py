"""Alternating before/after runs of the benchmark, summarised as one
``BENCH_*.json``.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json

``--parent`` and ``--change`` are checkouts of the two commits, for example
made with ``git archive``.  Each run is ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` inside one checkout, so each
side runs its own program under its own copy of the benchmark, with ``T``
the ``run_seconds`` of the change's ``BENCHMARK.json``.  Every workload of
that file gets ``PAIRS`` pairs; pair ``i`` runs both sides on seed
``FIRST_SEED + i``, even pairs the parent first and odd pairs the change,
so that a drift in the host's speed does not favour one side.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the file
holds both sides' median and quartiles, every run's value, how many pairs
the change won (ties count for neither side), whether the change's median is
worse than the parent's by more than the metric's bound, and whether a gain
would count: wins in at least nine tenths of the pairs and medians that
differ by more than the parent's interquartile range.  It also records the
seeds, the run length, the host's core count, the Python and numpy versions
and each side's ``src/`` line count.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


PAIRS = 10
FIRST_SEED = 101


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def src_lines(tree):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src").rglob("*.py")))


def run_once(tree, workload, seed, seconds):
    """One benchmark run in ``tree``: its metric values, or the reason it failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        return {"correct": False, "exit": proc.returncode,
                "stderr": proc.stderr.strip().splitlines()[-3:]}
    return {"correct": True, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m: v["value"] for m, v in result["metrics"].items()}}


def quartiles(values):
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(q2), "q3": float(q3)}


def summarise(metric, runs):
    """Medians, quartiles, wins and verdicts of one metric over the pairs."""
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(runs["parent"], runs["change"])
             if p["correct"] and c["correct"]]
    if not pairs:
        return {"pairs": 0}
    parent, change = (quartiles([pair[i] for pair in pairs]) for i in (0, 1))
    wins = sum((c > p) if higher else (c < p) for p, c in pairs)
    losses = sum((c < p) if higher else (c > p) for p, c in pairs)
    worse = (parent["median"] - change["median"]) if higher else (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": {**parent, "runs": [p for p, _ in pairs]},
        "change": {**change, "runs": [c for _, c in pairs]},
        "pairs": len(pairs), "change_wins": wins, "parent_wins": losses,
        "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
        "worse_than_bound": worse > metric["bound"] * abs(parent["median"]),
        "gain_counts": wins >= 0.9 * len(pairs) and -worse > spread,
    }


def main(argv=None):
    args = _parse(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = [FIRST_SEED + i for i in range(PAIRS)]
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "run_seconds": seconds, "seeds": seeds, "order": "parent first on even pairs",
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "machine": platform.machine()},
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "workloads": {},
    }
    began = time.time()
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed, seconds))
                print(f"[{time.time() - began:7.0f} s] {workload} seed {seed} {side}: "
                      f"{'correct' if runs[side][-1]['correct'] else 'FAILED'}", flush=True)
        report["workloads"][workload] = {
            "operations": {side: {key: sum(r.get(key, 0) for r in runs[side])
                                  for key in ("attempted", "failed")} for side in runs},
            "failed_runs": {side: [{"seed": s, **r} for s, r in zip(seeds, runs[side])
                                   if not r["correct"]] for side in runs},
            "metrics": {m["name"]: summarise(m, runs) for m in bench["end_to_end"]},
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
