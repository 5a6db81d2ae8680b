"""Reference figures: every workload over ten seeds, one process per run.

    python3 perfbench/reference.py [--seeds 1-10] [--trace 0|1]

Runs each workload of ``BENCHMARK.json`` for its ``run_seconds`` and prints,
per workload and metric, the median, the quartiles and the spread
(quartile distance over median), as a markdown table.  The figures in
README.md come from this command.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _fmt(value):
    """Counts in full, measurements to six significant digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in (w["name"] for w in SPEC["workloads"]):
        values, units, shares = {}, {}, set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", args.trace],
                capture_output=True, text=True, cwd=HERE.parent, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect outputs\n{proc.stderr}")
            shares.add(result["failed"] / result["attempted"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            print(f"{workload} seed {seed}: {lines[-2]}", file=sys.stderr, flush=True)
        for metric in sorted(values):
            v = values[metric]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {workload} | {metric} | {units[metric]} | {_fmt(med)} | {_fmt(q1)} | "
                  f"{_fmt(q3)} | {spread:.3f} |", flush=True)
        print(f"{workload}: failed share {sorted(shares)}", file=sys.stderr)


if __name__ == "__main__":
    main()
