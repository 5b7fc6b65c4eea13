"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10 [--trace 0|1] --out FILE

Each run is a fresh ``bench/run.py`` process with BENCHMARK.json's
``run_seconds``.  The summary gives, per workload and metric, every value,
the median and the quartile spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound.  FILE also keeps each run's environment record.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, **result, "env": record["env"], "passes": record["passes"],
            "failures": record["failures"]}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / median
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"trace": args.trace, "run_seconds": spec["run_seconds"], "workloads": {}}
    # Seeds outside, workloads inside: a slow spell of the machine then
    # lands on every workload instead of on all runs of one.
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {workload: [] for workload in workloads}
    for seed in args.seeds:
        for workload in workloads:
            runs[workload].append(run_once(workload, seed, spec["run_seconds"], args.trace))
    for workload in workloads:
        metrics = summarise(runs[workload], bounds)
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs[workload]}
        for name, m in metrics.items():
            spread = f"{m['spread']:.4f}" if "spread" in m else "-"
            print(f"{workload:11s} {name:42s} median {m['median']:<12.6g} {m['unit']:6s} "
                  f"spread {spread} bound {m.get('bound', '-')}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
