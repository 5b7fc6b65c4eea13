"""Benchmark of the percoperm CLI and library.

    python3 bench/run.py --workload census|dynamics|bracketing --seed N --seconds S --trace 0|1

Runs the workload's operation list as a closed loop with one client,
pass after pass, for about S seconds, and checks every output against the
benchmark's own references.  The program is imported from ``src/`` of the
checkout this file sits in.  With ``--trace 0`` it prints the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it runs the list once
untraced and once traced and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  See
README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_FIRST, SETUP_BETWEEN, SETUP_MIN = 3, 2, 11  # imports before, between and at least
UNTRACED_PASSES = 2  # in traced mode, before the one traced pass
# Each command once on a tiny input before timing, so one-off imports
# inside the program do not land in the first measured operation.
WARMUP = (("verify", "3"), ("count", "3", "--parallel"), ("sequence", "kings", "3"),
          ("percolate", "213", "--format", "json"), ("bracket", "213", "--format", "json"),
          ("comps", "213", "--format", "json"))


@dataclass
class Record:
    op: workloads.Op
    seconds: float
    error: str | None = None
    rejected: bool = False  # the output was produced but its check failed
    out_bytes: int = 0
    work: dict = field(default_factory=dict)


def load_program():
    """Import percoperm.cli from this checkout's src/, or exit 2."""
    if not (SRC / "percoperm" / "cli.py").is_file():
        print("error: no program source at src/percoperm", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import percoperm.cli
    if Path(percoperm.cli.__file__).resolve().parent != SRC / "percoperm":
        print(f"error: imported percoperm from {percoperm.cli.__file__}, not from src/", file=sys.stderr)
        sys.exit(2)
    return percoperm.cli


def setup_seconds(repeats: int) -> list[float]:
    """Times to import percoperm.cli, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import percoperm.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return times


class Runner:
    def __init__(self, cli_module) -> None:
        from click.testing import CliRunner
        self.invoker = CliRunner()
        self.main = cli_module.main

    def run(self, op: workloads.Op, index: int, tracer: Tracer | None = None) -> Record:
        try:
            args = op.args() if callable(op.args) else op.args
        except workloads.DependencyFailed as exc:
            return Record(op, 0.0, f"dependency: {exc}")
        if op.target == "cli":
            call = lambda: self.invoker.invoke(self.main, list(args))
        else:  # looked up at call time, so a traced pass calls the wrapper
            module, name = op.target.rsplit(".", 1)
            func = getattr(sys.modules[f"percoperm.{module}"], name)
            call = lambda: func(*args)
        span = tracer.span("cli" if op.target == "cli" else "lib", index) if tracer else contextlib.nullcontext()
        result = error = None
        start = time.perf_counter()
        with span:
            try:
                result = call()
            except Exception as exc:  # a library call that raises is a failed operation
                error = f"{type(exc).__name__}: {exc}"
        record = Record(op, time.perf_counter() - start, error)
        if op.target == "cli":
            output = result.stdout
            record.out_bytes = len(result.stdout_bytes)
            exc = result.exception
            if exc is not None and not isinstance(exc, SystemExit):
                record.error = f"{type(exc).__name__}: {exc}"
            elif result.exit_code != 0:
                record.error = f"exit code {result.exit_code}: {result.output.strip()[:100]}"
            elif "Traceback" in result.output:
                record.error = "traceback in output"
        else:
            output = result
        if record.error is None:
            try:
                record.work = op.check(output) or {}
            except Exception as exc:  # any check failure, malformed output included
                record.error = f"rejected: {type(exc).__name__}: {exc}"
                record.rejected = True
        if record.error:
            record.error = record.error[:200]
        return record


def run_pass(runner: Runner, ops, tracer: Tracer | None = None) -> list[Record]:
    return [runner.run(op, i, tracer) for i, op in enumerate(ops)]


def typical_pass(passes: list[list[Record]]) -> list[tuple[Record, float]]:
    """Each operation with its median time over the passes.

    On a shared machine the speed of a core swings by a quarter or more
    within seconds.  Over the passes of a run, the median time of an
    operation varies less from run to run than its fastest time, which
    depends on whether the run happened to catch a quiet moment.
    """
    return [(column[0], statistics.median(r.seconds for r in column)) for column in zip(*passes)]


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_seconds(passes: list[list[Record]], label: str) -> float:
    times = [t for r, t in typical_pass(passes) if r.op.label == label and not r.error]
    return statistics.median(times) if times else 0.0


def end_to_end(passes: list[list[Record]], setup: list[float], rss_mb: float) -> dict[str, float]:
    typical = typical_pass(passes)
    latencies = [t for r, t in typical if not r.error]
    attempted = sum(len(records) for records in passes)
    failed = sum(1 for records in passes for r in records if r.error)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(t for _, t in typical),
        "op_p50_ms": nearest_rank(latencies, 0.5) * 1e3,
        "op_p90_ms": nearest_rank(latencies, 0.9) * 1e3,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(untraced: list[list[Record]], traced: list[Record], tracer: Tracer) -> dict[str, float]:
    """Every value a per_layer metric of BENCHMARK.json can name."""
    values: dict[str, float] = {}
    totals = tracer.totals()
    for name, (self_s, calls) in totals.items():
        values[f"{name}.s"] = self_s
        values[f"{name}.calls"] = calls
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(s for name, (s, _) in totals.items() if name.startswith(layer + "."))
    values["cli.self_s"] = totals.get("cli", (0.0, 0))[0]
    values["cli.output_bytes"] = sum(r.out_bytes for r in traced)
    values["percolation.steps"] = sum(r.work.get("steps", 0) for r in traced if not r.error)

    typical = typical_pass(untraced)
    wall = sum(t for _, t in typical)
    traced_wall = sum(r.seconds for r in traced)
    accounted = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["cli.self_s"]
    values["trace.overhead_frac"] = traced_wall / wall - 1
    values["trace.accounted_frac"] = accounted / traced_wall

    values["verify_s"] = op_seconds(untraced, "verify")
    values["count_serial_s"] = op_seconds(untraced, "count")
    values["count_parallel_s"] = op_seconds(untraced, "count --parallel")
    parallel = values["count_parallel_s"] > 0
    values["counting.parallel_speedup"] = values["count_serial_s"] / values["count_parallel_s"] if parallel else 0.0
    values["counting.workers"] = sys.modules["percoperm.counting"].max_workers() if parallel else 0
    values["steps_per_s"] = sum(r.work.get("steps", 0) for r, _ in typical if not r.error) / wall
    values["elements_per_s"] = sum(r.op.n for r, _ in typical if not r.error) / wall
    everything = [r for records in untraced for r in records] + traced
    values["fail_frac"] = sum(1 for r in everything if r.error) / len(everything)
    return values


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/**/*.py, so a result names its code even outside git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PERCOPERM_THREADS": os.environ["PERCOPERM_THREADS"],
        "click": importlib.metadata.version("click"),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "platform": platform.platform(),
    }


def failures(passes: list[list[Record]]) -> list[dict]:
    """Failed operations of the first pass, one entry each (later passes repeat them)."""
    return [{"op": i, "label": r.op.label, "family": r.op.family, "n": r.op.n,
             "deep": r.op.deep, "error": r.error}
            for i, r in enumerate(passes[0]) if r.error]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    cli_module = load_program()
    os.environ["PERCOPERM_THREADS"] = str(len(os.sched_getaffinity(0)))
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    OUT.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(cli_module)
    for warm in WARMUP:
        runner.invoker.invoke(runner.main, list(warm))
    # Set-up is timed in batches between the passes, so that a slow spell of
    # the machine does not cover every sample; like the operations, it is
    # reported at its median.
    setup = [] if args.trace else setup_seconds(SETUP_FIRST)
    started = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(runner, ops))
        if not args.trace:
            setup += setup_seconds(SETUP_BETWEEN)
        if len(passes) == 1:
            # Later passes only add allocator fragmentation, and their number
            # depends on the machine's speed.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            if len(passes) == UNTRACED_PASSES:
                break
        elif (time.perf_counter() - started) * (len(passes) + 1) / len(passes) > args.seconds:
            break  # one more pass would run past --seconds
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(runner, ops, tracer)
        values = per_layer(passes, traced, tracer)
        tracer.write(OUT / f"{args.workload}.spans")
        everything = passes + [traced]
    else:
        setup += setup_seconds(max(0, SETUP_MIN - len(setup)))
        values = end_to_end(passes, setup, rss_mb)
        everything = passes

    # A layer function a workload never calls has no span: its time and calls are 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if args.trace else values[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    attempted = sum(len(records) for records in everything)
    failed = sum(1 for records in everything for r in records if r.error)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "passes": len(passes), "env": env, "metrics": metrics,
              "attempted": attempted, "failed": failed, "failures": failures(everything)}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    correct = not any(r.rejected for records in everything for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
