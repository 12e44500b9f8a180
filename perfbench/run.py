"""Benchmark of the dualpiped verifier: one workload per call, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
With --trace 0 the last line carries the end-to-end metrics; with --trace 1
the per-layer metrics of a traced run. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from timing import REFERENCE_NOMINAL_MS  # noqa: E402

WORKLOAD_NAMES = ("verify-float-d5", "verify-exact-d3", "witness-certify", "sections-highdim")
SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 160


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # numpy's BLAS would add a thread per core; keep to the main thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, timeout: float = CHILD_TIMEOUT_S) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_child_env(),
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran over {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _setup_seconds(workload: str, seed: int) -> tuple:
    """Median over fresh launches that import dualpiped and build the inputs.

    One untimed launch first writes the bytecode caches and warms the page
    cache. Each launch times the reference computation itself once its
    inputs are built; that time is taken off the launch and normalises it.
    """
    args = ["--workload", workload, "--seed", str(seed), "--setup"]
    _worker(args)
    normalised, raw, rss = [], [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        out = _worker(args)
        elapsed = time.perf_counter() - start - out["reference_total_s"]
        raw.append(elapsed)
        normalised.append(elapsed * (REFERENCE_NOMINAL_MS / 1e3) / out["reference_s"])
        rss.append(out["peak_rss_mb"])
    return statistics.median(normalised), statistics.median(raw), statistics.median(rss)


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    base = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        setup_s, setup_raw, setup_rss = _setup_seconds(workload, seed)
        main = _worker(base + ["--seconds", str(seconds)])
        problems = list(main["problems"])
        if "digest0" in main:
            replay = _worker(base + ["--replay"])
            if replay["digest0"] != main["digest0"]:
                problems.append("report payload of round 0 differs in a second process")
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (main["ops_per_s"], "1/s"),
            "op_ms_p50": (main["op_ms_p50"], "ms"),
            "op_ms_p90": (main["op_ms_p90"], "ms"),
            "setup_rss_mb": (setup_rss, "MB"),
        }
        raw = {
            "setup_s": setup_raw,
            "ops_per_s": main["raw_ops_per_s"],
            "mean_ops_per_s": main["mean_ops_per_s"],
            "raw_mean_ops_per_s": main["raw_mean_ops_per_s"],
            "op_ms_p50": main["raw_op_ms_p50"],
            "op_ms_p90": main["raw_op_ms_p90"],
            "peak_rss_mb": main["peak_rss_mb"],
            "reference_ms": main["reference_ms"],
            "rounds": main["rounds"],
        }
    else:
        main = _worker(base + ["--seconds", str(seconds)])
        # half the rounds suffice for per-layer figures, which carry no bound
        rounds = max(1, main["rounds"] // 2)
        traced = _worker(base + ["--trace", "--rounds", str(rounds)])
        problems = list(main["problems"]) + list(traced["problems"])
        if main.get("digest0") != traced.get("digest0"):
            problems.append("report payload differs between the plain and the traced process")
        if traced["failed"] * main["attempted"] != main["failed"] * traced["attempted"]:
            problems.append("the traced process failed another share of operations")
        units = _layer_units()
        metrics = {name: (value, units[name]) for name, value in traced["layers"].items()}
        plain_ms = sum(main["round_norm_ms"][:rounds])
        overhead = 100.0 * (sum(traced["round_norm_ms"]) / plain_ms - 1.0)
        metrics["trace.overhead_pct"] = (overhead, "%")
        # peak memory of the plain process; the traced one holds trace records
        metrics["process.peak_rss_mb"] = (main["peak_rss_mb"], "MB")
        raw = {
            "plain_total_ms": main["raw_total_ms"],
            "traced_total_ms": traced["raw_total_ms"],
            "rounds": main["rounds"],
            "traced_rounds": rounds,
        }
    result = {
        "correct": not problems,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, raw, problems


def _layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dualpiped benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "dualpiped" / "__init__.py").is_file():
        print("error: run from the root of a dualpiped checkout (src/dualpiped is missing)",
              file=sys.stderr)
        return 2
    try:
        result, raw, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"raw": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
