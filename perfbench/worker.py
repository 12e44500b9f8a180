"""One workload process: set up, measure, replay, or trace a workload.

    python3 perfbench/worker.py --workload NAME --seed N --setup
    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--rounds R]
    python3 perfbench/worker.py --workload NAME --seed N --replay

The last line of standard output is one JSON object. `perfbench/run.py`
starts these processes; the worker is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from timing import OpClock, time_reference  # noqa: E402
from workloads import WORKLOADS, Record, VerifyWorkload  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, seconds: float, rounds: int | None, tracer) -> dict:
    clock = OpClock()
    records: list[Record] = []
    r = 0
    while True:
        # stop on normalised time, so the rounds run do not follow host speed
        if rounds is not None:
            if r == rounds:
                break
        elif clock.elapsed_s() >= seconds and len(records) >= workload.minimum_ops:
            break
        for op in workload.round_ops(r):
            fn = op.fn if tracer is None else (lambda fn=op.fn: tracer.op(fn))
            result, error = clock.run(fn)
            records.append(Record(r, op, result, error))
        r += 1
    clock.finish()
    # memory of the timed loop, before the checks allocate
    out = {
        "rounds": r,
        "attempted": len(records),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if isinstance(workload, VerifyWorkload):
        summary = workload.report(records) if tracer is None else tracer.op(
            lambda: workload.report(records))
        out["digest0"] = summary["digest0"]
    problems = workload.check(records)
    if tracer is not None and isinstance(workload, VerifyWorkload):
        problems += workload.check_profiles(tracer.profiles)
    out["problems"] = problems
    out["failed"] = sum(rec.failed for rec in records)

    norm = clock.normalised_ms()
    raw = clock.raw_ms()
    kept = [i for i, rec in enumerate(records) if not rec.failed]
    round_ms = [0.0] * r
    for rec, ms in zip(records, norm):
        round_ms[rec.round] += ms
    out["round_norm_ms"] = round_ms
    out["raw_total_ms"] = sum(raw)
    out["reference_ms"] = clock.reference_ms()
    for name, series in (("", norm), ("raw_", raw)):
        times = [series[i] for i in kept]
        out[name + "mean_ops_per_s"] = len(times) / (sum(times) / 1e3)
        per_round: dict = {}
        for i in kept:
            per_round.setdefault(records[i].round, []).append(series[i])
        out[name + "ops_per_s"] = statistics.median(
            len(ts) / (sum(ts) / 1e3) for ts in per_round.values())
        out[name + "op_ms_p50"] = statistics.median(times)
        out[name + "op_ms_p90"] = statistics.quantiles(times, n=10)[8]
    if tracer is not None:
        out["layers"] = tracer.metrics(len(records), sum(norm) / sum(raw))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=None)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true")
    mode.add_argument("--replay", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup:
        workload.round_ops(0)
        out = {"peak_rss_mb": _peak_rss_mb()}
        # the host's speed right after the set-up, for its normalisation
        references = [time_reference() for _ in range(3)]
        out["reference_s"] = statistics.median(references)
        out["reference_total_s"] = sum(references)
        print(json.dumps(out))
        return 0
    if args.replay:
        if not isinstance(workload, VerifyWorkload):
            parser.error("--replay applies to the verify workloads")
        records = [Record(0, op, op.fn(), None) for op in workload.round_ops(0)]
        print(json.dumps({"digest0": workload.report(records)["digest0"]}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = _measure(workload, args.seconds, args.rounds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
