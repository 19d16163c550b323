#!/usr/bin/env python3
"""edcert benchmark: run one workload (or all four) and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run starts a fresh worker process (bench/worker.py) that imports edcert
from ``src/`` and calls ``edcert.cli.main(argv)`` once per operation, in
whole passes over the workload's operation list, for about ``--seconds``
seconds.  Set-up is timed separately, as the median of several process
starts.  Times are scaled to a fixed speed of the machine by a reference loop
timed next to them (see worker.py); the readable lines also give them as
measured.  After the worker has ended, every output is checked against
independent references (bench/check.py).  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the worker runs a plain pass, a traced pass and a second plain
pass, and the JSON object carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
SETUP_PROBES = 8  # before and again after the worker: sixteen set-up samples
RUN_TIMEOUT_S = 170
SCALE_LOOPS = 2  # an operation is scaled by up to this many reference loops on each side
P90_MIN_OPS = 100  # a 90th percentile needs at least ten samples above it

sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_S, reference_loop  # noqa: E402


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _start_worker(*extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns it and its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *extra], cwd=ROOT, env=_worker_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if not line or not json.loads(line).get("ready"):
        proc.kill()
        proc.wait()
        raise BenchError("worker failed to import edcert")
    return proc, setup


def _probe_setup() -> list[float]:
    """Set-up times, each scaled to REFERENCE_S by reference loops on both sides."""
    samples = []
    before = reference_loop()
    for _ in range(SETUP_PROBES):
        probe, setup = _start_worker("--probe")
        probe.communicate()
        after = reference_loop()
        samples.append(setup * 2 * REFERENCE_S / (before + after))
        before = after
    return samples


def run_worker(ops, seconds: int, trace: bool) -> tuple[list[float], dict]:
    """Set-up samples are taken on both sides of the run, so that their median
    sees the machine over the same stretch of time as the passes do."""
    samples = _probe_setup()
    proc, _ = _start_worker()
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps({"ops": [list(op.argv) for op in ops], "seconds": seconds, "trace": trace}) + "\n")
        proc.stdin.close()
        results, loops, done = [], [], None
        for line in proc.stdout:
            msg = json.loads(line)
            if msg.get("done"):
                done = msg
            elif "loops" in msg:
                loops.append(msg["loops"])
            else:
                results.append(msg)
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if done is None:
        raise BenchError(f"worker ended without finishing (exit code {proc.returncode})")
    samples += _probe_setup()
    for r in results:
        i, near = r["i"], loops[r["pass"]]
        r["raw_ms"] = (r["t1"] - r["t0"]) * 1000.0
        r["ms"] = r["raw_ms"] * REFERENCE_S / statistics.mean(near[max(0, i + 1 - SCALE_LOOPS): i + 1 + SCALE_LOOPS])
    done["results"] = results
    return samples, done


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workloads.build(name, seed)
    setup_samples, done = run_worker(ops, seconds, trace)
    results = done["results"]
    verdicts: dict[tuple, str | None] = {}
    outputs: dict[int, set] = {}
    failures: dict[int, str] = {}
    failed = 0
    for r in results:
        op = ops[r["i"]]
        key = (r["i"], r["rc"], r["out"], r["err"])
        if key not in verdicts:  # identical outputs get identical verdicts
            verdicts[key] = check.check(op, r["rc"], r["out"], r["err"])
        outputs.setdefault(r["i"], set()).add((r["rc"], r["out"]))
        if verdicts[key] is not None:
            failed += 1
            failures[r["i"]] = verdicts[key]
    nondeterministic = [ops[i] for i, outs in outputs.items() if len(outs) > 1]
    unexpected = {i: why for i, why in failures.items() if ops[i].argv not in workloads.KNOWN_FAULTS}
    correct = not nondeterministic and not unexpected and len(results) == len(ops) * done["passes"]

    walls = [sum(r["ms"] for r in results if r["pass"] == k) / 1000.0 for k in range(done["passes"])]
    latencies = [r["ms"] for r in results]
    per_op: dict[int, list[float]] = {}
    for r in results:
        per_op.setdefault(r["i"], []).append(r["ms"])
    report = {
        "workload": name, "seed": seed, "passes": len(walls), "ops_per_pass": len(ops),
        "correct": correct, "attempted": len(results), "failed": failed,
        "failures": [(" ".join(ops[i].argv), ops[i].argv in workloads.KNOWN_FAULTS, why)
                     for i, why in sorted(failures.items())],
        "nondeterministic": [" ".join(op.argv) for op in nondeterministic],
    }
    if trace:
        metrics = dict(done["trace"])
        metrics["trace.overhead_s"] = walls[1] - (walls[0] + walls[2]) / 2
        report["metrics"] = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        report["metrics"] = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(statistics.median(v) for v in per_op.values()), "unit": "ms"},
            "peak_rss_mb": {"value": done["peak_rss_kb"] / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
        if len(latencies) >= P90_MIN_OPS:
            report["op_p90_ms"] = _quantile(latencies, 0.9)
        raw_per_op: dict[int, list[float]] = {}
        for r in results:
            raw_per_op.setdefault(r["i"], []).append(r["raw_ms"])
        report["as_measured"] = {
            "wall_s": statistics.median(sum(r["raw_ms"] for r in results if r["pass"] == k) / 1000.0
                                        for k in range(done["passes"])),
            "op_p50_ms": statistics.median(statistics.median(v) for v in raw_per_op.values()),
        }
    return report


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']} x "
          f"{report['ops_per_pass']} ops  attempted {report['attempted']}  failed {report['failed']}  "
          f"correct {report['correct']}")
    for name, m in report["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6f} {m['unit']}")
    if "op_p90_ms" in report:
        print(f"  {'op_p90_ms':34s} {report['op_p90_ms']:>14.6f} ms  (not gated: the other workloads run < {P90_MIN_OPS} ops)")
    for name, value in report.get("as_measured", {}).items():
        print(f"  {name + ' as measured':34s} {value:>14.6f} {name.rsplit('_', 1)[1]}  (not scaled to the reference speed)")
    for argv, known, why in report["failures"]:
        print(f"  FAILED{' (known fault)' if known else ''}: {argv}: {why}")
    for argv in report["nondeterministic"]:
        print(f"  NONDETERMINISTIC: {argv}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edcert" / "__init__.py").is_file():
        print(f"error: no edcert sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    keys = ("correct", "attempted", "failed", "metrics")
    if len(reports) == 1:
        print(json.dumps({k: reports[0][k] for k in keys}))
    else:
        print(json.dumps({r["workload"]: {k: r[k] for k in keys} for r in reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
