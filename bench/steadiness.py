#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs on the same commit.

Usage, from the root of a checkout:

    python3 bench/steadiness.py

Runs the command from BENCHMARK.json ten times on every workload in each of
two sets, one seed per run (set k uses seeds k*1000+1 ...), alternating
workloads within a set.  For every end-to-end metric on every workload it
prints each set's median and its spread (the distance between the first and
third quartile as a share of the median), and whether a spread exceeds the
metric's bound or the two medians differ, in either direction, by more than
the bound.  It also compares the share of failed operations between the
sets, which must be identical.  Exits 1 if any of these checks fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}): {' '.join(argv)}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = []
    for k in range(SETS):
        runs: dict[str, list[dict]] = {name: [] for name in names}
        for i in range(RUNS):
            for name in names:
                result = one_run(spec["command"], name, 1000 * (k + 1) + i + 1, spec["run_seconds"])
                runs[name].append(result)
                print(f"set {k + 1} run {i + 1} {name}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()), flush=True)
        sets.append(runs)

    ok = True
    print(f"\n{'workload':24s} {'metric':12s} {'bound':>6s} " + " ".join(
        f"{'median' + str(k + 1):>11s} {'spread' + str(k + 1):>8s}" for k in range(SETS)) + "  verdict")
    for name in names:
        for m in metrics:
            meds, spreads = [], []
            for runs in sets:
                values = [r["metrics"][m["name"]]["value"] for r in runs[name]]
                meds.append(statistics.median(values))
                spreads.append(spread(values))
            verdict = []
            if any(s > m["bound"] for s in spreads):
                verdict.append("SPREAD")
            if abs(meds[1] - meds[0]) / meds[0] > m["bound"]:
                verdict.append("MEDIANS DIFFER")
            ok &= not verdict
            print(f"{name:24s} {m['name']:12s} {m['bound']:6.2f} " + " ".join(
                f"{md:11.4f} {sp:8.3f}" for md, sp in zip(meds, spreads)) + "  " + (" ".join(verdict) or "ok"))
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs[name]}
        ratios = {f / a for f, a in shares}
        correct = all(r["correct"] for runs in sets for r in runs[name])
        ok &= len(ratios) == 1 and correct
        print(f"{name:24s} failed share {sorted(ratios)} correct={correct}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
