#!/usr/bin/env python3
"""Regenerate the baseline tables of ROADMAP.md in one command.

Usage, from the root of a checkout:

    python3 bench/baseline.py

Prints three markdown tables:

1. end to end: fixed CLI runs of ``python3 -m edcert``, each timed once as
   a subprocess, interpreter start-up included;
2. layer by layer for PSL2(53): self time and calls of each traced layer
   during one computed-mode ``maxn --group PSL2:53`` (bench/tracer.py);
3. hot spots: the functions with the most self time when the hybrid table
   7..199 runs under cProfile.

These are single runs, as in ROADMAP; the benchmark proper is bench/run.py.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import pstats
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))


def table(pmin: int, pmax: int, mode: str, *extra: str) -> list[str]:
    return ["table", "--family", "PSL2", "--pmin", str(pmin), "--pmax", str(pmax), "--mode", mode, "--csv", *extra]


END_TO_END = [
    ["certify", "--group", "A:7", "--n", "6", "--json", "--no-timing"],
    ["maxn", "--group", "PSL2:13", "--json", "--no-timing"],
    table(7, 199, "paper-formula"),
    table(7, 199, "hybrid"),
    table(7, 53, "hybrid"),
    table(7, 53, "hybrid", "--workers", "2"),
    table(7, 53, "computed"),
    table(7, 61, "computed"),
    ["oracle", "rh", "--group", "PSL2:11", "--genus-max", "26", "--json", "--no-timing"],
    ["oracle", "rh", "--group", "A:6", "--genus-max", "10", "--json", "--no-timing"],
    ["oracle", "min-index", "--group", "A:6", "--json", "--no-timing"],
]


def end_to_end() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    print("| workload | time | exit | output |\n|---|---|---|---|")
    for argv in END_TO_END:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "edcert", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        tail = (done.stdout.strip().splitlines() or done.stderr.strip().splitlines() or [""])[-1]
        if argv[-1] == "--no-timing" and done.returncode == 0:
            payload = json.loads(done.stdout)["payload"]
            tail = next(f"{k} {payload[k]}" for k in ("overall", "maxn", "genus", "min_index") if k in payload)
        print(f"| `{' '.join(argv)}` | {elapsed:.2f} s | {done.returncode} | `{tail[:60]}` |")

    from edcert import build, parse_group_spec
    from edcert.rhoracle import acts_on_genus_le

    group = build(parse_group_spec("PSL2:11"))
    t0 = time.perf_counter()
    verdict = acts_on_genus_le(group, 26)
    print(f"| one `acts_on_genus_le(PSL2:11, 26)` call, in process | {time.perf_counter() - t0:.2f} s | | "
          f"`{verdict.verdict} at genus {verdict.genus}` |")


def layers() -> None:
    from edcert import cli
    from tracer import SPANS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["maxn", "--group", "PSL2:53", "--json", "--no-timing"])
    finally:
        tracer.uninstall()
    own, calls = tracer.totals()
    print("\nLayer by layer, computed `maxn --group PSL2:53` (|G| = 74412, degree 54), self time:\n")
    print("| layer | self time | calls |\n|---|---|---|")
    for name in SPANS:
        if name in own:
            print(f"| {name} | {own[name] * 1000:.0f} ms | {calls[name]} |")


def hot_spots() -> None:
    from edcert import cli

    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profile.runcall(cli.main, table(7, 199, "hybrid"))
    stats = pstats.Stats(profile)
    rows = sorted(stats.stats.items(), key=lambda item: -item[1][2])[:8]
    print(f"\nHot spots in the hybrid-table profile (self time; {stats.total_tt:.1f} s under cProfile):\n")
    print("| function | self time | calls |\n|---|---|---|")
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in rows:
        print(f"| `{Path(filename).name}:{func}` | {tottime:.1f} s | {ncalls} |")


def main() -> int:
    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} cores; single runs.\n")
    end_to_end()
    layers()
    hot_spots()
    return 0


if __name__ == "__main__":
    sys.exit(main())
