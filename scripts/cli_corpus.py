#!/usr/bin/env python3
"""Run a fixed corpus of CLI commands and record each exit code and output.

Usage: PYTHONPATH=src python3 scripts/cli_corpus.py OUT.txt

Every command runs in-process through ``edcert.cli.main``; JSON commands
run with ``--no-timing``, so two checkouts that behave the same write the
same file byte for byte (compare them with ``cmp`` or ``diff``).  The corpus
covers ``certify`` at ten values of n and ``maxn`` in all three modes on 18
groups, ``maxn`` on PSL(3,2) in its degree-7 action, hybrid ``maxn`` on the
six PSL2(p), 7 <= p <= 53, that the 18 groups leave out, the PSL2 table 7..61
in all three modes, ``oracle rh``, the ``rh`` branch-data table, the
``h_n`` table, the other four ``bounds`` calculators on one valid and one
invalid input each, and ``compare`` and ``oracle min-index`` (the Sylow
and subgroup searches) on 16 groups.  A command that raises instead of
returning an exit code is recorded with the exception it raised.
"""

import contextlib
import io
import sys

from edcert.cli import main

GROUPS = [
    "A:5", "A:6", "A:7", "A:8", "A:9",
    "PSL2:7", "PSL2:11", "PSL2:13", "PSL2:17", "PSL2:23", "PSL2:29", "PSL2:41", "PSL2:59", "PSL2:199",
    "perm:5:(0 1 2 3 4),(0 1 2)", "S:4", "C:7", "D:6",
]
HYBRID_ONLY_PRIMES = [19, 31, 37, 43, 47, 53]
NS = [2, 3, 4, 5, 6, 7, 9, 10, 14, 24]
PGL2_7 = "perm:8:(0 1 2 3 4 5 6),(1 3 2 6 4 5),(0 7)(1 6)(2 3)(4 5)"
C2_4_C5 = "perm:16:(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13)(14 15),(1 8 12 10 15)(2 3 11 7 13)(4 6 5 14 9)"
C2_3_S3 = "perm:9:(0 1),(2 3),(4 5),(6 7 8),(6 7)"
AGL1_8 = "perm:8:(0 1)(2 3)(4 5)(6 7),(1 2 4 3 6 7 5)"
PSL3_2 = "perm:7:(0 1 2 3 4 5 6),(0 1)(2 4)"
SEARCH_GROUPS = [
    "A:5", "A:6", "A:7", "PSL2:7", "PSL2:11", "PSL2:13", "S:4", "S:5", "C:12", "D:6", "D:10",
    "perm:5:(0 1 2 3 4),(0 1 2)", PGL2_7, C2_4_C5, C2_3_S3, AGL1_8,
]
MODES = ["computed", "hybrid", "paper-formula"]
JSON = ["--json", "--no-timing"]


def commands():
    for group in GROUPS:
        for mode in MODES:
            for n in NS:
                yield ["certify", "--group", group, "--n", str(n), "--mode", mode, *JSON]
            yield ["maxn", "--group", group, "--mode", mode, *JSON]
    for mode in MODES:
        yield ["maxn", "--group", PSL3_2, "--mode", mode, *JSON]
    for p in HYBRID_ONLY_PRIMES:
        yield ["maxn", "--group", f"PSL2:{p}", "--mode", "hybrid", *JSON]
    for mode in MODES:
        yield ["table", "--family", "PSL2", "--pmin", "7", "--pmax", "61", "--mode", mode, "--csv"]
    for group in ["A:5", "A:6", "PSL2:7", "PSL2:11", "PSL2:13", "C:6", "S:4"]:
        for genus_max in (-1, 2, 10, 26, 100):
            yield ["oracle", "rh", "--group", group, "--genus-max", str(genus_max), *JSON]
    for group, genus_max in [("A:5", 40), ("A:6", 40), ("PSL2:7", 60), ("PSL2:11", 40), ("PSL2:13", 30),
                             ("A:7", 60), ("C:6", 20), ("S:4", 30)]:
        yield ["rh", "--group", group, "--genus-max", str(genus_max), *JSON]
    yield ["certify", "--group", "PSL2:7", "--n", "40", *JSON]
    for n in (2, 6, 12):
        yield ["bounds", "h_n", "--n", str(n), *JSON]
    for flags in (["--n1", "3", "--g1", "1", "--n2", "4", "--g2", "0"], ["--n1", "0", "--g1", "1", "--n2", "4", "--g2", "0"]):
        yield ["bounds", "castelnuovo", *flags, *JSON]
    for n in ("5", "0"):
        yield ["bounds", "genus-cap", "--n", n, *JSON]
    for order in ("168", "1"):
        yield ["bounds", "hurwitz", "--order", order, *JSON]
    for order in ("168", "0"):
        yield ["bounds", "gonality", "--order", order, "--n", "2", "--action-verdict", "no", *JSON]
    for group in SEARCH_GROUPS:
        for n in (2, 4, 6):
            yield ["compare", "--group", group, "--n", str(n), *JSON]
        yield ["oracle", "min-index", "--group", group, *JSON]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is recorded, not fatal to the corpus
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def record(path: str) -> int:
    count = 0
    with open(path, "w", newline="") as fh:
        for argv in commands():
            code, out, err = run(argv)
            fh.write(f"### {' '.join(argv)}\nexit {code}\n{out}")
            if err:
                fh.write(f"stderr: {err}")
            count += 1
    return count


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{record(sys.argv[1])} commands")
