#!/usr/bin/env python3
"""Self-test of the output checker: corrupted outputs must count as failed.

Usage, from the root of a checkout:  python3 bench/selftest.py

Produces genuine outputs by calling ``edcert.cli.main`` from ``src/`` once
per case, confirms that the checker accepts each of them, then feeds it
corrupted copies and confirms that it rejects every one.  Exits 1 if any
genuine output is rejected or any corruption slips through.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def run(op: Op) -> tuple[int, str, str]:
    from edcert import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(op.argv))
    return rc, out.getvalue(), err.getvalue()


def edit_json(out: str, change) -> str:
    env = json.loads(out)
    change(env["payload"])
    return json.dumps(env, sort_keys=True, indent=2) + "\n"


def inverse_cycles(text: str) -> str:
    """The inverse permutation, in cycle notation: every cycle reversed."""
    cycles = [c.split() for c in check._CYCLE.findall(text)]
    return "".join("(" + " ".join([c[0]] + c[:0:-1]) + ")" for c in cycles)


def csv_off_by_one(column: str):
    def corrupt(out: str) -> str:
        header, row = out.splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        values[column] = str(int(values[column]) + 1)
        return header + "\n" + ",".join(values[k] for k in header.split(",")) + "\n"
    return corrupt


def condition(name):
    return lambda p: next(c for c in p["conditions"] if c["condition"] == name)


def swap_witness_generators(p):
    w = condition("mobius_subgroup")(p)["detail"]["witness"]
    w["generators"].reverse()


def replace_witness_generator(p):
    w = condition("mobius_subgroup")(p)["detail"]["witness"]
    w["generators"][1] = w["generators"][0]


def break_divisibility_entry(p):
    condition("no_small_index")(p)["detail"]["divisibility_checks"][-1]["half_factorial"] += 1


def flip_overall(p):
    p["overall"] = "certified"


def vector_product_not_one(vector):
    vector["elliptic"][0] = inverse_cycles(vector["elliptic"][0])


def maxn_witness_swapped(p):
    p["details"]["cond2"]["witness"]["generators"].reverse()


def sylow_generator_changed(p):
    sylow = p["entries"][0]["sylow"]
    sylow["generators"][0] = "(0 1)"


def drop_rh_datum(p):
    del p[0]


def A(*argv):
    return tuple(argv) + ("--json", "--no-timing")


TABLE = ("table", "--family", "PSL2", "--pmin", "13", "--pmax", "13", "--csv", "--mode")
CASES = [
    (Op("hybrid_row", TABLE + ("hybrid",), {"p": 13}), [
        ("CSV cond1_max off by one", csv_off_by_one("cond1_max")),
        ("CSV cond2_max off by one", csv_off_by_one("cond2_max")),
        ("CSV maxn off by one", csv_off_by_one("maxn")),
    ]),
    (Op("closed_form_row", TABLE + ("paper-formula",), {"p": 13}), [
        ("CSV cond3_max off by one", csv_off_by_one("cond3_max")),
    ]),
    (Op("computed_row", TABLE + ("computed",), {"p": 13}), [
        ("CSV cond2_max off by one", csv_off_by_one("cond2_max")),
        ("CSV order off by one", csv_off_by_one("order")),
    ]),
    (Op("certify", A("certify", "--group", "A:6", "--n", "6"), {"group": "A:6", "n": 6}), [
        ("dihedral witness with its generators swapped", lambda o: edit_json(o, swap_witness_generators)),
        ("dihedral witness with a generator replaced", lambda o: edit_json(o, replace_witness_generator)),
        ("divisibility table entry altered", lambda o: edit_json(o, break_divisibility_entry)),
        ("overall verdict that does not compose", lambda o: edit_json(o, flip_overall)),
        ("genus witness whose product is not one", lambda o: edit_json(
            o, lambda p: vector_product_not_one(condition("no_small_genus_action")(p)["detail"]["witness"]["vector"]))),
        ("no payload printed", lambda o: ""),
    ]),
    (Op("maxn", A("maxn", "--group", "PSL2:11"), {"group": "PSL2:11"}), [
        ("A5 witness with its generators swapped", lambda o: edit_json(o, maxn_witness_swapped)),
    ]),
    (Op("compare", A("compare", "--group", "PSL2:7", "--n", "2"), {"group": "PSL2:7", "n": 2}), [
        ("Sylow subgroup with a wrong generator", lambda o: edit_json(o, sylow_generator_changed)),
    ]),
    (Op("oracle_rh", A("oracle", "rh", "--group", "PSL2:7", "--genus-max", "3"), {"group": "PSL2:7", "genus_max": 3}), [
        ("generating vector whose product is not one", lambda o: edit_json(o, lambda p: vector_product_not_one(p["vector"]))),
    ]),
    (Op("rh_table", ("rh", "--group", "PSL2:7", "--genus-max", "3", "--no-timing"), {"group": "PSL2:7", "genus_max": 3}), [
        ("branch datum missing from the table", lambda o: edit_json(o, drop_rh_datum)),
    ]),
    (Op("min_index", A("oracle", "min-index", "--group", "A:6"), {"group": "A:6"}), [
        ("wrong minimal index", lambda o: edit_json(o, lambda p: p.update(min_index=p["min_index"] + 1))),
    ]),
]


def main() -> int:
    bad = 0
    for op, corruptions in CASES:
        rc, out, err = run(op)
        verdict = check.check(op, rc, out, err)
        print(f"{'ok  ' if verdict is None else 'FAIL'} genuine {' '.join(op.argv)}" + (f": {verdict}" if verdict else ""))
        bad += verdict is not None
        for label, corrupt in corruptions:
            verdict = check.check(op, rc, corrupt(out), err)
            print(f"{'ok  ' if verdict else 'FAIL'}   corrupted: {label}" + (f" -> {verdict}" if verdict else " was accepted"))
            bad += verdict is None
    for argv, fault in workloads.KNOWN_FAULTS.items():
        print(f"note known fault: {' '.join(argv)}: {fault}")
    print("checker self-test", "passed" if not bad else f"FAILED ({bad} cases)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
