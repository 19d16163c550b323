#!/usr/bin/env python3
"""Check that a lower cap decides nothing the full cap decides otherwise.

Usage: python3 scripts/compare_corpora.py FULL.txt LOW.txt

FULL and LOW are two files written by ``scripts/cli_corpus.py``: FULL at
the default enumeration cap, LOW under a lower one (``EDCERT_CAP=1000``).
Raising a cap may only turn ``unknown`` into a decided verdict, so every
condition of every ``certify`` record that LOW decides must read the same
verdict in FULL.  The script prints its counts and each difference, and
exits 1 on any difference or on a ``certify`` record that only one file
holds.  Standard library only.
"""

import json
import sys


def certify_verdicts(path: str) -> dict:
    """Command -> {condition: verdict} for every ``certify`` record with a
    JSON body; a record is a ``### command`` line, an ``exit`` line and
    the output."""
    with open(path, newline="") as fh:
        text = fh.read()
    decoder = json.JSONDecoder()
    records = {}
    for chunk in text.split("### ")[1:]:
        command, _, rest = chunk.partition("\n")
        if not command.startswith("certify "):
            continue
        _, _, body = rest.partition("\n")  # drop the exit line
        if not body.startswith("{"):
            continue
        payload = decoder.raw_decode(body)[0]["payload"]
        records[command] = {c["condition"]: c["verdict"] for c in payload["conditions"]}
    return records


def compare(full: dict, low: dict) -> tuple[int, int, list[str]]:
    """(conditions compared, decided in LOW, differences)."""
    compared = decided = 0
    differences = [f"only in one file: {command}" for command in sorted(full.keys() ^ low.keys())]
    for command in sorted(full.keys() & low.keys()):
        for condition, verdict in low[command].items():
            compared += 1
            if verdict == "unknown":
                continue
            decided += 1
            if full[command].get(condition) != verdict:
                differences.append(f"{command}: {condition} reads {full[command].get(condition)} at the full cap, "
                                   f"{verdict} at the low cap")
    return compared, decided, differences


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    full, low = (certify_verdicts(path) for path in argv)
    compared, decided, differences = compare(full, low)
    print(f"{len(low)} certify records, {compared} conditions compared, {decided} decided at the low cap, "
          f"{len(differences)} differ")
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
