#!/usr/bin/env python3
"""Run the headline certifications and baseline comparisons in one sweep.

Usage: python3 scripts/reproduce_headline_results.py
"""

from edcert import build, certify, compare_rhs, max_certified_n, parse_group_spec

SHOWCASE = [
    ("A:7", 6),       # the degree-7 polynomial resists an accessory sextic
    ("PSL2:7", 2),    # no square root rescues the Klein quartic family
    ("PSL2:11", 3),
    ("PSL2:13", 4),
]


def main() -> None:
    print("== certification ==")
    for text, n in SHOWCASE:
        cert = certify(build(parse_group_spec(text)), n)
        print(f"  {text:10s} n={n}:  {cert.overall}")
        for cond in cert.conditions:
            print(f"      {cond.condition:24s} {cond.verdict:10s} via {cond.method}")

    print("\n== the open case: PSL2(7) at n = 3 is not decided either way ==")
    cert = certify(build(parse_group_spec("PSL2:7")), 3)
    print(f"  overall: {cert.overall} (hypothesis 3 fails at genus 3; the bound itself stays open)")

    print("\n== prior-methods baseline is stuck at 1 on all four pairs ==")
    for text, n in SHOWCASE:
        report = compare_rhs(build(parse_group_spec(text)), n)
        print(f"  {text:10s} n={n}:  rhs <= {report.rhs_upper_bound}  strict={report.strict}")

    print("\n== largest certified n per group (computed mode) ==")
    for text in ("A:7", "PSL2:7", "PSL2:11", "PSL2:13"):
        report = max_certified_n(build(parse_group_spec(text)))
        print(f"  {text:10s} maxn={report.certified_max_n}  binding={report.binding}")


if __name__ == "__main__":
    main()
