"""Command-line front end: certification, bound tables, oracles.

JSON is the machine contract (stable keys, sorted, byte-identical across
runs when --no-timing is given); the human-readable text may evolve.
Exit codes: 0 certified or success, 1 not certified / negative oracle /
cap exceeded, 2 usage or validation error, 3 internal error (a bug).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

from . import __version__
from .catalogue import build, parse_group_spec
from .certifier import (
    CERTIFIED,
    COMPUTED,
    certify,
    max_certified_n,
)
from .comparison import compare_rhs
from .curvebounds import (
    CastelnuovoInput,
    castelnuovo_bound,
    gonality_obstruction,
    hurwitz_min_genus,
    riemann_genus_cap,
    tower_genus_bound,
)
from .errors import CapExceeded, EdcertError, EdcertInternalError, ValidationError
from .permgroup import DEFAULT_CAP, _is_prime, min_proper_subgroup_index
from . import rhoracle

_MODE_FLAGS = {"computed": "computed", "hybrid": "hybrid", "paper-formula": "paper_formula"}


def _add_common(parser: argparse.ArgumentParser, *, mode: bool = True) -> None:
    parser.add_argument("--json", action="store_true", help="emit the JSON envelope instead of text")
    parser.add_argument("--no-timing", action="store_true", help="omit the timing field from JSON output")
    parser.add_argument("--out", default=None, help="also write the output to this path")
    if mode:
        parser.add_argument(
            "--mode",
            choices=sorted(_MODE_FLAGS),
            default="computed",
            help="computed: self-contained; hybrid: tagged literature constants; "
            "paper-formula: the published closed-form bound as printed",
        )


def _add_cap(parser: argparse.ArgumentParser) -> None:
    """--cap, for the subcommands that build a group."""
    parser.add_argument("--cap", type=int, default=None, help="override the enumeration cap (beats EDCERT_CAP)")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edcert",
        description="Certify group-theoretic lower-bound conditions for one-parameter "
        "irreducibility under bounded accessory covers.",
        epilog="Group specs: A:<n> | S:<n> | C:<n> | D:<n> (order 2n) | PSL2:<p> | "
        "perm:<deg>:<cycles>,... e.g. perm:4:(0 1 2 3),(0 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("certify", help="certify one (group, n) pair")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    _add_cap(p)

    p = sub.add_parser("maxn", help="largest certified n with the binding condition")
    p.add_argument("--group", required=True)
    _add_common(p)
    _add_cap(p)

    p = sub.add_parser("table", help="per-prime bound table for a family")
    p.add_argument("--family", choices=["PSL2"], required=True)
    p.add_argument("--pmin", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="emit CSV rows instead of text")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    _add_common(p)
    _add_cap(p)

    p = sub.add_parser("compare", help="prior-methods baseline and strictness flag")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, mode=False)
    _add_cap(p)

    p = sub.add_parser("rh", help="branch-data table with generating-vector witnesses (JSON)")
    p.add_argument("--group", required=True)
    p.add_argument("--genus-max", type=int, required=True)
    _add_common(p, mode=False)
    _add_cap(p)
    p.set_defaults(json=True)

    p = sub.add_parser("bounds", help="evaluate the curve-bound calculators")
    which = p.add_subparsers(dest="bound", required=True)
    b = which.add_parser("castelnuovo", help="n1*g1 + n2*g2 + (n1-1)(n2-1)")
    for flag in ("--n1", "--g1", "--n2", "--g2"):
        b.add_argument(flag, type=int, required=True)
    _add_common(b, mode=False)
    b = which.add_parser("h_n", help="tower genus bound over the divisors of n")
    b.add_argument("--n", type=int, required=True)
    _add_common(b, mode=False)
    b = which.add_parser("genus-cap", help="(n-1)^2")
    b.add_argument("--n", type=int, required=True)
    _add_common(b, mode=False)
    b = which.add_parser("hurwitz", help="least genus >= 2 not excluded by 84(g-1)")
    b.add_argument("--order", type=int, required=True)
    _add_common(b, mode=False)
    b = which.add_parser("gonality", help="degree-n map obstruction from order and an action verdict")
    b.add_argument("--order", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument(
        "--action-verdict",
        choices=["yes", "no", "unknown"],
        required=True,
        help="caller-supplied answer to: does the group act nontrivially on genus <= (n-1)^2?",
    )
    _add_common(b, mode=False)

    p = sub.add_parser("oracle", help="brute-force cross-checks used by the acceptance suite")
    which = p.add_subparsers(dest="oracle_command", required=True)
    o = which.add_parser("min-index", help="minimal proper-subgroup index by subgroup search")
    o.add_argument("--group", required=True)
    _add_common(o, mode=False)
    _add_cap(o)
    o = which.add_parser("rh", help="minimal genus admitting a faithful action, with witness")
    o.add_argument("--group", required=True)
    o.add_argument("--genus-max", type=int, required=True)
    _add_common(o, mode=False)
    _add_cap(o)

    return parser


# -- output plumbing -------------------------------------------------------------


def _emit(args, payload, text_lines: list[str], started: float, mode: str | None = None) -> None:
    if getattr(args, "json", False):
        envelope = {
            "command": args._argv,
            "version": __version__,
            "mode": mode,
            "payload": payload,
        }
        if not args.no_timing:
            envelope["timing_ms"] = int((time.perf_counter() - started) * 1000)
        body = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    _write(args, body)


def _write(args, body: str) -> None:
    """Write the output to the --out file, if given, then to stdout; a file
    that cannot be written is a usage error, and nothing is printed."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror}") from None
    sys.stdout.write(body)


def _cap(args) -> int:
    """--cap, else EDCERT_CAP, else DEFAULT_CAP.  A bad EDCERT_CAP is an error
    even when --cap is given."""
    cap = DEFAULT_CAP
    raw = os.environ.get("EDCERT_CAP")
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ValidationError(f"EDCERT_CAP must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ValidationError(f"EDCERT_CAP must be positive, got {cap}")
    if args.cap is not None:
        if args.cap < 1:
            raise ValidationError(f"--cap must be positive, got {args.cap}")
        cap = args.cap
    return cap


def _group(args):
    """The group --group names, with the enumeration cap of `_cap`."""
    cap = _cap(args)
    return build(parse_group_spec(args.group), cap)


# -- subcommands -------------------------------------------------------------------


def _cmd_certify(args, started) -> int:
    mode = _MODE_FLAGS[args.mode]
    cert = certify(_group(args), args.n, mode)
    lines = [f"{cert.group}  n={cert.n}  mode={cert.mode}  ->  {cert.overall}"]
    for c in cert.conditions:
        lines.append(f"  {c.condition:24s} {c.verdict:10s} via {c.method or '-'}")
    for note in cert.notes:
        lines.append(f"  note: {note}")
    _emit(args, cert.to_json(), lines, started, mode)
    return 0 if cert.overall == CERTIFIED else 1


def _cmd_maxn(args, started) -> int:
    mode = _MODE_FLAGS[args.mode]
    report = max_certified_n(_group(args), mode)
    lines = [
        f"{report.group}  mode={report.mode}  maxn={report.certified_max_n}  binding={report.binding}",
        f"  cond1_max={report.cond1_max}  cond2_max={report.cond2_max}  cond3_max={report.cond3_max}",
    ]
    _emit(args, report.to_json(), lines, started, mode)
    return 0 if report.certified_max_n is not None else 1


_TABLE_HEADER = ["p", "order", "cond1_max", "cond2_max", "cond3_max", "maxn", "binding"]


def _table_row(p: int, mode: str, cap: int) -> dict:
    group = build(parse_group_spec(f"PSL2:{p}"), cap)
    report = max_certified_n(group, mode)
    fmt = lambda v: v if v is not None else "unknown"
    return {
        "p": p,
        "order": group.order,
        "cond1_max": fmt(report.cond1_max),
        "cond2_max": fmt(report.cond2_max),
        "cond3_max": fmt(report.cond3_max),
        "maxn": fmt(report.certified_max_n),
        "binding": report.binding,
    }


def _cmd_table(args, started) -> int:
    cap = _cap(args)
    mode = _MODE_FLAGS[args.mode]
    if args.pmin < 7:
        raise ValidationError("the PSL2 table starts at p = 7")
    primes = [p for p in range(args.pmin, args.pmax + 1) if _is_prime(p)]
    rows = [_table_row(p, mode, cap) for p in primes]

    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_TABLE_HEADER)
        for row in rows:
            writer.writerow([row[k] for k in _TABLE_HEADER])
        _write(args, buf.getvalue())
        return 0

    lines = ["  ".join(f"{h:>10s}" for h in _TABLE_HEADER)]
    for row in rows:
        lines.append("  ".join(f"{str(row[k]):>10s}" for k in _TABLE_HEADER))
    _emit(args, rows, lines, started, mode)
    return 0


def _cmd_compare(args, started) -> int:
    report = compare_rhs(_group(args), args.n)
    lines = [
        f"{report.group}  n={report.n}  baseline rhs <= {report.rhs_upper_bound}  "
        f"strict={report.strict}  (certificate: {report.certificate_overall})"
    ]
    for e in report.entries:
        lines.append(
            f"  p={e.prime:<3d} sylow order {e.sylow.order:<4d} {e.sylow.shape:20s} "
            f"rule={e.rule:24s} bound={e.bound}"
        )
    for note in report.notes:
        lines.append(f"  note: {note}")
    _emit(args, report.to_json(), lines, started, COMPUTED)
    return 0


def _cmd_rh(args, started) -> int:
    group = _group(args)
    sigs = rhoracle.enumerate_signatures(group, args.genus_max)
    table = []
    for g, sig in sigs:
        try:
            vec = rhoracle.find_generating_vector(group, sig)
            searched = True
        except CapExceeded:
            vec, searched = None, False
        if vec is not None and not rhoracle.validate_vector(group, sig, vec):
            raise EdcertInternalError(f"search produced an invalid vector for {sig.label()}")
        entry = {
            "genus": g,
            "signature": sig.to_json(),
            "label": sig.label(),
            "searched": searched,
            "vector": vec.to_json() if vec else None,
        }
        table.append(entry)
    _emit(args, table, [], started)  # rh always emits JSON
    return 0


def _cmd_oracle(args, started) -> int:
    if args.oracle_command == "min-index":
        group = _group(args)
        index = min_proper_subgroup_index(group)
        payload = {"group": group.name(), "min_index": index}
        if index is None:
            payload["reason"] = "neither the derived-subgroup test nor the k!/2 embedding bound decides d(G)"
        _emit(args, payload, [f"min proper-subgroup index: {'unknown' if index is None else index}"], started)
        return 0 if index is not None else 1
    if args.oracle_command == "rh":
        verdict = rhoracle.acts_on_genus_le(_group(args), args.genus_max)
        if verdict.verdict == rhoracle.UNKNOWN:
            _emit(args, verdict.to_json(), [f"undecided: {verdict.reason}"], started)
            return 1
        if verdict.verdict == rhoracle.NO:
            _emit(args, verdict.to_json(), [f"no faithful action on genus <= {args.genus_max}"], started)
            return 1
        lines = [
            f"minimal genus {verdict.genus} with witness {verdict.signature.label()}",
            f"  vector: {verdict.vector.to_json()}",
        ]
        _emit(args, verdict.to_json(), lines, started)
        return 0
    raise EdcertInternalError(f"unknown oracle command {args.oracle_command!r}")


def _cmd_bounds(args, started) -> int:
    if args.bound == "castelnuovo":
        value = castelnuovo_bound(CastelnuovoInput(n1=args.n1, g1=args.g1, n2=args.n2, g2=args.g2))
        _emit(args, {"bound": value}, [f"castelnuovo bound: {value}"], started)
        return 0
    if args.bound == "h_n":
        n = args.n
        rows = []
        lines = [f"tower genus bound for n = {n} (cap (n-1)^2 = {riemann_genus_cap(n)}):"]
        for m in range(1, n + 1):
            if n % m:
                continue
            value = tower_genus_bound(n, m)
            rows.append({"m": m, "bound": int(value)})
            lines.append(f"  m={m:<4d} bound={int(value)}")
        peak = max(r["bound"] for r in rows)
        payload = {"n": n, "rows": rows, "max": peak, "argmax": [r["m"] for r in rows if r["bound"] == peak]}
        lines.append(f"  max {peak} at m in {payload['argmax']}")
        _emit(args, payload, lines, started)
        return 0
    if args.bound == "genus-cap":
        value = riemann_genus_cap(args.n)
        _emit(args, {"genus_cap": value}, [f"genus cap: {value}"], started)
        return 0
    if args.bound == "hurwitz":
        value = hurwitz_min_genus(args.order)
        _emit(args, {"hurwitz_min_genus": value}, [f"least genus not excluded: {value}"], started)
        return 0
    if args.bound == "gonality":
        verdict = gonality_obstruction(args.order, args.n, args.action_verdict)
        payload = {"order": args.order, "n": args.n, "verdict": verdict}
        _emit(args, payload, [f"gonality obstruction: {verdict}"], started)
        return 0 if verdict == "obstructed" else 1
    raise EdcertInternalError(f"unknown bounds command {args.bound!r}")


_DISPATCH = {
    "certify": _cmd_certify,
    "maxn": _cmd_maxn,
    "table": _cmd_table,
    "compare": _cmd_compare,
    "rh": _cmd_rh,
    "oracle": _cmd_oracle,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own message
        return 2 if exc.code not in (0,) else 0
    args._argv = list(argv)
    try:
        return _DISPATCH[args.command](args, started)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EdcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EdcertInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
