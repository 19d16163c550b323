"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is desk-scale.
"""

import csv
import io
import json
import random
from fractions import Fraction
from math import factorial, isqrt

from edcert.certifier import PAPER_FORMULA, certify, max_certified_n
from edcert.cli import main
from edcert.comparison import compare_rhs
from edcert.curvebounds import tower_genus_bound
from edcert.permgroup import (
    PermGroup,
    _is_prime,
    min_proper_subgroup_index,
    prime_factors,
    sylow_report,
)
from edcert.permutation import Permutation, compose, identity_tuple
from edcert.rhoracle import Signature, acts_on_genus_le, validate_vector

def _announce(number, text):
    print(f"PASS criterion {number}: {text}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_criterion_1_a7_at_6(capsys, group_of):
    code, out = run_cli(capsys, "certify", "--group", "A:7", "--n", "6", "--json", "--no-timing")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["overall"] == "certified"
    cond3 = next(c for c in payload["conditions"] if c["condition"] == "no_small_genus_action")
    assert cond3["verdict"] == "certified"
    assert cond3["detail"]["hurwitz_floor"] == 31
    assert cond3["detail"]["genus_cap"] == 25
    _announce(1, "certify A:7 n=6 certified with genus floor 31 > 25")


def test_criterion_2_simple_groups_at_2(capsys, group_of):
    for text in ("A:6", "A:7", "PSL2:7", "PSL2:11", "PSL2:13", "PSL2:17", "PSL2:19"):
        code, _ = run_cli(capsys, "certify", "--group", text, "--n", "2")
        assert code == 0, text
    code, out = run_cli(capsys, "certify", "--group", "A:5", "--n", "2", "--json", "--no-timing")
    assert code == 1
    payload = json.loads(out)["payload"]
    cond3 = next(c for c in payload["conditions"] if c["condition"] == "no_small_genus_action")
    assert cond3["verdict"] == "refuted"
    assert cond3["detail"]["witness"]["genus"] == 0
    assert cond3["detail"]["witness"]["signature"] == "(0; 2,3,5)"
    _announce(2, "n=2 certified for the seven sample simple groups; A:5 refused "
                 "with the (0; 2,3,5) genus-0 witness")


def test_criterion_3_psl2_closed_form(group_of):
    equals_pminus1 = {}
    values = {}
    for p in range(7, 200):
        if not _is_prime(p):
            continue
        report = max_certified_n(group_of(f"PSL2:{p}"), PAPER_FORMULA)
        # independent evaluation of min{p-1, 1 + floor(sqrt(1 + p(p^2-1)/168))}
        radicand_num = 168 + p * (p * p - 1)
        hurwitz_term = 1 + isqrt(radicand_num * 168) // 168
        expected = min(p - 1, hurwitz_term)
        assert report.certified_max_n == expected, p
        values[p] = report.certified_max_n
        equals_pminus1[p] = report.certified_max_n == p - 1
    assert values[7] == 2 and values[11] == 3 and values[13] == 4
    assert values[163] == 161  # one short of p - 1 = 162
    for p, flag in equals_pminus1.items():
        assert flag == (p >= 167), p
    _announce(3, "paper-formula maxn matches the closed form for all primes "
                 "7..199; 2,3,4 at 7,11,13; p-1 exactly for p >= 167; 161 at 163")


def test_criterion_4_tower_bound_square_cap():
    for n in range(2, 201):
        cap = (n - 1) ** 2
        for m in range(1, n + 1):
            if n % m:
                continue
            value = tower_genus_bound(n, m)
            assert isinstance(value, Fraction)
            assert value <= cap
            assert (value == cap) == (m in (1, n)), (n, m)
    _announce(4, "tower genus bound <= (n-1)^2 for all n <= 200, equality "
                 "exactly at the divisor endpoints")


def test_criterion_5_min_index_oracle(group_of):
    expected = {"A:5": 5, "A:6": 6, "PSL2:7": 7}
    for text, want in expected.items():
        group = group_of(text)
        brute = min_proper_subgroup_index(group)
        assert brute == want
        # the divisibility certificate must never outrun the brute-force value
        k = 2
        while factorial(k) // 2 % group.order != 0:
            k += 1
        assert k <= brute
    _announce(5, "brute-force minimal index 5/6/7 on A5/A6/PSL2(7); "
                 "divisibility never exceeds it")


def test_criterion_6_rh_oracle(group_of):
    psl7 = group_of("PSL2:7")
    for g in range(0, 3):
        assert acts_on_genus_le(psl7, g).verdict == "no"
    hit = acts_on_genus_le(psl7, 3)
    assert hit.verdict == "yes" and hit.genus == 3
    assert hit.signature == Signature(0, (2, 3, 7))
    assert validate_vector(psl7, hit.signature, hit.vector)

    a5 = group_of("A:5")
    sphere = acts_on_genus_le(a5, 0)
    assert sphere.verdict == "yes" and sphere.genus == 0
    assert sphere.signature == Signature(0, (2, 3, 5))
    assert validate_vector(a5, sphere.signature, sphere.vector)

    # manual recheck of both witnesses, independent of validate_vector
    for group, verdict in ((psl7, hit), (a5, sphere)):
        product = Permutation.identity(group.degree)
        for c in verdict.vector.elliptic:
            product = product * c
        assert product.is_identity()
        assert group.subgroup(verdict.vector.elliptic).order == group.order
    _announce(6, "minimal genus 3 for PSL2(7) via (0; 2,3,7); A5 at genus 0 "
                 "via (0; 2,3,5); witnesses revalidated independently")


def test_criterion_7_baseline_strictness(group_of):
    pairs = (("A:7", 6), ("PSL2:7", 2), ("PSL2:11", 3), ("PSL2:13", 4))
    for text, n in pairs:
        group = group_of(text)
        report = compare_rhs(group, n)
        assert report.rhs_upper_bound == 1, text
        assert report.strict, text
        # Sylow witnesses recomputed from scratch
        for entry in report.entries:
            fresh = sylow_report(group, entry.prime)
            assert fresh.order == entry.sylow.order
            assert fresh.shape == entry.sylow.shape
        assert certify(group, n, "computed").overall == "certified"
    _announce(7, "baseline rhs upper bound 1 and strictness for the four "
                 "sample pairs, with Sylow witnesses recomputed")


def test_criterion_8_randomized_chain_integrity():
    rng = random.Random(20260809)
    for trial in range(50):
        a = list(range(7))
        b = list(range(7))
        rng.shuffle(a)
        rng.shuffle(b)
        group = PermGroup([Permutation(a), Permutation(b)])
        # independent exhaustive closure over raw image tuples
        elems = {identity_tuple(7)}
        queue = [identity_tuple(7)]
        gens = [tuple(a), tuple(b)]
        while queue:
            x = queue.pop()
            for s in gens:
                y = compose(x, s)
                if y not in elems:
                    elems.add(y)
                    queue.append(y)
        assert group.order == len(elems)
        for p in prime_factors(group.order):
            rep = sylow_report(group, p)
            v, rest = 0, group.order
            while rest % p == 0:
                v += 1
                rest //= p
            assert rep.order == p ** v
    _announce(8, "50 random S7 subgroups: chain order equals exhaustive count; "
                 "Sylow orders are the full p-parts")


_REGRESSION = [
    ("certify", "--group", "A:7", "--n", "6"),
    ("certify", "--group", "A:5", "--n", "2"),
    ("certify", "--group", "PSL2:7", "--n", "2"),
    ("certify", "--group", "PSL2:7", "--n", "3"),
    ("maxn", "--group", "A:7"),
    ("maxn", "--group", "PSL2:13", "--mode", "paper-formula"),
    ("compare", "--group", "A:7", "--n", "6"),
    ("compare", "--group", "PSL2:11", "--n", "3"),
    ("rh", "--group", "PSL2:7", "--genus-max", "3"),
    ("oracle", "rh", "--group", "A:5", "--genus-max", "0"),
    ("oracle", "min-index", "--group", "A:5"),
    ("bounds", "h_n", "--n", "6"),
    ("bounds", "castelnuovo", "--n1", "2", "--g1", "0", "--n2", "3", "--g2", "1"),
]


def test_criterion_9_determinism(capsys):
    def sweep():
        outputs = []
        for argv in _REGRESSION:
            code, out = run_cli(capsys, *argv, "--json", "--no-timing")
            outputs.append((argv, code, out))
        return outputs

    first = sweep()
    second = sweep()
    assert first == second
    for argv, code, out in first:
        json.loads(out)  # every payload is valid JSON
    _announce(9, "two runs of the CLI regression produce byte-identical JSON")


def test_table_csv_regression(capsys):
    # cross-command check riding on the acceptance run: the printed table
    # agrees with the library values at the sample primes
    code, out = run_cli(capsys, "table", "--family", "PSL2", "--pmin", "7", "--pmax", "13",
                        "--mode", "paper-formula", "--csv")
    assert code == 0
    rows = {int(r["p"]): r for r in csv.DictReader(io.StringIO(out))}
    assert [int(rows[p]["maxn"]) for p in (7, 11, 13)] == [2, 3, 4]
