import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from edcert import cli, permgroup, rhoracle
from edcert.catalogue import build, parse_group_spec
from edcert.cli import main
from edcert.errors import BUDGETS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json", "--no-timing")
    return code, json.loads(out)


def test_certify_exit_codes(capsys):
    code, _, _ = run(capsys, "certify", "--group", "A:7", "--n", "6")
    assert code == 0
    code, _, _ = run(capsys, "certify", "--group", "A:5", "--n", "2")
    assert code == 1
    code, _, err = run(capsys, "certify", "--group", "PSL2:6", "--n", "2")
    assert code == 2
    assert "prime" in err


def test_certify_json_schema(capsys):
    code, envelope = run_json(capsys, "certify", "--group", "A:7", "--n", "6")
    assert code == 0
    payload = envelope["payload"]
    assert set(payload) == {"group", "n", "mode", "conditions", "overall", "constants", "notes"}
    assert payload["group"] == "A:7"
    assert payload["overall"] == "certified"
    assert [c["condition"] for c in payload["conditions"]] == [
        "no_small_index",
        "mobius_subgroup",
        "no_small_genus_action",
    ]
    assert envelope["version"]
    assert "timing_ms" not in envelope


def test_certify_n_below_two_is_usage_error(capsys):
    code, _, err = run(capsys, "certify", "--group", "A:7", "--n", "1")
    assert code == 2


def test_maxn_values(capsys):
    code, envelope = run_json(capsys, "maxn", "--group", "PSL2:13", "--mode", "paper-formula")
    assert code == 0 and envelope["payload"]["maxn"] == 4
    code, envelope = run_json(capsys, "maxn", "--group", "PSL2:17", "--mode", "paper-formula")
    assert code == 0 and envelope["payload"]["maxn"] == 6
    code, envelope = run_json(capsys, "maxn", "--group", "A:7")
    assert code == 0 and envelope["payload"]["maxn"] == 6
    assert envelope["payload"]["binding"]


@pytest.mark.parametrize("argv", [["--group", "A:9", "--mode", "hybrid"],
                                  ["--group", "A:7", "--mode", "hybrid", "--cap", "100"]])
def test_maxn_unknown_exits_one(capsys, argv):
    code, envelope = run_json(capsys, "maxn", *argv)
    assert code == 1
    assert envelope["payload"]["maxn"] is None and envelope["payload"]["binding"] == "unknown"


def test_maxn_non_simple_is_input_error(capsys):
    code, _, err = run(capsys, "maxn", "--group", "S:4")
    assert code == 2


def test_table_csv_contract(capsys):
    code, out, _ = run(capsys, "table", "--family", "PSL2", "--pmin", "7", "--pmax", "13",
                       "--mode", "paper-formula", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "order", "cond1_max", "cond2_max", "cond3_max", "maxn", "binding"]
    table = {int(r[0]): r for r in rows[1:]}
    assert [int(table[p][5]) for p in (7, 11, 13)] == [2, 3, 4]
    assert int(table[7][1]) == 168


def test_computed_table_over_cap_rows_are_unknown(capsys):
    code, out, _ = run(capsys, "table", "--family", "PSL2", "--pmin", "53", "--pmax", "61",
                       "--mode", "computed", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == ["53", "59", "61"]  # primes only; 4 lines with the header
    assert rows[0][5] != "unknown"
    assert rows[1] == ["59", "102660"] + ["unknown"] * 5
    assert rows[2] == ["61", "113460"] + ["unknown"] * 5


def test_table_rejects_small_pmin(capsys):
    code, _, err = run(capsys, "table", "--family", "PSL2", "--pmin", "5", "--pmax", "7")
    assert code == 2


def test_table_workers_match_sequential(capsys):
    _, solo, _ = run(capsys, "table", "--family", "PSL2", "--pmin", "7", "--pmax", "19",
                     "--mode", "paper-formula", "--csv")
    _, pooled, _ = run(capsys, "table", "--family", "PSL2", "--pmin", "7", "--pmax", "19",
                       "--mode", "paper-formula", "--csv", "--workers", "3")
    assert solo == pooled


def test_compare_json(capsys):
    code, envelope = run_json(capsys, "compare", "--group", "A:7", "--n", "6")
    assert code == 0
    payload = envelope["payload"]
    assert payload["rhs_upper_bound"] == 1
    assert payload["strict"] is True
    assert {e["prime"] for e in payload["entries"]} == {2, 3, 5, 7}


def test_rh_signature_table(capsys):
    code, envelope = run_json(capsys, "rh", "--group", "PSL2:7", "--genus-max", "3")
    assert code == 0
    labels = {entry["label"]: entry for entry in envelope["payload"]}
    assert "(0; 2,3,7)" in labels
    assert labels["(0; 2,3,7)"]["vector"] is not None
    assert labels["(0; 2,3,7)"]["genus"] == 3


def test_rh_prints_no_vector_that_fails_validation(capsys, monkeypatch):
    search = rhoracle.find_generating_vector

    def corrupted(group, sig):
        vec = search(group, sig)
        return vec and rhoracle.GeneratingVector(vec.hyperbolic, vec.elliptic[:-1])

    monkeypatch.setattr(rhoracle, "find_generating_vector", corrupted)
    code, out, err = run(capsys, "rh", "--group", "PSL2:7", "--genus-max", "3")
    assert (code, out) == (3, "")
    assert "invalid vector" in err


def test_oracle_rh_exits_three_on_an_internal_error(capsys, monkeypatch):
    # a witness that fails its re-check is a bug, not a negative answer; genus
    # 3 is PSL2(7)'s least, so a bound of 2 finds no witness to re-check
    monkeypatch.setattr(rhoracle, "validate_vector", lambda group, sig, vec: False)
    code, out, err = run(capsys, "oracle", "rh", "--group", "PSL2:7", "--genus-max", "3")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and "invalid vector" in err
    code, envelope = run_json(capsys, "oracle", "rh", "--group", "PSL2:7", "--genus-max", "2")
    assert (code, envelope["payload"]["verdict"]) == (1, "no")


def test_rh_honours_the_cap_flag(capsys):
    code, out, err = run(capsys, "rh", "--group", "PSL2:7", "--genus-max", "3", "--cap", "100")
    assert code == 1 and out == ""
    assert "exceeds the enumeration cap 100" in err


def test_rh_honours_the_environment_cap(capsys, monkeypatch):
    monkeypatch.setenv("EDCERT_CAP", "100")
    code, out, err = run(capsys, "rh", "--group", "PSL2:7", "--genus-max", "3")
    assert code == 1 and out == ""
    assert "exceeds the enumeration cap 100" in err


def test_oracle_min_index(capsys):
    code, envelope = run_json(capsys, "oracle", "min-index", "--group", "A:5")
    assert code == 0 and envelope["payload"]["min_index"] == 5
    code, _, _ = run(capsys, "oracle", "min-index", "--group", "A:7")
    assert code == 1  # over the subgroup-search cap


@pytest.mark.parametrize("form", ["flag", "environment"])
@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--group", "A:5", "--n", "3"),
        ("maxn", "--group", "A:5"),
        ("compare", "--group", "A:5", "--n", "3"),
        ("rh", "--group", "A:5", "--genus-max", "3"),
        ("oracle", "rh", "--group", "A:5", "--genus-max", "3"),
        ("oracle", "min-index", "--group", "A:5"),
    ],
    ids=["certify", "maxn", "compare", "rh", "oracle-rh", "oracle-min-index"],
)
def test_every_group_command_honours_the_enumeration_cap(capsys, monkeypatch, argv, form):
    enumerated = []
    elements = permgroup.StabilizerChain.elements

    def recording(chain):
        enumerated.append(chain.order())
        return elements(chain)

    monkeypatch.setattr(permgroup.StabilizerChain, "elements", recording)
    if form == "flag":
        argv += ("--cap", "10")
    else:
        monkeypatch.setenv("EDCERT_CAP", "10")
    code, _, _ = run(capsys, *argv)
    assert code == 1
    assert all(order <= 10 for order in enumerated)


def test_oracle_min_index_answers_a_non_perfect_group_past_the_search_cap(capsys):
    # |S7| = 5040 is past the subgroup-search cap, but A7 = S7' has index 2
    code, envelope = run_json(capsys, "oracle", "min-index", "--group", "S:7")
    assert code == 0 and envelope["payload"]["min_index"] == 2


def test_oracle_min_index_unknown_exits_1(capsys):
    # C2^4:C5: its translations have index 5, which the subgroup search misses
    c2_4_c5 = "perm:16:(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13)(14 15),(1 8 12 10 15)(2 3 11 7 13)(4 6 5 14 9)"
    code, envelope = run_json(capsys, "oracle", "min-index", "--group", c2_4_c5)
    assert code == 1
    assert envelope["payload"]["min_index"] is None
    assert envelope["payload"]["reason"]


def test_oracle_rh(capsys):
    code, envelope = run_json(capsys, "oracle", "rh", "--group", "PSL2:7", "--genus-max", "3")
    assert code == 0
    assert envelope["payload"]["genus"] == 3
    assert envelope["payload"]["signature"] == {"orbit_genus": 0, "periods": [2, 3, 7]}
    code, envelope = run_json(capsys, "oracle", "rh", "--group", "PSL2:7", "--genus-max", "2")
    assert code == 1
    assert envelope["payload"]["verdict"] == "no"


def _oracle_rh_by_genus(text, genus_max):
    """Reference: (exit code, payload) of `oracle rh` asked one genus at a time."""
    group = build(parse_group_spec(text))
    for g in range(genus_max + 1):
        v = rhoracle.acts_on_genus_le(group, g)
        if v.verdict == rhoracle.YES:
            return 0, v.to_json()
        if v.verdict == rhoracle.UNKNOWN:
            return 1, v.to_json()
    return 1, rhoracle.acts_on_genus_le(group, genus_max).to_json()


@pytest.mark.parametrize(
    "text, genus_max, caps",
    [
        ("A:5", 10, {}),
        ("PSL2:7", 10, {}),
        ("PSL2:7", 2, {}),
        ("A:6", 10, {}),
        ("C:6", 10, {}),
        ("C:6", -1, {}),  # no genus to search: "no" without asking the oracle
        # past the search cap: "no" below genus 2 by the rule, else "unknown" before the walk
        ("PSL2:7", 10, {"oracle_search": 100}),
        ("A:6", 10, {"oracle_search": 100}),
        # bounds far above the minimal genus
        ("PSL2:7", 1000, {}),
        ("A:6", 1000, {}),
        ("PSL2:7", 1000, {"oracle_search": 100}),
    ],
)
def test_oracle_rh_matches_per_genus_search(capsys, monkeypatch, text, genus_max, caps):
    for budget, value in caps.items():  # lowered for the command and the reference alike
        monkeypatch.setitem(BUDGETS, budget, value)
    code, envelope = run_json(capsys, "oracle", "rh", "--group", text, "--genus-max", str(genus_max))
    assert (code, envelope["payload"]) == _oracle_rh_by_genus(text, genus_max)


def _record_searched_genera(monkeypatch):
    """The genus of every branch datum handed to the vector search."""
    searched = []
    search = rhoracle.find_generating_vector

    def recording(group, sig):
        searched.append(int(rhoracle.rh_genus(group.order, sig)))
        return search(group, sig)

    monkeypatch.setattr(rhoracle, "find_generating_vector", recording)
    return searched


def test_oracle_rh_cost_follows_minimal_genus(capsys, monkeypatch):
    searched = _record_searched_genera(monkeypatch)
    code, envelope = run_json(capsys, "oracle", "rh", "--group", "A:5", "--genus-max", "100000")
    assert code == 0 and envelope["payload"]["genus"] == 0
    assert searched == [0]  # A5 is the genus <= 1 rule's exception: (0; 2,3,5) is searched
    searched.clear()
    code, envelope = run_json(capsys, "oracle", "rh", "--group", "PSL2:7", "--genus-max", "100000")
    assert code == 0 and envelope["payload"]["genus"] == 3
    assert max(searched) <= 3
    searched.clear()
    code, envelope = run_json(capsys, "oracle", "rh", "--group", "A:6", "--genus-max", "100000")
    assert code == 0 and envelope["payload"]["genus"] == 10
    assert max(searched) <= 10


def test_oracle_rh_stops_at_the_vector_search_cap(capsys, monkeypatch):
    # |PSL2(13)| = 1092 is within the listing cap but beyond the search cap,
    # so the oracle answers "unknown" before searching any datum
    searched = _record_searched_genera(monkeypatch)
    code, envelope = run_json(capsys, "oracle", "rh", "--group", "PSL2:13", "--genus-max", "100000")
    assert code == 1
    assert envelope["payload"]["verdict"] == "unknown"
    assert envelope["payload"]["reason"] == rhoracle.CAPPED
    assert searched == []


@pytest.mark.parametrize("text", ["PSL2:7", "A:6", "PSL2:11", "perm:7:(0 1 2 3 4 5 6),(0 1)(2 4)"])
def test_genus_le1_data_are_excluded_by_the_rule_not_searched(capsys, monkeypatch, text):
    searched = _record_searched_genera(monkeypatch)
    code, _ = run_json(capsys, "oracle", "rh", "--group", text, "--genus-max", "30")
    assert code == 0 and searched and min(searched) >= 2
    searched.clear()
    code, _ = run_json(capsys, "maxn", "--group", text)
    assert code == 0 and searched and min(searched) >= 2


def test_certify_large_n_stops_at_the_minimal_genus(capsys, monkeypatch):
    searched = _record_searched_genera(monkeypatch)
    code, envelope = run_json(capsys, "certify", "--group", "A:6", "--n", "166")
    assert code == 1 and envelope["payload"]["overall"] == "refuted"
    genus = envelope["payload"]["conditions"][2]
    assert (genus["verdict"], genus["method"]) == ("refuted", "rh_oracle")
    assert genus["detail"]["witness"]["genus"] == 10
    assert max(searched) <= 10


def test_oracle_min_index_stops_at_the_index_k0_subgroup(capsys, monkeypatch):
    # A6 has no proper subgroup of more than 360 // 6 elements, so the pair
    # search stops at its first A5 instead of closing every pair
    closures = []
    closed = permgroup.closed_subgroup

    def counting(*args):
        closures.append(args)
        return closed(*args)

    monkeypatch.setattr(permgroup, "closed_subgroup", counting)
    code, envelope = run_json(capsys, "oracle", "min-index", "--group", "A:6")
    assert code == 0 and envelope["payload"]["min_index"] == 6
    assert len(closures) <= 50


def test_oracle_rh_builds_chains_only_for_vectors_with_the_full_orbit(capsys, monkeypatch):
    chains = []
    chain, search = rhoracle.StabilizerChain, rhoracle.find_generating_vector
    inside = []

    def counting(*args):
        if inside:
            chains.append(args)
        return chain(*args)

    def searching(*args):
        inside.append(True)
        try:
            return search(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(rhoracle, "StabilizerChain", counting)
    monkeypatch.setattr(rhoracle, "find_generating_vector", searching)
    code, envelope = run_json(capsys, "oracle", "rh", "--group", "A:6", "--genus-max", "10")
    assert code == 0 and envelope["payload"]["genus"] == 10
    assert 0 < len(chains) <= 100


def test_paper_formula_table_builds_no_chain(capsys, chain_builds):
    # every paper-formula value is a literature constant or the family order
    code, out, _ = run(capsys, "table", "--family", "PSL2", "--pmin", "7", "--pmax", "199",
                       "--mode", "paper-formula", "--csv")
    assert code == 0 and len(out.splitlines()) == 1 + 43
    assert chain_builds == []


def test_hybrid_table_builds_no_chain_from_p_13(capsys, chain_builds):
    # past the oracle's vector-search cap the hybrid row reads the generators
    # (the witness words) and literature constants, never the chain: the
    # oracle answers `unknown` before it decides simplicity
    code, out, _ = run(capsys, "table", "--family", "PSL2", "--pmin", "13", "--pmax", "199",
                       "--mode", "hybrid", "--csv")
    assert code == 0 and len(out.splitlines()) == 1 + 41
    assert chain_builds == []
    code, out, _ = run(capsys, "table", "--family", "PSL2", "--pmin", "11", "--pmax", "11", "--mode", "hybrid", "--csv")
    assert code == 0 and chain_builds  # the oracle searches PSL2(11), of order 660


@pytest.mark.parametrize("mode", ["paper-formula", "hybrid"])
def test_maxn_on_a_large_psl2_builds_no_chain(capsys, chain_builds, mode):
    # a chain of PSL2(2003) holds millions of image entries; the row needs none of them
    code, envelope = run_json(capsys, "maxn", "--group", "PSL2:2003", "--mode", mode)
    assert code == 0 and envelope["payload"]["constants"]["order"] == 2003 * (2003**2 - 1) // 2
    assert chain_builds == []


def test_oracle_bounds_h_n(capsys):
    # the h_n table has one path, `bounds h_n`
    assert cli.main(["oracle", "bounds", "h_n", "--n", "6", "--json"]) == 2
    assert capsys.readouterr().out == ""


def test_bounds_commands(capsys):
    code, envelope = run_json(capsys, "bounds", "castelnuovo", "--n1", "2", "--g1", "0", "--n2", "3", "--g2", "1")
    assert code == 0 and envelope["payload"]["bound"] == 5
    code, envelope = run_json(capsys, "bounds", "genus-cap", "--n", "6")
    assert envelope["payload"]["genus_cap"] == 25
    code, envelope = run_json(capsys, "bounds", "hurwitz", "--order", "2520")
    assert envelope["payload"]["hurwitz_min_genus"] == 31
    code, envelope = run_json(capsys, "bounds", "h_n", "--n", "6")
    assert envelope["payload"]["max"] == 25 and envelope["payload"]["argmax"] == [1, 6]


def test_bounds_gonality(capsys):
    code, envelope = run_json(capsys, "bounds", "gonality", "--order", "2520", "--n", "6",
                              "--action-verdict", "no")
    assert code == 0 and envelope["payload"]["verdict"] == "obstructed"
    code, envelope = run_json(capsys, "bounds", "gonality", "--order", "60", "--n", "60",
                              "--action-verdict", "unknown")
    assert code == 1 and envelope["payload"]["verdict"] == "not_obstructed"



def test_bounds_gonality_rejects_order_zero(capsys):
    code, _, err = run(capsys, "bounds", "gonality", "--order", "0", "--n", "2", "--action-verdict", "no")
    assert code == 2
    assert "order" in err

def test_cap_flag_degrades_certify(capsys):
    code, envelope = run_json(capsys, "certify", "--group", "PSL2:19", "--n", "2", "--cap", "100")
    assert code == 1
    assert envelope["payload"]["overall"] == "unknown"


def test_environment_cap(capsys, monkeypatch):
    monkeypatch.setenv("EDCERT_CAP", "100")
    code, envelope = run_json(capsys, "certify", "--group", "PSL2:19", "--n", "2")
    assert code == 1 and envelope["payload"]["overall"] == "unknown"
    # the per-command flag wins over the environment
    code, envelope = run_json(capsys, "certify", "--group", "PSL2:19", "--n", "2", "--cap", "100000")
    assert code == 0 and envelope["payload"]["overall"] == "certified"
    monkeypatch.setenv("EDCERT_CAP", "not-a-number")
    code, _, err = run(capsys, "certify", "--group", "PSL2:19", "--n", "2")
    assert code == 2
    # a bad environment value is an error even when the flag would win
    for bad in ("not-a-number", "0"):
        monkeypatch.setenv("EDCERT_CAP", bad)
        code, _, err = run(capsys, "certify", "--group", "PSL2:19", "--n", "2", "--cap", "100")
        assert code == 2 and "EDCERT_CAP" in err


def test_malformed_flags_exit_2(capsys):
    assert main(["certify", "--group"]) == 2
    assert main(["certify"]) == 2
    assert main(["unknown-command"]) == 2
    assert main(["certify", "--group", "A:7", "--n", "not-a-number"]) == 2


def test_one_parser_serves_every_call(capsys):
    valid = ("certify", "--group", "A:7", "--n", "6", "--json", "--no-timing")
    cli._build_parser.cache_clear()
    alone = run(capsys, *valid)
    cli._build_parser.cache_clear()
    assert run(capsys, "certify", "--group", "A:7", "--n", "not-a-number")[0] == 2
    assert run(capsys, *valid) == alone
    assert cli._build_parser() is cli._build_parser()


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "--group", "A:7", "--n", "6", "--json", "--no-timing",
                     "--out", str(target))
    assert code == 0
    on_disk = json.loads(target.read_text())
    assert on_disk["payload"]["overall"] == "certified"


@pytest.mark.parametrize("target", ["a directory", "a missing parent"])
def test_out_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, target):
    path = tmp_path if target == "a directory" else tmp_path / "missing" / "cert.json"
    code, out, err = run(capsys, "certify", "--group", "A:5", "--n", "3", "--json", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1


def test_json_outputs_are_byte_identical(capsys):
    first = run(capsys, "certify", "--group", "A:7", "--n", "6", "--json", "--no-timing")
    second = run(capsys, "certify", "--group", "A:7", "--n", "6", "--json", "--no-timing")
    assert first == second


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_table_text_output(capsys):
    code, out, _ = run(capsys, "table", "--family", "PSL2", "--pmin", "7", "--pmax", "11",
                       "--mode", "paper-formula")
    assert code == 0
    assert "binding" in out and "168" in out


def test_rh_over_cap_exits_one(capsys):
    code, _, err = run(capsys, "rh", "--group", "PSL2:31", "--genus-max", "2")
    assert code == 1
    assert "cap" in err


def test_rh_listing_stops_at_the_enumeration_cap(capsys):
    # C:6 has 926,088 branch data up to genus 200, more than the cap of 10,000;
    # the listing stops at the cap instead of running for minutes
    started = time.perf_counter()
    code, _, err = run(capsys, "rh", "--group", "C:6", "--genus-max", "200")
    assert code == 1
    assert "more than 10000 branch data" in err
    assert time.perf_counter() - started < 10


def test_oracle_rh_undecided_exits_one(capsys):
    code, out, _ = run(capsys, "oracle", "rh", "--group", "C:6", "--genus-max", "1")
    assert code == 1


def test_environment_cap_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv("EDCERT_CAP", "0")
    code, _, err = run(capsys, "certify", "--group", "A:5", "--n", "2")
    assert code == 2
    assert "must be positive" in err and "EDCERT_CAP" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_flag_must_be_positive(capsys, cap):
    code, _, err = run(capsys, "certify", "--group", "A:5", "--n", "2", "--cap", cap)
    assert code == 2
    assert "must be positive" in err and "--cap" in err


@pytest.mark.parametrize("cap", ["0", "-3", "100"])
@pytest.mark.parametrize(
    "argv",
    [
        ("castelnuovo", "--n1", "2", "--g1", "0", "--n2", "2", "--g2", "0"),
        ("h_n", "--n", "6"),
        ("genus-cap", "--n", "5"),
        ("hurwitz", "--order", "168"),
        ("gonality", "--order", "168", "--n", "2", "--action-verdict", "no"),
    ],
    ids=["castelnuovo", "h_n", "genus-cap", "hurwitz", "gonality"],
)
def test_bounds_take_no_cap(capsys, argv, cap):
    # the calculators build no group, so an enumeration cap is a usage error
    assert run(capsys, "bounds", *argv)[0] in (0, 1)
    code, out, err = run(capsys, "bounds", *argv, f"--cap={cap}")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --cap" in err


def test_cli_starts_without_dataclasses_or_inspect():
    # a fresh interpreter, since pytest itself loads these modules; bytecode
    # is not written, so the package compiles from source as on a first run
    root = Path(__file__).resolve().parents[1]
    code = "import sys, edcert, edcert.cli; print(' '.join(sorted(set(sys.argv[1:]) & set(sys.modules))))"
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    run = subprocess.run([sys.executable, "-c", code, *heavy], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(root / "src")})
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "\n")
