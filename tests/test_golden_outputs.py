"""Byte-for-byte regression of CLI outputs recorded in tests/data.

The hybrid files were first written by an engine that partitioned the whole
group into conjugacy classes and closed every (involution, order-3) pair.
The computed and paper-formula files were first written while `maxn`
computed its per-condition maxima apart from the condition deciders and
the genus oracle listed every branch datum up to the requested genus.
Since `maxn` reads each maximum from the decider `certify` runs, three
files were re-recorded: PSL2:11's condition-3 maximum rose from 4 to 6 (the
oracle's minimal genus, 26) in `maxn_psl2_11_computed.json` and in the
p = 11 row of the hybrid table, and the computed perm A5 reads condition 1
by divisibility instead of the subgroup search.  Hybrid `maxn` on PSL2(p)
within the enumeration cap now takes its condition-2 witness from a
bounded word search that stops at Dickson's order of the largest Moebius
subgroup, so `maxn_psl2_{23,29,41}_hybrid.json` were re-recorded: in each,
only `details.cond2` changed (method `witness_search`, the bound's
provenance and the witness; PSL2(23) now shows a dihedral group of order
24 instead of S4).  The same order, and so every maximum, is unchanged.
Computed `certify` now takes condition 2 from a word witness before any
search stage runs, so `certify_a5_n5.json`, `certify_a6_n6.json` and
`certify_psl2_11_n6.json` were re-recorded: in each, only condition 2
changed (method `word_search`, the word witness, and no per-stage maxima),
and its verdict did not.  The files pin every method `maxn` and `certify` report.  The last three
were recorded before the subgroup search stopped at |G| // k0 and the
vector search at its orbit check, and pin the witnesses both searches
return.  The two PSL2 tables 7..199, in paper-formula and hybrid mode, were
recorded before the chain multiplied against prepared right-factor tables
and skipped identity Schreier generators: every one of their 43 rows builds
a stabilizer chain, and the hybrid rows up to p = 53 enumerate it, so they
pin what the chain's products feed into across the paper's whole range.
`compare_psl2_11_n3.json` and `rh_a6_g10.json` were recorded while every
record wrote its JSON by hand, and pin the JSON that records now derive
from their fields.  `certify_psl2_7_n3_paper_formula.json` and
`certify_psl2_11_n5_paper_formula.json` were recorded once paper-formula
condition 3 stopped refuting from the Hurwitz bound without a witness.
"""

from pathlib import Path

import pytest

from edcert.cli import main

DATA = Path(__file__).parent / "data"
JSON = ["--json", "--no-timing"]

CASES = [
    ("table_psl2_7_31_hybrid.csv",
     ["table", "--family", "PSL2", "--pmin", "7", "--pmax", "31", "--mode", "hybrid", "--csv"], 0),
] + [
    # the paper's whole PSL2 table, whose rows all start with a chain build
    (f"table_psl2_7_199_{mode.replace('-', '_')}.csv",
     ["table", "--family", "PSL2", "--pmin", "7", "--pmax", "199", "--mode", mode, "--csv"], 0)
    for mode in ("paper-formula", "hybrid")
] + [
    (f"maxn_psl2_{p}_hybrid.json", ["maxn", "--group", f"PSL2:{p}", "--mode", "hybrid", *JSON], 0)
    for p in (23, 29, 41)  # word-search witnesses: dihedral, A5 and dihedral
] + [
    # literature constants, the oracle's minimal genus, divisibility and the brute-force search
    (f"maxn_{tag}_{mode.replace('-', '_')}.json", ["maxn", "--group", group, "--mode", mode, *JSON], 0)
    for group, tag in (("A:7", "a7"), ("PSL2:11", "psl2_11"), ("perm:5:(0 1 2 3 4),(0 1 2)", "perm5_a5"))
    for mode in ("computed", "paper-formula")
] + [
    ("certify_a5_n5.json", ["certify", "--group", "A:5", "--n", "5", *JSON], 1),  # witness_subgroup
    ("certify_psl2_17_n5_paper_formula.json",
     ["certify", "--group", "PSL2:17", "--n", "5", "--mode", "paper-formula", *JSON], 0),  # non_strict Hurwitz
    ("certify_psl2_11_n6.json", ["certify", "--group", "PSL2:11", "--n", "6", *JSON], 0),  # rh_oracle
    ("certify_psl2_7_n40.json", ["certify", "--group", "PSL2:7", "--n", "40", *JSON], 1),  # witness far below the cap
    # the first witnesses of the two brute-force searches: the pair search's index-6 subgroup, the index
    # it proves, and the vector search's first generating vector
    ("certify_a6_n6.json", ["certify", "--group", "A:6", "--n", "6", *JSON], 1),
    ("oracle_min_index_psl2_7.json", ["oracle", "min-index", "--group", "PSL2:7", *JSON], 0),
    ("oracle_rh_a6_g10.json", ["oracle", "rh", "--group", "A:6", "--genus-max", "10", *JSON], 0),
    # compare's CompareReport, PrimeEntry and SylowReport, and the rh table's Signature and GeneratingVector
    ("compare_psl2_11_n3.json", ["compare", "--group", "PSL2:11", "--n", "3", *JSON], 0),
    ("rh_a6_g10.json", ["rh", "--group", "A:6", "--genus-max", "10", "--no-timing"], 0),
] + [
    # paper-formula condition 3 past its Hurwitz reading: the oracle's witness refutes (p = 7); its `no`
    # leaves the condition unknown (p = 11, once a false refutation)
    (f"certify_psl2_{p}_n{n}_paper_formula.json",
     ["certify", "--group", f"PSL2:{p}", "--n", str(n), "--mode", "paper-formula", *JSON], 1)
    for p, n in ((7, 3), (11, 5))
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[name for name, _, _ in CASES])
def test_output_is_byte_identical(capsys, name, argv, code):
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()  # the CSV ends lines with CRLF
