"""Byte-for-byte regression of hybrid-mode outputs recorded in tests/data.

The files were written by an engine that partitioned the whole group into
conjugacy classes and closed every (involution, order-3) pair, so they pin
the witnesses the per-order partition and the ord(ab) filter must keep.
"""

from pathlib import Path

import pytest

from edcert.cli import main

DATA = Path(__file__).parent / "data"

CASES = [
    ("table_psl2_7_31_hybrid.csv",
     ["table", "--family", "PSL2", "--pmin", "7", "--pmax", "31", "--mode", "hybrid", "--csv"]),
] + [
    (f"maxn_psl2_{p}_hybrid.json", ["maxn", "--group", f"PSL2:{p}", "--mode", "hybrid", "--json", "--no-timing"])
    for p in (23, 29, 41)  # S4, A5 and dihedral witnesses
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_is_byte_identical(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()  # the CSV ends lines with CRLF
