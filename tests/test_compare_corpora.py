"""scripts/compare_corpora.py: cap law (a) on two corpus files."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "compare_corpora.py"
spec = importlib.util.spec_from_file_location("compare_corpora", SCRIPT)
compare_corpora = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_corpora)


def _corpus(path, verdicts):
    """A corpus file in `cli_corpus.py`'s format: one certify record per
    entry of `verdicts`, plus a maxn record the script must skip."""
    with open(path, "w", newline="") as fh:
        for n, (index, genus) in enumerate(verdicts, start=2):
            conditions = [{"condition": "no_small_index", "verdict": index},
                          {"condition": "no_small_genus_action", "verdict": genus}]
            body = json.dumps({"payload": {"conditions": conditions}}, indent=2)
            fh.write(f"### certify --group A:5 --n {n} --json --no-timing\nexit 1\n{body}\n")
        fh.write("### maxn --group A:5 --json --no-timing\nexit 0\n{}\n")
    return str(path)


def test_a_low_cap_unknown_may_be_decided_at_the_full_cap(tmp_path, capsys):
    full = _corpus(tmp_path / "full.txt", [("certified", "refuted"), ("certified", "certified")])
    low = _corpus(tmp_path / "low.txt", [("certified", "unknown"), ("unknown", "certified")])
    assert compare_corpora.main([full, low]) == 0
    assert capsys.readouterr().out == "2 certify records, 4 conditions compared, 2 decided at the low cap, 0 differ\n"


def test_a_decided_verdict_that_moves_with_the_cap_fails(tmp_path, capsys):
    full = _corpus(tmp_path / "full.txt", [("certified", "refuted")])
    low = _corpus(tmp_path / "low.txt", [("certified", "certified")])
    assert compare_corpora.main([full, low]) == 1
    assert "no_small_genus_action reads refuted at the full cap, certified at the low cap" in capsys.readouterr().out


def test_a_certify_record_in_one_file_only_fails(tmp_path):
    full = _corpus(tmp_path / "full.txt", [("certified", "refuted")])
    low = _corpus(tmp_path / "low.txt", [("certified", "refuted"), ("certified", "refuted")])
    assert compare_corpora.main([full, low]) == 1
