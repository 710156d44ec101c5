"""Smoke tests: each demo runs to the end and prints its key results."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_parity_separation(capsys):
    out = _run_demo("parity_separation.py", capsys)
    assert "M after the B-side pair swap: 2 (even)" in out
    assert "M after the D-side pair swap: 1 (odd)" in out
    assert "16/16 window states agree" in out
    assert "verdict: not conjugate in stabilized monodromy group" in out


def test_factorization_census(capsys):
    out = _run_demo("factorization_census.py", capsys)
    assert "formulas: m=20 cusps=60 nu=12 tangencies=60" in out
    assert "'tangency': 60, 'pos_node': 12, 'neg_node': 0, 'cusp': 60" in out
    assert "verdict: distinguished" in out


def test_transvection_groups(capsys):
    out = _run_demo("transvection_groups.py", capsys)
    # closure sizes against the order formulas: 120, 720 and 51840
    sizes = re.findall(r":\s+(\d+)\s+\(\|[^|]+\|\s+= (\d+)\)", out)
    assert sizes == [("120", "120"), ("720", "720"), ("51840", "51840")]
    arfs = re.findall(r"arf=(\d) oracle=(\d) \(a mod 2 = (\d)\)", out)
    assert arfs == [("0", "0", "0"), ("0", "0", "0"), ("1", "1", "1")]
