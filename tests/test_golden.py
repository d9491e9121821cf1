"""The CLI against stored golden values (tests/golden, written by make_golden.py).

Each case reruns its argv in a fresh interpreter with one BLAS thread and
compares every metadata value and CSV cell: text and integers exactly,
floats within 1e-9 relative.  A case with a plot compares its polyline
points within SVG_PX and the rest of its SVG text exactly.
"""

import json
import math
import os

import pytest

from golden.make_golden import CASES, GLOBAL, HERE, _moves, run_case

REL = 1e-9
# Pixel coordinates are written with two decimals, so a last-bit move of a
# value can flip one by 0.01 px.
SVG_PX = 0.011


def _same(want: str, got: str) -> bool:
    try:
        int(want)
        return got == want
    except ValueError:
        pass
    try:
        w, g = float(want), float(got)
    except ValueError:
        return got == want
    return (math.isnan(w) and math.isnan(g)) or math.isclose(g, w, rel_tol=REL, abs_tol=0.0)


def test_same_float_rule():
    assert _same("0.1", "0.10000000000000001")
    assert _same("1.0", str(1.0 + 5e-10)) and not _same("1.0", str(1.0 + 2e-9))
    assert not _same("0.0", "1e-300") and not _same("3", "3.0")
    assert _same("nan", "nan") and not _same("true", "false")


def test_moves_reports_what_a_rewrite_changes():
    old = {"meta": {"seed": "42", "hash": "ab"}, "rows": [["1", "0.5"], ["2", "2e-16"]],
           "svg": {"points": [[[1.0, 2.0]]]}}
    new = {"meta": {"seed": "42", "hash": "cd"}, "rows": [["1", "0.75"], ["2", "2e-16"]],
           "svg": {"points": [[[1.0, 2.5]]]}}
    assert _moves(old, old) == ("changed 0 metadata values, 0 cells, 0 plot coordinates; "
                                "largest relative change 0")
    assert _moves(old, new) == ("changed 1 metadata values, 1 cells, 1 plot coordinates; "
                                "largest relative change 0.5")
    new["rows"][1][1] = "0.0"
    assert _moves(new, old).endswith("largest relative change inf")


def test_every_case_has_a_golden_file():
    names = {f[:-5] for f in os.listdir(HERE) if f.endswith(".json")}
    assert names == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    with open(os.path.join(HERE, f"{name}.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    assert want["argv"] == GLOBAL + CASES[name]
    got = run_case(want["argv"])
    assert got["header"] == want["header"]
    assert got["meta"].keys() == want["meta"].keys()
    for key, value in want["meta"].items():
        assert _same(value, got["meta"][key]), (key, value, got["meta"][key])
    assert len(got["rows"]) == len(want["rows"])
    for i, (w_row, g_row) in enumerate(zip(want["rows"], got["rows"])):
        assert len(g_row) == len(w_row), i
        assert all(_same(w, g) for w, g in zip(w_row, g_row)), (i, w_row, g_row)
    assert ("svg" in got) == ("svg" in want)
    if "svg" in want:
        assert got["svg"]["text"] == want["svg"]["text"]
        assert [len(line) for line in got["svg"]["points"]] == [
            len(line) for line in want["svg"]["points"]]
        for w_line, g_line in zip(want["svg"]["points"], got["svg"]["points"]):
            assert max(abs(g - w) for w_pt, g_pt in zip(w_line, g_line)
                       for w, g in zip(w_pt, g_pt)) <= SVG_PX, (w_line, g_line)
