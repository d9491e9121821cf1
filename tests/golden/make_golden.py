"""Write the golden values that tests/test_golden.py checks the CLI against.

    PYTHONPATH=src python tests/golden/make_golden.py [name ...]

Each case runs one small CLI command in a fresh interpreter at seed 42 with
--threads 1 and one BLAS thread (OPENBLAS_NUM_THREADS=1), and stores its argv,
its '#' metadata and its CSV cells, as written, in tests/golden/<name>.json.
A case whose argv ends in --svg also stores its plot: the points of each
polyline, and the rest of the SVG text with those points cut out.  An argv
item may name an input file as {inputs}/<file>, read from tests/golden/inputs.
Regenerate only when an output is meant to change (name the cases to
regenerate just those), and say which in the change log.  For each case it
rewrites, it prints how many metadata values, cells and plot coordinates
moved against the file it replaces, and the largest relative move.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
INPUTS = os.path.join(HERE, "inputs")

GLOBAL = ["--threads", "1", "--seed", "42"]

CASES = {
    "mse-fading-d2": ["mse", "--dist", "fading:a_db=5", "--d", "2", "--n", "4",
                      "--beta", "0.4,0.8", "--gamma-db", "0,10", "--trials", "3",
                      "--table-trials", "3"],
    "mse-hole-d1": ["mse", "--dist", "hole:c=0.5", "--d", "1", "--n", "16",
                    "--beta", "0.5,1", "--gamma-db", "0,10,20", "--trials", "8",
                    "--table-trials", "8"],
    "scenario-fading": ["scenario", "fading", "--a-db", "5", "--beta", "0.4,0.8",
                        "--gamma-db", "0,10", "--n", "4", "--table-trials", "3"],
    "scenario-csma": ["scenario", "csma", "--beta", "0.4,0.8", "--gamma-db", "0,10",
                      "--n", "4", "--table-trials", "3"],
    "scenario-csma-config": ["scenario", "csma", "--config", "{inputs}/csma-window-1.json",
                             "--beta", "0.4,0.8", "--gamma-db", "0,10", "--n", "4",
                             "--table-trials", "3"],
    "moments": ["moments", "--dist", "hole:c=0.8", "--d", "1", "--beta", "0.5",
                "--max-p", "5", "--n", "64", "--trials", "4"],
    "partitions": ["partitions", "--p", "5"],
    "spectrum-hole-d1": ["spectrum", "--dist", "hole:c=0.5", "--n", "32", "--d", "1",
                         "--beta", "0.5", "--trials", "4", "--bins", "17"],
    "scenario-holes": ["scenario", "holes", "--c", "0.6", "--beta", "0.4", "--n", "32",
                       "--trials", "4"],
    "scenario-dense": ["scenario", "dense", "--a-db", "5", "--n", "4", "--trials", "4"],
    "reproduce-fig2": ["reproduce", "fig2"],
    "spectrum-hole-d1-svg": ["spectrum", "--dist", "hole:c=0.5", "--n", "32", "--d", "1",
                             "--beta", "0.5", "--trials", "4", "--bins", "17", "--svg"],
}

POLYLINE = re.compile(r'(<polyline points=")([^"]*)(")')


def split_svg(text: str) -> dict:
    """An SVG as its polylines' (x, y) points and its lines with those points cut out."""
    points = [[[float(v) for v in pt.split(",")] for pt in m.group(2).split()]
              for m in POLYLINE.finditer(text)]
    return {"points": points, "text": POLYLINE.sub(r"\1\3", text).splitlines()}


def run_case(argv: list[str], src: str = SRC) -> dict:
    """Run `python -m vanspec.cli` on argv; return its metadata, header and rows.

    A `reproduce <figure>` case writes into a temporary --out-dir, and its
    <figure>.csv is read; every other case writes the temporary --out.  An
    argv ending in --svg gets a temporary SVG path, read by `split_svg`.
    {inputs} in an argv item stands for the INPUTS directory.
    """
    argv = [a.replace("{inputs}", INPUTS) for a in argv]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        if "reproduce" in argv:
            figure = argv[argv.index("reproduce") + 1]
            out, dest = os.path.join(tmp, f"{figure}.csv"), ["--out-dir", tmp]
        else:
            out = os.path.join(tmp, "out.csv")
            dest = ["--out", out]
        svg = os.path.join(tmp, "out.svg") if argv[-1] == "--svg" else None
        if svg:
            dest = [svg, *dest]
        subprocess.run([sys.executable, "-m", "vanspec.cli", *argv, *dest],
                       env=env, check=True, capture_output=True, text=True, timeout=600)
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        plot = {}
        if svg:
            with open(svg, encoding="utf-8") as fh:
                plot["svg"] = split_svg(fh.read())
    meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    table = list(csv.reader(line for line in lines if not line.startswith("# ")))
    return {"meta": meta, "header": table[0], "rows": table[1:], **plot}


def _dumps(golden: dict) -> str:
    """JSON with one metadata entry and one CSV row per line."""
    meta = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in golden["meta"].items())
    rows = ",\n".join(f"  {json.dumps(r)}" for r in golden["rows"])
    svg = ""
    if "svg" in golden:
        points = ",\n".join(f"   {json.dumps(line)}" for line in golden["svg"]["points"])
        text = ",\n".join(f"   {json.dumps(line)}" for line in golden["svg"]["text"])
        svg = f',\n "svg": {{\n  "points": [\n{points}\n  ],\n  "text": [\n{text}\n  ]\n }}'
    return (f'{{\n "argv": {json.dumps(golden["argv"])},\n "meta": {{\n{meta}\n }},\n'
            f' "header": {json.dumps(golden["header"])},\n "rows": [\n{rows}\n ]{svg}\n}}\n')


def _moves(old: dict, new: dict) -> str:
    """How many metadata values, CSV cells and plot coordinates differ
    between two goldens, and the largest relative change among the numbers
    that moved (inf for a number that left zero)."""
    keys = sorted(old["meta"].keys() | new["meta"].keys())

    def values(golden: dict) -> dict:
        return {"metadata values": [golden["meta"].get(k) for k in keys],
                "cells": [cell for row in golden["rows"] for cell in row],
                "plot coordinates": [v for line in golden.get("svg", {}).get("points", [])
                                     for point in line for v in point]}

    before, after = values(old), values(new)
    counts, worst = [], 0.0
    for what in before:
        moved = [(a, b) for a, b in zip_longest(before[what], after[what]) if a != b]
        counts.append(f"{len(moved)} {what}")
        for a, b in moved:
            try:
                a, b = float(a), float(b)
            except (TypeError, ValueError):  # text, or a value on one side only
                continue
            worst = max(worst, abs(b - a) / abs(a) if a else math.inf)
    return f"changed {', '.join(counts)}; largest relative change {worst:.3g}"


def main(names: list[str]) -> int:
    for name in names or CASES:
        argv = GLOBAL + CASES[name]
        golden = {"argv": argv, **run_case(argv)}
        path = os.path.join(HERE, f"{name}.json")
        moves = "new file"
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                moves = _moves(json.load(fh), golden)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps(golden))
        print(f"{name}: {len(golden['rows'])} rows; {moves}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
