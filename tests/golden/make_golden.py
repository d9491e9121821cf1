"""Write the golden values that tests/test_golden.py checks the CLI against.

    PYTHONPATH=src python tests/golden/make_golden.py

Each case runs one small CLI command in a fresh interpreter at seed 42 with
--threads 1 and one BLAS thread (OPENBLAS_NUM_THREADS=1), and stores its argv,
its '#' metadata and its CSV cells, as written, in tests/golden/<name>.json.
Regenerate only when an output is meant to change, and say which in the
change log.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

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
    "moments": ["moments", "--dist", "hole:c=0.8", "--d", "1", "--beta", "0.5",
                "--max-p", "5", "--n", "64", "--trials", "4"],
    "partitions": ["partitions", "--p", "5"],
    "spectrum-hole-d1": ["spectrum", "--dist", "hole:c=0.5", "--n", "32", "--d", "1",
                         "--beta", "0.5", "--trials", "4", "--bins", "17"],
    "scenario-holes": ["scenario", "holes", "--c", "0.6", "--beta", "0.4", "--n", "32",
                       "--trials", "4"],
    "scenario-dense": ["scenario", "dense", "--a-db", "5", "--n", "4", "--trials", "4"],
    "reproduce-fig2": ["reproduce", "fig2"],
}


def run_case(argv: list[str], src: str = SRC) -> dict:
    """Run `python -m vanspec.cli` on argv; return its metadata, header and rows.

    A `reproduce <figure>` case writes into a temporary --out-dir, and its
    <figure>.csv is read; every other case writes the temporary --out.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        if "reproduce" in argv:
            figure = argv[argv.index("reproduce") + 1]
            out, dest = os.path.join(tmp, f"{figure}.csv"), ["--out-dir", tmp]
        else:
            out = os.path.join(tmp, "out.csv")
            dest = ["--out", out]
        subprocess.run([sys.executable, "-m", "vanspec.cli", *argv, *dest],
                       env=env, check=True, capture_output=True, text=True, timeout=600)
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    table = list(csv.reader(line for line in lines if not line.startswith("# ")))
    return {"meta": meta, "header": table[0], "rows": table[1:]}


def _dumps(golden: dict) -> str:
    """JSON with one metadata entry and one CSV row per line."""
    meta = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in golden["meta"].items())
    rows = ",\n".join(f"  {json.dumps(r)}" for r in golden["rows"])
    return (f'{{\n "argv": {json.dumps(golden["argv"])},\n "meta": {{\n{meta}\n }},\n'
            f' "header": {json.dumps(golden["header"])},\n "rows": [\n{rows}\n ]\n}}\n')


def main() -> int:
    for name, argv in CASES.items():
        argv = GLOBAL + argv
        golden = {"argv": argv, **run_case(argv)}
        with open(os.path.join(HERE, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(_dumps(golden))
        print(f"{name}: {len(golden['rows'])} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
