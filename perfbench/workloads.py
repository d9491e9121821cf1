"""The benchmark workloads: the CLI argv each one runs and the files it writes.

Every workload runs serially (``--threads 1``) and never passes
``--eta-table``, so each run pays for its eta_u table, the partition
coefficients and every other process-level cache cold, as a CLI user does.
The seed only reaches the program through ``--seed``; the problem sizes are
fixed, so the work done per run does not depend on the seed.
"""

from __future__ import annotations

import os

# name -> (subcommand argv with {out} for the output directory, CSV files, SVG files)
#
# Each workload is sized so that one invocation takes a few seconds: a run
# then holds a dozen or more fresh-process invocations and reports the best
# of them, which is what keeps the figures steady on a small shared machine.
WORKLOADS = {
    # The eta_u table end to end on the fig3 fading density (a = 5 dB): one
    # 480-trial table build (write side), ~330 eta lookups per MSE point
    # through adaptive quad over a closed-form g_x (read side), and the LMMSE
    # Monte Carlo that the prediction is checked against.
    "fading-mse": (
        ["mse", "--dist", "fading:a_db=5", "--d", "2", "--n", "10",
         "--beta", "0.4,0.8", "--gamma-db", "0,10,20", "--trials", "20",
         "--table-trials", "20", "--out", "{out}/mse.csv", "--svg", "{out}/mse.svg"],
        ["mse.csv"],
        ["mse.svg"],
    ),
    # Large N (512): cold lattice counting for p <= 7 and the eigvalsh floor;
    # no table, no mixture, no LMMSE.
    "moments-d1": (
        ["moments", "--dist", "hole:c=0.8", "--d", "1", "--beta", "0.5",
         "--max-p", "7", "--n", "512", "--trials", "20", "--out", "{out}/moments.csv"],
        ["moments.csv"],
        [],
    ),
}


def make_inputs(workload: str, seed: int, out_dir: str) -> list[str]:
    """Make out_dir for the workload's outputs and return the CLI argv."""
    argv, _, _ = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    return ["--threads", "1", "--seed", str(seed)] + [a.format(out=out_dir) for a in argv]


def csv_files(workload: str) -> list[str]:
    return list(WORKLOADS[workload][1])


def svg_files(workload: str) -> list[str]:
    return list(WORKLOADS[workload][2])
