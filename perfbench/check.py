"""Correctness checks on one invocation's output files.

At the reference seed (42) every CSV must match the stored reference: byte
for byte (`identical`), or else column by column within the tolerances the
repository's tests state.  At every seed, the invariants below must hold.
Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import defaultdict

REFERENCE_SEED = 42
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# pytest.approx defaults, as used by the repository's CLI tests.
REL, ABS = 1e-6, 1e-12
# Columns computed by the g_x mixture carry the adaptive quadrature's own
# tolerance (epsrel=1e-4 in vanspec.spectral.eta_mixture).
MIXTURE_REL = {("mse.csv", "mse_asymptotic"): 1e-4}
# Criterion 2: Monte-Carlo moments within 5% of the analytic ones (p <= 4).
MOMENT_REL = 0.05
# Criterion 9 compares neighbouring MSE values with this slack.
MONO_ABS = 1e-12
# mse.csv: 2 betas x 3 gammas.
MSE_ROWS = 2 * 3


def read_csv(path: str):
    """Return (metadata dict, header, columns dict of str lists)."""
    meta, lines = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
            else:
                lines.append(line)
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError(f"{path}: ragged rows")
    return meta, header, {c: [r[i] for r in body] for i, c in enumerate(header)}


def _numeric(values):
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_entry(path: str) -> dict:
    """The stored form of one CSV: its sha256, header and columns (floats where numeric)."""
    _, header, cols = read_csv(path)
    columns = {}
    for c in header:
        num = _numeric(cols[c])
        columns[c] = num if num is not None else cols[c]
    return {"sha256": sha256(path), "header": header, "columns": columns}


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare_to_reference(name: str, path: str, ref: dict) -> list[str]:
    """Problems of one CSV against its reference entry ([] when within tolerance)."""
    _, header, cols = read_csv(path)
    if header != ref["header"]:
        return [f"{name}: header {header} != reference {ref['header']}"]
    problems = []
    for c in header:
        want, got = ref["columns"][c], cols[c]
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} rows, reference has {len(want)}")
            break
        if want and isinstance(want[0], str):
            if got != want:
                problems.append(f"{name}: column {c} differs from the reference")
            continue
        rel = MIXTURE_REL.get((name, c), REL)
        for i, (g, w) in enumerate(zip(_numeric(got) or [math.nan] * len(got), want)):
            if not abs(g - w) <= max(rel * abs(w), ABS):
                problems.append(f"{name}: {c}[{i}] = {g!r}, reference {w!r} (rel tol {rel:g})")
                break
    return problems


# ---------------------------------------------------------------------------
# invariants that hold at every seed


def _nondecreasing(vals, slack=MONO_ABS):
    return all(a <= b + slack for a, b in zip(vals, vals[1:]))


def _groups(keys, values):
    out = defaultdict(list)
    for k, v in zip(keys, values):
        out[k].append(v)
    return out


def _check_mse(cols, out):
    beta, gdb = _numeric(cols["beta"]), _numeric(cols["gamma_db"])
    if len(beta) != MSE_ROWS:
        out.append(f"mse.csv: {len(beta)} rows, want {MSE_ROWS}")
    for c in ("mse_mc", "mse_trace", "mse_asymptotic"):
        if not all(0.0 < v <= 1.0 for v in _numeric(cols[c])):
            out.append(f"mse.csv: {c} outside (1 - |A|, 1] = (0, 1]")
    if not all(0.0 <= v < 1.0 for v in _numeric(cols["stderr"])):
        out.append("mse.csv: stderr outside [0, 1)")
    pred = _numeric(cols["mse_asymptotic"])
    for g, vals in _groups(gdb, zip(beta, pred)).items():
        if not _nondecreasing([v for _, v in sorted(vals)]):
            out.append(f"mse.csv: predicted MSE decreases in beta at {g:g} dB (criterion 9)")
    for b, vals in _groups(beta, zip(gdb, pred)).items():
        ys = [v for _, v in sorted(vals)]
        if not all(y1 <= y0 + MONO_ABS for y0, y1 in zip(ys, ys[1:])):
            out.append(f"mse.csv: predicted MSE increases in gamma at beta={b:g}")


def _check_moments(cols, out, ref_cols):
    p = _numeric(cols["p"])
    ana, mc, rel = (_numeric(cols[c]) for c in ("M_analytic", "M_montecarlo", "rel_err"))
    if p != [float(k) for k in range(1, 8)]:
        out.append(f"moments.csv: p column {p}")
        return
    # The analytic moments do not depend on the seed.
    if any(abs(a - r) > max(REL * abs(r), ABS) for a, r in zip(ana, ref_cols["M_analytic"])):
        out.append("moments.csv: analytic moments differ from the reference")
    if abs(mc[0] - 1.0) > 1e-9:
        out.append(f"moments.csv: first Monte-Carlo moment {mc[0]!r} != 1")
    for k, a, m, r in zip(p, ana, mc, rel):
        if abs(r - abs(m - a) / a) > max(REL * r, ABS):
            out.append(f"moments.csv: rel_err at p={k:g} inconsistent")
        if k <= 4 and r > MOMENT_REL:
            out.append(f"moments.csv: p={k:g} relative error {r:.3%} above 5% (criterion 2)")


def check_invocation(workload: str, seed: int, out_dir: str, csvs, svgs) -> tuple[list[str], dict]:
    """Check one invocation's outputs; return (problems, sha256 of each CSV)."""
    ref = load_reference(workload)
    problems, digests = [], {}
    for name in svgs:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name} missing")
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if not (text.startswith("<svg") and "polyline" in text):
            problems.append(f"{name}: not an SVG line plot")
    for name in csvs:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name} missing")
            continue
        digests[name] = sha256(path)
        entry = ref["files"][name]
        try:
            meta, _, cols = read_csv(path)
            if meta.get("seed") != str(seed):
                problems.append(f"{name}: metadata seed {meta.get('seed')!r}, run seed {seed}")
            if seed == REFERENCE_SEED and digests[name] != entry["sha256"]:
                problems += compare_to_reference(name, path, entry)
            _invariants(name, cols, entry["columns"], problems)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"{name}: malformed ({type(exc).__name__}: {exc})")
    return problems, digests


def _invariants(name, cols, ref_cols, out):
    if name == "mse.csv":
        _check_mse(cols, out)
    elif name == "moments.csv":
        _check_moments(cols, out, ref_cols)
    else:
        out.append(f"{name}: no invariants defined")
