"""Experiment runner: seeded sweeps emitting CSV tables and SVG plots.

Every command writes a CSV whose '#'-prefixed metadata block (command,
canonical config, its hash, seed, version) is sufficient to re-run it and
reproduce the file byte for byte; wall time is reported on stderr only so
reruns stay byte-identical.  gamma is accepted in dB and converted to
linear internally.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .moments import moment_table
from .partitions import P_MAX, enumerate_partitions, is_noncrossing, vandermonde_coefficient
from .reconstruct import mse_monte_carlo
from .sampling import SamplingDistribution, uniform_distribution
from .scenarios import (
    ClusterHierarchy,
    CollisionParams,
    csma_success_profile,
    db_to_linear,
    default_collision_model,
    fading_distribution,
    fading_gx,
    hole_distribution,
    quadrant_hierarchy,
)
from .spectral import (
    NDIM_CAP,
    EtaTableRangeError,
    EtaUTable,
    aesd,
    asymptotic_mse,
    build_eta_table,
    compare_scaled_aesd,
    empirical_moment,
    histogram,
    mixture_span,
    transform_scaled_lsd,
)
from .svgplot import Series, line_plot_svg


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers


def parse_float_list(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"bad float list {text!r}")
    if not vals:
        raise UsageError(f"empty float list {text!r}")
    return vals


def check_betas(betas: list[float]) -> list[float]:
    """Every aspect ratio must be finite and > 0 (m = n^d / beta)."""
    bad = [b for b in betas if not 0 < b < float("inf")]
    if bad:
        raise UsageError(f"--beta must be finite and > 0, got {bad[0]:g}")
    return betas


# Most sample points m one matrix may hold: a desk-scale sweep.  Ten times
# the largest m of any canned figure (fig5: n^d = 100 at beta = 0.01 is
# m = 10,000).
M_CAP = 100_000


def sample_count(n: int, d: int, beta: float) -> int:
    """m = n^d / beta, rounded; an m that rounds to 0, overflows or lies
    above M_CAP is a usage error."""
    m = n ** d / beta
    if not 0.5 < m < np.inf:
        raise UsageError(f"--beta {beta:g} at n^d = {n ** d}: m = n^d/beta = {m:g}, want 0.5 < m < inf")
    if round(m) > M_CAP:
        raise UsageError(f"--beta {beta:g} at n^d = {n ** d}: m = n^d/beta = {m:g} "
                         f"above desk-scale cap {M_CAP}")
    return round(m)


def from_factory(factory, *args, **kwargs):
    """factory(*args, **kwargs); its own argument checks' ValueError is a usage error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"bad {factory.__name__} parameter: {exc}")


def check_range(flag: str, value: int, hi: int) -> None:
    if not 1 <= value <= hi:
        raise UsageError(f"{flag} must be in 1..{hi}, got {value}")


GAMMA_GRID_CAP = 1000  # most points in a --gamma-db range: a desk-scale sweep


def parse_db_grid(text: str) -> list[float]:
    """Comma list or 'start:step:stop' range (at most GAMMA_GRID_CAP points)
    of finite dB values, strictly increasing, each with a linear value gamma
    such that gamma and the noise power 1/gamma are positive and finite."""
    parts = text.split(":")
    if len(parts) == 1:
        vals = parse_float_list(text)
    else:
        try:
            start, step, stop = vals = [float(v) for v in parts]
        except ValueError:
            raise UsageError(f"bad dB range {text!r}, want start:step:stop")
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"bad dB grid {text!r}: every value must be finite")
    if len(parts) > 1:
        if step <= 0 or stop < start:
            raise UsageError(f"bad dB range {text!r}: need step > 0, stop >= start")
        steps = (stop - start + 1e-9) / step
        if steps >= GAMMA_GRID_CAP:
            raise UsageError(f"bad dB range {text!r}: more than the desk-scale cap "
                             f"of {GAMMA_GRID_CAP} points")
        vals = [round(start + i * step, 9) for i in range(int(steps) + 1)]
    if any(b >= a for a, b in zip(vals[1:], vals)):
        raise UsageError("gamma grid must be strictly increasing")
    for v in vals:
        gamma = db_to_linear(v)
        if not (0 < gamma < np.inf and 1.0 / gamma < np.inf):
            raise UsageError(f"bad dB grid {text!r}: {v:g} dB is {gamma:g} linear, "
                             "want a positive finite SNR whose noise power 1/SNR is finite")
    return vals


def int_at_least(text: str, lo: int) -> int:
    """An integer >= lo: --threads (0) or a size such as --n (positive_int)."""
    try:
        if int(text) >= lo:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"want an integer >= {lo}, got {text!r}")


positive_int = functools.partial(int_at_least, lo=1)


def check_size(n: int, d: int) -> None:
    """The Gram V V^H is n^d x n^d: refuse it above NDIM_CAP before any work."""
    if n ** d > NDIM_CAP:
        raise UsageError(f"--n {n} at d={d}: n^d = {n ** d} above desk-scale cap {NDIM_CAP}")


def parse_bins(text: str):
    if text == "auto":
        return "auto"
    try:
        return positive_int(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"want an integer >= 1 or 'auto', got {text!r}")


def read_json_object(path: str) -> dict:
    """The JSON object in the file at path; anything else is a usage error."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: want a JSON object, got {type(payload).__name__}")
    return payload


def as_integer(key: str, value) -> int:
    """value as an int: an integer, or a float with no fraction (inline --dist
    items parse as floats).  Anything else, a bool included, is a usage
    error that names key."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return value


def load_hierarchy(payload: dict) -> ClusterHierarchy:
    try:
        collision_cfg = payload.get("collision", {"type": "default"})
        if collision_cfg.get("type", "default") != "default":
            raise UsageError(f"unknown collision model {collision_cfg.get('type')!r}")
        params = CollisionParams(**collision_cfg.get("params", {}))
        return ClusterHierarchy(
            areas=tuple(float(a) for a in payload["areas"]),
            H=as_integer("H", payload["H"]),
            nodes=tuple(tuple(as_integer("m", v) for v in row) for row in payload["m"]),
            lambda1=tuple(float(v) for v in payload["lambda1"]),
            collision_model=functools.partial(default_collision_model, params=params),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad hierarchy config: {exc}")


def load_distribution(spec: str, d: int) -> SamplingDistribution:
    """Inline name ('uniform', 'hole:c=0.8', 'fading:a_db=5') or JSON file.

    The distribution must have dimension d (the command's --d).
    """
    if os.path.exists(spec):
        payload = read_json_object(spec)
    else:
        name, _, argtext = spec.partition(":")
        payload = {"kind": name}
        for item in argtext.split(",") if argtext else []:
            key, _, val = item.partition("=")
            try:
                payload[key] = float(val)
            except ValueError:
                raise UsageError(f"bad --dist item {item!r} in {spec!r}, want key=number")
    try:
        kind = payload.get("kind")
        dist_d = as_integer("d", payload.get("d", d or 1))
        if kind == "uniform":
            dist = uniform_distribution(dist_d)
        elif kind == "hole":
            if "c" not in payload:
                raise UsageError("hole distribution needs c")
            dist = hole_distribution(float(payload["c"]), d=dist_d)
        elif kind == "fading":
            if "a_db" not in payload:
                raise UsageError("fading distribution needs a_db")
            dist = fading_distribution(float(payload["a_db"]))
        elif kind == "csma":
            hier_payload = payload.get("hierarchy")
            if hier_payload is None and "config" in payload:
                hier_payload = read_json_object(payload["config"])
            if hier_payload is None:
                raise UsageError("csma distribution needs a hierarchy")
            dist = csma_success_profile(load_hierarchy(hier_payload)).distribution
        else:
            raise UsageError(f"unknown distribution kind {kind!r}")
    except ValueError as exc:  # the factory's own argument checks
        raise UsageError(f"bad --dist {spec!r}: {exc}")
    if dist.d != d:
        raise UsageError(f"distribution is d={dist.d}, requested --d {d}")
    return dist


# ---------------------------------------------------------------------------
# output helpers


def _fmt_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    text = str(v)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_table(path: str, command: str, config: dict, seed: int, columns, rows,
                **meta) -> None:
    """Write rows as CSV under the '#' metadata block; meta adds lines after it."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    head = {
        "command": command,
        "config": canon,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:12],
        "seed": seed,
        "version": __version__,
        **meta,
    }
    lines = [f"# {key}: {_fmt_value(val)}" for key, val in head.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_svg(path: Optional[str], rows, by: Sequence[int], x: int, y: int, label: str,
              **plot) -> None:
    """Plot rows as one Series per distinct value of the columns `by`, in the
    order of first appearance; label.format(*value) names each.  No-op
    without a path."""
    if not path:
        return
    groups: dict[tuple, list] = {}
    for r in rows:
        groups.setdefault(tuple(r[i] for i in by), []).append(r)
    series = [Series([r[x] for r in g], [r[y] for r in g], label.format(*key))
              for key, g in groups.items()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line_plot_svg(series, **plot))


# ---------------------------------------------------------------------------
# eta-table plumbing


def mixture_eta_table(args, dists: list[SamplingDistribution], betas: list[float],
                      gammas_db: list[float]) -> tuple[EtaUTable, dict]:
    """Load or build the eta_u table at the dists' d and args.n that covers
    the mixture_span of the dists over betas and gammas_db
    (args.table_trials trials, --eta-table, --seed, --threads).

    A table loaded from --eta-table must pass EtaUTable.check_request.
    Returns the table and the CSV metadata that names it: the sha256 of the
    table file when --eta-table is given, nothing otherwise.
    """
    d = dists[0].d
    b_span, g_span = mixture_span(dists, betas, [db_to_linear(g) for g in gammas_db])
    table_path = args.eta_table
    if table_path and os.path.exists(table_path):
        try:
            table = EtaUTable.load(table_path)
            table.check_request(d, args.n, args.table_trials, b_span, g_span)
        except ValueError as exc:
            raise UsageError(f"--eta-table {table_path}: {exc}")
    else:
        try:
            table = build_eta_table(d, args.n, b_span, g_span,
                                    trials=args.table_trials, seed=args.seed + 7919,
                                    threads=args.threads)
        except EtaTableRangeError as exc:
            raise UsageError(f"eta table: {exc}")
        if not table_path:
            return table, {}
        table.save(table_path)
    with open(table_path, "rb") as fh:
        return table, {"eta_table_sha256": hashlib.sha256(fh.read()).hexdigest()}


# ---------------------------------------------------------------------------
# commands


def cmd_partitions(args) -> int:
    check_range("--p", args.p, P_MAX)
    if args.k is not None:
        check_range("--k", args.k, args.p)
    rows = []
    for q in enumerate_partitions(args.p, args.k):
        v = vandermonde_coefficient(q)
        rows.append((str(q), q.k, is_noncrossing(q), str(v), float(v)))
    write_table(args.out, "partitions", {"p": args.p, "k": args.k}, args.seed,
                ["partition", "k", "noncrossing", "v_exact", "v_float"], rows)
    return 0


def cmd_moments(args) -> int:
    check_betas([args.beta])
    check_range("--max-p", args.max_p, P_MAX)
    dist = load_distribution(args.dist, args.d)
    n = args.n if args.n is not None else {1: 256, 2: 16, 3: 6}.get(args.d, 4)
    check_size(n, args.d)
    m = sample_count(n, args.d, args.beta)
    analytic = moment_table(dist, args.beta, args.max_p)
    summary = aesd(dist, n, m, args.trials, seed=args.seed, threads=args.threads)
    rows = []
    for p in range(1, args.max_p + 1):
        ana = analytic[p - 1]
        emp = empirical_moment(summary, p)
        rows.append((p, ana, emp, abs(emp - ana) / ana if ana else float("nan")))
    config = {
        "dist": dist.id, "d": args.d, "beta": args.beta, "max_p": args.max_p,
        "n": n, "trials": args.trials,
    }
    write_table(args.out, "moments", config, args.seed,
                ["p", "M_analytic", "M_montecarlo", "rel_err"], rows)
    return 0


def _spectrum_rows(summary, bins="auto"):
    edges, density = histogram(summary, bins)
    return [(float(l), float(r), float(v)) for l, r, v in zip(edges[:-1], edges[1:], density)]


def cmd_spectrum(args) -> int:
    check_betas([args.beta])
    check_size(args.n, args.d)
    dist = load_distribution(args.dist, args.d)
    m = sample_count(args.n, args.d, args.beta)
    summary = aesd(dist, args.n, m, args.trials, seed=args.seed, threads=args.threads)
    config = {
        "dist": dist.id, "n": args.n, "d": args.d, "beta": args.beta,
        "m": m, "trials": args.trials, "bins": str(args.bins),
    }
    rows = _spectrum_rows(summary, args.bins)
    write_table(args.out, "spectrum", config, args.seed,
                ["bin_left", "bin_right", "density"], rows,
                atom_zero_mass=summary.total_atom_mass, beta_achieved=summary.beta)
    write_svg(args.svg, [(dist.id, 0.5 * (l + r), v) for l, r, v in rows], (0,), 1, 2, "{}",
              title=f"AESD n={args.n} beta={args.beta:g}", xlabel="z", ylabel="density")
    return 0


def cmd_mse(args) -> int:
    check_size(args.n, args.d)
    dist = load_distribution(args.dist, args.d)
    betas = check_betas(parse_float_list(args.beta))
    ms = [sample_count(args.n, args.d, beta) for beta in betas]
    gammas_db = parse_db_grid(args.gamma_db)
    eta, eta_meta = mixture_eta_table(args, [dist], betas, gammas_db)
    gammas = [db_to_linear(gdb) for gdb in gammas_db]
    rows = []
    for beta, m in zip(betas, ms):
        ests = mse_monte_carlo(dist, args.n, m, gammas,
                               trials=args.trials, seed=args.seed, threads=args.threads)
        for gdb, gamma, est in zip(gammas_db, gammas, ests):
            pred = asymptotic_mse(dist, beta, gamma, eta)
            rows.append((beta, gdb, est.mean_normalized_error, est.mean_trace_mse,
                         pred, est.stderr_normalized_error))
    config = {
        "dist": dist.id, "n": args.n, "d": args.d, "beta": betas,
        "gamma_db": gammas_db, "trials": args.trials, "table_trials": args.table_trials,
    }
    write_table(args.out, "mse", config, args.seed,
                ["beta", "gamma_db", "mse_mc", "mse_trace", "mse_asymptotic", "stderr"],
                rows, **eta_meta)
    write_svg(args.svg, rows, (0,), 1, 4, "beta={:g}", title=f"MSE ({dist.id})",
              xlabel="gamma [dB]", ylabel="MSE", logy=True)
    return 0


# --- scenario subcommands


def _by_curve(rows):
    """Rows with every "fu" row before every "fx" row, otherwise in order."""
    return sorted(rows, key=lambda r: r[0])


def cmd_scenario_fading(args) -> int:
    check_size(args.n, 2)
    dist = from_factory(fading_distribution, args.a_db)
    betas = check_betas(parse_float_list(args.beta))
    gammas_db = parse_db_grid(args.gamma_db)
    curves = (("fu", uniform_distribution(2)), ("fx", dist))
    eta, eta_meta = mixture_eta_table(args, [c for _, c in curves], betas, gammas_db)
    rows = []
    for beta in betas:
        for gdb in gammas_db:
            gamma = db_to_linear(gdb)
            rows += [(name, beta, gdb, asymptotic_mse(c, beta, gamma, eta)) for name, c in curves]
    config = {"a_db": args.a_db, "beta": betas, "gamma_db": gammas_db,
              "n": args.n, "table_trials": args.table_trials}
    write_table(args.out, "scenario-fading", config, args.seed,
                ["curve", "beta", "gamma_db", "mse"], rows, **eta_meta)
    write_svg(args.svg, _by_curve(rows), (0, 1), 2, 3, "{} b={:g}",
              title=f"fading a={args.a_db:g} dB", xlabel="gamma [dB]", ylabel="MSE", logy=True)
    return 0


def cmd_scenario_csma(args) -> int:
    check_size(args.n, 2)
    if args.config:
        hier = load_hierarchy(read_json_object(args.config))
    else:
        hier = from_factory(quadrant_hierarchy, parse_float_list(args.lambda1))
    prof = from_factory(csma_success_profile, hier)
    dist = prof.distribution
    betas = check_betas(parse_float_list(args.beta))
    gammas_db = parse_db_grid(args.gamma_db)
    curves = (("fu", uniform_distribution(2)), ("fx", dist))
    eta, eta_meta = mixture_eta_table(args, [c for _, c in curves], betas, gammas_db)
    rows = []
    for gdb in gammas_db:
        gamma = db_to_linear(gdb)
        for beta in betas:
            rows += [(name, gdb, beta, asymptotic_mse(c, beta, gamma, eta)) for name, c in curves]
    config = {
        "areas": list(hier.areas), "H": hier.H, "m": [list(r) for r in hier.nodes],
        "lambda1": list(hier.lambda1), "beta": betas, "gamma_db": gammas_db, "n": args.n,
        "table_trials": args.table_trials,
    }
    p_s = {f"p_s_{i + 1}": float(p) for i, p in enumerate(prof.normalized_success)}
    write_table(args.out, "scenario-csma", config, args.seed,
                ["curve", "gamma_db", "beta", "mse"], rows, **p_s, **eta_meta)
    write_svg(args.svg, _by_curve(rows), (0, 1), 2, 3, "{} {:g}dB",
              title="clustered CSMA", xlabel="beta", ylabel="MSE", logy=True)
    return 0


def _holes_summaries(c: float, beta: float, n: int, trials: int, seed: int, threads):
    dist = from_factory(hole_distribution, c, d=1)
    direct = aesd(dist, n, sample_count(n, 1, beta), trials, seed=seed, threads=threads)
    base = aesd(uniform_distribution(1), n, sample_count(n, 1, c * beta),
                trials, seed=seed + 1, threads=threads)
    transformed = transform_scaled_lsd(base, c, beta)
    return direct, transformed, compare_scaled_aesd(direct, transformed)


def cmd_scenario_holes(args) -> int:
    check_betas([args.beta])
    check_size(args.n, 1)
    direct, transformed, cmp = _holes_summaries(args.c, args.beta, args.n, args.trials,
                                                args.seed, args.threads)
    rows = [("direct", *r) for r in _spectrum_rows(direct)]
    rows += [("transformed", *r) for r in _spectrum_rows(transformed)]
    config = {"c": args.c, "beta": args.beta, "n": args.n, "trials": args.trials}
    write_table(args.out, "scenario-holes", config, args.seed,
                ["series", "bin_left", "bin_right", "density"], rows,
                ks_distance=cmp.ks_distance, atom_direct=cmp.atom_direct,
                atom_transformed=cmp.atom_transformed)
    return 0


def cmd_scenario_dense(args) -> int:
    check_size(args.n, 2)
    dist = from_factory(fading_distribution, args.a_db)
    betas = check_betas(parse_float_list(args.beta))
    ms = [sample_count(args.n, 2, beta) for beta in betas]
    rows = []
    for beta, m in zip(betas, ms):
        summary = aesd(dist, args.n, m, args.trials, seed=args.seed, threads=args.threads)
        rows += [(f"aesd-beta{beta:g}", 0.5 * (l + r), v) for l, r, v in _spectrum_rows(summary)]
    ygrid = np.linspace(*dist.gx.support, 200)
    rows += [("gx", float(y), float(v)) for y, v in zip(ygrid, dist.gx.density(ygrid))]
    config = {"a_db": args.a_db, "beta": betas, "n": args.n, "trials": args.trials}
    write_table(args.out, "scenario-dense", config, args.seed, ["series", "z", "density"], rows)
    write_svg(args.svg, rows, (0,), 1, 2, "{}",
              title="dense-network limit", xlabel="z", ylabel="density")
    return 0


# --- figure reproduction


def _reproduce_holes(args, c: float, beta: float) -> str:
    fig = args.figure
    direct, transformed, cmp = _holes_summaries(c, beta, 100, 50, args.seed, args.threads)
    config = {"figure": fig, "c": c, "beta": beta, "n": 100, "trials": 50}
    for name, summary in (("direct", direct), ("transformed", transformed)):
        write_table(os.path.join(args.out_dir, f"{fig}_{name}.csv"),
                    f"reproduce-{fig}-{name}", config, args.seed,
                    ["bin_left", "bin_right", "density"], _spectrum_rows(summary),
                    atom_mass=summary.total_atom_mass, ks_distance=cmp.ks_distance)
    return (f"KS distance = {cmp.ks_distance:.4f} "
            f"(atom direct {cmp.atom_direct:.4f}, transformed {cmp.atom_transformed:.4f})")


def _reproduce_fig2(args) -> str:
    a_dbs = [0.0, 5.0, 10.0]
    rows = []
    for a_db in a_dbs:
        gx = fading_gx(db_to_linear(a_db))
        lo, hi = gx.support
        ys = np.linspace(lo, hi - 1e-9, 400)
        rows += [(a_db, float(y), float(v)) for y, v in zip(ys, gx.density(ys))]
    path = os.path.join(args.out_dir, "fig2.csv")
    write_table(path, "reproduce-fig2", {"figure": "fig2", "a_db": a_dbs}, args.seed,
                ["a_db", "y", "gx"], rows)
    write_svg(os.path.join(args.out_dir, "fig2.svg"), rows, (0,), 1, 2, "a={:g} dB",
              title="density of the fading density", xlabel="y", ylabel="g_x(y)")
    return f"wrote {path}"


# figure id -> a function of the reproduce arguments returning its status
# line, or a scenario command's argv run with reproduce's --seed, --threads,
# --eta-table and --table-trials, writing <out-dir>/<figure>.csv and .svg
FIGURES = {
    "fig1a": functools.partial(_reproduce_holes, c=0.8, beta=0.8),
    "fig1b": functools.partial(_reproduce_holes, c=0.5, beta=0.2),
    "fig2": _reproduce_fig2,
    "fig3": ["scenario", "fading", "--a-db", "5", "--beta", "0.2,0.4,0.6,0.8",
             "--gamma-db=-10:2:30", "--n", "10"],
    "fig5": ["scenario", "dense", "--a-db", "5", "--beta", "0.5,0.1,0.01", "--n", "10",
             "--trials", "100"],
    "fig6": ["scenario", "csma", "--lambda1", "1e-3,2e-4,2e-4,2e-5",
             "--beta", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "--gamma-db", "0,10,20",
             "--n", "10"],
    "fig7": ["scenario", "csma", "--lambda1", "5e-3,1e-3,1e-3,1e-4",
             "--beta", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "--gamma-db", "0,10,20",
             "--n", "10"],
}


def figure_args(args) -> argparse.Namespace:
    """The scenario command's arguments for an argv-form figure of reproduce."""
    path = os.path.join(args.out_dir, args.figure)
    ns = build_parser().parse_args(FIGURES[args.figure]
                                   + ["--out", f"{path}.csv", "--svg", f"{path}.svg"])
    for name in ("seed", "threads", "eta_table", "table_trials"):
        setattr(ns, name, getattr(args, name))
    return ns


def cmd_reproduce(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    entry = FIGURES[args.figure]
    if callable(entry):
        status = entry(args)
    else:
        ns = figure_args(args)
        ns.func(ns)
        status = f"wrote {ns.out}"
    print(f"{args.figure}: {status}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_global_opts(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int,
                        default=d if suppress else 42, help="master seed (default 42)")
    parser.add_argument("--threads", type=functools.partial(int_at_least, lo=0),
                        default=d if suppress else 1,
                        help="trial-level worker threads (default 1; 0 = all cores); "
                             "results do not depend on it")
    parser.add_argument("--eta-table", default=d if suppress else None, dest="eta_table",
                        help="path of a JSON eta_u table to reuse (built and saved when missing)")


def _add_outputs(p: argparse.ArgumentParser, func, svg: bool = False) -> None:
    """Finish a subcommand: --out (and --svg), the global options and its function."""
    p.add_argument("--out", required=True)
    if svg:
        p.add_argument("--svg", default=None)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=func)


GAMMA_DB_HELP = ("comma list or start:step:stop, in dB (converted to linear internally); "
                 "write a negative start as --gamma-db=-10:2:30")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vanspec",
        description="Asymptotic Vandermonde spectra and sensor-network MSE experiments.",
    )
    _add_global_opts(ap)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate partitions with coefficients")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    _add_outputs(p, cmd_partitions)

    p = sub.add_parser("moments", help="analytic vs Monte-Carlo moments")
    p.add_argument("--dist", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--max-p", type=int, required=True, dest="max_p")
    p.add_argument("--n", type=positive_int, default=None)
    p.add_argument("--trials", type=positive_int, default=20)
    _add_outputs(p, cmd_moments)

    p = sub.add_parser("spectrum", help="average empirical spectral distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--trials", type=positive_int, required=True)
    p.add_argument("--bins", type=parse_bins, default="auto")
    _add_outputs(p, cmd_spectrum, svg=True)

    p = sub.add_parser("mse", help="simulated vs asymptotic reconstruction MSE")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", required=True, help="comma-separated list")
    p.add_argument("--gamma-db", required=True, dest="gamma_db", help=GAMMA_DB_HELP)
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--table-trials", type=positive_int, default=50, dest="table_trials")
    _add_outputs(p, cmd_mse, svg=True)

    sc = sub.add_parser("scenario", help="canned loss scenarios")
    scsub = sc.add_subparsers(dest="scenario", required=True)

    p = scsub.add_parser("fading", help="Rayleigh-fading delivery MSE curves")
    p.add_argument("--a-db", type=float, required=True, dest="a_db")
    p.add_argument("--beta", default="0.2,0.4,0.6,0.8")
    p.add_argument("--gamma-db", default="-10:2:30", dest="gamma_db", help=GAMMA_DB_HELP)
    p.add_argument("--n", type=positive_int, default=10)
    p.add_argument("--table-trials", type=positive_int, default=50, dest="table_trials")
    _add_outputs(p, cmd_scenario_fading, svg=True)

    p = scsub.add_parser("csma", help="clustered CSMA collection MSE curves")
    p.add_argument("--config", default=None, help="hierarchy JSON file")
    p.add_argument("--lambda1", default="1e-3,2e-4,2e-4,2e-5",
                   help="layer-1 loads for the default quadrant hierarchy")
    p.add_argument("--beta", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--gamma-db", default="0,10,20", dest="gamma_db")
    p.add_argument("--n", type=positive_int, default=10)
    p.add_argument("--table-trials", type=positive_int, default=50, dest="table_trials")
    _add_outputs(p, cmd_scenario_csma, svg=True)

    p = scsub.add_parser("holes", help="scaled-support spectrum comparison")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=positive_int, default=100)
    p.add_argument("--trials", type=positive_int, default=50)
    _add_outputs(p, cmd_scenario_holes)

    p = scsub.add_parser("dense", help="small-beta spectra vs the density of the density")
    p.add_argument("--a-db", type=float, required=True, dest="a_db")
    p.add_argument("--beta", default="0.5,0.1,0.01")
    p.add_argument("--n", type=positive_int, default=10)
    p.add_argument("--trials", type=positive_int, default=100)
    _add_outputs(p, cmd_scenario_dense, svg=True)

    p = sub.add_parser("reproduce", help="canned desk-scale figure configurations")
    p.add_argument("figure", choices=list(FIGURES))
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.add_argument("--table-trials", type=positive_int, default=50, dest="table_trials")
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_reproduce)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        rc = args.func(args)
    except UsageError as exc:
        print(f"vanspec: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"vanspec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"wall_time={time.monotonic() - t0:.2f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
