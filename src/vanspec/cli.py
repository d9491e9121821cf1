"""Experiment runner: seeded sweeps emitting CSV tables and SVG plots.

Every command writes a CSV whose '#'-prefixed metadata block (command,
canonical config, its hash, seed, version) is sufficient to re-run it and
reproduce the file byte for byte; wall time is reported on stderr only so
reruns stay byte-identical.  gamma is accepted in dB and converted to
linear internally.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .moments import moment_table
from .partitions import enumerate_partitions, is_noncrossing, vandermonde_coefficient
from .reconstruct import mse_monte_carlo
from .sampling import GxDiscreteAtoms, SamplingDistribution, uniform_distribution
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
    ETA_RANGE_SLACK,
    EtaUTable,
    aesd,
    asymptotic_mse,
    build_eta_table,
    compare_scaled_aesd,
    empirical_moment,
    transform_scaled_lsd,
)
from .svgplot import Series, line_plot_svg


class UsageError(Exception):
    pass


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]
    metadata: dict
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# parsing helpers


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"bad float list {text!r}")


def parse_db_grid(text: str) -> list[float]:
    """Comma list or 'start:step:stop' range of dB values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad dB range {text!r}, want start:step:stop")
        try:
            start, step, stop = (float(v) for v in parts)
        except ValueError:
            raise UsageError(f"bad dB range {text!r}")
        if step <= 0 or stop < start:
            raise UsageError(f"bad dB range {text!r}: need step > 0, stop >= start")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(round(v, 9))
            v += step
        return out
    vals = parse_float_list(text)
    if any(b >= a for a, b in zip(vals[1:], vals)):
        raise UsageError("gamma grid must be strictly increasing")
    return vals


def parse_bins(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad --bins {text!r}")


def load_hierarchy(payload: dict) -> ClusterHierarchy:
    try:
        collision_cfg = payload.get("collision", {"type": "default"})
        if collision_cfg.get("type", "default") != "default":
            raise UsageError(f"unknown collision model {collision_cfg.get('type')!r}")
        params = CollisionParams(**collision_cfg.get("params", {}))

        def model(m_nodes, load):
            return default_collision_model(m_nodes, load, params)

        return ClusterHierarchy(
            areas=tuple(float(a) for a in payload["areas"]),
            H=int(payload["H"]),
            nodes=tuple(tuple(int(v) for v in row) for row in payload["m"]),
            lambda1=tuple(float(v) for v in payload["lambda1"]),
            collision_model=model,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad hierarchy config: {exc}")


def load_distribution(spec: str, default_d: Optional[int] = None) -> SamplingDistribution:
    """Inline name ('uniform', 'hole:c=0.8', 'fading:a_db=5') or JSON file."""
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        name, _, argtext = spec.partition(":")
        payload = {"kind": name}
        for item in argtext.split(",") if argtext else []:
            key, _, val = item.partition("=")
            payload[key] = float(val)
    kind = payload.get("kind")
    d = int(payload.get("d", default_d or 1))
    if kind == "uniform":
        return uniform_distribution(d)
    if kind == "hole":
        if "c" not in payload:
            raise UsageError("hole distribution needs c")
        return hole_distribution(float(payload["c"]), d=d)
    if kind == "fading":
        if "a_db" not in payload:
            raise UsageError("fading distribution needs a_db")
        return fading_distribution(float(payload["a_db"]))
    if kind == "csma":
        hier_payload = payload.get("hierarchy")
        if hier_payload is None and "config" in payload:
            with open(payload["config"], encoding="utf-8") as fh:
                hier_payload = json.load(fh)
        if hier_payload is None:
            raise UsageError("csma distribution needs a hierarchy")
        return csma_success_profile(load_hierarchy(hier_payload)).distribution
    raise UsageError(f"unknown distribution kind {kind!r}")


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


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_table(path: str, table: ResultTable) -> None:
    lines = [f"# {key}: {_fmt_value(val)}" for key, val in table.metadata.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def make_table(command: str, config: dict, seed: int, columns, rows) -> ResultTable:
    meta = {
        "command": command,
        "config": json.dumps(config, sort_keys=True, separators=(",", ":")),
        "config_hash": config_hash(config),
        "seed": seed,
        "version": __version__,
    }
    return ResultTable(columns=list(columns), rows=list(rows), metadata=meta)


def write_svg(path: str, series: list[Series], **kwargs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line_plot_svg(series, **kwargs))


# ---------------------------------------------------------------------------
# eta-table plumbing


def gx_support_range(dist: SamplingDistribution) -> tuple[float, float]:
    gx = dist.gx
    if gx is None:
        raise UsageError(f"distribution {dist.id} has no g_x; cannot form the mixture")
    if isinstance(gx, GxDiscreteAtoms):
        ys = [y for y, _ in gx.atoms]
        return min(ys), max(ys)
    if hasattr(gx, "support"):
        return gx.support
    edges = gx.edges
    return float(edges[0]), float(edges[-1])


def _check_loaded_table(table: EtaUTable, path: str, d: int, n: int, trials: int,
                        b_span: Sequence[float], g_span: Sequence[float]) -> None:
    for name, have, want in (("d", table.d, d), ("n", table.n, n),
                             ("trials", table.trials, trials)):
        if have != want:
            raise UsageError(
                f"--eta-table {path}: table has {name}={have}, request needs {name}={want}"
            )
    for name, grid, (lo, hi) in (("beta", table.beta_grid, b_span),
                                 ("gamma", table.gamma_grid, g_span)):
        if lo < grid[0] * (1 - ETA_RANGE_SLACK) or hi > grid[-1] * (1 + ETA_RANGE_SLACK):
            raise UsageError(
                f"--eta-table {path}: table {name} range [{grid[0]:.5g}, {grid[-1]:.5g}] "
                f"does not cover the requested [{lo:.5g}, {hi:.5g}]"
            )


def mixture_eta_table(
    dist: SamplingDistribution,
    d: int,
    n: int,
    betas: Sequence[float],
    gammas_db: Sequence[float],
    trials: int,
    seed: int,
    threads: Optional[int],
    table_path: Optional[str],
    include_uniform_baseline: bool = True,
) -> tuple[EtaUTable, dict]:
    """Load or build an eta_u table covering the mixture's query range.

    A table loaded from table_path must match d, n and trials and cover the
    range.  Returns the table and the CSV metadata that names it: the sha256
    of the table file when table_path is given, nothing otherwise.
    """
    ylo, yhi = gx_support_range(dist)
    betas = list(betas)
    gammas = [db_to_linear(g) for g in gammas_db]
    b_span = [min(betas) / yhi, max(betas) / ylo]
    g_args = [g / b for g in gammas for b in betas]
    g_span = [min(g_args) * ylo, max(g_args) * yhi]
    if include_uniform_baseline:
        b_span = [min(b_span[0], min(betas)), max(b_span[1], max(betas))]
        g_span = [min(g_span[0], min(g_args)), max(g_span[1], max(g_args))]
    if table_path and os.path.exists(table_path):
        table = EtaUTable.load(table_path)
        _check_loaded_table(table, table_path, d, n, trials, b_span, g_span)
    else:
        table = build_eta_table(
            d, n, tuple(b_span), tuple(g_span), trials=trials, seed=seed, threads=threads
        )
        if not table_path:
            return table, {}
        table.save(table_path)
    with open(table_path, "rb") as fh:
        return table, {"eta_table_sha256": hashlib.sha256(fh.read()).hexdigest()}


# ---------------------------------------------------------------------------
# commands


def cmd_partitions(args) -> int:
    if args.p < 1:
        raise UsageError("--p must be >= 1")
    parts = enumerate_partitions(args.p, args.k)
    rows = []
    for q in parts:
        c = vandermonde_coefficient(q, "extrapolated-count")
        rows.append((str(q), q.k, is_noncrossing(q), str(c.rational), c.value))
    config = {"p": args.p, "k": args.k}
    table = make_table("partitions", config, args.seed,
                       ["partition", "k", "noncrossing", "v_exact", "v_float"], rows)
    write_table(args.out, table)
    return 0


def _default_moment_n(d: int) -> int:
    return {1: 256, 2: 16, 3: 6}.get(d, 4)


def cmd_moments(args) -> int:
    dist = load_distribution(args.dist, args.d)
    if dist.d != args.d:
        raise UsageError(f"distribution is d={dist.d}, requested --d {args.d}")
    n = args.n or _default_moment_n(args.d)
    m = max(1, int(round(n ** args.d / args.beta)))
    analytic = moment_table(dist, args.d, args.beta, args.max_p)
    summary = aesd(dist, n, m, args.trials, seed=args.seed, threads=args.threads)
    rows = []
    for p in range(1, args.max_p + 1):
        ana = analytic.moments[p - 1]
        emp = empirical_moment(summary, p)
        rows.append((p, ana, emp, abs(emp - ana) / ana if ana else float("nan")))
    config = {
        "dist": dist.id, "d": args.d, "beta": args.beta, "max_p": args.max_p,
        "n": n, "trials": args.trials,
    }
    table = make_table("moments", config, args.seed,
                       ["p", "M_analytic", "M_montecarlo", "rel_err"], rows)
    write_table(args.out, table)
    return 0


def _spectrum_rows(summary):
    return [
        (float(l), float(r), float(v))
        for l, r, v in zip(summary.hist_edges[:-1], summary.hist_edges[1:], summary.hist_density)
    ]


def cmd_spectrum(args) -> int:
    dist = load_distribution(args.dist, args.d)
    if dist.d != args.d:
        raise UsageError(f"distribution is d={dist.d}, requested --d {args.d}")
    m = max(1, int(round(args.n ** args.d / args.beta)))
    summary = aesd(dist, args.n, m, args.trials, seed=args.seed,
                   bins=args.bins, threads=args.threads)
    config = {
        "dist": dist.id, "n": args.n, "d": args.d, "beta": args.beta,
        "m": m, "trials": args.trials, "bins": str(args.bins),
    }
    table = make_table("spectrum", config, args.seed,
                       ["bin_left", "bin_right", "density"], _spectrum_rows(summary))
    table.metadata["atom_zero_mass"] = summary.total_atom_mass
    table.metadata["beta_achieved"] = summary.beta
    write_table(args.out, table)
    if args.svg:
        centers = 0.5 * (summary.hist_edges[:-1] + summary.hist_edges[1:])
        write_svg(args.svg, [Series(centers.tolist(), summary.hist_density.tolist(), dist.id)],
                  title=f"AESD n={args.n} beta={args.beta:g}", xlabel="z", ylabel="density")
    return 0


def cmd_mse(args) -> int:
    dist = load_distribution(args.dist, args.d)
    if dist.d != args.d:
        raise UsageError(f"distribution is d={dist.d}, requested --d {args.d}")
    betas = parse_float_list(args.beta)
    gammas_db = parse_db_grid(args.gamma_db)
    eta, eta_meta = mixture_eta_table(dist, args.d, args.n, betas, gammas_db,
                                      trials=args.table_trials, seed=args.seed + 7919,
                                      threads=args.threads, table_path=args.eta_table,
                                      include_uniform_baseline=False)
    rows = []
    for beta in betas:
        m = max(1, int(round(args.n ** args.d / beta)))
        for gdb in gammas_db:
            gamma = db_to_linear(gdb)
            est = mse_monte_carlo(dist, args.n, args.d, m, gamma,
                                  trials=args.trials, seed=args.seed, threads=args.threads)
            pred = asymptotic_mse(dist.gx, dist.support_measure, args.d, beta, gamma, eta)
            rows.append((beta, gdb, est.mean_normalized_error, est.mean_trace_mse,
                         pred, est.stderr_normalized_error))
    config = {
        "dist": dist.id, "n": args.n, "d": args.d, "beta": betas,
        "gamma_db": gammas_db, "trials": args.trials, "table_trials": args.table_trials,
    }
    table = make_table("mse", config, args.seed,
                       ["beta", "gamma_db", "mse_mc", "mse_trace", "mse_asymptotic", "stderr"],
                       rows)
    table.metadata.update(eta_meta)
    write_table(args.out, table)
    if args.svg:
        series = []
        for beta in betas:
            pts = [(r[1], r[4]) for r in rows if r[0] == beta]
            series.append(Series([p[0] for p in pts], [p[1] for p in pts], f"beta={beta:g}"))
        write_svg(args.svg, series, title=f"MSE ({dist.id})", xlabel="gamma [dB]",
                  ylabel="MSE", logy=True)
    return 0


# --- scenario subcommands


def cmd_scenario_fading(args) -> int:
    dist = fading_distribution(args.a_db)
    betas = parse_float_list(args.beta)
    gammas_db = parse_db_grid(args.gamma_db)
    eta, eta_meta = mixture_eta_table(dist, 2, args.n, betas, gammas_db,
                                      trials=args.table_trials, seed=args.seed + 7919,
                                      threads=args.threads, table_path=args.eta_table)
    rows = []
    for beta in betas:
        for gdb in gammas_db:
            gamma = db_to_linear(gdb)
            mse_u = 1.0 if gamma == 0 else eta.eta(beta, gamma / beta)
            mse_x = asymptotic_mse(dist.gx, 1.0, 2, beta, gamma, eta)
            rows.append(("fu", beta, gdb, mse_u))
            rows.append(("fx", beta, gdb, mse_x))
    config = {"a_db": args.a_db, "beta": betas, "gamma_db": gammas_db,
              "n": args.n, "table_trials": args.table_trials}
    table = make_table("scenario-fading", config, args.seed,
                       ["curve", "beta", "gamma_db", "mse"], rows)
    table.metadata.update(eta_meta)
    write_table(args.out, table)
    if args.svg:
        series = []
        for curve in ("fu", "fx"):
            for beta in betas:
                pts = [(r[2], r[3]) for r in rows if r[0] == curve and r[1] == beta]
                series.append(Series([p[0] for p in pts], [p[1] for p in pts],
                                     f"{curve} b={beta:g}"))
        write_svg(args.svg, series, title=f"fading a={args.a_db:g} dB",
                  xlabel="gamma [dB]", ylabel="MSE", logy=True)
    return 0


def cmd_scenario_csma(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            hier = load_hierarchy(json.load(fh))
    else:
        hier = quadrant_hierarchy(parse_float_list(args.lambda1))
    prof = csma_success_profile(hier)
    betas = parse_float_list(args.beta)
    gammas_db = parse_db_grid(args.gamma_db)
    eta, eta_meta = mixture_eta_table(prof.distribution, 2, args.n, betas, gammas_db,
                                      trials=args.table_trials, seed=args.seed + 7919,
                                      threads=args.threads, table_path=args.eta_table)
    rows = []
    for gdb in gammas_db:
        gamma = db_to_linear(gdb)
        for beta in betas:
            mse_u = 1.0 if gamma == 0 else eta.eta(beta, gamma / beta)
            mse_x = prof.mse(beta, gamma, eta)
            rows.append(("fu", gdb, beta, mse_u))
            rows.append(("fx", gdb, beta, mse_x))
    config = {
        "areas": list(hier.areas), "H": hier.H, "m": [list(r) for r in hier.nodes],
        "lambda1": list(hier.lambda1), "beta": betas, "gamma_db": gammas_db, "n": args.n,
        "table_trials": args.table_trials,
    }
    table = make_table("scenario-csma", config, args.seed,
                       ["curve", "gamma_db", "beta", "mse"], rows)
    for i, p in enumerate(prof.normalized_success):
        table.metadata[f"p_s_{i + 1}"] = float(p)
    table.metadata.update(eta_meta)
    write_table(args.out, table)
    if args.svg:
        series = []
        for curve in ("fu", "fx"):
            for gdb in gammas_db:
                pts = [(r[2], r[3]) for r in rows if r[0] == curve and r[1] == gdb]
                series.append(Series([p[0] for p in pts], [p[1] for p in pts],
                                     f"{curve} {gdb:g}dB"))
        write_svg(args.svg, series, title="clustered CSMA", xlabel="beta",
                  ylabel="MSE", logy=True)
    return 0


def _holes_summaries(c: float, beta: float, n: int, trials: int, seed: int, threads):
    direct = aesd(hole_distribution(c, d=1), n, max(1, int(round(n / beta))),
                  trials, seed=seed, threads=threads)
    base = aesd(uniform_distribution(1), n, max(1, int(round(n / (c * beta)))),
                trials, seed=seed + 1, threads=threads)
    transformed = transform_scaled_lsd(base, c, beta)
    return direct, transformed


def cmd_scenario_holes(args) -> int:
    direct, transformed = _holes_summaries(args.c, args.beta, args.n, args.trials,
                                           args.seed, args.threads)
    cmp = compare_scaled_aesd(direct, transformed)
    rows = [("direct", float(l), float(r), float(v))
            for l, r, v in zip(direct.hist_edges[:-1], direct.hist_edges[1:], direct.hist_density)]
    rows += [("transformed", float(l), float(r), float(v))
             for l, r, v in zip(transformed.hist_edges[:-1], transformed.hist_edges[1:],
                                transformed.hist_density)]
    config = {"c": args.c, "beta": args.beta, "n": args.n, "trials": args.trials}
    table = make_table("scenario-holes", config, args.seed,
                       ["series", "bin_left", "bin_right", "density"], rows)
    table.metadata["ks_distance"] = cmp.ks_distance
    table.metadata["atom_direct"] = cmp.atom_direct
    table.metadata["atom_transformed"] = cmp.atom_transformed
    write_table(args.out, table)
    return 0


def cmd_scenario_dense(args) -> int:
    dist = fading_distribution(args.a_db)
    gx = fading_gx(db_to_linear(args.a_db))
    betas = parse_float_list(args.beta)
    rows = []
    for beta in betas:
        m = max(1, int(round(args.n ** 2 / beta)))
        summary = aesd(dist, args.n, m, args.trials, seed=args.seed, threads=args.threads)
        for l, r, v in zip(summary.hist_edges[:-1], summary.hist_edges[1:], summary.hist_density):
            rows.append((f"aesd-beta{beta:g}", 0.5 * (l + r), float(v)))
    lo, hi = gx.support
    ygrid = np.linspace(lo, hi, 200)
    for y, v in zip(ygrid, gx.density(ygrid)):
        rows.append(("gx", float(y), float(v)))
    config = {"a_db": args.a_db, "beta": betas, "n": args.n, "trials": args.trials}
    table = make_table("scenario-dense", config, args.seed, ["series", "z", "density"], rows)
    write_table(args.out, table)
    if args.svg:
        series = []
        for name in dict.fromkeys(r[0] for r in rows):
            pts = [(r[1], r[2]) for r in rows if r[0] == name]
            series.append(Series([p[0] for p in pts], [p[1] for p in pts], name))
        write_svg(args.svg, series, title="dense-network limit", xlabel="z", ylabel="density")
    return 0


# --- figure reproduction


FIGURE_IDS = ("fig1a", "fig1b", "fig2", "fig3", "fig5", "fig6", "fig7")


def cmd_reproduce(args) -> int:
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    fig = args.figure

    if fig in ("fig1a", "fig1b"):
        c, beta = (0.8, 0.8) if fig == "fig1a" else (0.5, 0.2)
        direct, transformed = _holes_summaries(c, beta, 100, 50, args.seed, args.threads)
        cmp = compare_scaled_aesd(direct, transformed)
        config = {"figure": fig, "c": c, "beta": beta, "n": 100, "trials": 50}
        for name, summary in (("direct", direct), ("transformed", transformed)):
            table = make_table(f"reproduce-{fig}-{name}", config, args.seed,
                               ["bin_left", "bin_right", "density"], _spectrum_rows(summary))
            table.metadata["atom_mass"] = summary.total_atom_mass
            table.metadata["ks_distance"] = cmp.ks_distance
            write_table(os.path.join(out, f"{fig}_{name}.csv"), table)
        print(f"{fig}: KS distance = {cmp.ks_distance:.4f} "
              f"(atom direct {cmp.atom_direct:.4f}, transformed {cmp.atom_transformed:.4f})")
        return 0

    if fig == "fig2":
        rows = []
        for a_db in (0.0, 5.0, 10.0):
            gx = fading_gx(db_to_linear(a_db))
            lo, hi = gx.support
            for y in np.linspace(lo, hi - 1e-9, 400):
                rows.append((a_db, float(y), float(gx.density(np.array([y]))[0])))
        config = {"figure": fig, "a_db": [0.0, 5.0, 10.0]}
        table = make_table("reproduce-fig2", config, args.seed, ["a_db", "y", "gx"], rows)
        path = os.path.join(out, "fig2.csv")
        write_table(path, table)
        series = [
            Series([r[1] for r in rows if r[0] == a], [r[2] for r in rows if r[0] == a],
                   f"a={a:g} dB")
            for a in (0.0, 5.0, 10.0)
        ]
        write_svg(os.path.join(out, "fig2.svg"), series,
                  title="density of the fading density", xlabel="y", ylabel="g_x(y)")
        print(f"{fig}: wrote {path}")
        return 0

    if fig == "fig3":
        ns = argparse.Namespace(
            a_db=5.0, beta="0.2,0.4,0.6,0.8", gamma_db="-10:2:30", n=10,
            trials=None, table_trials=args.table_trials, seed=args.seed,
            threads=args.threads, eta_table=args.eta_table,
            out=os.path.join(out, "fig3.csv"), svg=os.path.join(out, "fig3.svg"),
        )
        cmd_scenario_fading(ns)
        print(f"{fig}: wrote {ns.out}")
        return 0

    if fig == "fig5":
        ns = argparse.Namespace(
            a_db=5.0, beta="0.5,0.1,0.01", n=10, trials=100, seed=args.seed,
            threads=args.threads, out=os.path.join(out, "fig5.csv"),
            svg=os.path.join(out, "fig5.svg"),
        )
        cmd_scenario_dense(ns)
        print(f"{fig}: wrote {ns.out}")
        return 0

    if fig in ("fig6", "fig7"):
        lam = "1e-3,2e-4,2e-4,2e-5" if fig == "fig6" else "5e-3,1e-3,1e-3,1e-4"
        ns = argparse.Namespace(
            config=None, lambda1=lam, beta="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
            gamma_db="0,10,20", n=10, table_trials=args.table_trials, seed=args.seed,
            threads=args.threads, eta_table=args.eta_table,
            out=os.path.join(out, f"{fig}.csv"), svg=os.path.join(out, f"{fig}.svg"),
        )
        cmd_scenario_csma(ns)
        print(f"{fig}: wrote {ns.out}")
        return 0

    raise UsageError(f"unknown figure id {fig!r}; choose from {', '.join(FIGURE_IDS)}")


# ---------------------------------------------------------------------------
# parser


def _add_global_opts(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int,
                        default=d if suppress else 42, help="master seed (default 42)")
    parser.add_argument("--threads", type=int, default=d if suppress else 0,
                        help="trial-level worker threads (0 = all cores); results do not depend on it")
    parser.add_argument("--eta-table", default=d if suppress else None, dest="eta_table",
                        help="path of a JSON eta_u table to reuse (built and saved when missing)")


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
    p.add_argument("--out", required=True)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("moments", help="analytic vs Monte-Carlo moments")
    p.add_argument("--dist", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--max-p", type=int, required=True, dest="max_p")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", required=True)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("spectrum", help="average empirical spectral distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--bins", type=parse_bins, default="auto")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mse", help="simulated vs asymptotic reconstruction MSE")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", required=True, help="comma-separated list")
    p.add_argument("--gamma-db", required=True, dest="gamma_db",
                   help="comma list or start:step:stop, in dB (converted to linear internally)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--table-trials", type=int, default=50, dest="table_trials")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_mse)

    sc = sub.add_parser("scenario", help="canned loss scenarios")
    scsub = sc.add_subparsers(dest="scenario", required=True)

    p = scsub.add_parser("fading", help="Rayleigh-fading delivery MSE curves")
    p.add_argument("--a-db", type=float, required=True, dest="a_db")
    p.add_argument("--beta", default="0.2,0.4,0.6,0.8")
    p.add_argument("--gamma-db", default="-10:2:30", dest="gamma_db")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--table-trials", type=int, default=50, dest="table_trials")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_scenario_fading)

    p = scsub.add_parser("csma", help="clustered CSMA collection MSE curves")
    p.add_argument("--config", default=None, help="hierarchy JSON file")
    p.add_argument("--lambda1", default="1e-3,2e-4,2e-4,2e-5",
                   help="layer-1 loads for the default quadrant hierarchy")
    p.add_argument("--beta", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--gamma-db", default="0,10,20", dest="gamma_db")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--table-trials", type=int, default=50, dest="table_trials")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_scenario_csma)

    p = scsub.add_parser("holes", help="scaled-support spectrum comparison")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out", required=True)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_scenario_holes)

    p = scsub.add_parser("dense", help="small-beta spectra vs the density of the density")
    p.add_argument("--a-db", type=float, required=True, dest="a_db")
    p.add_argument("--beta", default="0.5,0.1,0.01")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    _add_global_opts(p, suppress=True)
    p.set_defaults(func=cmd_scenario_dense)

    p = sub.add_parser("reproduce", help="canned desk-scale figure configurations")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.add_argument("--table-trials", type=int, default=50, dest="table_trials")
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
