"""vanspec benchmark: run one workload through `vanspec.cli.main` and report metrics.

    python3 perfbench/run.py --workload fading-mse --seed 42 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one summary line each

Each invocation is a fresh interpreter running perfbench/child.py, one at a
time, so every process-level cache starts cold as it does for a CLI user.
With ``--trace 0`` the run repeats untraced invocations while the next one
is expected to end inside ``--seconds``, adds set-up-only probes until it has
SETUP_SAMPLES set-up times, and reports medians of the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced invocations and reports
the per-layer metrics of the traced ones (medians) plus the tracing overhead.
Every invocation's outputs are checked (perfbench/check.py).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Records
and the spans of the last traced invocation go to .perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# Serial BLAS as well as serial trials: on a small shared machine a second
# BLAS thread measures the neighbours, not the program.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every run must end within 180 s; no invocation may start past this point.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "spectral.eta_lookup_s": "s", "spectral.eta_lookups": "count",
    "spectral.eta_lookup_p50_us": "us", "spectral.eta_lookup_p99_us": "us",
    "spectral.mixture_s": "s", "spectral.mixture_self_s": "s",
    "spectral.mixture_calls": "count", "spectral.lookups_per_mixture": "count",
    "spectral.eta_table_build_s": "s", "spectral.eta_table_builds": "count",
    "spectral.trials": "count", "spectral.aesd_s": "s", "spectral.summarize_s": "s",
    "sampling.sampler_s": "s", "sampling.sampler_calls": "count",
    "spectral.build_vandermonde_s": "s", "spectral.build_vandermonde_calls": "count",
    "spectral.gram_s": "s", "spectral.eigvalsh_s": "s", "spectral.eigensolves": "count",
    "spectral.eigensolve_p50_ms": "ms", "spectral.eigensolve_p99_ms": "ms",
    "reconstruct.mse_monte_carlo_s": "s", "reconstruct.lmmse_s": "s",
    "reconstruct.lmmse_calls": "count", "reconstruct.lmmse_p50_ms": "ms",
    "reconstruct.observe_s": "s", "reconstruct.generate_spectrum_s": "s",
    "reconstruct.ill_conditioned": "count",
    "partitions.lattice_count_s": "s", "partitions.lattice_counts": "count",
    "partitions.coefficient_calls": "count", "partitions.coefficient_counted_frac": "frac",
    "moments.moment_table_s": "s", "moments.power_integrals_s": "s",
    "scenarios.profile_s": "s", "scenarios.gx_density_evals": "count",
    "cli.write_table_s": "s", "cli.csv_bytes": "bytes", "cli.csv_identical": "frac",
    "svgplot.line_plot_s": "s",
    "trace.wall_s": "s", "trace.other_s": "s", "trace.overhead_frac": "frac",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def invoke(workload: str, seed: int, run_dir: str, mode: str, index: int, timeout: float) -> dict:
    """Start one child interpreter, wait for it, and check what it wrote."""
    out_dir = os.path.join(run_dir, f"{mode}-{index}")
    result_path = out_dir + ".json"
    inv = {"mode": mode, "ok": False, "problems": []}
    t_spawn = _now()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), ROOT, workload, str(seed),
             out_dir, result_path, mode],
            cwd=ROOT, env=dict(os.environ, **CHILD_THREADS),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        inv["problems"].append(f"timed out after {timeout:.0f} s")
        return inv
    inv["duration_s"] = _now() - t_spawn
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-3:]
        inv["problems"].append(f"child exited {proc.returncode}: {' | '.join(tail)}")
        return inv
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    inv["setup_s"] = res["main_at"] - t_spawn
    inv["peak_rss_mb"] = res["peak_rss_mb"]
    if mode == "setup":
        inv["ok"] = True
        return inv
    inv["wall_s"] = res["wall_s"]
    if res["rc"] != 0:
        inv["problems"].append(f"cli.main returned {res['rc']}: {proc.stderr.strip()[-300:]}")
        return inv
    csvs = workloads.csv_files(workload)
    problems, inv["digests"] = check.check_invocation(
        workload, seed, out_dir, csvs, workloads.svg_files(workload))
    inv["problems"] += problems
    inv["csv_bytes"] = sum(os.path.getsize(os.path.join(out_dir, n)) for n in csvs
                           if os.path.exists(os.path.join(out_dir, n)))
    if mode == "trace":
        inv["layers"] = tracing.layer_metrics(res["spans"], res["ill_conditioned"])
        inv["spans"] = res["spans"]
    inv["ok"] = not inv["problems"]
    return inv


def run_workload(workload: str, seed: int, seconds: float, trace: bool, run_dir: str):
    """Run the invocations of one workload; return (invocations, metrics)."""
    start = _now()
    invs: list[dict] = []

    def remaining():
        return RUN_LIMIT_S - (_now() - start)

    modes = ("run", "trace") if trace else ("run",)
    while True:
        for mode in modes:
            invs.append(invoke(workload, seed, run_dir, mode, len(invs), remaining()))
        done = [i["duration_s"] for i in invs if "duration_s" in i]
        step = statistics.median(done) * len(modes) if done else seconds
        elapsed = _now() - start
        if elapsed + step > min(seconds, RUN_LIMIT_S):
            break
    if not trace:
        while len([i for i in invs if "setup_s" in i]) < SETUP_SAMPLES and remaining() > 10:
            invs.append(invoke(workload, seed, run_dir, "setup", len(invs), remaining()))

    # Same seed, same bytes: every invocation must reproduce the first one's
    # CSVs (traced ones included: tracing must never change outputs).
    first = next((i["digests"] for i in invs if i.get("digests")), None)
    for inv in invs:
        if inv.get("digests") is not None and inv["digests"] != first:
            inv["problems"].append("CSV bytes differ from the run's first invocation")
            inv["ok"] = False
    return invs, (trace_metrics(invs, workload, seed) if trace else end_to_end_metrics(invs))


def _median(invs, key, mode=None):
    vals = [i[key] for i in invs if key in i and (mode is None or i["mode"] == mode)]
    return statistics.median(vals) if vals else None


def end_to_end_metrics(invs) -> dict:
    return {
        "wall_s": _median(invs, "wall_s", "run"),
        "setup_s": _median(invs, "setup_s"),
        "peak_rss_mb": _median(invs, "peak_rss_mb", "run"),
    }


def trace_metrics(invs, workload: str, seed: int) -> dict:
    traced = [i for i in invs if i["mode"] == "trace" and i["ok"]]
    if not traced:
        return {name: None for name in LAYER_UNITS}
    out = {name: statistics.median(i["layers"][name] for i in traced)
           for name in traced[0]["layers"]}
    out["cli.csv_bytes"] = _median(invs, "csv_bytes", "trace")
    if seed == check.REFERENCE_SEED:
        ref = check.load_reference(workload)["files"]
        want = {name: entry["sha256"] for name, entry in ref.items()}
    else:
        want = next(i["digests"] for i in invs if i.get("digests"))
    checked = [i for i in invs if i.get("digests") is not None]
    out["cli.csv_identical"] = sum(i["digests"] == want for i in checked) / len(checked)
    untraced = _median(invs, "wall_s", "run")
    out["trace.overhead_frac"] = (_median(invs, "wall_s", "trace") / untraced - 1.0
                                  if untraced else None)
    return out


def environment() -> dict:
    """Machine and toolchain record kept with every result."""
    import numpy
    import scipy

    cfg = numpy.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], ROOT) else None
    except (OSError, IndexError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "child_num_threads": CHILD_THREADS,
        "git_commit": commit,
    }


def _fmt(metrics: dict, units: dict) -> str:
    return "  ".join(f"{k}={v:.6g} {units[k]}" if v is not None else f"{k}=n/a"
                     for k, v in metrics.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(workloads.WORKLOADS)}, a comma list, or 'all'")
    ap.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in names if w not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}")
    if not os.path.exists(os.path.join(ROOT, "src", "vanspec", "cli.py")):
        print(f"perfbench: no vanspec sources under {ROOT}/src", file=sys.stderr)
        return 2

    results_dir = os.path.join(WORK, "results")
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = failed = 0
    metrics: dict = {}
    records = []
    try:
        for w in names:
            invs, m = run_workload(w, args.seed, args.seconds, bool(args.trace), run_dir)
            bad = [i for i in invs if not i["ok"]]
            attempted += len(invs)
            failed += len(bad)
            for i in bad:
                print(f"{w}: {i['mode']} invocation failed: {'; '.join(i['problems'][:5])}")
            counts = {mode: sum(i["mode"] == mode for i in invs) for mode in ("run", "trace", "setup")}
            shown = dict(m) if args.trace else dict(m, fail_frac=len(bad) / len(invs))
            print(f"{w} seed={args.seed} trace={args.trace} invocations={counts}: "
                  + _fmt(shown, dict(units, fail_frac="frac")))
            for name, v in m.items():
                metrics[name if len(names) == 1 else f"{w}:{name}"] = (
                    {"value": v, "unit": units[name]} if v is not None else None)
            spans = next((i.pop("spans") for i in reversed(invs) if "spans" in i), None)
            tag = f"{w}-seed{args.seed}-trace{args.trace}"
            if spans is not None:
                self_s: dict = {}
                for span, own in zip(spans, tracing.self_times(spans)):
                    self_s[span[0]] = self_s.get(span[0], 0.0) + own
                with open(os.path.join(results_dir, tag + "-spans.json"), "w") as fh:
                    json.dump({"self_s_by_span": self_s, "fields": ["name", "start", "end", "parent"],
                               "spans": spans}, fh)
            for i in invs:
                i.pop("spans", None)
            records.append((tag, {"workload": w, "seed": args.seed, "trace": args.trace,
                                  "seconds": args.seconds, "metrics": m, "invocations": invs}))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    for tag, rec in records:
        with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
            json.dump(dict(rec, env=env), fh, indent=1)
    complete = all(v is not None for v in metrics.values())
    metrics = {k: v for k, v in metrics.items() if v is not None}
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
