"""Tests of the benchmark itself: span arithmetic, wrappers, checker, seeding.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTERS = ("spectral.eigensolves", "spectral.eta_lookups", "partitions.lattice_counts",
            "reconstruct.lmmse_calls", "spectral.trials", "spectral.mixture_calls",
            "spectral.build_vandermonde_calls", "sampling.sampler_calls",
            "partitions.coefficient_calls", "scenarios.gx_density_evals",
            "spectral.eta_table_builds", "reconstruct.ill_conditioned")


def test_self_times_on_synthetic_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["spectral.mixture", 1.0, 4.0, 0],
        ["spectral.eta_lookup", 2.0, 3.0, 1],
        ["spectral.eta_lookup", 3.0, 3.5, 1],
        ["spectral.aesd", 5.0, 9.0, 0],
        ["spectral.gram", 5.5, 7.0, 4],
        ["spectral.eigvalsh", 6.0, 6.5, 5],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 0.5, 2.5, 1.0, 0.5])
    m = tracing.layer_metrics(spans)
    assert m["trace.wall_s"] == pytest.approx(10.0)
    assert m["trace.other_s"] == pytest.approx(3.0)
    assert m["spectral.mixture_s"] == pytest.approx(3.0)
    assert m["spectral.mixture_self_s"] == pytest.approx(1.5)
    assert m["spectral.lookups_per_mixture"] == 2.0
    assert m["spectral.gram_s"] == pytest.approx(1.0)
    assert m["spectral.trials"] == 1
    assert m["spectral.eta_lookup_p50_us"] == pytest.approx(0.75e6)
    assert sum(tracing.self_times(spans)) == pytest.approx(m["trace.wall_s"])


def test_self_time_counts_overlapping_children_once():
    spans = [["cli.main", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 4.0, 6.0, 0],
             ["c", 9.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _namespaces():
    import importlib
    mods = [importlib.import_module(m) for m in tracing.MODULES]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    from vanspec.spectral import EtaUTable
    snap[("EtaUTable", "eta")] = EtaUTable.__dict__["eta"]
    snap[("numpy.linalg", "eigvalsh")] = np.linalg.eigvalsh
    return snap


SMALL = {
    "mse.csv": ["mse", "--dist", "fading:a_db=5", "--d", "2", "--n", "4", "--beta", "0.4,0.8",
                "--gamma-db", "0,10", "--trials", "3", "--table-trials", "3",
                "--out", "{tmp}/mse.csv", "--svg", "{tmp}/mse.svg"],
    "fading.csv": ["scenario", "fading", "--a-db", "5", "--beta", "0.4", "--gamma-db", "0,10",
                   "--n", "4", "--table-trials", "3", "--out", "{tmp}/fading.csv"],
    "moments.csv": ["moments", "--dist", "hole:c=0.8", "--d", "1", "--beta", "0.5",
                    "--max-p", "3", "--n", "16", "--trials", "2", "--out", "{tmp}/moments.csv"],
}


def _run_small(tmp, traced):
    from vanspec import cli
    os.makedirs(tmp, exist_ok=True)
    outputs, metrics = {}, []
    for name, argv in SMALL.items():
        argv = ["--threads", "1", "--seed", "5"] + [a.format(tmp=tmp) for a in argv]
        if traced:
            rec = tracing.Recorder()
            patches = tracing.install(rec)
            try:
                assert rec.span(tracing.ROOT, cli.main, argv) == 0
            finally:
                tracing.restore(patches)
            metrics.append(tracing.layer_metrics(rec.spans, rec.ill_conditioned))
        else:
            assert cli.main(argv) == 0
        with open(os.path.join(tmp, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs, metrics


def test_tracing_never_changes_outputs_and_is_removed(tmp_path):
    before = _namespaces()
    plain, _ = _run_small(str(tmp_path / "plain"), traced=False)
    traced, metrics = _run_small(str(tmp_path / "traced"), traced=True)
    assert traced == plain
    assert _namespaces() == before
    mse, fading, moments = metrics
    assert mse["reconstruct.lmmse_calls"] == 2 * 2 * 3
    assert mse["spectral.eta_lookups"] > 0 and mse["spectral.mixture_calls"] == 4
    assert mse["sampling.sampler_calls"] == mse["spectral.build_vandermonde_calls"] > 0
    assert fading["scenarios.gx_density_evals"] > 0
    assert moments["spectral.trials"] == moments["spectral.eigensolves"] == 2
    for m in metrics:
        assert m["trace.other_s"] >= 0.0
        assert m["trace.other_s"] < m["trace.wall_s"]


def test_counters_repeat_in_process(tmp_path):
    _, first = _run_small(str(tmp_path / "a"), traced=True)
    _, second = _run_small(str(tmp_path / "b"), traced=True)
    for a, b in zip(first, second):
        assert {k: a[k] for k in COUNTERS} == {k: b[k] for k in COUNTERS}


def test_fresh_processes_repeat_counters_and_bytes(tmp_path):
    # Cold caches in every process: lattice counting happens each time.
    run_dir = str(tmp_path)
    plain = run.invoke("moments-d1", 3, run_dir, "run", 0, 120)
    t1 = run.invoke("moments-d1", 3, run_dir, "trace", 1, 120)
    t2 = run.invoke("moments-d1", 3, run_dir, "trace", 2, 120)
    for inv in (plain, t1, t2):
        assert inv["ok"], inv["problems"]
    assert plain["digests"] == t1["digests"] == t2["digests"]
    assert {k: t1["layers"][k] for k in COUNTERS} == {k: t2["layers"][k] for k in COUNTERS}
    assert t1["layers"]["partitions.lattice_counts"] > 0


def _reference_csv(workload, path, seed=42, override=None):
    """Write a CSV whose columns equal the stored reference (not its bytes),
    except for the cells in override {(column, row): value}."""
    entry = check.load_reference(workload)["files"][os.path.basename(path)]
    cols = entry["columns"]
    header = entry["header"]
    n = len(cols[header[0]])
    lines = [f"# seed: {seed}", ",".join(header)]
    for i in range(n):
        cells = []
        for c in header:
            v = (override or {}).get((c, i), cols[c][i])
            cells.append(repr(v) if isinstance(v, float) else v)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload,column,row", [
    ("fading-mse", "mse_mc", 4),
    ("fading-mse", "mse_asymptotic", 2),
    ("moments-d1", "M_montecarlo", 3),
])
def test_checker_rejects_one_perturbed_value(tmp_path, workload, column, row):
    (name,) = workloads.csv_files(workload)
    path = str(tmp_path / name)
    _reference_csv(workload, path)
    problems, digests = check.check_invocation(workload, 42, str(tmp_path), [name], [])
    assert problems == []
    assert digests[name] != check.load_reference(workload)["files"][name]["sha256"]
    value = check.load_reference(workload)["files"][name]["columns"][column][row]
    assert value != 0
    _reference_csv(workload, path, override={(column, row): value * (1 + 1e-3)})
    problems, _ = check.check_invocation(workload, 42, str(tmp_path), [name], [])
    assert any(f"{column}[{row}]" in p for p in problems), problems


def test_checker_invariants_catch_a_broken_curve(tmp_path):
    # At another seed there is no reference; the invariants must still bite.
    path = str(tmp_path / "moments.csv")
    _reference_csv("moments-d1", path, seed=9, override={("M_analytic", 2): 3.7})
    problems, _ = check.check_invocation("moments-d1", 9, str(tmp_path), ["moments.csv"], [])
    assert any("analytic moments differ" in p for p in problems)
    _reference_csv("fading-mse", str(tmp_path / "mse.csv"), seed=9)
    problems, _ = check.check_invocation("fading-mse", 9, str(tmp_path), ["mse.csv"], [])
    assert problems == []
    # Row 0 is (beta 0.4, 0 dB), row 3 is (beta 0.8, 0 dB).
    pred = check.load_reference("fading-mse")["files"]["mse.csv"]["columns"]["mse_asymptotic"]
    _reference_csv("fading-mse", str(tmp_path / "mse.csv"), seed=9,
                   override={("mse_asymptotic", 0): pred[3] + 1e-3})
    problems, _ = check.check_invocation("fading-mse", 9, str(tmp_path), ["mse.csv"], [])
    assert any("decreases in beta" in p for p in problems), problems


def test_seed_reaches_the_cli(tmp_path):
    for w in workloads.WORKLOADS:
        argv = workloads.make_inputs(w, 1234, str(tmp_path / w))
        assert argv[argv.index("--seed") + 1] == "1234"
        assert "--eta-table" not in argv
        assert argv[argv.index("--threads") + 1] == "1"
    path = str(tmp_path / "moments.csv")
    _reference_csv("moments-d1", path, seed=41)
    problems, _ = check.check_invocation("moments-d1", 42, str(tmp_path), ["moments.csv"], [])
    assert any("metadata seed" in p for p in problems)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    import subprocess
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moments-d1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    traced = set(tracing.layer_metrics([["cli.main", 0.0, 1.0, -1]]))
    assert traced | {"cli.csv_bytes", "cli.csv_identical", "trace.overhead_frac"} == set(run.LAYER_UNITS)
