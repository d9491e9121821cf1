import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import vanspec
from vanspec.cli import FIGURES, build_parser, figure_args, main, parse_db_grid, parse_float_list
from vanspec.spectral import EtaUTable


def read_rows(path):
    meta, data = {}, []
    for line in open(path, encoding="utf-8"):
        line = line.rstrip("\n")
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        else:
            data.append(line)
    parsed = list(csv.reader(data))
    return meta, parsed[0], parsed[1:]


def test_parse_db_grid():
    assert parse_db_grid("-10:5:10") == [-10.0, -5.0, 0.0, 5.0, 10.0]
    assert parse_db_grid("0,10,20") == [0.0, 10.0, 20.0]
    with pytest.raises(Exception):
        parse_db_grid("10:0:20")
    assert parse_float_list("0.2,0.4") == [0.2, 0.4]


def test_partitions_command(tmp_path):
    out = tmp_path / "parts.csv"
    assert main(["partitions", "--p", "4", "--out", str(out)]) == 0
    meta, header, rows = read_rows(str(out))
    assert header == ["partition", "k", "noncrossing", "v_exact", "v_float"]
    assert len(rows) == 15
    crossing = [r for r in rows if r[0] == "{1,3}{2,4}"]
    assert crossing and crossing[0][2] == "false" and crossing[0][3] == "2/3"
    assert meta["config_hash"]


def test_moments_command_analytic_column(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["moments", "--dist", "uniform", "--d", "1", "--beta", "1",
               "--max-p", "4", "--n", "64", "--trials", "4", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_rows(str(out))
    got = [float(r[1]) for r in rows]
    assert got == pytest.approx([1.0, 2.0, 5.0, 44 / 3])


def test_byte_identity_same_config(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["spectrum", "--dist", "uniform", "--n", "24", "--d", "1",
            "--beta", "0.8", "--trials", "6"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_metadata_and_mass(tmp_path):
    out = tmp_path / "s.csv"
    main(["spectrum", "--dist", "hole:c=0.5", "--n", "32", "--d", "1",
          "--beta", "0.5", "--trials", "6", "--out", str(out)])
    meta, header, rows = read_rows(str(out))
    assert header == ["bin_left", "bin_right", "density"]
    atom = float(meta["atom_zero_mass"])
    mass = sum((float(r[1]) - float(r[0])) * float(r[2]) for r in rows)
    assert atom + mass == pytest.approx(1.0, abs=1e-9)


def test_mse_command(tmp_path):
    out = tmp_path / "mse.csv"
    rc = main(["--seed", "3", "mse", "--dist", "uniform", "--n", "16", "--d", "1",
               "--beta", "0.5", "--gamma-db", "0,10", "--trials", "8",
               "--table-trials", "8", "--out", str(out)])
    assert rc == 0
    _, header, rows = read_rows(str(out))
    assert header == ["beta", "gamma_db", "mse_mc", "mse_trace", "mse_asymptotic", "stderr"]
    by_g = {float(r[1]): float(r[3]) for r in rows}
    assert by_g[10.0] < by_g[0.0]


def test_scenario_csma_with_config_file(tmp_path):
    cfg = tmp_path / "hier.json"
    cfg.write_text(json.dumps({
        "L": 2, "H": 2, "areas": [0.5, 0.5], "m": [[5, 3], [5, 3]],
        "lambda1": [1e-3, 1e-4], "collision": {"type": "default"},
    }))
    out = tmp_path / "c.csv"
    rc = main(["scenario", "csma", "--config", str(cfg), "--beta", "0.4",
               "--gamma-db", "0,10", "--n", "8", "--table-trials", "6",
               "--out", str(out)])
    assert rc == 0
    meta, header, rows = read_rows(str(out))
    assert {r[0] for r in rows} == {"fu", "fx"}
    assert float(meta["p_s_1"]) < float(meta["p_s_2"])


def test_scenario_dense_and_svg(tmp_path):
    out, svg = tmp_path / "d.csv", tmp_path / "d.svg"
    rc = main(["scenario", "dense", "--a-db", "5", "--beta", "0.2", "--n", "8",
               "--trials", "10", "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    _, header, rows = read_rows(str(out))
    assert "gx" in {r[0] for r in rows}
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_reproduce_fig2(tmp_path):
    rc = main(["reproduce", "fig2", "--out-dir", str(tmp_path)])
    assert rc == 0
    meta, header, rows = read_rows(str(tmp_path / "fig2.csv"))
    assert header == ["a_db", "y", "gx"]
    assert {float(r[0]) for r in rows} == {0.0, 5.0, 10.0}
    assert (tmp_path / "fig2.svg").exists()


def test_reproduce_unknown_figure():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig9"])
    assert exc.value.code == 2


def test_usage_error_exit_code(tmp_path):
    rc = main(["moments", "--dist", "nosuchkind", "--d", "1", "--beta", "1",
               "--max-p", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_bad_bins_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5",
              "--trials", "2", "--bins", "foo", "--out", "x.csv"])
    assert exc.value.code == 2
    assert "--bins" in capsys.readouterr().err


def test_dist_item_without_value_is_usage_error(tmp_path, capsys):
    rc = main(["moments", "--dist", "hole:c", "--d", "1", "--beta", "1",
               "--max-p", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "'c'" in capsys.readouterr().err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected an argument
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5",
      "--trials", "2", "--bins", "0"], "--bins: want an integer >= 1"),
    (["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta=", "--gamma-db", "0"],
     "empty float list ''"),
    (["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5", "--gamma-db="],
     "empty float list ''"),
    (["moments", "--dist", "hole:c=2", "--d", "1", "--beta", "1", "--max-p", "2"],
     "bad --dist 'hole:c=2': c must be in (0, 1]"),
], ids=["bins-0", "empty-beta", "empty-gamma-db", "hole-c-out-of-range"])
def test_malformed_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("moments", ["--beta", "1", "--max-p", "2"]),
    ("spectrum", ["--n", "8", "--beta", "0.5", "--trials", "2"]),
    ("mse", ["--n", "8", "--beta", "0.5", "--gamma-db", "0"]),
])
def test_dist_dimension_mismatch_is_usage_error(tmp_path, capsys, command, extra):
    out = tmp_path / "x.csv"
    rc = main([command, "--dist", "fading:a_db=5", "--d", "1", *extra, "--out", str(out)])
    assert rc == 2
    assert "distribution is d=2, requested --d 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fig", [f for f, entry in FIGURES.items() if not callable(entry)])
def test_figure_argv_carries_reproduce_options(tmp_path, fig):
    args = build_parser().parse_args(
        ["--seed", "7", "--threads", "1", "--eta-table", "t.json", "reproduce", fig,
         "--out-dir", str(tmp_path), "--table-trials", "9"])
    ns = figure_args(args)
    scenario = FIGURES[fig][1]
    assert (ns.command, ns.scenario) == ("scenario", scenario)
    assert ns.func.__name__ == f"cmd_scenario_{scenario}"
    assert (ns.seed, ns.threads, ns.eta_table, ns.table_trials) == (7, 1, "t.json", 9)
    assert (ns.out, ns.svg) == (str(tmp_path / f"{fig}.csv"), str(tmp_path / f"{fig}.svg"))


def test_svg_never_alters_csv(tmp_path):
    plain, withsvg = tmp_path / "p.csv", tmp_path / "w.csv"
    argv = ["spectrum", "--dist", "uniform", "--n", "16", "--d", "1",
            "--beta", "0.5", "--trials", "4"]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--out", str(withsvg), "--svg", str(tmp_path / "w.svg")]) == 0
    assert plain.read_bytes() == withsvg.read_bytes()


def test_eta_table_reuse(tmp_path):
    table = tmp_path / "eta.json"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["--eta-table", str(table), "scenario", "fading", "--a-db", "5",
            "--beta", "0.4", "--gamma-db", "0,10", "--n", "8", "--table-trials", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert table.exists()
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


MSE_ARGV = ["mse", "--dist", "fading:a_db=5", "--d", "2", "--n", "8", "--beta", "0.4",
            "--gamma-db", "0,10", "--trials", "4", "--table-trials", "5"]


@pytest.fixture(scope="module")
def saved_table_run(tmp_path_factory):
    """An mse run that builds and saves its eta table: (table path, CSV path)."""
    tmp = tmp_path_factory.mktemp("eta")
    table, out = tmp / "eta.json", tmp / "built.csv"
    assert main(["--eta-table", str(table)] + MSE_ARGV + ["--out", str(out)]) == 0
    return table, out


def test_eta_table_reuse_records_sha_and_is_byte_identical(saved_table_run, tmp_path):
    table, built = saved_table_run
    loaded, plain = tmp_path / "loaded.csv", tmp_path / "plain.csv"
    assert main(["--eta-table", str(table)] + MSE_ARGV + ["--out", str(loaded)]) == 0
    assert built.read_bytes() == loaded.read_bytes()
    meta, _, _ = read_rows(str(loaded))
    assert meta["eta_table_sha256"] == hashlib.sha256(table.read_bytes()).hexdigest()
    # without --eta-table the metadata does not name a table
    assert main(MSE_ARGV + ["--out", str(plain)]) == 0
    assert "eta_table_sha256" not in read_rows(str(plain))[0]


@pytest.mark.parametrize("field, change", [
    ("d", {"d": 1}),
    ("n", {"n": 9}),
    ("trials", {"trials": 6}),
    ("beta", "beta_grid"),
    ("gamma", "gamma_grid"),
])
def test_eta_table_reuse_rejects_mismatch(saved_table_run, tmp_path, capsys, field, change):
    good = EtaUTable.load(str(saved_table_run[0]))
    if isinstance(change, str):  # shift the grid so its low end misses the request
        change = {change: getattr(good, change) * 1.2}
    path = tmp_path / "bad.json"
    dataclasses.replace(good, **change).save(str(path))
    rc = main(["--eta-table", str(path)] + MSE_ARGV + ["--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"table has {field}=" in err or f"table {field} range" in err
    assert not (tmp_path / "x.csv").exists()


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports vanspec from this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(vanspec.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_runtime_needs_no_scipy(tmp_path):
    # a None entry makes every scipy import raise ImportError
    res = _run_python(f"""
        import json, sys
        sys.modules["scipy"] = None
        from vanspec import cli
        out = {str(tmp_path)!r}
        runs = [
            ["mse", "--dist", "fading:a_db=5", "--d", "2", "--n", "4", "--beta", "0.4,0.8",
             "--gamma-db", "0,10", "--trials", "3", "--table-trials", "3"],
            ["scenario", "holes", "--c", "0.8", "--beta", "0.8", "--n", "24", "--trials", "4"],
            ["moments", "--dist", "hole:c=0.8", "--d", "1", "--beta", "0.5", "--max-p", "3",
             "--n", "16", "--trials", "2"],
        ]
        codes = [cli.main(["--threads", "1"] + argv + ["--out", f"{{out}}/{{i}}.csv"])
                 for i, argv in enumerate(runs)]
        print(json.dumps(codes))
        """)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == [0, 0, 0]
    res = _run_python("""
        import sys
        import vanspec.cli
        print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
        """)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
