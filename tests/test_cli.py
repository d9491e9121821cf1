import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest

import vanspec
from vanspec import cli, scenarios
from vanspec.cli import FIGURES, build_parser, figure_args, main, parse_db_grid, parse_float_list
from vanspec.spectral import EtaUTable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    assert parse_db_grid("-10:2:30") == [float(v) for v in range(-10, 31, 2)]
    assert parse_db_grid("0:0.1:1") == [round(0.1 * i, 9) for i in range(11)]
    assert len(parse_db_grid(f"0:1:{cli.GAMMA_GRID_CAP - 1}")) == cli.GAMMA_GRID_CAP
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


def test_scenario_fading_mse_is_at_most_one(tmp_path):
    # at -160 dB eta_u reads 1 at every node, so a mixture over probability
    # weights reads at most 1; raw rule weights summing above 1 wrote 1.000000000000003
    out = tmp_path / "f.csv"
    assert main(["scenario", "fading", "--a-db", "5", "--gamma-db=-160", "--beta", "0.4",
                 "--n", "4", "--out", str(out)]) == 0
    _, _, rows = read_rows(str(out))
    assert [r[0] for r in rows] == ["fu", "fx"]
    assert all(float(r[3]) <= 1.0 for r in rows), rows


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


def _quadrant_config(lambda1):
    return {"areas": [0.25] * 4, "H": 3, "m": [[10, 6, 4]] * 4, "lambda1": lambda1}


def _moments_bytes(tmp_path, name, dist, d):
    out = tmp_path / f"{name}.csv"
    assert main(["moments", "--dist", dist, "--d", str(d), "--beta", "0.5", "--max-p", "4",
                 "--n", "6", "--trials", "3", "--out", str(out)]) == 0
    return out.read_bytes()


def _dist_file(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_csma_dist_files_with_different_loads_get_different_configs(tmp_path):
    # fig6's and fig7's loads give different distributions, so their files
    # must not share a config (and hash) while their moments differ
    metas = []
    for fig, lambda1 in (("fig6", [1e-3, 2e-4, 2e-4, 2e-5]), ("fig7", [5e-3, 1e-3, 1e-3, 1e-4])):
        dist = _dist_file(tmp_path, fig, {"kind": "csma", "hierarchy": _quadrant_config(lambda1)})
        _moments_bytes(tmp_path, fig, dist, 2)
        metas.append(read_rows(str(tmp_path / f"{fig}.csv")))
    (meta6, _, rows6), (meta7, _, rows7) = metas
    assert rows6 != rows7
    assert meta6["config"] != meta7["config"]
    assert meta6["config_hash"] != meta7["config_hash"]


def test_dist_file_writes_what_its_inline_spec_writes(tmp_path):
    # the README's example file is the inline hole:c=0.8
    dist = _dist_file(tmp_path, "hole", {"kind": "hole", "c": 0.8, "d": 1})
    assert _moments_bytes(tmp_path, "file", dist, 1) == _moments_bytes(
        tmp_path, "inline", "hole:c=0.8", 1)


def test_csma_inline_hierarchy_and_config_path_write_the_same_bytes(tmp_path):
    hier = _quadrant_config([1e-3, 2e-4, 2e-4, 2e-5])
    inline = _dist_file(tmp_path, "inline", {"kind": "csma", "hierarchy": hier})
    by_path = _dist_file(tmp_path, "by-path", {
        "kind": "csma", "config": _dist_file(tmp_path, "hier", hier)})
    assert _moments_bytes(tmp_path, "inline", inline, 2) == _moments_bytes(
        tmp_path, "by-path", by_path, 2)


def _main_with_files(tmp_path, argv):
    """main's exit code on argv + --out x.csv, with each dict in argv written
    to a JSON file and a moments run given a small size."""
    argv = [_dist_file(tmp_path, "in", a) if isinstance(a, dict) else a for a in argv]
    if argv[0] == "moments":
        argv += ["--beta", "0.5", "--max-p", "2", "--n", "6", "--trials", "1"]
    return main(argv + ["--out", str(tmp_path / "x.csv")])


def _with(payload, **change):
    return {**payload, **change}


@pytest.mark.parametrize("argv, message", [
    (["moments", "--dist", "hole:c=0.8,d=2.5", "--d", "2"], "d must be an integer, got 2.5"),
    (["moments", "--dist", {"kind": "hole", "c": 0.8, "d": True}, "--d", "1"],
     "d must be an integer, got True"),
    (["moments", "--dist", {"kind": "hole", "c": 0.8, "d": "1"}, "--d", "1"],
     "d must be an integer, got '1'"),
    (["moments", "--dist", {"kind": "csma", "hierarchy": _with(
        _quadrant_config([1e-3, 2e-4, 2e-4, 2e-5]), H=3.9)}, "--d", "2"],
     "H must be an integer, got 3.9"),
    (["scenario", "csma", "--config", _with(_quadrant_config([1e-3, 2e-4, 2e-4, 2e-5]), H=3.9)],
     "H must be an integer, got 3.9"),
    (["scenario", "csma", "--config", _with(_quadrant_config([1e-3, 2e-4, 2e-4, 2e-5]),
                                            m=[[10.7, 6, 4]] * 4)],
     "m must be an integer, got 10.7"),
], ids=["inline-d", "file-d-bool", "file-d-string", "dist-hierarchy-H", "config-H",
        "config-node-count"])
def test_non_integer_dimension_and_counts_are_usage_errors(tmp_path, capsys, argv, message):
    # int() once truncated each of these, and the CSV named an input not given
    assert _main_with_files(tmp_path, argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_inline_integer_d_still_runs(tmp_path):
    # inline items parse as floats; d=2 is the integer 2
    assert _moments_bytes(tmp_path, "d2", "hole:c=0.8,d=2", 2) == _moments_bytes(
        tmp_path, "plain", "hole:c=0.8", 2)


def test_csma_collision_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "hier.json"
    cfg.write_text(json.dumps({"areas": [1.0], "H": 1, "m": [[2]], "lambda1": [0.1],
                               "collision": ["default"]}))
    out = tmp_path / "c.csv"
    assert main(["scenario", "csma", "--config", str(cfg), "--out", str(out)]) == 2
    assert "bad hierarchy config" in capsys.readouterr().err
    assert not out.exists()


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


def test_reproduce_table_trials_below_one_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig3", "--out-dir", str(tmp_path), "--table-trials", "0"])
    assert exc.value.code == 2
    assert "--table-trials: want an integer >= 1, got '0'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
    (["spectrum", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "-1",
      "--trials", "2"], "--beta must be finite and > 0, got -1"),
    (["moments", "--dist", "uniform", "--d", "1", "--beta", "0", "--max-p", "2"],
     "--beta must be finite and > 0, got 0"),
    (["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5,-2", "--gamma-db", "0"],
     "--beta must be finite and > 0, got -2"),
    (["moments", "--dist", "uniform", "--d", "1", "--beta", "1", "--max-p", "8"],
     "--max-p must be in 1..7, got 8"),
    (["moments", "--dist", "uniform", "--d", "1", "--beta", "1", "--max-p", "0"],
     "--max-p must be in 1..7, got 0"),
    (["partitions", "--p", "8"], "--p must be in 1..7, got 8"),
    (["partitions", "--p", "4", "--k", "0"], "--k must be in 1..4, got 0"),
    (["partitions", "--p", "4", "--k", "5"], "--k must be in 1..4, got 5"),
    (["spectrum", "--dist", "uniform", "--n", "0", "--d", "1", "--beta", "0.5",
      "--trials", "2"], "--n: want an integer >= 1, got '0'"),
    (["spectrum", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5",
      "--trials", "0"], "--trials: want an integer >= 1, got '0'"),
    (["moments", "--dist", "uniform", "--d", "1", "--beta", "1", "--max-p", "2",
      "--n", "0"], "--n: want an integer >= 1, got '0'"),
    (["moments", "--dist", "uniform", "--d", "1", "--beta", "1", "--max-p", "2",
      "--trials", "-1"], "--trials: want an integer >= 1, got '-1'"),
    (["mse", "--dist", "uniform", "--n", "-2", "--d", "1", "--beta", "0.5", "--gamma-db", "0"],
     "--n: want an integer >= 1, got '-2'"),
    (["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5", "--gamma-db", "0",
      "--trials", "0"], "--trials: want an integer >= 1, got '0'"),
    (["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5", "--gamma-db", "0",
      "--table-trials", "0"], "--table-trials: want an integer >= 1, got '0'"),
    (["scenario", "fading", "--a-db", "5", "--n", "0"], "--n: want an integer >= 1, got '0'"),
    (["scenario", "fading", "--a-db", "5", "--table-trials", "0"],
     "--table-trials: want an integer >= 1, got '0'"),
    (["scenario", "csma", "--n", "0"], "--n: want an integer >= 1, got '0'"),
    (["scenario", "csma", "--table-trials", "0"], "--table-trials: want an integer >= 1, got '0'"),
    (["scenario", "holes", "--c", "0.8", "--beta", "0.8", "--n", "0"],
     "--n: want an integer >= 1, got '0'"),
    (["scenario", "holes", "--c", "0.8", "--beta", "0.8", "--trials", "0"],
     "--trials: want an integer >= 1, got '0'"),
    (["scenario", "dense", "--a-db", "5", "--n", "0"], "--n: want an integer >= 1, got '0'"),
    (["scenario", "dense", "--a-db", "5", "--trials", "0"],
     "--trials: want an integer >= 1, got '0'"),
    (["--threads", "-1", "partitions", "--p", "2"], "--threads: want an integer >= 0, got '-1'"),
    (["spectrum", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5",
      "--trials", "2", "--threads", "-2"], "--threads: want an integer >= 0, got '-2'"),
    (["scenario", "fading", "--a-db", "5", "--gamma-db=nan"],
     "bad dB grid 'nan': every value must be finite"),
    (["scenario", "fading", "--a-db", "5", "--gamma-db=0,inf"],
     "bad dB grid '0,inf': every value must be finite"),
    (["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5", "--gamma-db=-inf:1:0"],
     "bad dB grid '-inf:1:0': every value must be finite"),
    (["scenario", "fading", "--a-db", "5", "--gamma-db", "0:1e-12:10"],
     "bad dB range '0:1e-12:10': more than the desk-scale cap of 1000 points"),
    (["scenario", "fading", "--a-db", "5", "--gamma-db", "1e20:1:1e21"],
     "bad dB range '1e20:1:1e21': more than the desk-scale cap of 1000 points"),
    (["scenario", "holes", "--c", "2", "--beta", "0.5"],
     "bad hole_distribution parameter: c must be in (0, 1]"),
    (["scenario", "fading", "--a-db=-inf"],
     "bad fading_distribution parameter: a must be finite and > 0"),
    (["scenario", "dense", "--a-db", "nan"],
     "bad fading_distribution parameter: a must be finite and > 0"),
    (["scenario", "csma", "--lambda1", "1,2,3"],
     "bad quadrant_hierarchy parameter: quadrant hierarchy needs 4 layer-1 loads"),
    (["scenario", "csma", "--lambda1=-1,0,0,0"],
     "bad quadrant_hierarchy parameter: need one nonnegative layer-1 load per area"),
    (["moments", "--dist", "fading:a_db=nan", "--d", "2", "--beta", "1", "--max-p", "2"],
     "bad --dist 'fading:a_db=nan': a must be finite and > 0"),
    (["moments", "--dist", "uniform", "--d", "1", "--n", "4", "--beta", "100", "--max-p", "2"],
     "--beta 100 at n^d = 4: m = n^d/beta = 0.04, want 0.5 < m < inf"),
    (["moments", "--dist", "uniform", "--d", "1", "--beta", "1e300", "--max-p", "2"],
     "--beta 1e+300 at n^d = 256: m = n^d/beta = 2.56e-298"),
    (["spectrum", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "16", "--trials", "2"],
     "--beta 16 at n^d = 8: m = n^d/beta = 0.5, want 0.5 < m < inf"),
    (["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5,100", "--gamma-db", "0"],
     "--beta 100 at n^d = 8: m = n^d/beta = 0.08"),
    (["scenario", "holes", "--c", "0.5", "--beta", "300"],
     "--beta 300 at n^d = 100: m = n^d/beta = 0.333333"),
    (["moments", "--dist", "uniform", "--d", "1", "--beta", "5e-324", "--max-p", "2"],
     "--beta 4.94066e-324 at n^d = 256: m = n^d/beta = inf, want 0.5 < m < inf"),
    (["scenario", "dense", "--a-db", "5", "--beta", "0.5,300"],
     "--beta 300 at n^d = 100: m = n^d/beta = 0.333333"),
    (["scenario", "fading", "--a-db", "5", "--gamma-db", "4000"],
     "bad dB grid '4000': 4000 dB is inf linear, want a positive finite SNR"),
    (["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5", "--gamma-db=-4000"],
     "bad dB grid '-4000': -4000 dB is 0 linear, want a positive finite SNR"),
    (["scenario", "csma", "--gamma-db", "0,4000"],
     "bad dB grid '0,4000': 4000 dB is inf linear"),
    (["scenario", "fading", "--a-db", "4000"],
     "bad fading_distribution parameter: a must be finite and > 0 (linear), got inf "
     "from a_db = 4000"),
    (["scenario", "dense", "--a-db", "4000"],
     "bad fading_distribution parameter: a must be finite and > 0 (linear), got inf "
     "from a_db = 4000"),
    (["moments", "--dist", "fading:a_db=4000", "--d", "2", "--beta", "1", "--max-p", "2"],
     "bad --dist 'fading:a_db=4000': a must be finite and > 0 (linear), got inf from a_db = 4000"),
    (["moments", "--dist", "uniform", "--d", "1", "--n", "4", "--beta", "1e-300", "--max-p", "2"],
     "--beta 1e-300 at n^d = 4: m = n^d/beta = 4e+300 above desk-scale cap 100000"),
    (["spectrum", "--dist", "uniform", "--n", "10", "--d", "1", "--beta", "9.9e-5",
      "--trials", "1"], "m = n^d/beta = 101010 above desk-scale cap 100000"),
    (["mse", "--dist", "uniform", "--n", "2", "--d", "1", "--beta", "3", "--gamma-db", "0"],
     "eta table: beta span [3, 3] reaches above n^d = 2: no m >= 1 realizes it"),
    (["mse", "--dist", "uniform", "--n", "4", "--d", "1", "--beta", "0.5", "--gamma-db=-3230",
      "--trials", "2", "--table-trials", "2"],
     "bad dB grid '-3230': -3230 dB is 9.88131e-324 linear, want a positive finite SNR "
     "whose noise power 1/SNR is finite"),
], ids=["bins-0", "empty-beta", "empty-gamma-db", "hole-c-out-of-range",
        "spectrum-beta-negative", "moments-beta-zero", "mse-beta-negative", "max-p-8",
        "max-p-0", "partitions-p-8", "partitions-k-0", "partitions-k-above-p",
        "spectrum-n-0", "spectrum-trials-0", "moments-n-0", "moments-trials-negative",
        "mse-n-negative", "mse-trials-0", "mse-table-trials-0", "fading-n-0",
        "fading-table-trials-0", "csma-n-0", "csma-table-trials-0", "holes-n-0",
        "holes-trials-0", "dense-n-0", "dense-trials-0", "threads-negative",
        "spectrum-threads-negative", "gamma-db-nan", "gamma-db-inf", "gamma-db-range-inf",
        "gamma-db-range-above-cap", "gamma-db-range-that-never-moves", "holes-c-above-one",
        "fading-a-db-minus-inf", "dense-a-db-nan", "csma-lambda1-three", "csma-lambda1-negative",
        "dist-fading-a-db-nan", "moments-beta-leaves-no-sample", "moments-beta-1e300",
        "spectrum-beta-leaves-no-sample", "mse-beta-leaves-no-sample",
        "holes-beta-leaves-no-sample", "moments-beta-overflows-m", "dense-beta-leaves-no-sample",
        "gamma-db-overflows", "gamma-db-underflows", "csma-gamma-db-overflows",
        "fading-a-db-overflows", "dense-a-db-overflows", "dist-fading-a-db-overflows",
        "moments-m-above-cap", "spectrum-m-above-cap", "mse-beta-above-n-d",
        "mse-gamma-db-noise-power-overflows"])
def test_malformed_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["moments", "--dist", "uniform", "--d", "2", "--beta", "1", "--max-p", "7", "--n", "40"],
    ["moments", "--dist", "uniform", "--d", "6", "--beta", "1", "--max-p", "2"],
    ["spectrum", "--dist", "uniform", "--n", "11", "--d", "3", "--beta", "1", "--trials", "1"],
    ["mse", "--dist", "uniform", "--n", "33", "--d", "2", "--beta", "1", "--gamma-db", "0"],
    ["scenario", "fading", "--a-db", "5", "--n", "40"],
    ["scenario", "csma", "--n", "33"],
    ["scenario", "holes", "--c", "0.8", "--beta", "0.8", "--n", "1025"],
    ["scenario", "dense", "--a-db", "5", "--n", "33"],
], ids=["moments", "moments-default-n", "spectrum", "mse", "fading", "csma", "holes", "dense"])
def test_size_above_cap_is_usage_error_before_any_work(monkeypatch, tmp_path, capsys, argv):
    # n^d above NDIM_CAP exits 2 before the moments, spectra, table or LMMSE start
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for name in ("moment_table", "aesd", "build_eta_table", "mse_monte_carlo"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "above desk-scale cap 1024" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["scenario", "fading", "--a-db", "5", "--gamma-db=nan"],
    ["scenario", "fading", "--a-db", "5", "--gamma-db", "0:1e-12:10"],
    ["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5,100", "--gamma-db", "0"],
    ["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--beta", "0.5", "--gamma-db=-3230"],
], ids=["gamma-db-nan", "gamma-db-above-cap", "beta-leaves-no-sample",
        "gamma-db-noise-power-overflows"])
def test_bad_grid_is_refused_before_the_eta_table(monkeypatch, tmp_path, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("eta table built before the grid check")

    monkeypatch.setattr(cli, "build_eta_table", no_work)
    table = tmp_path / "t.json"
    assert main(["--eta-table", str(table)] + argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert not table.exists()


def test_rounded_eta_grid_still_covers_the_request(tmp_path):
    # m = round(4/beta) pulls both table ends to beta = 1, above the request
    out = tmp_path / "x.csv"
    assert main(["mse", "--dist", "uniform", "--d", "1", "--n", "4", "--beta", "0.952",
                 "--gamma-db", "10", "--trials", "2", "--table-trials", "2",
                 "--out", str(out)]) == 0
    _, header, rows = read_rows(str(out))
    assert math.isfinite(float(rows[0][header.index("mse_asymptotic")]))


def test_size_at_cap_is_accepted():
    cli.check_size(32, 2)
    cli.check_size(1024, 1)
    with pytest.raises(cli.UsageError):
        cli.check_size(33, 2)


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


@pytest.mark.parametrize("key, change, message", [
    ("beta_grid", None, "missing key 'beta_grid'"),
    ("values", lambda rows: rows[:-1], "values has shape"),
    ("gamma_grid", lambda grid: grid[::-1], "gamma_grid is not a strictly increasing list"),
    ("values", lambda rows: [[float("inf")] + rows[0][1:]] + rows[1:],
     "values holds a number that is not finite"),
    ("n", str, "n must be an integer, got '"),
    ("n", lambda n: True, "n must be an integer, got True"),
    ("d", lambda d: None, "d must be an integer, got None"),
    ("seed", float, "seed must be an integer, got "),
], ids=["missing-beta-grid", "rows-one-short", "gamma-grid-reversed", "value-not-finite",
        "n-string", "n-bool", "d-null", "seed-float"])
def test_eta_table_malformed_file_is_usage_error(saved_table_run, tmp_path, capsys, key, change,
                                                 message):
    table = json.loads(saved_table_run[0].read_text())
    if change is None:
        del table[key]
    else:
        table[key] = change(table[key])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    rc = main(["--eta-table", str(path)] + MSE_ARGV + ["--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert f"--eta-table {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("text, message", [("[1, 2]", "want a JSON object, got list"),
                                           ("{", "not valid JSON")], ids=["list", "truncated"])
@pytest.mark.parametrize("argv", [
    ["moments", "--dist", "{file}", "--d", "1", "--beta", "1", "--max-p", "2"],
    ["scenario", "csma", "--config", "{file}"],
], ids=["dist", "csma-config"])
def test_json_file_that_is_not_an_object_is_usage_error(tmp_path, capsys, argv, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    out = tmp_path / "x.csv"
    assert main([a.format(file=path) for a in argv] + ["--out", str(out)]) == 2
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not out.exists()


MSE_SMALL = ["mse", "--dist", "uniform", "--n", "8", "--d", "1", "--gamma-db", "0"]


@pytest.mark.parametrize("argv, rc, message", [
    (MSE_SMALL + ["--beta", "half"], 2, "bad float list 'half'"),
    (MSE_SMALL + ["--beta", "0.5", "--gamma-db", "0:x:10"], 2,
     "bad dB range '0:x:10', want start:step:stop"),
    (MSE_SMALL + ["--beta", "0.5", "--gamma-db", "10,0"], 2,
     "gamma grid must be strictly increasing"),
    (["scenario", "csma", "--config", _with(_quadrant_config([1e-3, 2e-4, 2e-4, 2e-5]),
                                            collision={"type": "aloha"})],
     2, "unknown collision model 'aloha'"),
    (["moments", "--dist", "hole", "--d", "1"], 2, "hole distribution needs c"),
    (["moments", "--dist", "fading", "--d", "2"], 2, "fading distribution needs a_db"),
    (["moments", "--dist", {"kind": "csma"}, "--d", "2"], 2, "csma distribution needs a hierarchy"),
    (["--eta-table", "{dir}"] + MSE_ARGV, 1, "vanspec: IsADirectoryError: "),
], ids=["float-list", "db-range", "db-grid-decreasing", "collision-model", "hole-without-c",
        "fading-without-a-db", "csma-without-hierarchy", "eta-table-directory"])
def test_each_cli_guard_names_its_fault(tmp_path, capsys, argv, rc, message):
    # a file that cannot be read is an error of the run (exit 1), not of usage
    argv = [a.format(dir=tmp_path) if isinstance(a, str) else a for a in argv]
    assert _main_with_files(tmp_path, argv) == rc
    assert message in capsys.readouterr().err
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


def test_runtime_loads_no_test_tools(tmp_path):
    # numpy is the one runtime dependency: importing the CLI and running a
    # command must load none of the test-only packages
    res = _run_python(f"""
        import sys
        import vanspec.cli
        assert vanspec.cli.main(["partitions", "--p", "3", "--out", {str(tmp_path / "p.csv")!r}]) == 0
        print(sorted(k for k in sys.modules
                     if k.split(".")[0] in ("scipy", "hypothesis", "pytest", "_pytest")))
        """)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_readme_library_tour_runs():
    # the README's python block, as written, against this tree's API
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    res = _run_python(blocks[0])
    assert res.returncode == 0, res.stderr


# one valid call of each factory that the benchmark tracer wraps
TRACED_FACTORY_ARGS = {
    "uniform_distribution": (2,),
    "hole_distribution": (0.5,),
    "fading_distribution": (5.0,),
    "fading_gx": (3.0,),
    "csma_success_profile": (scenarios.quadrant_hierarchy([1e-3, 2e-4, 2e-4, 2e-5]),),
}


def test_benchmark_tracer_finds_every_traced_name():
    # the benchmark patches these functions by name; install raises if one is
    # gone, and a factory whose product it cannot re-build with traced
    # callables raises TypeError only in a traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = cli.write_table
    factories = [(importlib.import_module(mod), name)
                 for mod, name in tracing.DISTRIBUTION_FACTORIES]
    originals = [getattr(mod, name) for mod, name in factories]
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    try:
        assert len(patches) >= len(tracing.FUNCTIONS) + len(tracing.DISTRIBUTION_FACTORIES)
        assert cli.write_table is not before
        for mod, name in factories:
            getattr(mod, name)(*TRACED_FACTORY_ARGS[name])
    finally:
        tracing.restore(patches)
    assert cli.write_table is before
    assert [getattr(mod, name) for mod, name in factories] == originals
    # fading_distribution builds its g_x through the traced fading_gx: one span more
    profiles = [s for s in rec.spans if s[0] == "scenarios.profile"]
    assert len(profiles) == len(factories) + 1
