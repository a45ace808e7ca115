"""CLI behavior: schemas, formatting, determinism, exit codes."""
import argparse
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import antsel
from antsel import GumbelFit, cli, normalizing_constants, orderstats
from antsel.cli import SCHEMAS, main, parse_float_grid, parse_int_grid
from antsel.orderstats import SolverError


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestParsers:
    def test_int_grids(self):
        assert parse_int_grid("7") == [7]
        assert parse_int_grid("1,2,5") == [1, 2, 5]
        assert parse_int_grid("3..6") == [3, 4, 5, 6]

    def test_float_grids(self):
        assert parse_float_grid("5") == [5.0]
        assert parse_float_grid("-5,0,5,10") == [-5.0, 0.0, 5.0, 10.0]
        assert parse_float_grid("-5:5:10") == [-5.0, 0.0, 5.0, 10.0]

    def test_empty_range_rejected(self):
        with pytest.raises(Exception):
            parse_int_grid("5..1")

    def test_negative_grid_via_equals_form(self, tmp_path):
        out = tmp_path / "neg.csv"
        assert main(["ergodic", "--n", "1", "--m", "2", "--rho-db=-5,0",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r[2]) for r in rows] == [-5.0, 0.0]


class TestTable1:
    def test_shape_formatting_and_anchors(self, tmp_path):
        out = tmp_path / "table1.csv"
        assert main(["table1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SCHEMAS["table1"]
        assert len(rows) == 80
        cells = {(int(r[0]), float(r[1])): (r[2], r[3]) for r in rows}
        assert cells[(1, 0.0)][0] == "1.4366"
        assert cells[(1, 0.0)][1] == ""  # no approximation at m = 1
        assert cells[(5, 5.0)] == ("1.3139", "1.25")
        assert cells[(10, -5.0)] == ("0.6578", "0.65")

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["table1", "--m", "1..3", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestErgodic:
    def test_row_wise_sandwich(self, tmp_path):
        out = tmp_path / "erg.csv"
        assert main(["ergodic", "--n", "1", "--m", "1..20", "--rho-db", "5",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SCHEMAS["ergodic"]
        assert len(rows) == 20
        for r in rows:
            exact, lower, upper, approx = map(float, (r[3], r[5], r[6], r[7]))
            assert lower - 1e-6 <= exact <= upper + 1e-6
            assert lower <= approx <= upper

    def test_multi_axis_grid_order(self, tmp_path):
        out = tmp_path / "erg2.csv"
        assert main(["ergodic", "--n", "1,2", "--m", "2,4", "--rho-db", "0,5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        keys = [(int(r[0]), int(r[1]), float(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_mode_restricts_columns_without_changing_schema(self, tmp_path):
        out = tmp_path / "erg3.csv"
        assert main(["ergodic", "--n", "1", "--m", "3", "--rho-db", "5",
                     "--mode", "bounds", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SCHEMAS["ergodic"]
        row = rows[0]
        assert row[3] == "" and row[7] == ""  # exact and approx not computed
        assert float(row[5]) < float(row[6])

    def test_unavailable_mode_exits_two(self, capsys):
        assert main(["ergodic", "--n", "1", "--m", "2", "--mode", "mc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_high_snr_single_branch(self, tmp_path):
        out = tmp_path / "erg60.csv"
        assert main(["ergodic", "--n", "1", "--m", "1", "--rho-db", "60",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][3] == "19.09884293"


class TestDistAndFit:
    def test_dist_schema_and_monotone_cdf(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert main(["dist", "--n", "2", "--m", "10", "--points", "50",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SCHEMAS["dist"]
        exact = [float(r[4]) for r in rows]
        approx = [float(r[5]) for r in rows]
        assert all(a < b for a, b in zip(exact, exact[1:]))
        assert all(0.0 <= v <= 1.0 for v in approx)

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_too_few_points_exit_two(self, points, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        assert main(["dist", "--n", "1", "--m", "2", "--points", points,
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_single_branch_leaves_approx_empty(self, tmp_path):
        out = tmp_path / "dist1.csv"
        assert main(["dist", "--n", "1", "--m", "1..5", "--points", "10",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 50
        for r in rows:
            assert 0.0 < float(r[4]) < 1.0  # exact cdf at every m
            assert (r[5] == "") == (r[1] == "1")  # no Gumbel fit at m = 1

    def test_one_kernel_call_per_curve(self, monkeypatch, tmp_path):
        shapes, kernel = [], cli.max_cdf

        def counting(cfg, x):
            shapes.append(np.shape(x))
            return kernel(cfg, x)

        monkeypatch.setattr(cli, "max_cdf", counting)
        assert main(["dist", "--n", "1,2", "--m", "3", "--points", "30",
                     "--out", str(tmp_path / "d.csv")]) == 0
        assert shapes == [(30,), (30,)]

    def test_one_gumbel_call_per_curve(self, monkeypatch, tmp_path):
        shapes, fit_cdf = [], GumbelFit.cdf

        def counting(fit, x):
            shapes.append(np.shape(x))
            return fit_cdf(fit, x)

        monkeypatch.setattr(GumbelFit, "cdf", counting)
        assert main(["dist", "--n", "1,2", "--m", "2,5", "--points", "50",
                     "--out", str(tmp_path / "d.csv")]) == 0
        assert shapes == [(50,)] * 4

    def test_fit_matches_library(self, tmp_path):
        out = tmp_path / "fit.csv"
        assert main(["fit", "--n", "1", "--m", "10", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SCHEMAS["fit"]
        assert float(rows[0][3]) == pytest.approx(math.log(10.0), rel=1e-9)
        assert float(rows[0][4]) == 1.0

    def test_unavailable_strategy_exits_two(self, capsys):
        code = main(["fit", "--n", "2", "--m", "2", "--strategy", "asymptotic"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestOutage:
    def test_schema_and_values(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["outage", "--n", "1", "--m", "1,10", "--rho-db", "5",
                     "--p0", "0.1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SCHEMAS["outage"]
        by_m = {int(r[1]): r for r in rows}
        assert by_m[1][5] == ""  # no Gumbel fit at m = 1
        assert float(by_m[10][4]) > float(by_m[1][4])
        assert by_m[10][6] in ("0", "1")

    def test_grid_solves_each_level_once(self, tmp_path):
        # two (n, m) points with n >= 2, exact and Gumbel: four levels
        orderstats._solve_tail.cache_clear()
        normalizing_constants.cache_clear()
        assert main(["outage", "--n", "2,3", "--m", "6", "--rho-db=-10:5:10",
                     "--p0", "0.05", "--out", str(tmp_path / "out.csv")]) == 0
        assert orderstats._solve_tail.cache_info().misses == 4

    def test_one_gumbel_fit_per_curve(self, monkeypatch, tmp_path):
        built, post_init = [], GumbelFit.__post_init__

        def counting(fit):
            built.append(fit)
            post_init(fit)

        normalizing_constants.cache_clear()
        monkeypatch.setattr(GumbelFit, "__post_init__", counting)
        assert main(["outage", "--n", "1,2", "--m", "2,3", "--rho-db=0:1:10",
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert len(built) == 4  # one per (n, m), not one per SINR


class TestMimo:
    def test_full_schema_with_optional_columns(self, tmp_path):
        out = tmp_path / "mimo.csv"
        assert main(["mimo", "--n", "1", "--m", "2", "--rho-db", "5",
                     "--p0", "0.1", "--users", "4", "--samples", "10000",
                     "--seed", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SCHEMAS["mimo"]
        row = rows[0]
        assert float(row[7]) > 0.0           # ergodic estimate
        assert float(row[9]) < float(row[7])  # outage rate below the mean rate
        assert float(row[11]) > float(row[7])  # scheduling adds capacity

    def test_optional_columns_empty_when_not_requested(self, tmp_path):
        out = tmp_path / "mimo2.csv"
        assert main(["mimo", "--n", "1", "--m", "2", "--samples", "2000",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][9] == "" and rows[0][11] == ""

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["mimo", "--n", "2", "--m", "2", "--samples", "5000",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestScheduling:
    def test_schema_and_consistency(self, tmp_path):
        out = tmp_path / "sched.csv"
        assert main(["scheduling", "--n", "1", "--m", "2,8", "--users", "16",
                     "--rho-db", "5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == SCHEMAS["scheduling"]
        for r in rows:
            greedy, rr, gain = float(r[4]), float(r[5]), float(r[6])
            # columns carry 10 significant digits, so allow rounding slack
            assert gain == pytest.approx(greedy - rr, abs=1e-8)
            assert greedy > rr


class TestVerify:
    def test_reduced_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--samples", "20000", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured and "FAIL" not in captured
        header, rows = read_csv(out)
        assert header == SCHEMAS["verify"]
        assert all(r[1] == "PASS" for r in rows)


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(antsel.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = ("import sys, antsel.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestArgHandling:
    def test_bad_arguments_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["ergodic", "--m", "not-a-grid"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "antsel" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["ergodic", "--rho-db", "4000"],
        ["table1", "--m", "2", "--rho-db", "400,4000"],
        ["mimo", "--samples", "1000", "--rho-db", "4000"],
    ])
    def test_out_of_range_db_exits_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SINR 4000 dB is out of range\n"

    @pytest.mark.parametrize("argv,message", [
        # The first failing point in grid order decides, as point by point.
        (["--n", "9", "--rho-db=0,4000"], "n must be an integer in 1..8, got 9"),
        (["--n", "9", "--rho-db=4000,0"], "SINR 4000 dB is out of range"),
        (["--n", "1,9", "--rho-db=0,4000", "--samples", "1000"],
         "SINR 4000 dB is out of range"),
        (["--n", "2,9", "--samples", "500"],
         "ergodic estimate needs >= 1000 samples, got 500"),
        (["--n", "2,9", "--users", "0", "--samples", "1000"],
         "users must be a positive integer, got 0"),
        (["--n", "1,2", "--p0", "1.5", "--samples", "10000"],
         "outage probability must lie in (0, 1), got 1.5"),
    ])
    def test_mimo_grid_errors_keep_their_order(self, argv, message, capsys):
        assert main(["mimo", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_empty_mimo_grid_writes_the_header(self, capsys):
        assert main(["mimo", "--n", ",", "--samples", "1000"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == ",".join(SCHEMAS["mimo"])

    @pytest.mark.parametrize("argv", [
        ["dist", "--n", "1", "--m", "2", "--points", "5"],
        ["verify", "--samples", "1000"],
    ])
    def test_unwritable_out_exits_two(self, argv, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert main([*argv, "--out", str(target)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(target) in err[0]
        assert not target.exists()

    def test_stdout_emission(self, capsys):
        assert main(["fit", "--n", "1", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# antsel fit")
        assert "location" in out.splitlines()[1]


def rowwise_csv(command, rows):
    """The rows formatted cell by cell with f-strings and written one at a time."""
    formats = cli._FORMATS.get(command, {})
    specs = {name: formats.get(name, ".10g") for name in SCHEMAS[command]}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCHEMAS[command])
    for row in rows:
        cells = (row.get(name) for name in specs)
        writer.writerow(["" if v is None else f"{v:{spec}}" if isinstance(v, float)
                         else str(v) for v, spec in zip(cells, specs.values())])
    return buf.getvalue()


class TestEmitter:
    FLOATS = [0.1, -0.0, 1e-320, 1e300, 123456789012.0, 2.5e-7, math.inf, -math.inf,
              math.nan, 1 / 3, np.float64(2.0) / 3]

    def emit(self, capsys, command, blocks):
        cli._emit(argparse.Namespace(command=command, out=None), blocks)
        line, _, text = capsys.readouterr().out.partition("\n")
        assert line == f"# antsel {command} "
        return text

    def test_curve_blocks_match_rowwise_output(self, capsys):
        xs = [1, 2.5, np.float64(0.25), None, *self.FLOATS]
        cdf = [None if i % 3 == 0 else x for i, x in enumerate(self.FLOATS)]
        blocks = [
            {"n": 2, "m": 5, "strategy": "lemma", "x": xs, "exact_cdf": xs[::-1]},
            {"n": 1, "m": 1, "strategy": "alpha", "x": self.FLOATS, "approx_cdf": cdf},
        ]
        rows = [{"n": 2, "m": 5, "strategy": "lemma", "x": x, "exact_cdf": y}
                for x, y in zip(xs, xs[::-1])]
        rows += [{"n": 1, "m": 1, "strategy": "alpha", "x": x, "approx_cdf": c}
                 for x, c in zip(self.FLOATS, cdf)]
        assert self.emit(capsys, "dist", blocks) == rowwise_csv("dist", rows)

    def test_table1_fixed_decimals(self, capsys):
        gains = [1.23456789, np.float64(2.0), 0.00005, 1e6, 7, *self.FLOATS]
        block = {"m": 3, "rho_db": -5.0, "exact_gain": gains, "approx_gain": gains[::-1]}
        rows = [{"m": 3, "rho_db": -5.0, "exact_gain": a, "approx_gain": b}
                for a, b in zip(gains, gains[::-1])]
        text = self.emit(capsys, "table1", [block])
        assert text == rowwise_csv("table1", rows)
        assert text.splitlines()[1] == "3,-5,1.2346,0.67"

    def test_text_cells_are_quoted(self, capsys):
        details = ['say "hi", twice', "a,b", "plain", ""]
        block = {"check": ["x,y", "q", "r", "s"], "status": "PASS", "detail": details}
        rows = [{"check": c, "status": "PASS", "detail": d}
                for c, d in zip(block["check"], details)]
        text = self.emit(capsys, "verify", [block])
        assert text == rowwise_csv("verify", rows)
        assert text.splitlines()[1] == '"x,y",PASS,"say ""hi"", twice"'

    def test_no_blocks_writes_the_header(self, capsys):
        assert self.emit(capsys, "mimo", []) == ",".join(SCHEMAS["mimo"]) + "\n"
        empty = {"n": 1, "m": 2, "rho_db": [], "p0": 0.1, "ergodic": []}
        assert self.emit(capsys, "mimo", [empty]) == ",".join(SCHEMAS["mimo"]) + "\n"

    @pytest.mark.parametrize("block", [
        {"n": 1, "m": 2, "rho_db": [0.0, 1.0], "exact": [1.0]},  # unequal lengths
        {"n": 1, "m": 2, "rho_db": [0.0], "bogus": [1.0]},  # not in the schema
        {"n": 1, "m": 2, "p0": 0.1},  # no list, so no row count
    ])
    def test_malformed_block_raises(self, block, capsys):
        with pytest.raises(SolverError):
            cli._emit(argparse.Namespace(command="outage", out=None), [block])
        assert capsys.readouterr().out == ""
