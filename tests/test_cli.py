"""CLI behavior: schemas, formatting, determinism, exit codes."""
import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import antsel
from antsel import GumbelFit, McRun, cli, orderstats, streams
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

    def test_largest_ranges_accepted(self):
        assert len(parse_int_grid(f"1..{cli.MAX_GRID_VALUES}")) == cli.MAX_GRID_VALUES
        grid = parse_float_grid(f"0:0.5:{(cli.MAX_GRID_VALUES - 1) / 2}")
        assert len(grid) == cli.MAX_GRID_VALUES

    @pytest.mark.parametrize("option,grid", [
        ("--m", f"1..{cli.MAX_GRID_VALUES + 1}"),
        ("--n", f"0..{cli.MAX_GRID_VALUES}"),
        ("--rho-db", f"0:1:{cli.MAX_GRID_VALUES}"),
        ("--rho-db", f"0:0.5:{cli.MAX_GRID_VALUES / 2}"),
    ])
    def test_oversized_range_exits_two(self, option, grid, capsys):
        # --n 0 (or n = 0 first) fails the first curve, and 3,081 dB is out of
        # range, so a grid that got past the check stops there, not after
        # 10^6 curves.
        with pytest.raises(SystemExit) as exc:
            main(["ergodic", "--n", "0", f"{option}={grid}"])
        assert exc.value.code == 2
        assert (f"range {grid!r} has {cli.MAX_GRID_VALUES + 1} values; "
                f"at most {cli.MAX_GRID_VALUES} are allowed") in capsys.readouterr().err

    def test_float_range_too_long_to_count_rejected(self):
        # The span overflows to inf; the count is checked as a float.
        with pytest.raises(argparse.ArgumentTypeError, match="has inf values"):
            parse_float_grid("-1e308:1e-10:1e308")

    def test_range_that_overflows_backwards_is_empty(self):
        with pytest.raises(argparse.ArgumentTypeError, match="empty grid"):
            parse_float_grid("1e308:1:-1e308")

    @pytest.mark.parametrize("grid", ["0:1:inf", "-inf:1:5", "inf:1:5"])
    def test_non_finite_range_bound_exits_two(self, grid, capsys):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_float_grid(grid)
        with pytest.raises(SystemExit) as exc:
            main(["ergodic", f"--rho-db={grid}"])
        assert exc.value.code == 2
        assert "range bounds must be finite" in capsys.readouterr().err

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

    def test_too_many_points_exit_two(self, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        points = cli.MAX_GRID_VALUES + 1
        assert main(["dist", "--n", "1", "--m", "2", "--points", str(points),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --points must be at most {cli.MAX_GRID_VALUES}, got {points}\n")
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

    def test_p0_next_to_one(self, tmp_path):
        # p0^{1/m} rounds to 1 here; the exact quantile must still solve.
        out = tmp_path / "out.csv"
        assert main(["outage", "--n", "1", "--m", "1000", "--p0", "0.9999999999999999",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert math.isfinite(float(rows[0][4]))

    def test_grid_solves_each_level_once(self, tmp_path):
        # two (n, m) points with n >= 2, exact and Gumbel: four levels
        orderstats._solve_tail.cache_clear()
        assert main(["outage", "--n", "2,3", "--m", "6", "--rho-db=-10:5:10",
                     "--p0", "0.05", "--out", str(tmp_path / "out.csv")]) == 0
        assert orderstats._solve_tail.cache_info().misses == 4

    def test_one_gumbel_fit_per_curve(self, monkeypatch, tmp_path):
        built, post_init = [], GumbelFit.__post_init__

        def counting(fit):
            built.append(fit)
            post_init(fit)

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

    @pytest.mark.parametrize("helpers", [0, 1, 2])
    @pytest.mark.parametrize("argv,draw", [
        (["mimo", "--n", "2", "--m", "3", "--samples", "1000"], "(2, 2, 3)"),
        # The K-user table comes before the single-user set in the pass.
        (["mimo", "--n", "2", "--m", "3", "--users", "4", "--samples", "1000"],
         "(4, 2, 2, 3)"),
        # verify's first MIMO point, (n, m) = (1, 2), is its first draw to fail.
        (["verify", "--samples", "1000"], "(2, 1, 2)"),
    ])
    def test_out_of_memory_in_a_draw_exits_two(self, monkeypatch, capsys, helpers,
                                               argv, draw):
        # A Monte Carlo draw that runs out of memory on any thread of the
        # pass gives one line naming the draw, and exit 2 instead of a
        # traceback; no helper thread is left behind.
        threads = []

        def failing(z):
            threads.append(threading.get_ident())
            raise MemoryError("Unable to allocate 6 GiB")

        monkeypatch.setattr(antsel.mimo, "_gram_invariants", failing)
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        before = threading.active_count()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: not enough memory to draw 1000 samples of {draw} "
                                "normals: Unable to allocate 6 GiB\n")
        assert threads
        if not helpers:
            assert set(threads) == {threading.get_ident()}
        assert threading.active_count() == before

    def test_a_failure_on_the_helper_exits_two(self, monkeypatch, capsys):
        # The reductions on the calling thread wait until the helper has
        # failed one, so the error surely comes from the helper.
        caller, failed = threading.get_ident(), threading.Event()
        invariants = antsel.mimo._gram_invariants

        def failing_on_the_helper(z):
            if threading.get_ident() == caller:
                assert failed.wait(timeout=60)
                return invariants(z)
            failed.set()
            raise MemoryError("Unable to allocate 6 GiB")

        monkeypatch.setattr(antsel.mimo, "_gram_invariants", failing_on_the_helper)
        monkeypatch.setattr(streams, "_helpers", lambda: 1)
        before = threading.active_count()
        assert main(["mimo", "--n", "1,2", "--m", "3", "--samples", "100000"]) == 2
        assert failed.is_set()
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory to draw 100000 samples of (2, ")
        assert err.endswith(" normals: Unable to allocate 6 GiB\n")
        assert threading.active_count() == before


    def test_a_draw_over_the_array_limit_exits_two(self):
        # The K-user block of one sample here is 6.4 GB.  Memory is committed
        # lazily, so without the limit it would be allocated and the process
        # killed while the block is filled; under the address-space cap a
        # missing check fails fast, with numpy's message instead.
        argv = ["mimo", "--n", "2", "--m", "2", "--rho-db", "0", "--users", "100000000",
                "--samples", "1000"]
        proc = run_python("-c", CAPPED % (argv, 1 << 30), check=False)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: not enough memory to draw 1000 samples of (100000000, 2, 2, 2) normals: "
            f"an array of 6400000000 bytes is over the limit of {streams.MAX_DRAW_BYTES} "
            "(MAX_DRAW_BYTES)\n")


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

    def test_too_few_samples_exit_before_any_draw(self, monkeypatch, capsys):
        draws = []
        chunk_generators = streams.chunk_generators

        def counting(mc, elems_per_draw):
            draws.append(elems_per_draw)
            return chunk_generators(mc, elems_per_draw)

        monkeypatch.setattr(streams, "chunk_generators", counting)
        assert main(["verify", "--samples", "999"]) == 2
        assert capsys.readouterr().err == (
            "error: ergodic estimate needs >= 1000 samples, got 999\n")
        assert draws == []

    @pytest.mark.parametrize("argv, message", [
        (["--samples", "999"], "ergodic estimate needs >= 1000 samples, got 999"),
        (["--seed", "-1"], "seed must be a 64-bit unsigned integer, got -1"),
    ], ids=["samples", "seed"])
    def test_the_run_is_checked_before_any_quadrature(self, monkeypatch, capsys, argv, message):
        calls = []

        def recording(*args, estimator=cli.mean_selection_gain):
            calls.append(args)
            return estimator(*args)

        monkeypatch.setattr(cli, "mean_selection_gain", recording)
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert calls == []

    def test_samples_are_handed_over_read_only(self, monkeypatch, tmp_path):
        # The selection-gain samples sorted, the channel sets as drawn.
        given = []
        for name in ("empirical_ergodic", "mimo_ergodic"):
            def recording(*args, name=name, estimator=getattr(cli, name)):
                sample = args[-1]
                given.append((name, sample.shape, bool(np.all(sample[1:] >= sample[:-1]))))
                with pytest.raises(ValueError, match="read-only"):
                    sample[0] = 0.0
                return estimator(*args)

            monkeypatch.setattr(cli, name, recording)
        assert main(["verify", "--samples", "20000", "--out", str(tmp_path / "v.csv")]) == 0
        oracle = sorted(entry for entry in given if entry[0] == "empirical_ergodic")
        assert oracle == [("empirical_ergodic", (20_000,), True)] * 3
        assert sorted(shape for name, shape, _ in given if name == "mimo_ergodic") == [
            (20_000, 1), (20_000, 1), (20_000, 2), (20_000, 3)]


class TestThreadedVerify:
    """verify draws its seven samplers in one pass shared with helper
    threads; the report must not tell."""

    ESTIMATORS = ("empirical_ergodic", "_ks_statistic", "mimo_ergodic")

    @pytest.fixture(autouse=True)
    def small_chunks_fast_switching(self, monkeypatch):
        # Many chunks and slabs per sample at a test-sized count, and threads
        # that switch far more often than by default.
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 13)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def run(self, monkeypatch, capsys, tmp_path, helpers, argv):
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        out = tmp_path / f"h{helpers}.csv"
        code = main([*argv, "--out", str(out)])
        return code, capsys.readouterr(), out.read_bytes()

    def test_single_worker_matches_pool(self, monkeypatch, capsys, tmp_path):
        # The smallest draw, the oracle's (1, 1) at 2 normals, spans chunks.
        assert len(list(streams.chunk_generators(McRun(20_000), 2))) >= 2
        threads = {name: set() for name in self.ESTIMATORS}
        for name in self.ESTIMATORS:
            def recording(*args, name=name, estimator=getattr(cli, name)):
                threads[name].add(threading.get_ident())
                return estimator(*args)
            monkeypatch.setattr(cli, name, recording)
        argv = ["verify", "--samples", "20000", "--seed", "5"]
        before = threading.active_count()
        serial = self.run(monkeypatch, capsys, tmp_path, 0, argv)
        # With no helper, every estimate runs on the calling thread.
        for name in self.ESTIMATORS:
            assert threads[name] == {threading.get_ident()}
        for helpers in (1, 2):
            assert self.run(monkeypatch, capsys, tmp_path, helpers, argv) == serial
        assert threading.active_count() == before
        # A report of all eight checks (at this layout some may fail).
        assert serial[0] in (0, 3)
        assert len(serial[2].splitlines()) == 2 + 8

    @pytest.mark.parametrize("helpers", [0, 1, 2])
    def test_too_few_samples_is_the_serial_error(self, monkeypatch, capsys, helpers):
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        assert main(["verify", "--samples", "999"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ergodic estimate needs >= 1000 samples, got 999\n"

    @pytest.mark.parametrize("helpers", [0, 1, 2])
    def test_first_failing_check_in_report_order_decides(
        self, monkeypatch, capsys, helpers
    ):
        # All seven samples are whole after the one block of 1000 draws.
        # With a helper, the MIMO estimates fail first, and the oracle's
        # first, at (1, 1), well after them; the oracle samplers come first
        # in the pass, as their checks do in the report, so the oracle's
        # error is the one.
        mimo_failed = threading.Event()

        def failing(*args):
            mimo_failed.set()
            raise ValueError("the MIMO family failed")

        def after_mimo(cfg, *args, estimator=cli.empirical_ergodic):
            if cfg.m == 1:
                if helpers:
                    assert mimo_failed.wait(timeout=60)
                    time.sleep(0.2)
                raise ValueError("the oracle family failed")
            return estimator(cfg, *args)

        monkeypatch.setattr(cli, "mimo_ergodic", failing)
        monkeypatch.setattr(cli, "empirical_ergodic", after_mimo)
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        assert main(["verify", "--samples", "1000"]) == 2
        assert capsys.readouterr().err == "error: the oracle family failed\n"
        assert mimo_failed.is_set()


def run_python(*args, check=True):
    """Run a fresh interpreter with ``args`` (``"-c", code`` or ``"-m", ...``)
    that imports this antsel; with ``check``, a nonzero exit fails the test."""
    src = str(Path(antsel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=check)


# Runs the CLI on an argv with the address space capped: CAPPED % (argv, bytes).
CAPPED = """
import resource, sys
argv, limit = %r, %d
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from antsel.cli import main
sys.exit(main(argv))
"""


# Runs every subcommand on a small grid with the test-only dependencies
# made unimportable; prints each exit code and the blocked modules loaded.
RUNTIME_ONLY = """
import contextlib, importlib.abc, io, json, sys

BLOCKED = {"scipy", "mpmath", "hypothesis"}

class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"blocked: {name}", name=name)
        return None

sys.meta_path.insert(0, Block())
from antsel.cli import main

codes = {}
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = main(argv)
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] in BLOCKED)]))
"""


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, antsel.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_python("-c", code).stdout.strip() == "[]"

    def test_every_subcommand_runs_on_numpy_alone(self):
        argvs = [
            ["dist", "--n", "1,2", "--m", "1,4", "--points", "20"],
            ["fit", "--n", "1,2", "--m", "3,8"],
            ["outage", "--n", "1,2", "--m", "1,4", "--rho-db=0,10"],
            ["ergodic", "--n", "1,2", "--m", "1,4", "--rho-db=0,10"],
            ["scheduling", "--m", "1,4", "--users", "4", "--rho-db=0,10"],
            ["table1", "--m", "1,2", "--rho-db=0,5"],
            ["mimo", "--n", "1,2", "--m", "1,4", "--p0", "0.1", "--users", "4",
             "--samples", "10000"],
            ["verify", "--samples", "20000"],
        ]
        codes, loaded = json.loads(run_python("-c", RUNTIME_ONLY % argvs).stdout)
        assert codes == {argv[0]: 0 for argv in argvs}
        assert loaded == []


# Registers an exit probe before importing ``%s``; atexit runs hooks last
# registered first, so the probe sees the state any hook of the import left.
EXIT_PROBE = """
import atexit, gc
atexit.register(lambda: print(gc.get_freeze_count() > 0))
import %s
"""


class TestExitHook:
    @pytest.mark.parametrize("module,frozen", [("antsel.cli", "True"), ("antsel", "False")])
    def test_only_the_cli_freezes_the_heap_at_exit(self, module, frozen):
        assert run_python("-c", EXIT_PROBE % module).stdout.strip() == frozen

    def test_table1_through_a_real_exit(self, tmp_path):
        out = tmp_path / "table1.csv"
        proc = run_python("-m", "antsel.cli", "table1", "--out", str(out))
        assert proc.stdout == proc.stderr == ""
        golden = Path(__file__).parent / "golden" / "readme_table1.csv"
        assert out.read_bytes() == golden.read_bytes()


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
        # A bad SINR is reported before any curve runs; after that the first
        # failing curve in grid order decides.
        (["--n", "9", "--rho-db=0,4000"], "SINR 4000 dB is out of range"),
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

    @pytest.mark.parametrize("argv,message", [
        (["mimo", "--n", "9", "--samples", "10"], "n must be an integer in 1..8, got 9"),
        (["scheduling", "--users", "0"], "users must be a positive integer, got 0"),
        (["outage", "--p0", "2"], "outage probability must lie in (0, 1), got 2.0"),
    ])
    def test_empty_sinr_grid_still_validates(self, argv, message, capsys):
        # Each (n, m) curve has no SINR, and each estimator still checks its
        # options on it.
        assert main([*argv, "--rho-db="]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_empty_mimo_grid_writes_the_header(self, capsys):
        assert main(["mimo", "--n", ",", "--samples", "1000"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == ",".join(SCHEMAS["mimo"])

    def test_empty_mimo_grid_with_users_writes_the_header(self, capsys):
        assert main(["mimo", "--n", ",", "--users", "4", "--samples", "1000"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == ",".join(SCHEMAS["mimo"])

    def test_empty_mimo_curve_writes_the_header_alone(self, capsys):
        assert main(["mimo", "--n", "1", "--m", "2", "--rho-db=", "--p0", "0.1",
                     "--users", "4", "--samples", "10000"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [",".join(SCHEMAS["mimo"])]

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
