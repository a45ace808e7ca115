"""Curve calls: a tuple of SINRs against the same SINRs one at a time.

Each estimator takes a whole SINR curve and must return, bit for bit, what
it returns for each point of that curve alone; the CLI then calls each
estimator once per (n, m) curve.
"""
import dataclasses
import tracemalloc
from functools import partial

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from antsel import (
    LinkParams,
    McRun,
    SchedulingScenario,
    SelectionConfig,
    SolverError,
    capacity,
    cli,
    ergodic_approx,
    ergodic_bounds,
    ergodic_capacity,
    fractional_gain,
    gain_report,
    greedy_capacity,
    mimo,
    mimo_ergodic,
    mimo_outage,
    outage_capacity,
    round_robin_capacity,
    scheduling,
    scheduling_gain,
)
from antsel.capacity import QUAD_BLOCK_ELEMENTS, db_to_linear
from antsel.cli import main
from antsel.streams import draw_reduced

MIMO_SIZES = st.tuples(st.integers(1, 4), st.sampled_from([1, 2, 5]))
configs = st.builds(
    SelectionConfig, st.integers(1, 6), st.sampled_from([1, 2, 7, 40, 640])
)
curves = st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=12).map(
    lambda dbs: tuple(LinkParams(db_to_linear(db)) for db in dbs)
)
# Reproducible runs that leave no example database behind; the explain
# phase is left out because it imports libcst, which warns on import.
CURVE_SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)


def bits(result: object) -> object:
    """A result with every float replaced by its exact hex form."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, tuple):
        return tuple(map(bits, result))
    if dataclasses.is_dataclass(result):
        return bits(tuple(getattr(result, f.name) for f in dataclasses.fields(result)))
    return result


def assert_curve_matches_points(estimator, links) -> None:
    """The curve call equals the point calls, or raises the first point's error."""
    points = []
    for link in links:
        try:
            points.append(estimator(link))
        except SolverError as exc:
            with pytest.raises(SolverError) as raised:
                estimator(links)
            assert str(raised.value) == str(exc)
            return
    assert bits(estimator(links)) == bits(tuple(points))


class TestCurveEqualsPoints:
    @CURVE_SETTINGS
    @given(configs, curves)
    def test_ergodic_capacity(self, cfg, links):
        assert_curve_matches_points(lambda link: ergodic_capacity(cfg, link), links)

    @CURVE_SETTINGS
    @given(configs, curves)
    def test_ergodic_bounds(self, cfg, links):
        assert_curve_matches_points(lambda link: ergodic_bounds(cfg, link), links)

    @CURVE_SETTINGS
    @given(configs, curves)
    def test_ergodic_approx(self, cfg, links):
        assert_curve_matches_points(lambda link: ergodic_approx(cfg, link), links)

    @CURVE_SETTINGS
    @given(configs, curves, st.floats(1e-9, 1.0 - 1e-9),
           st.sampled_from(["exact", "gumbel"]))
    # p0 = 1e-6 puts the m = 2 Gumbel quantile below zero: a clamped curve.
    @example(SelectionConfig(1, 2), (LinkParams(1.0), LinkParams(10.0)), 1e-6, "gumbel")
    def test_outage_capacity(self, cfg, links, p0, mode):
        assume(mode == "exact" or cfg.m >= 2)  # a Gumbel fit needs m >= 2
        assert_curve_matches_points(
            lambda link: outage_capacity(cfg, link, p0, mode), links
        )

    def test_clamped_gumbel_curve(self):
        cfg, links = SelectionConfig(1, 2), (LinkParams(1.0), LinkParams(10.0))
        results = outage_capacity(cfg, links, 1e-6, "gumbel")
        assert [(r.value, r.degenerate) for r in results] == [(0.0, True)] * 2

    @CURVE_SETTINGS
    @given(configs, curves, st.integers(1, 40))
    def test_gain_report(self, cfg, links, users):
        assert_curve_matches_points(
            lambda link: gain_report(SchedulingScenario(cfg, users, link)), links
        )

    @CURVE_SETTINGS
    @given(configs, curves, st.integers(1, 40), st.sampled_from([
        greedy_capacity, round_robin_capacity, fractional_gain,
        partial(scheduling_gain, mode="exact"), partial(scheduling_gain, mode="approx"),
    ]))
    def test_scheduling(self, cfg, links, users, estimator):
        assert_curve_matches_points(
            lambda link: estimator(SchedulingScenario(cfg, users, link)), links
        )

    # Every example draws its own channel set, which the curve and point
    # calls are given, as the CLI's ergodic and outage calls of a curve are.
    @settings(CURVE_SETTINGS, max_examples=30)
    @given(MIMO_SIZES, curves, st.floats(1e-3, 1.0 - 1e-3), st.integers(0, 2**32))
    def test_mimo(self, size, links, p0, seed):
        n, m = size
        mc = McRun(10_000, seed)
        invariants = draw_reduced(mc, *mimo._channels(n, m))
        assert_curve_matches_points(
            lambda link: mimo_ergodic(n, m, link, mc, invariants), links)
        assert_curve_matches_points(
            lambda link: mimo_outage(n, m, link, p0, mc, invariants), links)

    def test_single_link_gives_single_result(self):
        cfg, link = SelectionConfig(2, 3), LinkParams(2.0)
        assert ergodic_capacity(cfg, (link,)) == (ergodic_capacity(cfg, link),)
        assert ergodic_capacity(cfg, ()) == ()

    def test_scenario_link_sets_the_result_shape(self):
        cfg, link = SelectionConfig(1, 2), LinkParams(1.0)
        point = gain_report(SchedulingScenario(cfg, 4, link))
        assert gain_report(SchedulingScenario(cfg, 4, (link,))) == (point,)
        assert gain_report(SchedulingScenario(cfg, 4, ())) == ()


class TestLongCurve:
    CFG = SelectionConfig(3, 40)
    LINKS = tuple(LinkParams(db_to_linear(-30.0 + 0.01 * i)) for i in range(9001))

    def test_equals_its_points(self):
        curve = ergodic_capacity(self.CFG, self.LINKS)
        assert bits(curve) == bits(tuple(ergodic_capacity(self.CFG, link)
                                         for link in self.LINKS))

    def test_temporaries_stay_within_the_block_bound(self):
        # Two (SINR x node) blocks of floats; the whole curve at once would
        # take 9,001 x ~1,000 nodes x 8 bytes, about 70 MB.
        bound = 2 * 8 * QUAD_BLOCK_ELEMENTS
        ergodic_capacity(self.CFG, self.LINKS[:1])  # builds the rule
        ergodic_capacity.cache_clear()
        tracemalloc.start()
        try:
            ergodic_capacity(self.CFG, self.LINKS)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < bound


def count_calls(monkeypatch, module, name) -> list:
    """Record the arguments of every call of ``module.name``."""
    calls, fn = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOneCallPerCurve:
    """Each CLI grid calls each estimator once per (n, m) curve."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        ergodic_capacity.cache_clear()

    def run(self, tmp_path, *argv):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0

    def test_ergodic(self, monkeypatch, tmp_path):
        calls = {name: count_calls(monkeypatch, cli, name)
                 for name in ("ergodic_capacity", "ergodic_bounds", "ergodic_approx")}
        self.run(tmp_path, "ergodic", "--n", "1,2", "--m", "1..3", "--rho-db=-10:5:20")
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 6)

    def test_scheduling(self, monkeypatch, tmp_path):
        reports = count_calls(monkeypatch, cli, "gain_report")
        exact = count_calls(monkeypatch, scheduling, "ergodic_capacity")
        approx = count_calls(monkeypatch, scheduling, "ergodic_approx")
        self.run(tmp_path, "scheduling", "--n", "1,2", "--m", "1,2", "--users", "4",
                 "--rho-db=0:5:20")
        assert (len(reports), len(exact), len(approx)) == (4, 8, 8)

    def test_table1(self, monkeypatch, tmp_path):
        gains = count_calls(monkeypatch, cli, "scheduling_gain")
        exact = count_calls(monkeypatch, scheduling, "ergodic_capacity")
        self.run(tmp_path, "table1", "--m", "1..4", "--rho-db=0,5,10")
        # exact gain for every m, approximate gain for m >= 2
        assert (len(gains), len(exact)) == (4 + 3, 2 * 4)

    def test_outage(self, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, cli, "outage_capacity")
        self.run(tmp_path, "outage", "--n", "1,2", "--m", "1..3", "--rho-db=-10:5:20")
        modes = [args[3] for args in calls]
        assert (modes.count("exact"), modes.count("gumbel")) == (6, 4)

    def test_capacity_layer_sees_whole_curves(self, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, capacity, "_expect")
        self.run(tmp_path, "ergodic", "--n", "1", "--m", "2", "--rho-db=0:1:30",
                 "--mode", "exact")
        assert [len(args[2]) for args in calls] == [31]
