"""Greedy vs round-robin scheduling: identities, gain anchors, trends."""
import math

import pytest

from antsel import (
    LinkParams,
    SchedulingScenario,
    SelectionConfig,
    ergodic_capacity,
    fractional_gain,
    gain_report,
    gain_table,
    greedy_capacity,
    round_robin_capacity,
    scheduling,
    scheduling_gain,
)
from antsel.capacity import db_to_linear

RHO_5DB = 10.0**0.5


def scen(n: int, m: int, users: int, rho: float) -> SchedulingScenario:
    return SchedulingScenario(SelectionConfig(n, m), users, LinkParams(rho))


class TestScenario:
    def test_rejects_nonpositive_users(self):
        for users in (0, -4):
            with pytest.raises(ValueError):
                scen(1, 2, users, 1.0)

    def test_pooled_config_multiplies_branches(self):
        s = scen(2, 3, 8, 1.0)
        assert (s.pooled_cfg.n, s.pooled_cfg.m) == (2, 24)


class TestCapacities:
    def test_single_user_greedy_equals_round_robin(self):
        s = scen(1, 4, 1, RHO_5DB)
        assert greedy_capacity(s).value == round_robin_capacity(s).value
        assert scheduling_gain(s, "exact") == 0.0

    def test_greedy_is_pooled_point_to_point_capacity(self):
        s = scen(1, 2, 32, 1.0)
        pooled = ergodic_capacity(SelectionConfig(1, 64), LinkParams(1.0))
        assert greedy_capacity(s).value == pooled.value

    def test_round_robin_ignores_user_count(self):
        a = round_robin_capacity(scen(2, 3, 2, RHO_5DB))
        b = round_robin_capacity(scen(2, 3, 64, RHO_5DB))
        assert a.value == b.value


class TestGainAnchors:
    # spot cells of the published 32-user, single-rx-antenna gain table
    @pytest.mark.parametrize(
        "m,rho_db,expected",
        [(1, -5.0, 0.8084), (1, 5.0, 2.0183), (10, 0.0, 0.9485), (20, 10.0, 1.0054)],
    )
    def test_exact_gain_matches_published_cells(self, m, rho_db, expected):
        s = scen(1, m, 32, 10.0 ** (rho_db / 10.0))
        assert scheduling_gain(s, "exact") == pytest.approx(expected, abs=5e-4)

    def test_exact_gain_frozen_value(self):
        s = scen(1, 1, 32, 10.0**-0.5)
        assert scheduling_gain(s, "exact") == pytest.approx(0.8084274166, abs=1e-7)

    def test_approx_gain_closed_form(self):
        g = 0.5772156649015329
        s = scen(1, 2, 32, RHO_5DB)
        expected = math.log2(
            (1.0 + RHO_5DB * (math.log(64.0) + g)) / (1.0 + RHO_5DB * (math.log(2.0) + g))
        )
        assert scheduling_gain(s, "approx") == pytest.approx(expected, rel=1e-12)
        assert scheduling_gain(s, "approx") == pytest.approx(1.67, abs=5e-3)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            scheduling_gain(scen(1, 2, 4, 1.0), "bounds")

    @pytest.mark.parametrize("rho_db", [-5.0, 0.0, 5.0, 10.0])
    def test_approx_within_tenth_bit_of_exact(self, rho_db):
        rho = 10.0 ** (rho_db / 10.0)
        for m in (2, 5, 10, 15, 20):
            s = scen(1, m, 32, rho)
            gap = abs(scheduling_gain(s, "exact") - scheduling_gain(s, "approx"))
            assert gap <= 0.1


class TestGainTrends:
    @pytest.mark.parametrize("rho_db", [-5.0, 0.0, 5.0, 10.0])
    def test_gain_decreases_with_transmit_antennas(self, rho_db):
        rho = 10.0 ** (rho_db / 10.0)
        gains = [scheduling_gain(scen(1, m, 32, rho), "exact") for m in range(2, 21)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_gain_scaled_by_log_m_stays_bounded(self):
        scaled = [
            scheduling_gain(scen(1, m, 32, RHO_5DB), "exact") * math.log(m)
            for m in (4, 8, 16, 32, 64)
        ]
        assert max(scaled) / min(scaled) <= 3.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("users", [2, 8])
    def test_greedy_dominates_round_robin(self, n, users):
        for m in (1, 3):
            for rho in (1.0, RHO_5DB):
                s = scen(n, m, users, rho)
                greedy = greedy_capacity(s)
                rr = round_robin_capacity(s)
                slack = 2.0 * (greedy.error_estimate + rr.error_estimate)
                assert greedy.value >= rr.value - slack


class TestFractionalGain:
    def test_single_user_has_no_gain(self):
        assert fractional_gain(scen(2, 3, 1, 1.0)) == 0.0

    def test_ratio_definition(self):
        s = scen(1, 1, 32, RHO_5DB)
        expected = scheduling_gain(s, "exact") / round_robin_capacity(s).value
        assert fractional_gain(s) == pytest.approx(expected, rel=1e-13)
        assert fractional_gain(s) == pytest.approx(1.17616909, abs=1e-6)

    def test_decreases_with_transmit_antennas(self):
        assert fractional_gain(scen(1, 20, 32, RHO_5DB)) < fractional_gain(
            scen(1, 2, 32, RHO_5DB)
        )


class TestGainReport:
    def test_fields_are_consistent(self):
        rep = gain_report(scen(1, 3, 16, 1.0))
        assert rep.exact_gain == pytest.approx(
            rep.greedy.value - rep.round_robin.value, rel=1e-13
        )
        assert rep.fractional == pytest.approx(
            rep.exact_gain / rep.round_robin.value, rel=1e-13
        )
        assert rep.exact_gain >= -1e-9
        assert abs(rep.exact_gain - rep.approx_gain) <= 0.1


class TestGainTable:
    def test_default_shape_and_order(self):
        cells = gain_table()
        assert len(cells) == 80
        assert [c.m for c in cells[:4]] == [1, 1, 1, 1]
        assert [c.rho_db for c in cells[:4]] == [-5.0, 0.0, 5.0, 10.0]
        assert cells[-1].m == 20 and cells[-1].rho_db == 10.0

    def test_single_branch_rows_have_no_approximation(self):
        cells = gain_table()
        for c in cells:
            if c.m == 1:
                assert c.approx is None
            else:
                assert c.approx is not None

    @pytest.mark.parametrize(
        "m,rho_db,exact,approx",
        [
            (1, 0.0, 1.4366, None),
            (5, 5.0, 1.3139, 1.25),
            (10, -5.0, 0.6578, 0.65),
        ],
    )
    def test_published_spot_cells(self, m, rho_db, exact, approx):
        cells = {(c.m, c.rho_db): c for c in gain_table()}
        cell = cells[(m, rho_db)]
        assert cell.exact == pytest.approx(exact, abs=5e-4)
        if approx is not None:
            assert cell.approx == pytest.approx(approx, abs=5e-3)

    def test_one_capacity_pass_per_m(self, monkeypatch):
        # One scenario per m over the whole SINR list: greedy and round
        # robin, 2 curve calls per m, and every cell the per-cell bits.
        calls, estimator = [], scheduling.ergodic_capacity

        def counting(*args):
            calls.append(args)
            return estimator(*args)

        monkeypatch.setattr(scheduling, "ergodic_capacity", counting)
        cells = gain_table()
        assert len(calls) == 2 * 20 == 40
        for c in cells:
            s = scen(1, c.m, 32, db_to_linear(c.rho_db))
            assert c.exact.hex() == scheduling_gain(s, "exact").hex()
            if c.m >= 2:
                assert c.approx.hex() == scheduling_gain(s, "approx").hex()

    def test_out_of_range_db_raises_value_error(self):
        with pytest.raises(ValueError, match="SINR 4000 dB is out of range"):
            gain_table(rho_db=[4000.0], m_values=[2])

    def test_custom_grid(self):
        cells = gain_table(users=4, n=2, rho_db=(0.0,), m_values=(2, 3))
        assert len(cells) == 2
        assert all(c.rho_db == 0.0 for c in cells)
