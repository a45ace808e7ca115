"""Outage and ergodic capacity: closed-form anchors, bounds, and invariants."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import comb, exp1, gammainc, gammainccinv, gammaln, xlogy

from antsel import (
    EULER_GAMMA,
    CapacityResult,
    FitStrategy,
    LinkParams,
    SelectionConfig,
    ergodic_approx,
    ergodic_bounds,
    capacity,
    ergodic_capacity,
    max_pdf,
    mean_selection_gain,
    normalizing_constants,
    outage_capacity,
    outage_probability,
    selection_gain_variance,
    orderstats,
    tail_quantile,
)

RHO_5DB = 10.0**0.5
RHO_GRID = (10.0**-0.5, 1.0, 10.0**0.5, 10.0)


def log2(v: float) -> float:
    return math.log(v) / math.log(2.0)


def exponential_ergodic(m: int, rho: float) -> float:
    """n = 1 closed form: sum_j (-1)^{j+1} C(m,j) e^{j/rho} E1(j/rho) / ln 2."""
    total = sum(
        (-1) ** (j + 1) * comb(m, j, exact=True) * math.exp(j / rho) * exp1(j / rho)
        for j in range(1, m + 1)
    )
    return total / math.log(2.0)


def reference_ergodic(n: int, m: int, rho: float) -> float:
    """Adaptive quadrature over a density built from scipy.special alone."""

    def density(x: float) -> float:
        log_f = xlogy(n - 1, x) - x - gammaln(n)
        if m == 1:
            return math.exp(log_f)
        return m * math.exp((m - 1) * math.log(gammainc(n, x)) + log_f)

    x_hi = gammainccinv(n, 1e-16 / m)
    peak = gammainccinv(n, 1.0 / m)
    out = quad(
        lambda x: math.log1p(rho * x) / math.log(2.0) * density(x),
        0.0,
        x_hi,
        epsabs=1e-11,
        epsrel=1e-12,
        limit=400,
        points=[peak] if 0.0 < peak < x_hi else None,
        full_output=1,
    )
    assert len(out) == 3, f"reference quadrature failed: {out[3]}"
    return out[0]


class TestTypes:
    def test_link_params_validation(self):
        LinkParams(0.1)
        for rho in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                LinkParams(rho)

    def test_capacity_result_rejects_negative(self):
        with pytest.raises(ValueError):
            CapacityResult(-0.1)

    def test_closed_forms_report_zero_error(self):
        res = ergodic_approx(SelectionConfig(1, 4), LinkParams(1.0))
        assert res.error_estimate == 0.0


class TestOutageProbability:
    def test_zero_rate_never_in_outage(self):
        assert outage_probability(SelectionConfig(2, 4), LinkParams(1.0), 0.0) == 0.0

    def test_single_branch_closed_form(self):
        # threshold 2^1 - 1 = 1, so the outage is the branch cdf at 1
        p = outage_probability(SelectionConfig(1, 1), LinkParams(1.0), 1.0)
        assert p == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_selection_powers_the_branch_outage(self):
        p = outage_probability(SelectionConfig(1, 5), LinkParams(1.0), 1.0)
        assert p == pytest.approx((1.0 - math.exp(-1.0)) ** 5, rel=1e-12)

    def test_gumbel_mode_formula(self):
        # The Gumbel outage probability is the MRL fit's cdf at the gain
        # threshold (2^c0 - 1) / rho.
        rho, c0 = 2.0, 2.5
        fit = normalizing_constants(SelectionConfig(1, 10), FitStrategy.MRL)
        expected = math.exp(-math.exp(-((2.0**c0 - 1.0) / rho - math.log(10.0))))
        assert fit.cdf((2.0**c0 - 1.0) / rho) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_mode_and_rate(self):
        cfg = SelectionConfig(1, 2)
        with pytest.raises(ValueError):
            outage_probability(cfg, LinkParams(1.0), -0.5)


class TestOutageCapacity:
    def test_single_branch_closed_form(self):
        res = outage_capacity(SelectionConfig(1, 1), LinkParams(1.0), 0.1)
        assert res.value == pytest.approx(log2(1.0 - math.log(0.9)), rel=1e-12)
        assert res.value == pytest.approx(0.14451698438985053, rel=1e-10)

    @pytest.mark.parametrize("mode", ["exact", "gumbel"])
    def test_each_level_solved_once_per_configuration(self, mode):
        cfgs = (SelectionConfig(2, 5), SelectionConfig(3, 9))
        rhos = (10.0**-1.5, 1.0, 10.0**0.5, 1e3, 1e4)
        fresh = []
        for cfg in cfgs:
            for rho in rhos:
                orderstats._solve_tail.cache_clear()
                fresh.append(outage_capacity(cfg, LinkParams(rho), 0.05, mode).value)
        orderstats._solve_tail.cache_clear()
        cached = [
            outage_capacity(cfg, LinkParams(rho), 0.05, mode).value
            for cfg in cfgs
            for rho in rhos
        ]
        assert orderstats._solve_tail.cache_info().misses == len(cfgs)
        # bit-identical to solving afresh at every SINR
        assert cached == fresh

    def test_diverges_toward_certain_coverage(self):
        cfg = SelectionConfig(1, 3)
        link = LinkParams(1.0)
        values = [
            outage_capacity(cfg, link, p0).value for p0 in (0.9, 0.999, 1 - 1e-9)
        ]
        assert values[0] < values[1] < values[2]
        assert values[2] > 4.0

    def test_rejects_out_of_range_p0(self):
        cfg = SelectionConfig(1, 2)
        for p0 in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                outage_capacity(cfg, LinkParams(1.0), p0)

    def test_rejects_the_cli_mode_name(self):
        # "approx" is the CLI's --mode; the library calls the estimator "gumbel".
        with pytest.raises(ValueError, match="mode must be 'exact' or 'gumbel', got 'approx'"):
            outage_capacity(SelectionConfig(1, 2), LinkParams(1.0), 0.1, mode="approx")

    def test_gumbel_matches_fitted_quantile(self):
        res = outage_capacity(SelectionConfig(1, 10), LinkParams(RHO_5DB), 0.1, "gumbel")
        gain = math.log(10.0) - math.log(-math.log(0.1))
        assert res.value == pytest.approx(log2(1.0 + RHO_5DB * gain), rel=1e-12)
        assert not res.degenerate

    def test_gumbel_gap_shrinks_with_branch_count(self):
        link = LinkParams(RHO_5DB)
        gaps = []
        for m in (2, 10, 20):
            cfg = SelectionConfig(1, m)
            exact = outage_capacity(cfg, link, 0.1, "exact").value
            approx = outage_capacity(cfg, link, 0.1, "gumbel").value
            gaps.append(abs(exact - approx))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] < 0.1

    def test_degenerate_approximation_clamps_to_zero(self):
        res = outage_capacity(SelectionConfig(1, 2), LinkParams(1.0), 1e-6, "gumbel")
        assert res.value == 0.0
        assert res.degenerate

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 8), (2, 5), (3, 12)])
    @pytest.mark.parametrize("p0", [0.01, 0.1, 0.5])
    def test_round_trip(self, n, m, p0):
        cfg = SelectionConfig(n, m)
        for rho in (10.0**-0.5, 10.0**0.5):
            link = LinkParams(rho)
            c0 = outage_capacity(cfg, link, p0).value
            assert abs(outage_probability(cfg, link, c0) - p0) <= 1e-9

    @pytest.mark.parametrize("n,m,p0", [
        (1, 1000, 0.9999999999999999),
        (3, 1000, 0.9999999999999999),
        (2, 10**6, 0.5),
        (4, 1, 1 - 2**-52),
        (2, 7, 1e-6),
    ])
    def test_exact_quantile_matches_mpmath(self, n, m, p0):
        # F^m = p0 for the Gamma(n, 1) cdf F, solved in 40 digits through
        # the tail level Q(n, x) = 1 - p0^{1/m}.  In double precision
        # p0^{1/m} rounds to 1 once that level falls below about 1.1e-16.
        import mpmath
        gain = outage_capacity(SelectionConfig(n, m), LinkParams(1.0), p0).value
        with mpmath.workdps(40):
            log_tail = mpmath.log(-mpmath.expm1(mpmath.log(mpmath.mpf(p0)) / m))
            x = mpmath.findroot(
                lambda x: mpmath.log(mpmath.gammainc(n, x, mpmath.inf, regularized=True))
                - log_tail,
                mpmath.mpf(2.0**gain - 1.0),
            )
            exact = float(mpmath.log(1 + x, 2))
        assert gain == pytest.approx(exact, rel=1e-12)


class TestErgodicCapacity:
    def test_low_snr_linearizes(self):
        res = ergodic_capacity(SelectionConfig(1, 1), LinkParams(1e-4))
        assert res.value == pytest.approx(1e-4 / math.log(2.0), rel=0.01)

    def test_reports_quadrature_error(self):
        res = ergodic_capacity(SelectionConfig(2, 6), LinkParams(1.0))
        assert 0.0 < res.error_estimate < 1e-9

    def test_published_gain_anchor(self):
        # 32-branch vs single-branch capacity difference at 5 dB
        link = LinkParams(RHO_5DB)
        gain = (
            ergodic_capacity(SelectionConfig(1, 32), link).value
            - ergodic_capacity(SelectionConfig(1, 1), link).value
        )
        assert gain == pytest.approx(2.018275795665841, abs=1e-7)
        assert gain == pytest.approx(2.0183, abs=5e-4)

    def test_sits_inside_closed_form_bounds(self):
        res = ergodic_capacity(SelectionConfig(1, 10), LinkParams(1.0))
        assert log2(1.0 + math.log(10.0)) <= res.value
        assert res.value <= log2(1.0 + EULER_GAMMA + math.log(11.0))

    def test_monotone_in_branches_antennas_and_snr(self):
        link = LinkParams(1.0)
        by_m = [
            ergodic_capacity(SelectionConfig(2, m), link).value for m in range(1, 7)
        ]
        assert all(a < b for a, b in zip(by_m, by_m[1:]))
        by_n = [
            ergodic_capacity(SelectionConfig(n, 5), link).value for n in range(1, 5)
        ]
        assert all(a < b for a, b in zip(by_n, by_n[1:]))
        cfg = SelectionConfig(2, 5)
        by_rho = [ergodic_capacity(cfg, LinkParams(r)).value for r in RHO_GRID]
        assert all(a < b for a, b in zip(by_rho, by_rho[1:]))

    def test_large_n_tracks_log_of_antenna_count(self):
        # capacity approaches log2(1 + rho n) with an O(sqrt(n)/n) correction
        for n in (4, 16, 64):
            val = ergodic_capacity(SelectionConfig(n, 10), LinkParams(1.0)).value
            diff = val - log2(1.0 + n)
            scale = math.sqrt(n) / ((1.0 + n) * math.log(2.0))
            assert 0.0 < diff / scale <= 5.0


class TestErgodicQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_matches_independent_quadrature(self, n):
        for m in (1, 2, 5, 20, 640):
            cfg = SelectionConfig(n, m)
            for db in range(-30, 41, 5):
                rho = 10.0 ** (db / 10.0)
                res = ergodic_capacity(cfg, LinkParams(rho))
                assert abs(res.value - reference_ergodic(n, m, rho)) <= 1e-9, (m, db)
                assert 0.0 < res.error_estimate <= 1e-9, (m, db)

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("db", [0.0, 30.0, 40.0, 60.0, 80.0])
    def test_high_snr_matches_exponential_closed_form(self, m, db):
        rho = 10.0 ** (db / 10.0)
        res = ergodic_capacity(SelectionConfig(1, m), LinkParams(rho))
        assert res.value == pytest.approx(exponential_ergodic(m, rho), abs=1e-9)
        assert 0.0 < res.error_estimate <= 1e-9


def full_rule_expect(cfg, fn):
    """E[fn(X)] by the 2N-point rule over every panel of ``_panel_edges``,
    with the library's order of operations."""
    x, w = capacity._gauss_legendre(capacity._panel_edges(cfg), capacity._UNIT_RULES[1])
    terms = fn(x)
    terms *= w * max_pdf(cfg, x)
    return float(terms.sum())


class TestRuleStart:
    """The rule starts at the last panel edge with at most 1e-20 of mass
    below it; what it drops stays far under the quadrature tolerance."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50])
    @pytest.mark.parametrize("m", [1, 2, 5, 20, 640])
    def test_agrees_with_the_rule_over_every_panel(self, n, m):
        cfg = SelectionConfig(n, m)
        rhos = [10.0 ** (db / 10.0) for db in (-20, 0, 40, 80)]
        curve = ergodic_capacity(cfg, tuple(LinkParams(rho) for rho in rhos))
        for rho, res in zip(rhos, curve):
            full = full_rule_expect(cfg, lambda x: np.log1p(rho * x) / math.log(2.0))
            assert abs(res.value - full) <= 1e-13, rho
        mean = full_rule_expect(cfg, np.copy)
        second = full_rule_expect(cfg, np.square)
        assert abs(mean_selection_gain(cfg) - mean) <= 1e-13
        # Var = E[X²] - E[X]² keeps a few ulps of E[X²] (1.8e-12 at n = 50,
        # where E[X²] is about 4e3) from summing fewer terms.
        variance = selection_gain_variance(cfg)
        assert abs(variance - (second - mean * mean)) <= 1e-13 + 8e-16 * second

    def test_node_counts(self):
        def nodes(n, m):
            return capacity._density_rule(SelectionConfig(n, m)).x.size

        # (1, 1) has mass in every panel; best of 20 has none in most.
        edges = capacity._panel_edges(SelectionConfig(1, 1))
        assert nodes(1, 1) == 2 * capacity._GAUSS_POINTS * (edges.size - 1) == 1032
        assert nodes(1, 20) <= 408


class TestErgodicBounds:
    def test_single_branch_lower_bound_is_zero(self):
        lower, upper = ergodic_bounds(SelectionConfig(1, 1), LinkParams(1.0))
        assert lower.value == 0.0
        assert upper.value > 0.0

    def test_exponential_closed_forms(self):
        lower, upper = ergodic_bounds(SelectionConfig(1, 10), LinkParams(1.0))
        assert lower.value == pytest.approx(log2(1.0 + math.log(10.0)), rel=1e-12)
        assert upper.value == pytest.approx(
            log2(1.0 + EULER_GAMMA + math.log(11.0)), rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 7, 20])
    def test_sandwich_holds(self, n, m):
        cfg = SelectionConfig(n, m)
        for rho in (10.0**-0.5, 10.0):
            link = LinkParams(rho)
            lower, upper = ergodic_bounds(cfg, link)
            val = ergodic_capacity(cfg, link).value
            assert lower.value - 1e-6 <= val <= upper.value + 1e-6

    def test_gap_approaches_euler_constant(self):
        # for the exponential branch the quantile gap tends to gamma
        m = 10_000
        gap = tail_quantile(1, 1.0 / (math.exp(EULER_GAMMA) * (m + 1))) - math.log(m)
        assert abs(gap - EULER_GAMMA) <= 0.02


    def test_quantiles_solved_once_per_configuration(self):
        cfg = SelectionConfig(3, 17)
        q_lo = orderstats.characteristic_largest(cfg)
        q_hi = orderstats.tail_quantile(3, 1.0 / (math.exp(EULER_GAMMA) * 18))
        orderstats._solve_tail.cache_clear()
        ln2 = math.log(2.0)
        for rho in (10.0**-1.5, 1.0, 10.0**0.5, 1e3, 1e4):
            lower, upper = ergodic_bounds(cfg, LinkParams(rho))
            approx = ergodic_approx(cfg, LinkParams(rho))
            # bit-identical to solving afresh at every SINR
            assert lower.value == math.log1p(rho * q_lo) / ln2
            assert upper.value == math.log1p(rho * q_hi) / ln2
            assert approx.value == math.log1p(rho * (q_lo + EULER_GAMMA)) / ln2
        assert orderstats._solve_tail.cache_info().misses == 2


class TestErgodicApprox:
    def test_closed_form_values(self):
        res = ergodic_approx(SelectionConfig(1, 10), LinkParams(1.0))
        assert res.value == pytest.approx(
            log2(1.0 + math.log(10.0) + EULER_GAMMA), rel=1e-12
        )
        res1 = ergodic_approx(SelectionConfig(1, 1), LinkParams(1.0))
        assert res1.value == pytest.approx(log2(1.0 + EULER_GAMMA), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_stays_inside_bounds(self, n, m):
        cfg = SelectionConfig(n, m)
        for rho in (10.0**-0.5, RHO_5DB):
            link = LinkParams(rho)
            lower, upper = ergodic_bounds(cfg, link)
            assert lower.value <= ergodic_approx(cfg, link).value <= upper.value

    def test_tracks_exact_capacity_for_many_branches(self):
        link = LinkParams(RHO_5DB)
        gaps = []
        for m in (50, 200, 1000):
            cfg = SelectionConfig(1, m)
            gaps.append(
                abs(ergodic_approx(cfg, link).value - ergodic_capacity(cfg, link).value)
            )
        assert gaps[0] < 0.05
        assert gaps[0] > gaps[1] > gaps[2]


class TestNearLimitRates:
    """log2(1 + rho gain) up to the largest SINR ``db_to_linear`` accepts,
    where rho gain overflows a float, against 50-digit mpmath at the gain
    the library solves for."""

    DBS = (3075.0, 3078.0, 3080.0, 3081.0, 3082.0, 3082.5)

    @staticmethod
    def curves(cfg, links):
        """(rates along the curve, the gain they are taken at) per estimator."""
        fit = normalizing_constants(cfg, FitStrategy.MRL)
        bounds = ergodic_bounds(cfg, links)
        q_lower = orderstats.characteristic_largest(cfg)
        return [
            (outage_capacity(cfg, links, 0.5, "exact"),
             tail_quantile(cfg.n, -math.expm1(math.log(0.5) / cfg.m))),
            (outage_capacity(cfg, links, 0.5, "gumbel"),
             fit.location - fit.scale * math.log(-math.log(0.5))),
            ([lower for lower, _ in bounds], q_lower),
            ([upper for _, upper in bounds],
             tail_quantile(cfg.n, 1.0 / (math.exp(EULER_GAMMA) * (cfg.m + 1)))),
            (ergodic_approx(cfg, links), q_lower + EULER_GAMMA),
        ]

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (4, 8), (16, 40)])
    def test_rates_match_mpmath(self, n, m):
        import mpmath

        links = tuple(LinkParams(capacity.db_to_linear(db)) for db in self.DBS)
        assert math.isinf(links[-1].rho * 2.0)
        for results, gain in self.curves(SelectionConfig(n, m), links):
            assert gain > 0.0
            for link, result in zip(links, results):
                with mpmath.workdps(50):
                    want = mpmath.log(1 + mpmath.mpf(link.rho) * mpmath.mpf(gain), 2)
                assert abs(result.value - want) <= 1e-14 * want


class TestSelectionGainMoments:
    def test_single_branch_mean(self):
        assert mean_selection_gain(SelectionConfig(1, 1)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_harmonic_sum_for_exponential_maxima(self):
        assert mean_selection_gain(SelectionConfig(1, 3)) == pytest.approx(
            11.0 / 6.0, abs=1e-7
        )
        assert mean_selection_gain(SelectionConfig(1, 10)) == pytest.approx(
            sum(1.0 / k for k in range(1, 11)), abs=1e-7
        )

    def test_mean_obeys_quantile_sandwich(self):
        cfg = SelectionConfig(2, 4)
        mean = mean_selection_gain(cfg)
        assert tail_quantile(2, 0.25) <= mean
        assert mean <= tail_quantile(2, 1.0 / (math.exp(EULER_GAMMA) * 5.0))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [2, 5, 20])
    def test_moments_match_mpmath_tail_integrals(self, n, m):
        # A second route: E[X] = ∫ (1 - F^m) dx and E[X²] = ∫ 2x (1 - F^m) dx.
        # The variance tolerance covers the 1e-12 truncated tail mass
        # weighted by x².
        import mpmath

        with mpmath.workdps(30):
            def above(x):
                q = mpmath.gammainc(n, x, mpmath.inf, regularized=True)
                return -mpmath.expm1(m * mpmath.log1p(-q))

            edges = [0, 1, 4, 16, mpmath.inf]
            mean = mpmath.quad(above, edges)
            variance = mpmath.quad(lambda x: 2 * x * above(x), edges) - mean**2
        cfg = SelectionConfig(n, m)
        assert mean_selection_gain(cfg) == pytest.approx(float(mean), abs=1e-9)
        assert selection_gain_variance(cfg) == pytest.approx(float(variance), abs=1e-8)

    def test_variance_matches_exponential_closed_form(self):
        for m in (1, 3, 10, 100):
            expected = sum(1.0 / k**2 for k in range(1, m + 1))
            assert selection_gain_variance(SelectionConfig(1, m)) == pytest.approx(
                expected, abs=1e-6
            )

    def test_variance_never_collapses(self):
        # single-branch variance is exactly 1; more branches only add spread
        assert selection_gain_variance(SelectionConfig(1, 1)) == pytest.approx(
            1.0, abs=1e-6
        )
        for m in (3, 10, 100, 1000):
            assert selection_gain_variance(SelectionConfig(1, m)) > 1.0
