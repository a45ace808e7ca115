"""Distribution theory of the selection gain: closed forms vs independent oracles."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc, gammainccinv
from scipy.stats import gamma as gamma_dist

from antsel import (
    FitStrategy,
    SelectionConfig,
    cdf,
    characteristic_largest,
    max_cdf,
    max_pdf,
    mean_residual_life,
    normalizing_constants,
    orderstats,
    pdf,
    quantile,
    survival,
    tail_quantile,
    upper_density_root,
)

P_GRID = (0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.999999)
X_GRID = (0.05, 0.3, 0.7, 1.0, 2.0, 3.5, 5.0, 8.0, 12.0, 20.0)


def loop_max_cdf(n: int, m: int, x: float) -> float:
    """F^m(x) one point at a time with ``math``: the survival
    e^{-x} sum_{k<n} x^k/k! by log-sum-exp over an fsum, then m*log1p(-s)."""
    terms = [k * math.log(x) - math.lgamma(k + 1) for k in range(n)]
    hi = max(terms)
    s = math.exp(-x + hi + math.log(math.fsum(math.exp(t - hi) for t in terms)))
    return 0.0 if s >= 1.0 else math.exp(m * math.log1p(-s))


class TestConfig:
    def test_valid(self):
        cfg = SelectionConfig(2, 5)
        assert (cfg.n, cfg.m) == (2, 5)

    @pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (-3, 2), (2, -1)])
    def test_rejects_nonpositive(self, n, m):
        with pytest.raises(ValueError):
            SelectionConfig(n, m)

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            SelectionConfig(1.5, 2)


class TestPdf:
    def test_point_values(self):
        assert pdf(1, 0.0) == 1.0
        assert pdf(2, 0.0) == 0.0
        assert pdf(2, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert pdf(3, -0.5) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_gamma_density(self, n):
        for x in X_GRID:
            assert pdf(n, x) == pytest.approx(gamma_dist.pdf(x, n), rel=1e-12)


class TestSurvival:
    def test_point_values(self):
        assert survival(1, 0.0).survival == 1.0
        assert survival(1, math.log(2.0)).survival == pytest.approx(0.5, rel=1e-15)
        # e^{-10} (1 + 10 + 100/2)
        assert survival(3, 10.0).survival == pytest.approx(
            61.0 * math.exp(-10.0), rel=1e-13
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_regularized_upper_gamma(self, n):
        for x in X_GRID:
            s = survival(n, x)
            assert s.survival == pytest.approx(float(gammaincc(n, x)), rel=1e-12)

    def test_tail_value_consistency(self):
        for n in (1, 2, 4):
            for x in (0.0, 0.5, 5.0, 50.0, 400.0, 800.0):
                s = survival(n, x)
                assert 0.0 <= s.survival <= 1.0
                assert s.log_survival <= 0.0
                assert math.exp(s.log_survival) == pytest.approx(
                    s.survival, rel=1e-15, abs=0.0
                )

    def test_log_survival_deep_tail(self):
        # survival underflows but its log stays exact
        s = survival(1, 800.0)
        assert s.survival == 0.0
        assert s.log_survival == -800.0


class TestCdf:
    def test_point_values(self):
        assert cdf(1, math.log(2.0)) == pytest.approx(0.5, rel=1e-15)
        assert cdf(2, 0.0) == 0.0
        assert cdf(3, -1.0) == 0.0
        assert cdf(1, 60.0) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_monotone(self, n):
        values = [cdf(n, x) for x in X_GRID]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_regularized_lower_gamma(self, n):
        for x in X_GRID:
            assert cdf(n, x) == pytest.approx(float(gammainc(n, x)), rel=1e-12)


class TestMaxCdf:
    def test_single_branch_reduces_to_cdf(self):
        cfg = SelectionConfig(3, 1)
        for x in X_GRID:
            assert max_cdf(cfg, x) == pytest.approx(cdf(3, x), rel=1e-14)

    def test_point_values(self):
        assert max_cdf(SelectionConfig(1, 2), math.log(2.0)) == pytest.approx(
            0.25, rel=1e-14
        )
        assert max_cdf(SelectionConfig(2, 5), 3.0) == pytest.approx(
            (1.0 - 4.0 * math.exp(-3.0)) ** 5, rel=1e-13
        )
        assert max_cdf(SelectionConfig(2, 3), 0.0) == 0.0
        assert max_cdf(SelectionConfig(2, 3), -1.0) == 0.0

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 5), (3, 17), (4, 50)])
    def test_power_identity(self, n, m):
        cfg = SelectionConfig(n, m)
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert max_cdf(cfg, x) == pytest.approx(cdf(n, x) ** m, rel=1e-12)

    def test_log_path_matches_direct_powering_far_tail(self):
        # both routes stay representable here; they must agree
        cfg = SelectionConfig(1, 10_000)
        x = 30.0
        assert max_cdf(cfg, x) == pytest.approx(cdf(1, x) ** 10_000, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (2, 10), (4, 50), (8, 1000)])
    def test_array_matches_scalar_calls(self, n, m):
        # From the 0.001 level of F^m, where the cdf is well conditioned,
        # into the far upper tail.  Down there 1 - s is at least 0.001**(1/m),
        # so a few ulps in the survival s cost at most ~1e-12 relative.
        cfg = SelectionConfig(n, m)
        lo = quantile(n, 0.001 ** (1.0 / m))
        xs = np.linspace(lo, tail_quantile(n, 1e-12 / m), 400)
        values = max_cdf(cfg, xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        for x, value in zip(xs, values):
            scalar = max_cdf(cfg, float(x))
            assert type(scalar) is float
            assert scalar == pytest.approx(value, rel=1e-13)
            assert value == pytest.approx(loop_max_cdf(n, m, float(x)), rel=1e-12)

    def test_array_outside_support_and_shape(self):
        cfg = SelectionConfig(3, 4)
        xs = np.array([[-np.inf, -1.0, 0.0], [1e-300, 2.0, 1e3]])
        values = max_cdf(cfg, xs)
        assert values.shape == (2, 3)
        assert values[0].tolist() == [0.0, 0.0, 0.0]
        assert values[1, 0] == 0.0 and values[1, 2] == 1.0
        assert values[1, 1] == pytest.approx(cdf(3, 2.0) ** 4, rel=1e-12)
        assert max_cdf(cfg, np.array([])).shape == (0,)


class TestMaxPdf:
    def test_single_branch_reduces_to_pdf(self):
        cfg = SelectionConfig(2, 1)
        for x in X_GRID:
            assert max_pdf(cfg, x) == pytest.approx(pdf(2, x), rel=1e-14)

    def test_point_values(self):
        assert max_pdf(SelectionConfig(1, 2), math.log(2.0)) == pytest.approx(
            0.5, rel=1e-14
        )
        assert max_pdf(SelectionConfig(1, 1), 0.0) == 1.0
        assert max_pdf(SelectionConfig(1, 4), 0.0) == 0.0
        assert max_pdf(SelectionConfig(3, 2), -2.0) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_integrates_to_one(self, n):
        for m in range(1, 51):
            cfg = SelectionConfig(n, m)
            hi = tail_quantile(n, -math.expm1(math.log1p(-1e-13) / m))
            total, _ = quad(
                lambda x: max_pdf(cfg, x), 0.0, hi, epsabs=1e-10, epsrel=1e-10,
                limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-8), f"n={n}, m={m}"


class TestQuantile:
    def test_endpoints(self):
        assert quantile(1, 0.0) == 0.0
        assert quantile(4, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                quantile(2, p)
        with pytest.raises(ValueError):
            tail_quantile(2, 0.0)

    def test_exponential_closed_form(self):
        for m in (2, 10, 100):
            assert quantile(1, 1.0 - 1.0 / m) == pytest.approx(math.log(m), rel=1e-14)

    def test_frozen_case(self):
        # root of e^{-x}(1+x) = 0.1, bisected independently
        ref = brentq(lambda x: math.exp(-x) * (1 + x) - 0.1, 1.0, 20.0, xtol=1e-14)
        assert quantile(2, 0.9) == pytest.approx(ref, rel=1e-12)
        assert quantile(2, 0.9) == pytest.approx(3.889720169867429, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip(self, n):
        for p in P_GRID:
            assert abs(cdf(n, quantile(n, p)) - p) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_scipy_inverse(self, n):
        for p in P_GRID:
            assert quantile(n, p) == pytest.approx(
                float(gammainccinv(n, 1.0 - p)), rel=1e-9, abs=1e-12
            )


class TestSolveCache:
    def test_invalid_levels_raise_before_the_cache(self):
        orderstats._solve_tail.cache_clear()
        for tail in (0.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                tail_quantile(2, tail)
        info = orderstats._solve_tail.cache_info()
        assert (info.misses, info.currsize) == (0, 0)

    def test_numpy_level_shares_the_float_entry(self):
        orderstats._solve_tail.cache_clear()
        x = tail_quantile(3, 0.1)
        y = tail_quantile(3, np.float64(0.1))
        assert y == x and type(y) is float
        info = orderstats._solve_tail.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


class TestCharacteristicLargest:
    def test_degenerate_single_branch(self):
        assert characteristic_largest(SelectionConfig(1, 1)) == 0.0
        assert characteristic_largest(SelectionConfig(3, 1)) == 0.0

    def test_exponential_value(self):
        assert characteristic_largest(SelectionConfig(1, 10)) == pytest.approx(
            math.log(10.0), rel=1e-14
        )

    def test_frozen_case(self):
        # e^{-x}(1+x) = 0.05
        ref = brentq(lambda x: math.exp(-x) * (1 + x) - 0.05, 1.0, 20.0, xtol=1e-14)
        assert characteristic_largest(SelectionConfig(2, 20)) == pytest.approx(
            ref, rel=1e-12
        )
        assert characteristic_largest(SelectionConfig(2, 20)) == pytest.approx(
            4.743864518390579, rel=1e-12
        )

    def test_consistent_with_quantile(self):
        for n, m in ((1, 7), (2, 11), (4, 100)):
            assert characteristic_largest(SelectionConfig(n, m)) == pytest.approx(
                quantile(n, 1.0 - 1.0 / m), rel=1e-11
            )

    def test_large_n_scales_like_n(self):
        # CLT regime: the 0.9 branch quantile sits n + O(sqrt(n))
        for n in (4, 16, 64, 256):
            q = characteristic_largest(SelectionConfig(n, 10))
            assert abs(q - n) / math.sqrt(n) <= 5.0


class TestMeanResidualLife:
    def test_exponential_is_memoryless(self):
        for t in (0.3, 1.0, 10.0, 500.0):
            assert mean_residual_life(1, t) == 1.0

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            mean_residual_life(2, 0.0)
        with pytest.raises(ValueError):
            mean_residual_life(2, -1.0)

    def test_closed_form_two_branches(self):
        # (t + 2) / (t + 1)
        assert mean_residual_life(2, 1.0) == pytest.approx(1.5, rel=1e-15)
        assert mean_residual_life(2, 4.0) == pytest.approx(1.2, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
    def test_matches_integral_definition(self, n, t):
        tail_t = float(gammaincc(n, t))
        integral, _ = quad(
            lambda y: float(gammaincc(n, y)), t, t + 90.0 + 3 * n, epsabs=1e-13,
            epsrel=1e-13, limit=200,
        )
        assert mean_residual_life(n, t) == pytest.approx(
            integral / tail_t, rel=1e-8
        )

    def test_strictly_above_one_for_multiple_antennas(self):
        for n in (2, 3, 5):
            for t in (0.5, 2.0, 20.0):
                assert mean_residual_life(n, t) > 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_second_order_decay(self, n):
        # |R(t) - 1 - (n-1)/t| = O(1/t^2): the t^2-scaled gap stays bounded
        scaled = [
            abs(mean_residual_life(n, t) - 1.0 - (n - 1) / t) * t * t
            for t in (10.0, 100.0, 1000.0)
        ]
        assert max(scaled) <= 25.0

    def test_two_branch_near_asymptote(self):
        assert mean_residual_life(2, 100.0) == pytest.approx(1.0 + 1.0 / 100.0, abs=2e-4)

    @pytest.mark.parametrize("n", [2, 5, 50, 700, 708, 710, 800, 3000])
    @pytest.mark.parametrize("m", [2, 32])
    def test_large_n_matches_mpmath(self, n, m):
        # The lemma Gumbel scale: at the 1 - 1/m quantile, where t^k/k!
        # overflows a float from n = 708 (m = 2) or n = 700 (m = 32).  The
        # log terms carry math.lgamma's few-ulp error on log k! (about 4e3
        # at k = 700), which bounds the accuracy: over n <= 3000 at these m
        # (every n to 1,199, then every fifth) the worst is 8.8e-13, and it
        # is 1.3e-13 at (n, m) = (710, 32).
        import mpmath

        t = characteristic_largest(SelectionConfig(n, m))
        with mpmath.workdps(40):
            terms = [mpmath.mpf(1)]  # t^k / k!
            for k in range(1, n):
                terms.append(terms[-1] * t / k)
            num = mpmath.fsum((n - k) * w for k, w in enumerate(terms))
            exact = float(num / mpmath.fsum(terms))
        assert mean_residual_life(n, t) == pytest.approx(exact, rel=1e-12)


class TestUpperDensityRoot:
    def test_exponential_closed_form(self):
        assert upper_density_root(SelectionConfig(1, 100)) == pytest.approx(
            math.log(100.0), rel=1e-14
        )
        assert upper_density_root(SelectionConfig(1, 1)) == 0.0

    def test_level_above_peak_rejected(self):
        # peak density at n=2 is e^{-1} < 1/2
        with pytest.raises(ValueError):
            upper_density_root(SelectionConfig(2, 2))
        # peak at n=3 is 2 e^{-2} < 1/3
        with pytest.raises(ValueError):
            upper_density_root(SelectionConfig(3, 3))

    def test_just_below_peak_accepted(self):
        root = upper_density_root(SelectionConfig(3, 4))
        assert root > 2.0

    def test_frozen_case(self):
        # largest root of x e^{-x} = 0.01, bisected independently
        ref = brentq(lambda x: x * math.exp(-x) - 0.01, 1.0, 50.0, xtol=1e-14)
        root = upper_density_root(SelectionConfig(2, 100))
        assert root == pytest.approx(ref, rel=1e-12)
        assert root == pytest.approx(6.472775124394005, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 50), (3, 100), (4, 500), (5, 1000)])
    def test_density_level_and_location(self, n, m):
        root = upper_density_root(SelectionConfig(n, m))
        assert root > n - 1
        level = math.exp(-root + (n - 1) * math.log(root) - math.lgamma(n))
        assert level == pytest.approx(1.0 / m, rel=1e-10)

    def test_wide_array_stays_solvable(self):
        # peak density at n=50 is about 0.057, so m=100 sits below it
        root = upper_density_root(SelectionConfig(50, 100))
        assert root > 49.0
        level = math.exp(-root + 49 * math.log(root) - math.lgamma(50))
        assert level == pytest.approx(0.01, rel=1e-10)


class TestExtremeTails:
    def test_quantile_near_certainty(self):
        for n in (1, 3):
            x = quantile(n, 1.0 - 1e-15)
            s = survival(n, x)
            assert s.survival == pytest.approx(1e-15, rel=1e-3)

    def test_tail_quantile_below_double_resolution(self):
        # tail levels far below eps are exact through the log-domain solve
        x = tail_quantile(2, 1e-18)
        assert survival(2, x).log_survival == pytest.approx(
            math.log(1e-18), abs=1e-12
        )

    def test_round_trip_through_the_deep_tail(self):
        for n in (1, 2, 5):
            for tail in (1e-6, 1e-10, 1e-14):
                x = tail_quantile(n, tail)
                assert survival(n, x).log_survival == pytest.approx(
                    math.log(tail), abs=1e-12
                )


class TestFloatArrayAgreement:
    """A point gives the same bits as a float call and inside an array."""

    XS = np.concatenate([np.geomspace(1e-6, 1.0, 100, endpoint=False),
                         np.linspace(1.0, 80.0, 400)])

    @pytest.mark.parametrize("m", [1, 4, 40])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_float_and_array_calls_agree(self, n, m):
        cfg = SelectionConfig(n, m)
        evaluators = [lambda x: max_cdf(cfg, x), lambda x: max_pdf(cfg, x)]
        if m >= 2:
            evaluators.append(normalizing_constants(cfg, FitStrategy.MRL).cdf)
        for evaluate in evaluators:
            floats = [evaluate(float(x)) for x in self.XS]
            assert all(type(v) is float for v in floats)
            assert evaluate(self.XS).tolist() == floats
