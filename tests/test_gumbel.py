"""Gumbel fits of the selection gain: constructions, moments, convergence."""
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammainccinv

from antsel import (
    EULER_GAMMA,
    FitStrategy,
    GumbelFit,
    SelectionConfig,
    approx_max_cdf,
    approx_moments,
    convergence_error,
    gumbel_cdf,
    max_cdf,
    mean_residual_life,
    normalizing_constants,
    quantile,
    tail_quantile,
)


class TestGumbelCdf:
    def test_point_values(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert gumbel_cdf(-math.log(-math.log(0.9))) == pytest.approx(0.9, rel=1e-14)
        assert gumbel_cdf(50.0) == pytest.approx(1.0, abs=1e-15)
        assert gumbel_cdf(-50.0) == 0.0

    def test_monotone(self):
        xs = np.linspace(-6.0, 8.0, 100)
        vals = [gumbel_cdf(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_array_matches_float_calls_without_warning(self):
        xs = np.array([-1e4, -50.0, 0.0, 50.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gumbel_cdf(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        floats = [gumbel_cdf(float(x)) for x in xs]
        assert all(type(v) is float for v in floats)
        assert values.tolist() == floats


class TestNormalizingConstants:
    def test_mrl_exponential(self):
        fit = normalizing_constants(SelectionConfig(1, 10), FitStrategy.MRL)
        assert fit.location == pytest.approx(math.log(10.0), rel=1e-14)
        assert fit.scale == 1.0

    def test_mrl_ties_location_and_scale_together(self):
        for n, m in ((2, 5), (3, 40), (5, 12)):
            cfg = SelectionConfig(n, m)
            fit = normalizing_constants(cfg, FitStrategy.MRL)
            assert fit.location == pytest.approx(quantile(n, 1 - 1 / m), rel=1e-11)
            assert fit.scale == pytest.approx(
                mean_residual_life(n, fit.location), rel=1e-13
            )

    def test_asymptotic_collapses_for_exponential(self):
        mrl = normalizing_constants(SelectionConfig(1, 10), FitStrategy.MRL)
        asym = normalizing_constants(SelectionConfig(1, 10), FitStrategy.ASYMPTOTIC)
        assert asym.location == pytest.approx(mrl.location, rel=1e-14)
        assert asym.scale == mrl.scale == 1.0

    def test_asymptotic_formula(self):
        fit = normalizing_constants(SelectionConfig(3, 50), FitStrategy.ASYMPTOTIC)
        expected = math.log(50) + 2 * math.log(math.log(50)) - math.log(2.0)
        assert fit.location == pytest.approx(expected, rel=1e-14)
        assert fit.scale == 1.0

    def test_quantile_rate_frozen(self):
        fit = normalizing_constants(SelectionConfig(2, 100), FitStrategy.QUANTILE_RATE)
        q = float(gammainccinv(2, 0.01))
        assert fit.location == pytest.approx(q, rel=1e-12)
        assert fit.scale == pytest.approx(1.0 + 1.0 / q, rel=1e-12)
        assert fit.scale == pytest.approx(1.1506397958043542, rel=1e-12)

    def test_density_root_construction(self):
        fit = normalizing_constants(SelectionConfig(2, 100), FitStrategy.DENSITY_ROOT)
        root = brentq(lambda x: x * math.exp(-x) - 0.01, 1.0, 50.0, xtol=1e-14)
        assert fit.location == pytest.approx(root + 1.0 / root, rel=1e-12)
        assert fit.scale == pytest.approx(1.0 + 1.0 / root, rel=1e-12)

    def test_density_root_exponential_is_plain_log(self):
        fit = normalizing_constants(SelectionConfig(1, 64), FitStrategy.DENSITY_ROOT)
        assert fit.location == pytest.approx(math.log(64.0), rel=1e-14)
        assert fit.scale == 1.0

    @pytest.mark.parametrize("strategy", list(FitStrategy))
    def test_requires_two_branches(self, strategy):
        with pytest.raises(ValueError):
            normalizing_constants(SelectionConfig(2, 1), strategy)

    def test_asymptotic_needs_m3_for_multiple_rx(self):
        with pytest.raises(ValueError):
            normalizing_constants(SelectionConfig(2, 2), FitStrategy.ASYMPTOTIC)
        normalizing_constants(SelectionConfig(1, 2), FitStrategy.ASYMPTOTIC)

    def test_density_root_unavailable_propagates(self):
        with pytest.raises(ValueError):
            normalizing_constants(SelectionConfig(2, 2), FitStrategy.DENSITY_ROOT)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            GumbelFit(0.0, 0.0)
        with pytest.raises(ValueError):
            GumbelFit(0.0, -1.0)


class TestApproxCdf:
    def test_value_at_location(self):
        fit = GumbelFit(3.0, 2.0)
        assert approx_max_cdf(fit, 3.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_shifted_evaluation(self):
        fit = normalizing_constants(SelectionConfig(1, 10), FitStrategy.MRL)
        assert approx_max_cdf(fit, math.log(10.0) + 2.0) == pytest.approx(
            math.exp(-math.exp(-2.0)), rel=1e-14
        )

    def test_limits_and_monotonicity(self):
        fit = normalizing_constants(SelectionConfig(2, 8), FitStrategy.MRL)
        assert approx_max_cdf(fit, -1e3) == 0.0
        assert approx_max_cdf(fit, 1e3) == pytest.approx(1.0, abs=1e-15)
        xs = np.linspace(0.0, 20.0, 200)
        vals = [approx_max_cdf(fit, x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestApproxMoments:
    def test_exponential_reference(self):
        fit = normalizing_constants(SelectionConfig(1, 10), FitStrategy.MRL)
        mean, var = approx_moments(fit)
        assert mean == pytest.approx(math.log(10.0) + EULER_GAMMA, rel=1e-14)
        assert var == pytest.approx(math.pi**2 / 6.0, rel=1e-14)

    def test_scaling_law(self):
        mean, var = approx_moments(GumbelFit(0.0, 2.0))
        assert mean == pytest.approx(2.0 * EULER_GAMMA, rel=1e-14)
        assert var == pytest.approx(4.0 * math.pi**2 / 6.0, rel=1e-14)

    def test_close_to_exact_mean_for_many_branches(self):
        # harmonic sum is the exact mean of the best of 100 exponentials
        fit = normalizing_constants(SelectionConfig(1, 100), FitStrategy.MRL)
        mean, _ = approx_moments(fit)
        harmonic = sum(1.0 / k for k in range(1, 101))
        assert mean == pytest.approx(math.log(100.0) + EULER_GAMMA, rel=1e-14)
        assert abs(mean - harmonic) < 6e-3


class TestConvergenceError:
    def test_positive_at_generic_points(self):
        cfg = SelectionConfig(2, 25)
        for x in (-1.0, 0.5, 2.0):
            assert convergence_error(cfg, FitStrategy.MRL, x) > 0.0

    def test_exponential_rate_is_one_over_m(self):
        err = convergence_error(SelectionConfig(1, 1000), FitStrategy.MRL, 0.0)
        assert 0.01 <= err * 1000 <= 100.0

    def test_exponential_error_decays_by_decades(self):
        errs = [
            convergence_error(SelectionConfig(1, m), FitStrategy.MRL, 0.0)
            for m in (10, 100, 1000, 10000)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        for a, b in zip(errs, errs[1:]):
            assert 5.0 <= a / b <= 20.0

    def test_density_root_rate_probe(self):
        scaled = [
            convergence_error(SelectionConfig(2, m), FitStrategy.DENSITY_ROOT, 0.0)
            * math.log(m) ** 2
            for m in (100, 1000, 10000)
        ]
        assert max(scaled) / min(scaled) < 3.0

    @pytest.mark.parametrize("m", [50, 100, 1000])
    def test_density_root_beats_asymptotic(self, m):
        cfg = SelectionConfig(2, m)
        optimal = convergence_error(cfg, FitStrategy.DENSITY_ROOT, 0.0)
        crude = convergence_error(cfg, FitStrategy.ASYMPTOTIC, 0.0)
        assert optimal < crude

    def test_propagates_unavailable_strategy(self):
        with pytest.raises(ValueError):
            convergence_error(SelectionConfig(2, 2), FitStrategy.DENSITY_ROOT, 0.0)


def _grid_sup_distance(cfg: SelectionConfig, fit: GumbelFit, points: int = 1000):
    """Sup gap between the exact selection-gain cdf and the fit on a grid
    spanning the 0.001..0.999 quantile range of the exact law."""
    lo = quantile(cfg.n, 0.001 ** (1.0 / cfg.m))
    hi = tail_quantile(cfg.n, -math.expm1(math.log(0.999) / cfg.m))
    xs = np.linspace(lo, hi, points)
    return max(abs(max_cdf(cfg, x) - fit.cdf(x)) for x in xs)


class TestDistributionFit:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_fit_improves_with_branch_count(self, n):
        dists = []
        for m in (2, 5, 10, 20):
            cfg = SelectionConfig(n, m)
            fit = normalizing_constants(cfg, FitStrategy.MRL)
            dists.append(_grid_sup_distance(cfg, fit))
        assert all(a > b for a, b in zip(dists, dists[1:]))
