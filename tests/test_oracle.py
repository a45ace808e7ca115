"""Channel-level sampling oracle vs the analytic machinery."""
import math
import re

import numpy as np
import pytest

from antsel import (
    EULER_GAMMA,
    FitStrategy,
    LinkParams,
    McRun,
    SelectionConfig,
    empirical_ergodic,
    ergodic_capacity,
    ks_against,
    max_cdf,
    normalizing_constants,
    oracle,
    quantile,
    sample_selection_gain,
    streams,
    tail_quantile,
)
from antsel.oracle import _draws, _ks_statistic

MC = McRun(200_000, 99)


def harmonic(m: int) -> float:
    return sum(1.0 / k for k in range(1, m + 1))


class TestSummary:
    def test_determinism(self):
        a = sample_selection_gain(SelectionConfig(2, 4), McRun(20_000, 3))
        b = sample_selection_gain(SelectionConfig(2, 4), McRun(20_000, 3))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_selection_gain(SelectionConfig(1, 1), McRun(999))

    def test_quantiles_nondecreasing_and_ks_in_range(self):
        s = sample_selection_gain(SelectionConfig(2, 6), MC)
        values = [v for _, v in s.quantiles]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert 0.0 <= s.ks_distance <= 1.0
        assert s.samples == MC.samples and s.seed == MC.seed

    def test_median_sits_at_exact_median(self):
        cfg = SelectionConfig(1, 5)
        s = sample_selection_gain(cfg, MC)
        median = dict(s.quantiles)[0.5]
        # cdf at the empirical median is 0.5 up to sampling noise
        assert abs(max_cdf(cfg, median) - 0.5) <= 4.0 / math.sqrt(MC.samples) + 1e-3

    def test_median_of_an_odd_sample_is_its_middle_draw(self):
        # Nearest rank: of 1,001 draws the 0.5 quantile is the 501st smallest.
        cfg, mc = SelectionConfig(2, 3), McRun(1_001, 5)
        median = dict(sample_selection_gain(cfg, mc).quantiles)[0.5]
        assert median == np.sort(_draws(cfg, mc))[500]

    @pytest.mark.parametrize("m", [1, 3, 10, 100])
    def test_mean_matches_harmonic_sum(self, m):
        s = sample_selection_gain(SelectionConfig(1, m), MC)
        se = math.sqrt(s.variance / s.samples)
        assert abs(s.mean - harmonic(m)) <= 3.0 * se

    def test_variance_matches_closed_form(self):
        cfg = SelectionConfig(1, 100)
        s = sample_selection_gain(cfg, MC)
        expected = sum(1.0 / k**2 for k in range(1, 101))
        draws = _draws(cfg, MC)
        centered = draws - draws.mean()
        fourth = float(np.mean(centered**4))
        se_var = math.sqrt((fourth - s.variance**2) / s.samples)
        assert abs(s.variance - expected) <= 3.0 * se_var

    def test_mean_obeys_quantile_sandwich(self):
        for n, m in ((1, 4), (2, 10), (3, 3)):
            cfg = SelectionConfig(n, m)
            s = sample_selection_gain(cfg, MC)
            se = math.sqrt(s.variance / s.samples)
            lower = quantile(n, 1.0 - 1.0 / m) if m > 1 else 0.0
            upper = tail_quantile(n, 1.0 / (math.exp(EULER_GAMMA) * (m + 1)))
            assert lower - 3.0 * se <= s.mean <= upper + 3.0 * se


class TestKolmogorovSmirnov:
    def test_exact_law_fits_at_large_sample(self):
        cfg = SelectionConfig(1, 5)
        mc = McRun(1_000_000, 7)
        ks = ks_against(cfg, mc, lambda x: max_cdf(cfg, x))
        assert ks <= 1.95 / math.sqrt(mc.samples)

    def test_self_empirical_distance_vanishes(self):
        cfg = SelectionConfig(2, 3)
        mc = McRun(20_000, 17)
        draws = np.sort(_draws(cfg, mc))

        def empirical(x: float) -> float:
            return np.searchsorted(draws, x, side="right") / draws.size

        assert ks_against(cfg, mc, empirical) <= 1.0 / mc.samples + 1e-12

    def test_exact_reference_is_one_array_call(self):
        cfg = SelectionConfig(1, 5)
        mc = McRun(20_000, 7)
        calls = []

        def counted(reference_cdf):
            def reference(x):
                calls.append(np.shape(x))
                return reference_cdf(x)
            return reference

        ks_against(cfg, mc, counted(lambda x: max_cdf(cfg, x)))
        ks_against(cfg, mc, counted(normalizing_constants(cfg, FitStrategy.MRL).cdf))
        assert calls == [(mc.samples,)] * 2

    def test_reference_must_return_one_value_per_point(self):
        cfg = SelectionConfig(1, 5)
        mc = McRun(2_000, 7)
        with pytest.raises(ValueError, match="one value per point"):
            ks_against(cfg, mc, lambda x: 0.5)
        with pytest.raises(ValueError, match="one value per point"):
            ks_against(cfg, mc, lambda x: max_cdf(cfg, x)[1:])
        # A scalar-only reference fails on its own error; nothing retries it.
        with pytest.raises(TypeError):
            ks_against(cfg, mc, lambda x: math.exp(-x))

    def test_gumbel_fit_improves_with_branches(self):
        mc = McRun(100_000, 23)
        dists = []
        for m in (2, 20):
            cfg = SelectionConfig(2, m)
            fit = normalizing_constants(cfg, FitStrategy.MRL)
            dists.append(ks_against(cfg, mc, fit.cdf))
        assert dists[1] < dists[0]

    def test_default_reference_is_exact_law(self):
        cfg = SelectionConfig(2, 5)
        mc = McRun(20_000, 29)
        s = sample_selection_gain(cfg, mc)
        assert s.ks_distance == pytest.approx(
            ks_against(cfg, mc, lambda x: max_cdf(cfg, x)), rel=1e-12
        )


class TestEmpiricalErgodic:
    def test_determinism_and_method(self):
        a = empirical_ergodic(SelectionConfig(1, 2), LinkParams(1.0), McRun(10_000, 5))
        b = empirical_ergodic(SelectionConfig(1, 2), LinkParams(1.0), McRun(10_000, 5))
        assert a.value == b.value

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 5])
    def test_agrees_with_quadrature(self, n, m):
        cfg = SelectionConfig(n, m)
        for rho in (10.0**-0.5, 10.0**0.5):
            link = LinkParams(rho)
            est = empirical_ergodic(cfg, link, MC)
            ref = ergodic_capacity(cfg, link).value
            assert abs(est.value - ref) <= 3.0 * est.error_estimate

    def test_low_snr_linearizes(self):
        est = empirical_ergodic(SelectionConfig(1, 1), LinkParams(1e-4), MC)
        assert est.value == pytest.approx(1e-4 / math.log(2.0), rel=0.02)

    def test_sits_in_quantile_sandwich(self):
        cfg = SelectionConfig(2, 8)
        link = LinkParams(10.0**0.5)
        est = empirical_ergodic(cfg, link, MC)
        lower = math.log2(1.0 + link.rho * quantile(2, 1 - 1 / 8))
        upper = math.log2(
            1.0 + link.rho * tail_quantile(2, 1.0 / (math.exp(EULER_GAMMA) * 9.0))
        )
        assert lower - 3 * est.error_estimate <= est.value
        assert est.value <= upper + 3 * est.error_estimate


class TestSharedSample:
    """An estimator given its sorted sample draws nothing and returns the
    bytes of its call that draws; the KS distance of that sample is
    ``ks_against``'s."""

    @pytest.mark.parametrize("n,m,rho", [(1, 5, 10.0**0.5), (2, 3, 1e-4)])
    def test_equals_the_two_calls_from_one_draw(self, monkeypatch, n, m, rho):
        cfg, link, mc = SelectionConfig(n, m), LinkParams(rho), McRun(20_000, 13)

        def reference(x):
            return max_cdf(cfg, x)

        expected = (empirical_ergodic(cfg, link, mc), ks_against(cfg, mc, reference))
        sample = _draws(cfg, mc)
        sample.flags.writeable = False
        draws = []
        chunk_generators = streams.chunk_generators

        def counting(*args):
            draws.append(args[1])
            return chunk_generators(*args)

        monkeypatch.setattr(streams, "chunk_generators", counting)
        given = (empirical_ergodic(cfg, link, mc, sample), _ks_statistic(sample, reference))
        assert given == expected
        assert draws == []
        empirical_ergodic(cfg, link, mc)
        assert draws == [2 * n * m]

    @pytest.mark.parametrize("shape", [(1_999,), (2_000, 1), (2_001,)])
    def test_a_sample_of_another_shape_is_refused(self, monkeypatch, shape):
        cfg, link = SelectionConfig(1, 5), LinkParams(1.0)
        monkeypatch.setattr(oracle, "_sample_mean", None)  # no estimate is made
        with pytest.raises(ValueError, match=re.escape(
                f"a sample of shape {shape} was given where one of shape (2000,) is drawn")):
            empirical_ergodic(cfg, link, McRun(2_000), np.ones(shape))

    def test_sample_floor(self):
        cfg, link = SelectionConfig(1, 5), LinkParams(1.0)
        empirical_ergodic(cfg, link, McRun(1_000))
        with pytest.raises(ValueError, match="ergodic estimate needs >= 1000"):
            empirical_ergodic(cfg, link, McRun(999))
        with pytest.raises(ValueError, match="KS estimate needs >= 1000"):
            ks_against(cfg, McRun(999), lambda x: max_cdf(cfg, x))
