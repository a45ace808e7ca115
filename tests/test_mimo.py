"""Open-loop MIMO Monte Carlo baseline: determinism, oracles, and trends."""
import math
import re
import sys
import threading
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from antsel import (
    LinkParams,
    McRun,
    SelectionConfig,
    empirical_ergodic,
    ergodic_capacity,
    mimo,
    mimo_ergodic,
    mimo_outage,
    mimo_scheduled_ergodic,
    outage_capacity,
)
from antsel import cli, streams
from antsel.capacity import db_to_linear
from antsel.cli import main
from antsel.streams import chunk_generators, draw_reduced, substream

RHO_5DB = 10.0**0.5
MC = McRun(100_000, 2024)


def siso_array_capacity(m: int, rho: float) -> float:
    """E[log2(1 + rho/m * G)], G the sum of m unit-mean branch gains.

    Independent quadrature route for the n = 1 open-loop baseline.
    """
    val, _ = quad(
        lambda g: math.log2(1.0 + rho / m * g) * gamma_dist.pdf(g, m),
        0.0,
        gamma_dist.ppf(1.0 - 1e-13, m),
        epsabs=1e-11,
        limit=200,
    )
    return val


def logdet_rates(z: np.ndarray, m: int, rho: float) -> np.ndarray:
    """Rates by the complex log-determinant of I + (rho/m) H H†, for
    channels drawn as (..., 2, n, m) standard normals."""
    h = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) * math.sqrt(0.5)
    a = np.eye(z.shape[-2]) + (rho / m) * (h @ h.conj().swapaxes(-1, -2))
    return np.linalg.slogdet(a)[1] / math.log(2.0)


def slogdet_rates(n: int, m: int, rho: float, mc: McRun) -> np.ndarray:
    """logdet_rates of the channel set, drawn chunk by chunk as the
    estimators draw it."""
    return np.concatenate([
        logdet_rates(rng.standard_normal((count, 2, n, m)), m, rho)
        for count, rng in chunk_generators(mc, 2 * n * m)
    ])


def resample_loop(sorted_rates: np.ndarray, p0: float, seed: int) -> np.ndarray:
    """Bootstrap quantiles by gathering and partitioning every resample."""
    k = max(math.ceil(p0 * sorted_rates.size) - 1, 0)
    boot_rng = substream(seed, 1)
    resampled = np.empty(100)
    for i in range(100):
        idx = boot_rng.integers(0, sorted_rates.size, sorted_rates.size)
        resampled[i] = np.partition(sorted_rates[idx], k)[k]
    return resampled


def reference_invariants(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e_1..e_r, eigenvalues) of the Gram matrix of channels drawn as
    (..., 2, n, m) standard normals, by a route independent of
    mimo._gram_invariants: e_k is the k-th elementary symmetric polynomial
    of ``eigvalsh`` of the complex Gram matrix (H H†, or H† H for m < n),
    summed subset by subset.  At rank 1 e_1 is half the squared norm of the
    channel, one einsum over both real components."""
    if z.shape[-1] < z.shape[-2]:
        z = z.swapaxes(-1, -2)
    r = z.shape[-2]
    h = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) * math.sqrt(0.5)
    lam = np.linalg.eigvalsh(h @ h.conj().swapaxes(-1, -2))
    if r == 1:
        return 0.5 * np.einsum("...kij,...kij->...i", z, z), lam
    e = np.stack([
        sum(np.prod(lam[..., subset], axis=-1) for subset in combinations(range(r), k))
        for k in range(1, r + 1)
    ], axis=-1)
    return e, lam


def record_draws(monkeypatch) -> list[int]:
    """Per-draw element counts handed to chunk_generators, call by call."""
    calls = []

    def counting(mc, elems_per_draw):
        calls.append(elems_per_draw)
        return chunk_generators(mc, elems_per_draw)

    monkeypatch.setattr(streams, "chunk_generators", counting)
    return calls


def record_chunks(monkeypatch) -> list[tuple[int, list[int]]]:
    """For each chunk_generators call, its normals per draw and the indices
    of the chunks whose generators it handed out, in order."""
    calls = []

    def counting(mc, elems_per_draw):
        chunks: list[int] = []
        calls.append((elems_per_draw, chunks))
        for chunk in chunk_generators(mc, elems_per_draw):
            chunks.append(len(chunks))
            yield chunk

    monkeypatch.setattr(streams, "chunk_generators", counting)
    return calls


def clear_caches() -> None:
    mimo._bootstrap_ranks.cache_clear()


class TestValidation:
    def test_antenna_limits(self):
        with pytest.raises(ValueError):
            mimo_ergodic(9, 2, LinkParams(1.0), MC)
        with pytest.raises(ValueError):
            mimo_ergodic(0, 2, LinkParams(1.0), MC)
        with pytest.raises(ValueError):
            mimo_ergodic(1, 0, LinkParams(1.0), MC)

    def test_sample_floors(self):
        with pytest.raises(ValueError):
            mimo_ergodic(1, 1, LinkParams(1.0), McRun(999))
        with pytest.raises(ValueError):
            mimo_outage(1, 1, LinkParams(1.0), 0.1, McRun(9_999))

    def test_outage_probability_range(self):
        for p0 in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                mimo_outage(1, 1, LinkParams(1.0), p0, MC)

    def test_mc_run_validation(self):
        with pytest.raises(ValueError):
            McRun(0)
        with pytest.raises(ValueError):
            McRun(1000, -1)
        with pytest.raises(ValueError):
            McRun(1000, 2**64)

    @pytest.mark.parametrize("shape", [(10_000, 3), (9_999, 2), (10_000,)])
    def test_a_given_set_of_another_shape_is_refused(self, monkeypatch, shape):
        calls = record_draws(monkeypatch)
        monkeypatch.setattr(mimo, "_det_rates", None)  # no estimate is made
        mc, link, bad = McRun(10_000, 7), LinkParams(1.0), np.ones(shape)
        message = re.escape(
            f"a sample of shape {shape} was given where one of shape (10000, 2) is drawn")
        with pytest.raises(ValueError, match=message):
            mimo_ergodic(2, 3, link, mc, bad)
        with pytest.raises(ValueError, match=message):
            mimo_outage(3, 2, (link, link), 0.1, mc, bad)
        with pytest.raises(ValueError, match=message):
            mimo_scheduled_ergodic(2, 3, 4, (link, link), mc, bad)
        assert calls == []

    def test_empty_curve_draws_nothing(self, monkeypatch):
        calls = record_draws(monkeypatch)
        clear_caches()
        mc = McRun(10_000, 7)
        assert mimo_ergodic(2, 3, (), mc) == ()
        assert mimo_outage(2, 3, (), 0.1, mc) == ()
        assert mimo_scheduled_ergodic(2, 3, 4, (), mc) == ()
        assert calls == []
        assert mimo._bootstrap_ranks.cache_info().misses == 0


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = mimo_ergodic(2, 3, LinkParams(1.0), McRun(20_000, 7))
        b = mimo_ergodic(2, 3, LinkParams(1.0), McRun(20_000, 7))
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    def test_different_seed_differs(self):
        a = mimo_ergodic(2, 3, LinkParams(1.0), McRun(20_000, 7))
        b = mimo_ergodic(2, 3, LinkParams(1.0), McRun(20_000, 8))
        assert a.value != b.value

    def test_outage_deterministic(self):
        a = mimo_outage(1, 2, LinkParams(1.0), 0.1, McRun(20_000, 5))
        b = mimo_outage(1, 2, LinkParams(1.0), 0.1, McRun(20_000, 5))
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate


class TestErgodic:
    def test_single_antenna_matches_selection_quadrature(self):
        est = mimo_ergodic(1, 1, LinkParams(1.0), MC)
        ref = ergodic_capacity(SelectionConfig(1, 1), LinkParams(1.0)).value
        assert abs(est.value - ref) <= 3.0 * est.error_estimate

    @pytest.mark.parametrize("m", [2, 8])
    def test_single_rx_matches_gamma_quadrature(self, m):
        est = mimo_ergodic(1, m, LinkParams(RHO_5DB), MC)
        assert abs(est.value - siso_array_capacity(m, RHO_5DB)) <= 3.0 * est.error_estimate

    @pytest.mark.parametrize(
        "n,m,rho", [(1, 2, 1.0), (2, 2, 1.0), (2, 2, RHO_5DB), (3, 4, 1.0)]
    )
    def test_jensen_ceiling(self, n, m, rho):
        est = mimo_ergodic(n, m, LinkParams(rho), MC)
        assert est.value <= n * math.log2(1.0 + rho) + 3.0 * est.error_estimate

    def test_selection_escapes_the_open_loop_ceiling(self):
        # open-loop capacity is capped at n log2(1 + rho); selection is not
        ceiling = math.log2(2.0)
        for m in (3, 5, 10, 50):
            cap = ergodic_capacity(SelectionConfig(1, m), LinkParams(1.0)).value
            assert cap > ceiling

    def test_many_antennas_harden_to_awgn(self):
        # the array average concentrates, so the rate pins at log2(1 + rho)
        est = mimo_ergodic(1, 64, LinkParams(1.0), McRun(200_000, 31))
        assert abs(est.value - siso_array_capacity(64, 1.0)) <= 3.0 * est.error_estimate
        assert abs(est.value - 1.0) <= 0.01


class TestOutage:
    def test_matches_closed_form_single_antenna(self):
        est = mimo_outage(1, 1, LinkParams(1.0), 0.1, MC)
        ref = outage_capacity(SelectionConfig(1, 1), LinkParams(1.0), 0.1).value
        assert abs(est.value - ref) <= 3.0 * est.error_estimate + 1e-3
        assert est.error_estimate > 0.0

    def test_quantile_monotone_in_p0(self):
        lo = mimo_outage(2, 2, LinkParams(1.0), 0.1, MC)
        hi = mimo_outage(2, 2, LinkParams(1.0), 0.5, MC)
        assert lo.value < hi.value

    def test_selection_beats_open_loop_at_low_rx_count(self):
        sel = outage_capacity(SelectionConfig(1, 2), LinkParams(RHO_5DB), 0.1).value
        mimo = mimo_outage(1, 2, LinkParams(RHO_5DB), 0.1, MC)
        assert sel > mimo.value + 3.0 * mimo.error_estimate


class TestScheduled:
    def test_validation(self):
        with pytest.raises(ValueError):
            mimo_scheduled_ergodic(1, 2, 0, LinkParams(1.0), MC)

    def test_scheduling_cannot_hurt(self):
        mc = McRun(20_000, 11)
        base = mimo_ergodic(1, 4, LinkParams(RHO_5DB), mc)
        sched = mimo_scheduled_ergodic(1, 4, 8, LinkParams(RHO_5DB), mc)
        assert sched.value > base.value

    def test_hardening_shrinks_scheduled_capacity(self):
        # more transmit antennas -> less fluctuation -> less multiuser gain
        mc = McRun(20_000, 12)
        vals = [
            mimo_scheduled_ergodic(1, m, 32, LinkParams(RHO_5DB), mc).value
            for m in (2, 10, 20)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_selection_scheduling_overtakes_mimo_scheduling(self):
        mc = McRun(20_000, 13)
        for m in (2, 10, 20):
            pooled = ergodic_capacity(SelectionConfig(1, 32 * m), LinkParams(RHO_5DB))
            mimo = mimo_scheduled_ergodic(1, m, 32, LinkParams(RHO_5DB), mc)
            assert pooled.value > mimo.value + 3.0 * mimo.error_estimate


class TestEigenvalueRoute:
    """Rates from the Gram reduction against complex slogdet and exact
    arithmetic, near repeated and very unequal eigenvalues too."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_slogdet_reference(self, n):
        # m < n leaves the Gram matrix rank-deficient
        mc = McRun(10_000, 100 + n)
        for m in sorted({1, max(n - 1, 1), n, n + 2}):
            # Every SINR's calls read one channel set.
            invariants = draw_reduced(mc, *mimo._channels(n, m))
            for db in (-30, -10, 10, 40):
                rho = 10.0 ** (db / 10)
                ref = slogdet_rates(n, m, rho, mc)
                est = mimo_ergodic(n, m, LinkParams(rho), mc, invariants)
                out = mimo_outage(n, m, LinkParams(rho), 0.1, mc, invariants)
                ref_se = ref.std(ddof=1) / math.sqrt(ref.size)
                assert est.value == pytest.approx(ref.mean(), rel=1e-12, abs=0.0)
                assert est.error_estimate == pytest.approx(ref_se, rel=1e-12, abs=0.0)
                assert out.value == pytest.approx(np.sort(ref)[999], rel=1e-12, abs=0.0)

    def test_small_eigenvalue_keeps_relative_accuracy(self):
        # Rows of very different norm, nearly orthogonal.  The small
        # eigenvalue is det / tr to first order, so it is as accurate as
        # e_2 = g11 g22 - |g12|^2, which here cancels nothing.
        z = np.array([[[1e3, 0.0], [1e-6, 1e-3]], [[0.0, 2.0], [3e-4, 0.0]]])
        trace, det = mimo._gram_invariants(z)
        # exact arithmetic: det(H H†) = |det H|^2 and tr(H H†) = |H|_F^2
        (a11, a12), (a21, a22) = ([Fraction(x) for x in row] for row in z[0])
        (b11, b12), (b21, b22) = ([Fraction(x) for x in row] for row in z[1])
        det_re = a11 * a22 - b11 * b22 - (a12 * a21 - b12 * b21)
        det_im = a11 * b22 + b11 * a22 - (a12 * b21 + b12 * a21)
        exact_det = (det_re**2 + det_im**2) / 4
        exact_trace = sum(Fraction(x) ** 2 for x in z.ravel()) / 2
        assert det == pytest.approx(float(exact_det), rel=1e-12, abs=0.0)
        assert trace == pytest.approx(float(exact_trace), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "diagonal", [(1.0, 1.0, 2.0), (1.0, 2.0, 2.0), (1.0, 1.0, 1.0)]
    )
    def test_repeated_eigenvalues_keep_rates_accurate(self, diagonal):
        # Nearly and exactly repeated eigenvalues: the rates must match,
        # with nothing divided by zero
        rng = np.random.default_rng(17)
        for eps in (1e-3, 1e-8, 1e-13, 0.0):
            z = np.zeros((200, 2, 3, 3))
            z[:, 0] = np.diag(diagonal)
            z += eps * rng.standard_normal(z.shape)
            invariants = mimo._gram_invariants(z)
            assert np.all(np.isfinite(invariants))
            for db in (-30, 10, 40):
                rho = 10.0 ** (db / 10)
                rates = mimo._det_rates(invariants, rho / 3)
                ref = logdet_rates(z, 3, rho)
                np.testing.assert_allclose(rates, ref, rtol=1e-12, atol=0)

    def test_scheduled_matches_slogdet_reference(self):
        mc = McRun(1_000, 5)
        users = 4
        for n, m in ((1, 3), (2, 1), (2, 4), (3, 2), (3, 5)):
            ref = np.concatenate([
                logdet_rates(rng.standard_normal((count, users, 2, n, m)), m, RHO_5DB)
                .max(axis=1)
                for count, rng in chunk_generators(mc, 2 * n * m * users)
            ])
            est = mimo_scheduled_ergodic(n, m, users, LinkParams(RHO_5DB), mc)
            assert est.value == pytest.approx(ref.mean(), rel=1e-12, abs=0.0)


class TestExtremeSinr:
    """Per-sample rates far from the usual SINRs, at r = 1, 2, 3 and 8.
    Past about 3080/r dB det(I + t G) overflows a float and the rate takes
    the scaled Horner branch; at t lambda <= 1e-10 it is log1p of a tiny
    sum.  The references work on the r x r Gram matrix G, whose eigenvalues
    are the nonzero ones of H H†."""

    SHAPES = [(1, 4), (4, 1), (2, 2), (2, 5), (3, 3), (5, 3), (8, 8)]

    def draw(self, n, m):
        z = np.random.default_rng(900 + 10 * n + m).standard_normal((1000, 2, n, m))
        h = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) * math.sqrt(0.5)
        if m < n:
            h = h.conj().swapaxes(-1, -2)
        return mimo._gram_invariants(z), h @ h.conj().swapaxes(-1, -2)

    @pytest.mark.parametrize("n,m", SHAPES)
    def test_high_sinr_matches_slogdet(self, n, m):
        # On these draws the eigenvalue route, the sum of log1p(t lambda)
        # over eigvalsh eigenvalues, is within 1.9e-13 of slogdet.
        invariants, gram = self.draw(n, m)
        for db in (100, 400, 1000, 3000):
            t = db_to_linear(db) / m
            rates = mimo._det_rates(invariants, t)
            ref = np.linalg.slogdet(np.eye(gram.shape[-1]) + t * gram)[1] / math.log(2.0)
            assert np.all(np.isfinite(rates))
            np.testing.assert_allclose(rates, ref, rtol=5e-13, atol=0)

    @pytest.mark.parametrize("n,m", SHAPES)
    def test_largest_sinr_stays_finite(self, n, m):
        # The largest SINR db_to_linear takes.  There slogdet's I + t G
        # overflows, but log det = r log t + sum log lambda to rounding,
        # since 1/t is far below every eigenvalue.
        invariants, gram = self.draw(n, m)
        r = gram.shape[-1]
        t = db_to_linear(3082.5) / m
        # t^r e_r, the top term of det(I + t G), overflows a float.
        log_top = r * math.log(t) + np.log(invariants[..., -1])
        assert np.any(log_top > math.log(sys.float_info.max))
        rates = mimo._det_rates(invariants, t)
        log_det = r * math.log(t) + np.log(np.linalg.eigvalsh(gram)).sum(axis=-1)
        ref = log_det / math.log(2.0)
        np.testing.assert_allclose(rates, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n,m", SHAPES)
    def test_tiny_sinr_keeps_relative_accuracy(self, n, m):
        # At t lambda <= 1e-10, log det(I + t G) = t tr G - t^2 tr G^2 / 2
        # up to a relative (t lambda)^2.  slogdet takes the log of numbers
        # next to 1, so it is accurate only in absolute terms.
        invariants, gram = self.draw(n, m)
        t = 1e-10 / np.linalg.eigvalsh(gram).max()
        rates = mimo._det_rates(invariants, t)
        trace = np.trace(gram, axis1=-2, axis2=-1).real
        square = np.einsum("...ij,...ji->...", gram, gram).real
        series = (t * trace - t * t * square / 2) / math.log(2.0)
        np.testing.assert_allclose(rates, series, rtol=4e-15, atol=0)
        ref = np.linalg.slogdet(np.eye(gram.shape[-1]) + t * gram)[1] / math.log(2.0)
        np.testing.assert_allclose(rates, ref, rtol=0, atol=4e-15)


class TestReductionReference:
    """mimo._gram_invariants against reference_invariants.  Rank 1 keeps
    the reference's bits.  Above it, a change dG of the Gram matrix moves
    each eigenvalue by at most |dG| (Weyl) and so e_k by at most about
    r |dG| e_{k-1}.  Rounding makes |dG| about eps times the largest
    eigenvalue, in the reference's eigenvalues too, so e_k is compared to
    lambda_max e_{k-1} (e_0 = 1), channel by channel.  The product of the
    k largest eigenvalues is no such bound: where the smallest eigenvalue
    is far below the largest, the reference's own error in it exceeds that
    product's eps share."""

    M = [*range(1, 11), 16, 33]

    def assert_matches(self, new, z):
        ref, lam = reference_invariants(z)
        assert new.shape == ref.shape
        if ref.shape[-1] == 1:
            assert np.array_equal(new, ref)
        else:
            lower = np.concatenate([np.ones_like(ref[..., :1]), ref[..., :-1]], axis=-1)
            assert np.all(np.abs(new - ref) <= 1e-13 * lam[..., -1:] * lower)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("lead", [(), (40,), (8, 5)])
    def test_matches_reference(self, n, lead):
        rng = np.random.default_rng(700 + n)
        for m in self.M:
            z = rng.standard_normal((*lead, 2, n, m))
            self.assert_matches(mimo._gram_invariants(z), z)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_slab_split_matches_reference(self, monkeypatch, n):
        # Several slabs per draw, with and without a users axis, as the
        # estimators reduce them.
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 12)
        for m in self.M:
            for shape in ((2, n, m), (3, 2, n, m)):
                elems = math.prod(shape)
                mc = McRun(3 * streams.SLAB_ELEMENTS // elems + 7, 100 * n + m)
                row = (*shape[:-3], min(n, m))
                new = streams.draw_reduced(mc, shape, mimo._gram_invariants, row)
                whole = np.concatenate([rng.standard_normal((count, *shape))
                                        for count, rng in chunk_generators(mc, elems)])
                self.assert_matches(new, whole)


class TestExpressionBits:
    """At r = 2 and 3, mimo._gram_invariants gives the bits of the
    expressions it writes, evaluated in Python floats one channel at a time
    on the row dots of mimo._dot.  Scalar IEEE arithmetic rounds alike on
    every CPU, so this pins the last bits that the goldens' 10 digits and
    TestReductionReference's tolerance leave free."""

    @staticmethod
    def expected(z: np.ndarray) -> np.ndarray:
        if z.shape[-1] < z.shape[-2]:
            z = z.swapaxes(-1, -2)
        r = z.shape[-2]
        a, b = z[..., 0, :, :], z[..., 1, :, :]
        # The row dots as the reduction takes them: the diagonal's over
        # whole rows, each off-diagonal entry's over rows i and j.
        diag = mimo._dot(a, a), mimo._dot(b, b)
        pairs = list(combinations(range(r), 2))
        dots = {(i, j): [mimo._dot(x[..., i, :], y[..., j, :])
                         for x, y in ((a, a), (b, b), (b, a), (a, b))]
                for i, j in pairs}
        e = np.empty(z.shape[:-3] + (r,))
        for c in np.ndindex(z.shape[:-3]):
            g = [(float(diag[0][c][i]) + float(diag[1][c][i])) * 0.5 for i in range(r)]
            re, im, s = {}, {}, {}
            for pair in pairs:
                aa, bb, ba, ab = (float(d[c]) for d in dots[pair])
                re[pair] = (aa + bb) * 0.5
                im[pair] = (ba - ab) * 0.5
                s[pair] = re[pair] * re[pair] + im[pair] * im[pair]
            if r == 2:
                e[c] = g[0] + g[1], g[0] * g[1] - s[0, 1]
                continue
            g1, g2, g3 = g
            s12, s13, s23 = s[0, 1], s[0, 2], s[1, 2]
            triple = ((re[0, 1] * re[1, 2] - im[0, 1] * im[1, 2]) * re[0, 2]
                      + (re[0, 1] * im[1, 2] + im[0, 1] * re[1, 2]) * im[0, 2])
            e2 = (g1 * g2 - s12) + (g1 * g3 - s13) + (g2 * g3 - s23)
            e3 = g1 * g2 * g3 + 2 * triple - g1 * s23 - g2 * s13 - g3 * s12
            e[c] = g1 + g2 + g3, e2, e3
        return e

    # m < n takes the swap; (12, 16) is a K-user slab of 16 users.
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 5), (4, 2), (3, 3), (3, 6), (5, 3)])
    @pytest.mark.parametrize("lead", [(300,), (12, 16)])
    def test_matches_the_expressions(self, n, m, lead):
        z = np.random.default_rng(50 * n + m).standard_normal((*lead, 2, n, m))
        assert np.array_equal(mimo._gram_invariants(z), self.expected(z))


class TestRankBootstrap:
    @pytest.mark.parametrize(
        "seed,samples,p0",
        [
            (0, 10_000, 0.1),
            (7, 12_345, 0.01),
            (2**63 + 5, 20_000, 0.5),
            (3, 10_001, 1e-6),
        ],
    )
    def test_equals_resample_loop(self, seed, samples, p0):
        k = max(math.ceil(p0 * samples) - 1, 0)
        # coarse values give many ties between distinct indices
        data = np.sort(np.random.default_rng(seed).integers(0, 50, samples) / 7.0)
        ranks = mimo._bootstrap_ranks(seed, samples, k)
        assert np.array_equal(data[ranks], resample_loop(data, p0, seed))

        mc = McRun(samples, seed)
        est = mimo_outage(2, 3, LinkParams(1.0), p0, mc)
        invariants = draw_reduced(mc, (2, 2, 3), mimo._gram_invariants, (2,))
        rates = np.sort(mimo._det_rates(invariants, 1.0 / 3))
        assert est.value == rates[k]
        assert est.error_estimate == float(resample_loop(rates, p0, seed).std(ddof=1))


    def test_resamples_over_the_array_limit_are_refused_before_any_draw(self, monkeypatch):
        # One resample of 10,000 int64 indices takes 80,000 bytes.
        draws = record_draws(monkeypatch)
        clear_caches()
        monkeypatch.setattr(streams, "MAX_DRAW_BYTES", 8 * 9_999)
        with pytest.raises(MemoryError, match=(
                r"^not enough memory to resample 10000 samples: an array of 80000 bytes "
                r"is over the limit of 79992 \(MAX_DRAW_BYTES\)$")):
            mimo_outage(1, 1, LinkParams(1.0), 0.1, McRun(10_000, 3))
        assert draws == []


class TestReuse:
    RHOS = (10.0**-1.5, 1.0, 10.0**2)
    MC = McRun(10_000, 61)

    def point(self, n, m, rho, invariants=None):
        link = LinkParams(rho)
        erg = mimo_ergodic(n, m, link, self.MC, invariants)
        out = mimo_outage(n, m, link, 0.05, self.MC, invariants)
        return erg.value, erg.error_estimate, out.value, out.error_estimate

    @pytest.mark.parametrize("n,m", [(1, 4), (2, 3), (3, 5), (4, 2)])
    def test_results_do_not_depend_on_call_order(self, n, m):
        clear_caches()
        ascending = [self.point(n, m, rho) for rho in self.RHOS]
        clear_caches()
        descending = [self.point(n, m, rho) for rho in reversed(self.RHOS)][::-1]
        clear_caches()
        self.point(n + 1, m, 1.0)
        after_other = [self.point(n, m, rho) for rho in self.RHOS]
        clear_caches()
        mimo_scheduled_ergodic(n, m, 3, LinkParams(1.0), self.MC)
        after_scheduled = [self.point(n, m, rho) for rho in self.RHOS]
        assert ascending == descending == after_other == after_scheduled

    def test_a_given_set_draws_nothing(self, monkeypatch):
        # Every SINR's calls read the set they are given, and return the
        # bytes of the calls that draw it.
        expected = [self.point(2, 3, rho) for rho in self.RHOS]
        invariants = draw_reduced(self.MC, *mimo._channels(2, 3))
        invariants.flags.writeable = False
        calls = record_draws(monkeypatch)
        clear_caches()
        assert [self.point(2, 3, rho, invariants) for rho in self.RHOS] == expected
        assert calls == []

    def test_the_grid_hands_each_set_over_read_only(self, monkeypatch, tmp_path):
        given = []
        for name in ("mimo_ergodic", "mimo_outage"):
            def recording(*args, estimator=getattr(mimo, name)):
                given.append(args[-1])
                with pytest.raises(ValueError, match="read-only"):
                    args[-1][0] = 0.0
                return estimator(*args)

            monkeypatch.setattr(mimo, name, recording)
        argv = ["mimo", "--n", "1,2", "--m", "3", "--rho-db=0,10", "--p0", "0.1",
                "--samples", "10000", "--seed", "407", "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 0
        assert sorted(sample.shape for sample in given) == [(10_000, 1)] * 2 + [(10_000, 2)] * 2

    def test_outside_a_block_every_call_draws(self, monkeypatch):
        calls = record_draws(monkeypatch)
        clear_caches()
        for rho in self.RHOS:
            self.point(2, 3, rho)
        assert calls == [2 * 2 * 3] * 2 * len(self.RHOS)

    def test_a_curve_call_draws_once(self, monkeypatch):
        calls = record_draws(monkeypatch)
        clear_caches()
        links = tuple(map(LinkParams, self.RHOS))
        mimo_ergodic(2, 3, links, self.MC)
        mimo_outage(2, 3, links, 0.05, self.MC)
        assert calls == [2 * 2 * 3] * 2

    def test_samplers_draw_whole_channels(self, monkeypatch):
        # Each draw is one channel set: 2nm normals for a single user and
        # the oracle's m branches of 2n, 2nmK for K scheduled users.
        calls = record_draws(monkeypatch)
        clear_caches()
        n, m, users, link, mc = 2, 3, 4, LinkParams(1.0), McRun(2_000, 62)
        mimo_ergodic(n, m, link, mc)
        mimo_scheduled_ergodic(n, m, users, link, mc)
        empirical_ergodic(SelectionConfig(n, m), link, mc)
        assert calls == [2 * n * m, 2 * n * m * users, 2 * n * m]

    def test_cli_draws_each_channel_set_once(self, monkeypatch, tmp_path):
        # Each curve's ergodic and outage calls read one single-user set, and
        # one pass draws both curves' single-user and K-user sets: each chunk
        # stream is drawn once per run, laid out as the widest draw.
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 16)
        calls = record_chunks(monkeypatch)
        clear_caches()
        argv = ["mimo", "--n", "1,2", "--m", "3", "--rho-db=5", "--p0", "0.1", "--users", "4",
                "--samples", "10000", "--seed", "404", "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 0
        assert [elems for elems, _ in calls] == [2 * 2 * 3 * 4]
        for elems, chunks in calls:
            assert chunks == list(range(len(list(chunk_generators(McRun(10_000), elems)))))
        assert len(dict(calls)[2 * 2 * 3 * 4]) > 1

    def test_curve_calls_each_estimator_once(self, monkeypatch, tmp_path):
        # Two curves in one pass, estimated on its threads; list.append is
        # atomic, so the recorders lose no call.  Each curve's scheduled
        # estimates come from one mimo_scheduled_ergodic call given the
        # pass's table.
        draws = record_draws(monkeypatch)
        calls = []
        for name in ("mimo_ergodic", "mimo_outage", "mimo_scheduled_ergodic"):
            estimator = getattr(mimo, name)

            def recording(*args, name=name, estimator=estimator):
                calls.append((name, args[0]))
                return estimator(*args)

            monkeypatch.setattr(mimo, name, recording)
        clear_caches()
        argv = ["mimo", "--n", "1,2", "--m", "3", "--p0", "0.1", "--rho-db=0,10",
                "--users", "2", "--samples", "10000", "--seed", "406",
                "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 0
        assert sorted(calls) == [("mimo_ergodic", 1), ("mimo_ergodic", 2),
                                 ("mimo_outage", 1), ("mimo_outage", 2),
                                 ("mimo_scheduled_ergodic", 1), ("mimo_scheduled_ergodic", 2)]
        # Every set comes from one pass, laid out as the widest.
        assert draws == [2 * 2 * 3 * 2]

    def test_scheduled_curve_draws_the_user_set_once(self, monkeypatch, tmp_path):
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 16)
        calls = record_chunks(monkeypatch)
        clear_caches()
        argv = ["mimo", "--n", "2", "--m", "4", "--users", "16", "--samples", "2000",
                "--seed", "405"]
        curve = tmp_path / "curve.csv"
        assert main([*argv, "--rho-db=0,5,10,15", "--out", str(curve)]) == 0
        user_sets = [chunks for elems, chunks in calls if elems == 2 * 2 * 4 * 16]
        # One pass over the K-user set's chunk streams, each drawn once.
        assert user_sets == [list(range(8))]
        rows = []
        for db in ("0", "5", "10", "15"):
            point = tmp_path / f"{db}.csv"
            assert main([*argv, "--rho-db", db, "--out", str(point)]) == 0
            rows += point.read_text().splitlines()[2:]
        # Past the parameter line and the header, byte for byte.
        assert curve.read_text().splitlines()[2:] == rows


class TestSharedGrid:
    """cmd_mimo draws its curves' single-user and K-user sets in one pass;
    the CSV holds the bytes that per-curve library calls give, with no,
    one and two helper threads."""

    @staticmethod
    def library_csv(argv, path):
        args = cli.build_parser().parse_args([*argv, "--out", str(path)])
        mc = McRun(args.samples, args.seed)
        blocks = []
        for n, m, _, dbs, links in cli._grid(args, configs=False):
            block = {"n": n, "m": m, "rho_db": dbs, "p0": None, "users": args.users,
                     "samples": args.samples, "seed": args.seed}
            for name, results in (
                ("ergodic", mimo_ergodic(n, m, links, mc)),
                ("scheduled", mimo_scheduled_ergodic(n, m, args.users, links, mc)),
            ):
                block[name] = [r.value for r in results]
                block[f"{name}_stderr"] = [r.error_estimate for r in results]
            blocks.append(block)
        cli._emit(args, blocks)
        return path.read_bytes()

    # The bench scheduled grid's shapes at test size: 8 to 384 normals per
    # K-user draw against 8192 per chunk and 1024 per slab, so the curves of
    # one pass have from 1 to 47 chunks each.
    @settings(max_examples=10, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate, Phase.shrink),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sets(st.integers(1, 2), min_size=1), st.sets(st.integers(1, 6), min_size=1),
           st.sampled_from([1, 4, 16]),
           st.lists(st.sampled_from([-5.0, 5.0, 20.0]), min_size=1, max_size=3),
           st.integers(1_000, 2_000), st.integers(0, 2**32))
    @example({1, 2}, set(range(1, 7)), 16, [5.0], 2_000, 3)
    def test_grid_writes_the_library_bytes(
        self, monkeypatch, tmp_path, ns, ms, users, dbs, samples, seed
    ):
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 13)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 10)
        clear_caches()
        argv = ["mimo", "--n", ",".join(map(str, sorted(ns))),
                "--m", ",".join(map(str, sorted(ms))),
                f"--rho-db={','.join(map(str, dbs))}", "--users", str(users),
                "--samples", str(samples), "--seed", str(seed)]
        expected = self.library_csv(argv, tmp_path / "library.csv")
        for helpers in (0, 1, 2):
            monkeypatch.setattr(streams, "_helpers", lambda: helpers)
            out = tmp_path / f"h{helpers}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == expected

    def test_bench_grid_passes(self, monkeypatch, tmp_path):
        # The bench scheduled grid is one pass: its K-user tables in grid
        # order, then its single-user sets.  Under a smaller byte budget it
        # runs as consecutive passes, in the same order, with the same bytes.
        passes = []
        draw_pass = streams._draw_pass

        def recording(mc, requests, layout, consume):
            passes.append([shape for shape, _, _ in requests])
            return draw_pass(mc, requests, layout, consume)

        monkeypatch.setattr(streams, "_draw_pass", recording)
        argv = ["mimo", "--n", "1,2", "--m", "1..6", "--rho-db", "5", "--users", "16",
                "--samples", "20000", "--seed", "3"]
        pairs = [(n, m) for n in (1, 2) for m in range(1, 7)]
        shapes = [(16, 2, n, m) for n, m in pairs] + [(2, n, m) for n, m in pairs]
        one = tmp_path / "one.csv"
        assert main([*argv, "--out", str(one)]) == 0
        assert passes == [shapes]
        # Each table holds one value per sample and each set min(n, m).
        values = [1] * len(pairs) + [min(pair) for pair in pairs]
        assert 8 * 20_000 * sum(values) <= streams.MAX_PASS_BYTES
        passes.clear()
        monkeypatch.setattr(streams, "MAX_PASS_BYTES", 8 * 20_000 * 10)
        split = tmp_path / "split.csv"
        assert main([*argv, "--out", str(split)]) == 0
        assert passes == [shapes[:10], shapes[10:19], shapes[19:]]
        assert split.read_bytes() == one.read_bytes()


class TestBestRates:
    """The scheduled reduction takes one log1p per slot and SINR: the rate
    of the users' largest det - 1 is the best of their rates, bit for bit,
    and a slot whose largest det - 1 overflows takes its users' rates."""

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 1), (2, 2), (2, 5), (3, 3), (5, 4)])
    def test_equals_the_best_of_each_users_rates(self, n, m):
        z = np.random.default_rng(70 + 10 * n + m).standard_normal((400, 8, 2, n, m))
        r = min(n, m)
        invariants = mimo._gram_invariants(z)
        # At this SINR t^r e_r passes the float limit for about half the
        # users (fewer at r = 1, where rho = t m must stay finite): some
        # slots then hold users on both sides of it.
        top = max(float(np.median(invariants[..., -1])), 1.01 * m**r)
        edge = m * (sys.float_info.max / top) ** (1 / r)
        y = mimo._det_minus_one(invariants, edge / m)
        assert np.any(np.isinf(y).any(axis=1) & ~np.isinf(y).all(axis=1))
        rhos = (1e-9, 1.0, db_to_linear(40.0), edge / 4, edge, db_to_linear(3000.0))
        reference = np.stack(
            [mimo._det_rates(invariants, rho / m).max(axis=1) for rho in rhos], axis=1)
        assert mimo._BestRates(m, rhos)(z).tobytes() == reference.tobytes()


class TestThreadedGrid:
    """cmd_mimo draws and estimates its (n, m) points on the threads of a
    pass; the output must not tell."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        # Many chunks and slabs per (n, m) at test-sized sample counts.
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 13)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 10)

    @pytest.fixture
    def fast_switching(self):
        # Threads switch far more often than by default, so that a check
        # and the update after it are more likely to interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def run(self, monkeypatch, tmp_path, helpers, argv):
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        clear_caches()
        out = tmp_path / f"h{helpers}.csv"
        before = threading.active_count()
        assert main([*argv, "--out", str(out)]) == 0
        assert threading.active_count() == before
        return out.read_bytes()

    @pytest.mark.parametrize("argv,smallest_draw", [
        (["mimo", "--n", "1,2,3", "--m", "2,4", "--rho-db=0,10", "--p0", "0.1",
          "--samples", "10000", "--seed", "31"], 2 * 1 * 2),
        (["mimo", "--n", "1,2", "--m", "3,1", "--rho-db=5", "--users", "4",
          "--samples", "2000", "--seed", "32"], 2 * 1 * 1 * 4),
    ])
    def test_single_worker_matches_pool(
        self, monkeypatch, tmp_path, small_chunks, argv, smallest_draw
    ):
        samples = int(argv[argv.index("--samples") + 1])
        assert len(list(chunk_generators(McRun(samples), smallest_draw))) >= 2
        threads = []
        ergodic = mimo.mimo_ergodic

        def recording(*args):
            threads.append(threading.get_ident())
            return ergodic(*args)

        monkeypatch.setattr(mimo, "mimo_ergodic", recording)
        serial = self.run(monkeypatch, tmp_path, 0, argv)
        # With no helper, the calling thread estimates every curve.
        assert set(threads) == {threading.get_ident()}
        curves = len(threads)
        for helpers in (1, 2):
            threads.clear()
            assert self.run(monkeypatch, tmp_path, helpers, argv) == serial
            assert len(threads) == curves

    def test_repeated_points_keep_grid_order(self, monkeypatch, tmp_path):
        def data_rows(helpers, n):
            argv = ["mimo", "--n", n, "--m", "1", "--rho-db=0,5", "--p0", "0.1",
                    "--samples", "10000", "--seed", "35"]
            return self.run(monkeypatch, tmp_path, helpers, argv).splitlines()[2:]

        two, one = data_rows(0, "2"), data_rows(0, "1")
        assert data_rows(1, "2,1,2") == two + one + two
        assert data_rows(0, "2,1,2") == two + one + two

    def test_bootstrap_ranks_drawn_once(self, monkeypatch, tmp_path, fast_switching):
        tags = []

        def counting(seed, tag):
            tags.append(tag)
            return substream(seed, tag)

        monkeypatch.setattr(mimo, "substream", counting)
        self.run(monkeypatch, tmp_path, 2, [
            "mimo", "--n", "1,2", "--m", "2", "--rho-db=0,10", "--p0", "0.1",
            "--samples", "10000", "--seed", "33"])
        assert tags == [mimo._BOOTSTRAP_TAG]

    def test_curves_are_estimated_as_their_sets_complete(self, monkeypatch, tmp_path):
        # One pass draws every single-user set, laid out as the widest, and a
        # curve is estimated as soon as its set is whole: the narrowest
        # first.  With no helper, the order is (1, 1) and (3, 1), both
        # whole in the first block, then (1, 4) and (3, 4).
        argv = ["mimo", "--n", "1,3", "--m", "1,4", "--rho-db=0,10", "--p0", "0.1",
                "--samples", "10000", "--seed", "36"]
        started: list[tuple[int, int]] = []
        ergodic = mimo.mimo_ergodic

        def recording(n, m, *args):
            started.append((n, m))
            return ergodic(n, m, *args)

        monkeypatch.setattr(mimo, "mimo_ergodic", recording)
        calls = record_draws(monkeypatch)
        serial = self.run(monkeypatch, tmp_path, 0, argv)
        assert started == [(1, 1), (3, 1), (1, 4), (3, 4)]
        assert calls == [2 * 3 * 4]
        started.clear()
        assert self.run(monkeypatch, tmp_path, 2, argv) == serial
        assert sorted(started) == [(1, 1), (1, 4), (3, 1), (3, 4)]

    def test_running_points_keep_their_channel_sets(
        self, monkeypatch, tmp_path, fast_switching
    ):
        # Six points in one pass, on more helper threads than CPUs, each
        # estimated from its own channel set.
        argv = ["mimo", "--n", "1,2,3", "--m", "1,2", "--rho-db=0,5,10", "--p0", "0.1",
                "--samples", "10000", "--seed", "34"]
        calls = record_draws(monkeypatch)
        crowded = self.run(monkeypatch, tmp_path, 6, argv)
        assert calls == [2 * 3 * 2]
        assert self.run(monkeypatch, tmp_path, 0, argv) == crowded
