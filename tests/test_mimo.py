"""Open-loop MIMO Monte Carlo baseline: determinism, oracles, and trends."""
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from antsel import (
    LinkParams,
    McRun,
    Method,
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
from antsel.cli import main
from antsel.streams import chunk_generators, substream

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


def reference_gram_eigenvalues(z: np.ndarray) -> np.ndarray:
    """The Gram reduction as it stood before the per-row dots: one einsum
    over both real components for the diagonal, at every rank.  Kept as a
    test-only reference for the bits of mimo._gram_eigenvalues."""
    if z.shape[-1] < z.shape[-2]:
        z = z.swapaxes(-1, -2)
    r = z.shape[-2]
    a, b = z[..., 0, :, :], z[..., 1, :, :]

    def dot(x, y):
        return np.einsum("...j,...j->...", x, y)

    def entry(i, j):
        ai, aj, bi, bj = a[..., i, :], a[..., j, :], b[..., i, :], b[..., j, :]
        return 0.5 * (dot(ai, aj) + dot(bi, bj)), 0.5 * (dot(bi, aj) - dot(ai, bj))

    diag = 0.5 * np.einsum("...kij,...kij->...i", z, z)
    if r == 1:
        return diag
    if r == 2:
        g11, g22 = diag[..., 0], diag[..., 1]
        re, im = entry(0, 1)
        upper = 0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), np.hypot(re, im))
        lower = (g11 * g22 - (re * re + im * im)) / upper
        lam = np.stack([upper, lower], axis=-1)
    elif r == 3:
        lam = mimo._hermitian3_eigenvalues(diag, entry(0, 1), entry(0, 2), entry(1, 2))
    else:
        at, bt = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
        gram = np.empty(z.shape[:-3] + (r, r), dtype=complex)
        gram.real = 0.5 * (a @ at + b @ bt)
        gram.imag = 0.5 * (b @ at - a @ bt)
        lam = np.linalg.eigvalsh(gram)
    return np.maximum(lam, 0.0, out=lam)


def record_draws(monkeypatch) -> list[int]:
    """Per-draw element counts handed to chunk_generators, call by call."""
    calls = []

    def counting(mc, elems_per_draw):
        calls.append(elems_per_draw)
        return chunk_generators(mc, elems_per_draw)

    monkeypatch.setattr(streams, "chunk_generators", counting)
    return calls


def clear_caches() -> None:
    mimo._bootstrap_ranks.cache_clear()
    mimo._HELD.entry = None


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
        assert est.method is Method.MONTE_CARLO
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
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_slogdet_reference(self, n):
        # m < n leaves the Gram matrix rank-deficient
        mc = McRun(10_000, 100 + n)
        for m in sorted({1, max(n - 1, 1), n, n + 2}):
            for db in (-30, -10, 10, 40):
                rho = 10.0 ** (db / 10)
                ref = slogdet_rates(n, m, rho, mc)
                est = mimo_ergodic(n, m, LinkParams(rho), mc)
                out = mimo_outage(n, m, LinkParams(rho), 0.1, mc)
                ref_se = ref.std(ddof=1) / math.sqrt(ref.size)
                assert est.value == pytest.approx(ref.mean(), rel=1e-12, abs=0.0)
                assert est.error_estimate == pytest.approx(ref_se, rel=1e-12, abs=0.0)
                assert out.value == pytest.approx(np.sort(ref)[999], rel=1e-12, abs=0.0)

    def test_small_eigenvalue_keeps_relative_accuracy(self):
        # rows of very different norm, nearly orthogonal: the difference
        # tr/2 - hypot(...) would leave the small eigenvalue an absolute
        # error of about eps * tr, here a relative error near 1e-4
        z = np.array([[[1e3, 0.0], [1e-6, 1e-3]], [[0.0, 2.0], [3e-4, 0.0]]])
        upper, lower = mimo._gram_eigenvalues(z)
        # exact arithmetic: det(H H†) = |det H|^2 and tr(H H†) = |H|_F^2
        (a11, a12), (a21, a22) = ([Fraction(x) for x in row] for row in z[0])
        (b11, b12), (b21, b22) = ([Fraction(x) for x in row] for row in z[1])
        det_re = a11 * a22 - b11 * b22 - (a12 * a21 - b12 * b21)
        det_im = a11 * b22 + b11 * a22 - (a12 * b21 + b12 * a21)
        det = (det_re**2 + det_im**2) / 4
        trace = sum(Fraction(x) ** 2 for x in z.ravel()) / 2
        assert upper * lower == pytest.approx(float(det), rel=1e-12, abs=0.0)
        assert upper + lower == pytest.approx(float(trace), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "diagonal", [(1.0, 1.0, 2.0), (1.0, 2.0, 2.0), (1.0, 1.0, 1.0)]
    )
    def test_repeated_eigenvalues_keep_rates_accurate(self, diagonal):
        # arccos in the 3 x 3 closed form is ill-conditioned next to a
        # repeated eigenvalue; the rates must still match, and an exactly
        # repeated one must not divide by zero
        rng = np.random.default_rng(17)
        for eps in (1e-3, 1e-8, 1e-13, 0.0):
            z = np.zeros((200, 2, 3, 3))
            z[:, 0] = np.diag(diagonal)
            z += eps * rng.standard_normal(z.shape)
            eigenvalues = mimo._gram_eigenvalues(z)
            assert np.all(np.isfinite(eigenvalues))
            for db in (-30, 10, 40):
                rho = 10.0 ** (db / 10)
                rates = mimo._log2det(eigenvalues, 3, rho)
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


class TestReductionReference:
    """The reduction keeps the bits of reference_gram_eigenvalues wherever
    it sums in the same order: every rank-1 shape and every m >= n.  For
    m < n the rows it sums are strided and einsum may add them in another
    order, which moves the Gram entries by rounding only.  Eigenvalues move
    by at most the change of the matrix (Weyl), so they are compared
    relative to each channel's largest eigenvalue."""

    M = [*range(1, 11), 16, 33]

    def assert_matches(self, new, ref, n, m):
        assert new.shape == ref.shape
        if m >= n or min(n, m) == 1:
            assert np.array_equal(new, ref), (n, m)
        else:
            scale = ref.max(axis=-1, keepdims=True)
            assert np.all(np.abs(new - ref) <= 1e-13 * scale), (n, m)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("lead", [(), (40,), (8, 5)])
    def test_matches_reference(self, n, lead):
        rng = np.random.default_rng(700 + n)
        for m in self.M:
            z = rng.standard_normal((*lead, 2, n, m))
            self.assert_matches(mimo._gram_eigenvalues(z), reference_gram_eigenvalues(z), n, m)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_slab_split_matches_reference(self, monkeypatch, n):
        # Several slabs per draw, with and without a users axis, as the
        # estimators reduce them.
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 12)
        for m in self.M:
            for shape in ((2, n, m), (3, 2, n, m)):
                elems = math.prod(shape)
                mc = McRun(3 * streams.SLAB_ELEMENTS // elems + 7, 100 * n + m)
                new = streams.draw_reduced(mc, shape, mimo._gram_eigenvalues)
                whole = np.concatenate([rng.standard_normal((count, *shape))
                                        for count, rng in chunk_generators(mc, elems)])
                self.assert_matches(new, reference_gram_eigenvalues(whole), n, m)


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
        rates = np.sort(mimo._rates(2, 3, 1.0, mc))
        assert est.value == rates[k]
        assert est.error_estimate == float(resample_loop(rates, p0, seed).std(ddof=1))


class TestReuse:
    RHOS = (10.0**-1.5, 1.0, 10.0**2)
    MC = McRun(10_000, 61)

    def point(self, n, m, rho):
        link = LinkParams(rho)
        erg = mimo_ergodic(n, m, link, self.MC)
        out = mimo_outage(n, m, link, 0.05, self.MC)
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

    def test_one_thread_draws_a_point_once(self, monkeypatch):
        calls = record_draws(monkeypatch)
        clear_caches()
        for rho in self.RHOS:
            self.point(2, 3, rho)
        assert calls == [2 * 2 * 3]

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
        calls = record_draws(monkeypatch)
        clear_caches()
        argv = ["mimo", "--n", "1,2", "--m", "3", "--rho-db=0,5,10", "--p0", "0.1",
                "--samples", "10000", "--seed", "404", "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 0
        assert sorted(calls) == [6, 12]


class TestThreadedGrid:
    """cmd_mimo runs its (n, m) points on threads; the output must not tell."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        # Many chunks and slabs per (n, m) at test-sized sample counts.
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 13)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 10)
        yield
        clear_caches()  # no set drawn with this layout outlives the test

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

    def run(self, monkeypatch, tmp_path, workers, argv):
        monkeypatch.setattr(cli, "_WORKERS", workers)
        clear_caches()
        out = tmp_path / f"w{workers}.csv"
        assert main([*argv, "--out", str(out)]) == 0
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
        ergodic = cli.mimo_ergodic

        def recording(*args):
            threads.append(threading.get_ident())
            return ergodic(*args)

        monkeypatch.setattr(cli, "mimo_ergodic", recording)
        serial = self.run(monkeypatch, tmp_path, 1, argv)
        # One worker is still a pool of one thread, not the caller.
        assert len(set(threads)) == 1
        assert threading.get_ident() not in threads
        threads.clear()
        pooled = self.run(monkeypatch, tmp_path, 2, argv)
        assert threading.get_ident() not in threads
        assert pooled == serial

    def test_repeated_points_keep_grid_order(self, monkeypatch, tmp_path):
        def data_rows(workers, n):
            argv = ["mimo", "--n", n, "--m", "1", "--rho-db=0,5", "--p0", "0.1",
                    "--samples", "10000", "--seed", "35"]
            return self.run(monkeypatch, tmp_path, workers, argv).splitlines()[2:]

        two, one = data_rows(1, "2"), data_rows(1, "1")
        calls = record_draws(monkeypatch)
        assert data_rows(2, "2,1,2") == two + one + two
        assert data_rows(1, "2,1,2") == two + one + two
        # The repeated (2, 1) curve is computed, and its channel set drawn, once.
        assert sorted(calls) == [2, 2, 4, 4]

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

    def test_largest_group_starts_first(self, monkeypatch, tmp_path):
        # Curves go to the pool largest first (n m times the SINR count):
        # here (3, 4), then (1, 4), (3, 1) and (1, 1).  The first curve
        # taken from the pool is the first one its thread runs; in grid
        # order that would be (1, 1).  One worker runs (3, 4) first, too.
        argv = ["mimo", "--n", "1,3", "--m", "1,4", "--rho-db=0,10", "--p0", "0.1",
                "--samples", "10000", "--seed", "36"]
        started: dict[int, tuple[int, int]] = {}
        mimo_curve = cli._mimo_curve

        def recording(args, mc, curve):
            started.setdefault(threading.get_ident(), curve[:2])
            return mimo_curve(args, mc, curve)

        monkeypatch.setattr(cli, "_mimo_curve", recording)
        calls = record_draws(monkeypatch)
        pooled = self.run(monkeypatch, tmp_path, 2, argv)
        assert (3, 4) in started.values()
        assert threading.get_ident() not in started
        assert sorted(calls) == sorted(2 * n * m for n in (1, 3) for m in (1, 4))
        started.clear()
        assert self.run(monkeypatch, tmp_path, 1, argv) == pooled
        assert list(started.values()) == [(3, 4)]

    def test_running_points_keep_their_channel_sets(
        self, monkeypatch, tmp_path, fast_switching
    ):
        # Six points at once, each holding its own channel set.
        workers = 6
        calls = record_draws(monkeypatch)
        self.run(monkeypatch, tmp_path, workers, [
            "mimo", "--n", "1,2,3", "--m", "1,2", "--rho-db=0,5,10", "--p0", "0.1",
            "--samples", "10000", "--seed", "34"])
        assert sorted(calls) == sorted(2 * n * m for n in (1, 2, 3) for m in (1, 2))
