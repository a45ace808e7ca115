"""Deterministic chunked sampling and reported-error invariants."""
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from antsel import LinkParams, McRun, SelectionConfig, cli, mimo
from antsel.mimo import (
    _det_rates,
    _gram_invariants,
    mimo_ergodic,
    mimo_scheduled_ergodic,
)
from antsel.oracle import _draws, _gains, empirical_ergodic, sample_selection_gain
from antsel import streams
from antsel.streams import (
    CHUNK_ELEMENTS,
    SLAB_ELEMENTS,
    chunk_generators,
    draw_reduced,
    draw_shared,
    substream,
)


def record_draws(monkeypatch):
    """Per-draw element counts handed to chunk_generators, call by call."""
    calls = []

    def counting(mc, elems_per_draw):
        calls.append(elems_per_draw)
        return chunk_generators(mc, elems_per_draw)

    monkeypatch.setattr(streams, "chunk_generators", counting)
    return calls


class TestChunkPlan:
    def test_counts_cover_exactly(self):
        mc = McRun(10_000, 1)
        counts = [c for c, _ in chunk_generators(mc, 2)]
        assert sum(counts) == 10_000

    def test_chunks_split_when_draws_are_wide(self):
        # wide draws force several chunks even for modest sample counts
        elems = CHUNK_ELEMENTS // 100
        mc = McRun(500, 1)
        counts = [c for c, _ in chunk_generators(mc, elems)]
        assert len(counts) > 1
        assert sum(counts) == 500

    def test_chunk_streams_do_not_depend_on_earlier_chunks(self):
        mc = McRun(300, 9)
        gens = list(chunk_generators(mc, CHUNK_ELEMENTS // 4))
        assert len(gens) > 2
        # regenerate only the third chunk and compare
        _, rng_again = list(chunk_generators(mc, CHUNK_ELEMENTS // 4))[2]
        a = gens[2][1].standard_normal(5)
        b = rng_again.standard_normal(5)
        assert np.array_equal(a, b)

    def test_substream_differs_from_chunk_stream(self):
        a = substream(7, 1).standard_normal(4)
        b = next(iter(chunk_generators(McRun(10, 7), 1)))[1].standard_normal(4)
        assert not np.array_equal(a, b)


class TestSlabs:
    """draw_reduced's slabs are the chunks' draws, bit for bit.  A slab is
    the draws of one block, which holds half of ``SLAB_ELEMENTS`` (the pass
    draws the next block into a second buffer while one is reduced)."""

    @staticmethod
    def slabs(mc, shape, reduce=lambda z: z, row=None):
        slabs = []

        def keep(z):
            slabs.append(z)
            return reduce(z)

        return slabs, draw_reduced(mc, shape, keep, shape if row is None else row)

    @staticmethod
    def chunk_draws(mc, shape):
        return np.concatenate([rng.standard_normal((count, *shape))
                               for count, rng in chunk_generators(mc, math.prod(shape))])

    @pytest.mark.parametrize("slab,shape,samples", [
        (1 << 10, (2, 3, 4), 1_000),  # 24 per draw: 21 per slab, 170 per chunk
        (1 << 10, (3, 2, 7), 500),    # 42 per draw: 12 per slab, 97 per chunk
        (1 << 4, (2, 3, 4), 400),     # a draw of 24 normals is larger than a block
    ])
    def test_slabs_equal_whole_chunks(self, monkeypatch, slab, shape, samples):
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 12)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", slab)
        mc = McRun(samples, 17)
        elems = math.prod(shape)
        counts = [count for count, _ in chunk_generators(mc, elems)]
        assert len(counts) > 1
        per_slab = max(1, slab // 2 // elems)
        # Slabs never straddle a chunk: each chunk ends in its own remainder.
        expected = [min(per_slab, count - start)
                    for count in counts for start in range(0, count, per_slab)]
        slabs, whole = self.slabs(mc, shape)
        assert all(z.size <= max(slab // 2, elems) for z in slabs)
        assert [len(z) for z in slabs] == expected
        assert np.array_equal(whole, self.chunk_draws(mc, shape))

    def test_remainder_slab_at_full_size(self):
        shape = (2, 3, 4)
        per_slab = SLAB_ELEMENTS // 2 // 24
        mc = McRun(2 * per_slab + 5, 9)
        assert len(list(chunk_generators(mc, 24))) == 1
        slabs, whole = self.slabs(mc, shape)
        assert [len(z) for z in slabs] == [per_slab, per_slab, 5]
        assert np.array_equal(whole, self.chunk_draws(mc, shape))

    def test_draws_larger_than_a_slab_come_one_at_a_time(self):
        shape = (SLAB_ELEMENTS + 1,)
        mc = McRun(3, 2)
        slabs, heads = self.slabs(mc, shape, lambda z: z[:, :4], (4,))
        assert [z.shape for z in slabs] == [(1, *shape)] * 3
        assert np.array_equal(heads, self.chunk_draws(mc, shape)[:, :4])


class TestSharedPass:
    """draw_shared gives each request the bytes draw_reduced gives it alone."""

    @staticmethod
    def row_sums(z):
        return z.sum(axis=1)

    @staticmethod
    def whole(z):
        return z  # a view of the block, copied into the result before reuse

    @classmethod
    def request(cls, elems, summed):
        """The request of a draw of ``elems`` normals, summed or kept whole."""
        return ((elems,), cls.row_sums, ()) if summed else ((elems,), cls.whole, (elems,))

    # Up to 400 normals per draw against 4096 per chunk and 512 per slab:
    # up to 30 chunks, draws larger than a slab, and draws straddling blocks.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate, Phase.shrink),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(1, 400), st.booleans()), min_size=1, max_size=5),
           st.integers(1, 300), st.integers(0, 2**64 - 1))
    def test_each_request_equals_its_own_draw(self, monkeypatch, draws, samples, seed):
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 12)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 9)
        mc = McRun(samples, seed)
        requests = [self.request(elems, summed) for elems, summed in draws]
        shared = draw_shared(mc, requests)
        for (shape, reduce, row), result in zip(requests, shared):
            alone = draw_reduced(mc, shape, reduce, row)
            assert result.dtype == alone.dtype and result.shape == alone.shape
            assert result.tobytes() == alone.tobytes()
            # And both are the reduction of the chunks' whole draws.
            assert alone.tobytes() == reduce(TestSlabs.chunk_draws(mc, shape)).tobytes()

    def test_each_chunk_stream_is_drawn_once(self, monkeypatch):
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 12)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 9)
        calls = record_draws(monkeypatch)
        mc = McRun(200, 5)
        draw_shared(mc, [self.request(3, False), self.request(40, False),
                         self.request(7, False)])
        # The widest draw's layout has the most chunks; each is drawn once.
        assert calls == [40]
        assert draw_shared(mc, []) == []
        assert calls == [40]  # no requests, no draw

    def test_an_array_over_the_limit_is_refused_before_it_is_drawn(self, monkeypatch):
        calls = record_draws(monkeypatch)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 100)
        monkeypatch.setattr(streams, "MAX_DRAW_BYTES", 8 * 999)
        mc = McRun(1_000, 7)
        # A block of one 1,000-normal draw, and a result of 1,000 values
        # after blocks of 100 normals.
        for elems, summed in ((1_000, True), (1, False)):
            with pytest.raises(MemoryError, match=(
                    rf"^not enough memory to draw 1000 samples of \({elems},\) normals: "
                    r"an array of 8000 bytes is over the limit of 7992 \(MAX_DRAW_BYTES\)$")):
                draw_reduced(mc, *self.request(elems, summed))
        # Both are refused before the first chunk.
        assert calls == []
        # At the limit itself: a block of 999 normals and 999 values.
        assert draw_reduced(McRun(999, 7), *self.request(999, True)).shape == (999,)


class TestPipelinedPass:
    """draw_shared's pass shares its blocks' reductions and its consumers
    with helper threads; what each request gets must not tell, and no
    helper may outlive the pass."""

    @pytest.fixture
    def small_chunks_fast_switching(self, monkeypatch):
        # Many chunks and blocks at test-sized counts, and threads that
        # switch far more often than by default.
        monkeypatch.setattr(streams, "CHUNK_ELEMENTS", 1 << 12)
        monkeypatch.setattr(streams, "SLAB_ELEMENTS", 1 << 9)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    # Up to 400 normals per draw against 4096 per chunk and 256 per block:
    # many chunks and blocks, draws larger than a block, and draws that
    # straddle block edges.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate, Phase.shrink),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(1, 400), st.booleans()), min_size=1, max_size=6),
           st.integers(1, 300), st.integers(0, 2**64 - 1))
    def test_each_request_is_handed_over_once(
        self, monkeypatch, small_chunks_fast_switching, draws, samples, seed
    ):
        mc = McRun(samples, seed)
        requests = [TestSharedPass.request(elems, summed) for elems, summed in draws]
        alone = [draw_reduced(mc, *request) for request in requests]
        before = threading.active_count()
        for helpers in (0, 1, 2):
            monkeypatch.setattr(streams, "_helpers", lambda: helpers)
            handed = []
            assert draw_shared(mc, requests, lambda i, result: handed.append((i, result))) == []
            assert sorted(i for i, _ in handed) == list(range(len(requests)))
            for i, result in handed:
                assert result.dtype == alone[i].dtype and result.shape == alone[i].shape
                assert result.tobytes() == alone[i].tobytes()
            assert threading.active_count() == before

    def test_consecutive_passes_hand_over_the_same_bytes(self, monkeypatch):
        mc = McRun(5_000, 11)
        # 1, 40 and 7 values per sample.
        requests = [TestSharedPass.request(3, True), TestSharedPass.request(40, False),
                    TestSharedPass.request(7, False)]
        alone = [draw_reduced(mc, *request) for request in requests]
        passes = []
        draw_pass = streams._draw_pass

        def recording(mc, requests, layout, consume):
            passes.append([shape for shape, _, _ in requests])
            return draw_pass(mc, requests, layout, consume)

        monkeypatch.setattr(streams, "_draw_pass", recording)
        # 41 values per sample fit in a pass: the first two requests, then
        # the third alone.
        monkeypatch.setattr(streams, "MAX_PASS_BYTES", 8 * mc.samples * 41)
        handed = {}
        assert draw_shared(mc, requests, handed.__setitem__) == []
        assert passes == [[(3,), (40,)], [(7,)]]
        assert [handed[i].tobytes() for i in range(3)] == [a.tobytes() for a in alone]
        # A request over the budget gets a pass alone.
        passes.clear()
        monkeypatch.setattr(streams, "MAX_PASS_BYTES", 8 * mc.samples * 5)
        assert [a.tobytes() for a in draw_shared(mc, requests)] == [a.tobytes() for a in alone]
        assert passes == [[(3,)], [(40,)], [(7,)]]

    def test_a_later_pass_is_refused_before_the_first_draws(self, monkeypatch):
        # Two passes of 1 and 40 values per sample; the second's result is
        # over the array limit, and nothing is drawn.
        calls = record_draws(monkeypatch)
        mc = McRun(1_000, 7)
        monkeypatch.setattr(streams, "MAX_PASS_BYTES", 8 * mc.samples * 5)
        monkeypatch.setattr(streams, "MAX_DRAW_BYTES", 8 * mc.samples * 39)
        with pytest.raises(MemoryError, match=(
                r"^not enough memory to draw 1000 samples of \(40,\) normals: "
                r"an array of 320000 bytes is over the limit of 312000 \(MAX_DRAW_BYTES\)$")):
            draw_shared(mc, [TestSharedPass.request(3, True), TestSharedPass.request(40, False)],
                        lambda i, result: pytest.fail("a result was handed over"))
        assert calls == []

    @pytest.mark.parametrize("helpers", [0, 1])
    def test_a_reduction_of_another_row_is_refused(self, monkeypatch, helpers):
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        mc = McRun(100, 3)
        with pytest.raises(ValueError, match=(
                r"^a sample of shape \(100, 6\) was given where one of shape \(100, 5\) "
                r"is drawn$")):
            draw_shared(mc, [TestSharedPass.request(2, True),
                             ((6,), TestSharedPass.whole, (5,))])

    @pytest.mark.parametrize("helpers", [1, 2])
    def test_a_failure_on_a_helper_reaches_the_caller(self, monkeypatch, helpers):
        # Reductions on the calling thread wait until a helper has failed
        # one, so the error surely comes from a helper.
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        caller, failed = threading.get_ident(), threading.Event()

        def reduce(z):
            if threading.get_ident() == caller:
                assert failed.wait(timeout=60)
            else:
                failed.set()
                streams._check_size((1 << 40,))  # the named MemoryError
            return z.sum(axis=1)

        before = threading.active_count()
        with pytest.raises(MemoryError, match=(
                r"^not enough memory to draw 2000 samples of \((100|90),\) normals: an array "
                rf"of {8 << 40} bytes is over the limit of {streams.MAX_DRAW_BYTES} "
                r"\(MAX_DRAW_BYTES\)$")):
            draw_shared(McRun(2_000, 5), [((100,), reduce, ()), ((90,), reduce, ())])
        assert failed.is_set()
        assert threading.active_count() == before

    @pytest.mark.parametrize("helpers", [0, 1, 2])
    def test_a_consumer_that_stops_early_stops_the_pass(self, monkeypatch, helpers):
        # The first result handed over stops the pass: drawing stops, the
        # helpers are joined, and the caller gets the consumer's exception.
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        calls = []

        def counting(mc, elems_per_draw):
            for chunk in chunk_generators(mc, elems_per_draw):
                calls.append(chunk[0])
                yield chunk

        monkeypatch.setattr(streams, "chunk_generators", counting)

        class Stop(Exception):
            pass

        def consume(i, result):
            raise Stop(i)

        before = threading.active_count()
        mc = McRun(1_000_000, 8)
        with pytest.raises(Stop) as stopped:
            draw_shared(mc, [TestSharedPass.request(2, True), TestSharedPass.request(12, True)],
                        consume)
        # The narrower request is whole first; its chunk 0 is also the
        # wider's, which spans chunks the pass never reaches.
        assert stopped.value.args == (0,)
        assert len(calls) < len(list(chunk_generators(mc, 12)))
        assert threading.active_count() == before

    @pytest.mark.parametrize("helpers", [0, 1, 2])
    def test_a_failed_draw_stops_the_pass(self, monkeypatch, helpers):
        # The second block's draw fails while the first block's reductions
        # are queued, one of them completing the narrower request: the
        # caller gets the generator's error, and no consumer runs after.
        monkeypatch.setattr(streams, "_helpers", lambda: helpers)
        blocks = []

        class Broken(Exception):
            pass

        class Failing:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                blocks.append(len(out))
                if len(blocks) == 2:
                    raise Broken
                return self.rng.standard_normal(out=out)

        def failing(mc, elems_per_draw):
            for count, rng in chunk_generators(mc, elems_per_draw):
                yield count, Failing(rng)

        monkeypatch.setattr(streams, "chunk_generators", failing)

        def slow(z):
            time.sleep(0.02)  # still reducing when the draw fails
            return z.sum(axis=1)

        returned, late = threading.Event(), []
        before = threading.active_count()
        # 2,000 and 400,000 normals: the first fits in one block, the
        # second takes several.
        with pytest.raises(Broken):
            draw_shared(McRun(1_000, 9), [((2,), slow, ()), ((400,), slow, ())],
                        lambda i, result: late.append(returned.is_set()))
        returned.set()
        assert len(blocks) == 2
        assert threading.active_count() == before
        time.sleep(0.1)
        assert True not in late


class TestSlabMemory:
    """A sampler holds one slab of normals, or one whole draw per buffer for
    a draw wider than half a slab, and its reductions, never a whole chunk,
    besides its result: numpy reports its buffers to tracemalloc."""

    @staticmethod
    def bound(results):
        """Bytes: two slabs of float64 normals, plus two float64 arrays of
        the estimator's ``results`` values (the reduced slabs and their
        concatenation, or a result and the array computed from it)."""
        return 8 * (2 * SLAB_ELEMENTS + 2 * results)

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_scheduled_estimator(self):
        # 384 normals per draw: two chunks of 32 MiB each at the full size.
        mc = McRun(20_000, 3)
        assert 20_000 * 384 > CHUNK_ELEMENTS
        peak = self.traced_peak(lambda: mimo_scheduled_ergodic(2, 6, 16, LinkParams(3.0), mc))
        assert peak < self.bound(mc.samples)

    def test_oracle(self):
        # 20 normals per draw: two chunks of 32 MiB each at the full size.
        mc = McRun(400_000, 3)
        assert 400_000 * 20 > CHUNK_ELEMENTS
        peak = self.traced_peak(
            lambda: empirical_ergodic(SelectionConfig(2, 5), LinkParams(3.0), mc))
        assert peak < self.bound(mc.samples)

    def test_draw_reduced(self):
        # 384 normals per draw, reduced to one number each: two chunks.
        mc = McRun(20_000, 4)
        peak = self.traced_peak(lambda: draw_reduced(mc, (384,), lambda z: z.sum(axis=1), ()))
        assert peak < self.bound(mc.samples)

    def test_two_samplers_on_two_threads(self):
        # The oracle's 20 normals per draw beside a (3, 4) MIMO point's 24,
        # each over two chunks or more, and each with 600,000 result values
        # (the MIMO point keeps three coefficients per channel).
        oracle_mc, mimo_mc = McRun(600_000, 3), McRun(200_000, 5)
        assert 200_000 * 24 > CHUNK_ELEMENTS
        results = []

        def both():
            thread = threading.Thread(target=lambda: results.append(
                mimo_ergodic(3, 4, LinkParams(1.0), mimo_mc)))
            thread.start()
            results.append(
                empirical_ergodic(SelectionConfig(2, 5), LinkParams(3.0), oracle_mc))
            thread.join(timeout=60)
            assert not thread.is_alive()

        peak = self.traced_peak(both)
        assert len(results) == 2
        assert peak < 2 * self.bound(600_000)

    def test_multi_curve_job(self):
        # The widest curves of the bench scheduled grid: the K-user sets of
        # (2, 6), (2, 5) and (2, 4), 16 users, and their single-user sets
        # (two values per sample), all drawn in one pass and kept together.
        args = cli.build_parser().parse_args(
            ["mimo", "--n", "2", "--m", "6,5,4", "--rho-db", "5", "--users", "16",
             "--samples", "20000", "--seed", "3"])
        mc = McRun(args.samples, args.seed)
        curves = [(n, m, links) for n, m, _, _, links in cli._grid(args, configs=False)]
        kept_results = mc.samples * (len(curves) + 2 * len(curves))
        assert 8 * kept_results <= streams.MAX_PASS_BYTES
        peak = self.traced_peak(lambda: mimo.grid_estimates(curves, mc, None, 16))
        assert peak < self.bound(kept_results)

    def test_a_draw_wider_than_half_a_slab_fills_a_block(self):
        # 4,000 users of (2, 3, 3) channels: 72,000 normals per draw, alone
        # and beside the curve's single-user set of 18.
        mc = McRun(1000, 3)
        wide = mimo._user_sets(3, 3, 4000, (LinkParams(1.0),))
        assert 4000 * 18 > SLAB_ELEMENTS // 2
        for requests in ([wide], [wide, mimo._channels(3, 3)]):
            sizes, block, head, arrays = streams._layout(mc, requests)
            assert (sizes[0], block, head) == (72_000, 72_000, 0)
            assert arrays[:2] == [((4000, 2, 3, 3), (72_000,))] * 2

    def test_a_wide_draw_holds_two_draws_and_one_reduction(self):
        # One request's reductions run one at a time, so the pass holds its
        # two buffers, one reduction's own peak on the draws of a buffer, its
        # result, and 64 KiB for the pass's Python objects.  The same holds
        # for narrow draws over two chunks: 384 normals summed, and the
        # oracle's 20.
        for mc, request in [
            (McRun(20, 3), mimo._user_sets(3, 3, 4000, (LinkParams(1.0),))),
            (McRun(20_000, 4), ((384,), lambda z: z.sum(axis=1), ())),
            (McRun(400_000, 3), _gains(SelectionConfig(2, 5))),
        ]:
            shape, reduce, row = request
            _, block, head, _ = streams._layout(mc, [request])
            buffer = np.zeros(head + block)
            reduction = self.traced_peak(lambda: reduce(buffer[head:].reshape(-1, *shape)))
            bound = 8 * (2 * (head + block) + mc.samples * math.prod(row)) + reduction + (64 << 10)
            draw_reduced(mc, *request)  # first-call allocations are not the pass's
            assert self.traced_peak(lambda: draw_reduced(mc, *request)) < bound, shape

    def test_key_change_releases_the_kept_sample_first(self):
        # Holding the first sample while the second is drawn and reduced
        # would take three arrays of results, over the bound.
        mc = McRun(400_000, 3)

        def two_samples():
            for cfg in (SelectionConfig(2, 5), SelectionConfig(1, 5)):
                empirical_ergodic(cfg, LinkParams(3.0), mc)

        assert self.traced_peak(two_samples) < self.bound(mc.samples)


class TestReportedErrors:
    def test_mimo_standard_error_formula(self):
        mc = McRun(5_000, 21)
        link = LinkParams(1.0)
        res = mimo_ergodic(2, 2, link, mc)
        rates = _det_rates(draw_reduced(mc, (2, 2, 2), _gram_invariants, (2,)), link.rho / 2)
        assert res.value == float(rates.mean())
        assert res.error_estimate == float(rates.std(ddof=1) / math.sqrt(rates.size))

    def test_oracle_standard_error_formula(self):
        cfg = SelectionConfig(1, 3)
        mc = McRun(5_000, 22)
        link = LinkParams(2.0)
        res = empirical_ergodic(cfg, link, mc)
        rates = np.log1p(link.rho * _draws(cfg, mc)) / math.log(2.0)
        assert res.value == float(rates.mean())
        assert res.error_estimate == float(rates.std(ddof=1) / math.sqrt(rates.size))

    def test_summary_moments_match_draws(self):
        cfg = SelectionConfig(2, 5)
        mc = McRun(5_000, 23)
        s = sample_selection_gain(cfg, mc)
        draws = _draws(cfg, mc)
        assert s.mean == pytest.approx(float(draws.mean()), rel=1e-14)
        assert s.variance == pytest.approx(float(draws.var(ddof=1)), rel=1e-14)
