"""Deterministic Monte Carlo plumbing shared by the sampling modules.

Sample generation is split into fixed-size chunks, each driven by its own
child stream derived from ``(seed, chunk index)``.  The chunk layout depends
only on the sample count, so results are bit-identical no matter how chunks
are scheduled or parallelized.  Since a chunk's stream depends on nothing
else, every sampler with one ``(samples, seed)`` reads a prefix of the same
chunk streams, whatever its draw shape: the samplers of one run are
correlated (common random numbers), and sharing their draws is exact.

Every sampler draws through ``draw_shared``, the one chunk -> block ->
reduce pipeline: within a chunk it draws consecutive blocks of about half
``SLAB_ELEMENTS`` normals into two reused buffers, and writes each block's
reductions into the results.  Which draws a block holds, and their result
rows, follow from the chunk index and the stream position alone; the head of
a draw that straddles a block edge is carried from the previous block.  A
generator's stream does not depend on how its draws are split, so the blocks
hold the chunk's numbers bit for bit, while only the two buffers are alive
at a time: one slab of normals in all, or, for a draw wider than half a
slab, one whole draw each.  One call serves several (shape, reduce, row)
requests, drawing each chunk's stream once per pass; each request declares
the row of its result, so every array is sized before the first draw.  The
calling thread draws the next block while it and a helper thread reduce the
last one and hand whole results to the caller's consumer.  Nothing is kept
between calls: an estimator draws its own sample, or reads one a caller
passes it, such as a pass's result, which ``_check_sample`` checks for its
shape.
"""
from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["DEFAULT_SEED", "McRun"]

DEFAULT_SEED = 42

# Normal draws per chunk: fixes which generator draws which sample.
CHUNK_ELEMENTS = 1 << 22
# Normal draws per slab (1 MiB), the two buffers of a pass together unless
# a draw is wider than half a slab: bounds peak memory, not the results.
SLAB_ELEMENTS = 1 << 17
# Most bytes one array of a draw may take: its block of normals or a result.
# Memory is committed lazily, so a larger array would not fail up front but
# get the process killed while it is filled.
MAX_DRAW_BYTES = 1 << 31
# Most bytes of results one pass of ``draw_shared`` holds; more run as
# consecutive passes.
MAX_PASS_BYTES = 1 << 24


@dataclass(frozen=True)
class McRun:
    """Monte Carlo run configuration.

    Identical (samples, seed) and model parameters reproduce results
    bit-for-bit.
    """

    samples: int
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ValueError(f"samples must be a positive integer, got {self.samples!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def substream(seed: int, tag: int) -> np.random.Generator:
    """Independent generator for an auxiliary purpose (e.g. bootstrap)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))


def _per_chunk(elems_per_draw: int) -> int:
    """Draws per chunk: the layout every sampler of ``elems_per_draw``
    normals per draw shares."""
    return max(1, CHUNK_ELEMENTS // max(1, elems_per_draw))


def chunk_generators(
    mc: McRun, elems_per_draw: int
) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield (draw count, generator) pairs covering ``mc.samples`` draws.

    Each chunk's generator is keyed by (seed, chunk index) alone, so a
    chunk's output never depends on how many chunks ran before it.
    """
    per_chunk = _per_chunk(elems_per_draw)
    for index, start in enumerate(range(0, mc.samples, per_chunk)):
        seq = np.random.SeedSequence(entropy=mc.seed, spawn_key=(0, index))
        yield min(per_chunk, mc.samples - start), np.random.default_rng(seq)


def _check_size(shape: tuple[int, ...], dtype: np.dtype | type = float) -> None:
    """A ``MemoryError`` if an array of ``shape`` and ``dtype`` would take
    more than ``MAX_DRAW_BYTES``."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if size > MAX_DRAW_BYTES:
        raise MemoryError(
            f"an array of {size} bytes is over the limit of {MAX_DRAW_BYTES} (MAX_DRAW_BYTES)")


# One draw request: the shape of a draw, the reduction of a slab of draws,
# and the shape each draw reduces to, the trailing shape of a float64 result.
Request = tuple[tuple[int, ...], Callable[[np.ndarray], np.ndarray], tuple[int, ...]]
# Takes request i's result, ``consume(i, result)``, as soon as it is whole.
Consumer = Callable[[int, np.ndarray], None]


def _helpers() -> int:
    """Helper threads of a pass: one, or none when one CPU is usable."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(1, (cpus or 1) - 1)


def _naming(mc: McRun, shape: tuple[int, ...], call: Callable, arg: object):
    """``call(arg)``, its ``MemoryError`` raised again naming the draw of ``shape``."""
    try:
        return call(arg)
    except MemoryError as exc:
        raise MemoryError(f"not enough memory to draw {mc.samples} samples of {shape} "
                          f"normals: {exc}") from None


def _layout(mc: McRun, requests: Sequence[Request]) -> tuple:
    """The layout of one pass over ``requests``: normals per draw of each,
    normals per block (the largest one-request slab of half ``SLAB_ELEMENTS``,
    or chunk 0's longest prefix if shorter), room for the head of a draw that
    straddles a block edge, and its arrays as (draw shape, array shape), each
    refused past ``MAX_DRAW_BYTES`` with a ``MemoryError`` naming the draw."""
    sizes = [math.prod(shape) for shape, _, _ in requests]
    longest = max(min(_per_chunk(elems), mc.samples) * elems for elems in sizes)
    block = min(max(max(1, SLAB_ELEMENTS // 2 // elems) * elems for elems in sizes), longest)
    head = max((elems - 1 for elems in sizes if block % elems), default=0)
    widest = requests[sizes.index(max(sizes))][0]
    arrays = [(widest, (head + block,))] * 2
    arrays += [(shape, (mc.samples, *row)) for shape, _, row in requests]
    for shape, dims in arrays:
        _naming(mc, shape, _check_size, dims)
    return sizes, block, head, arrays


def _blocks(
    mc: McRun, sizes: list[int], block: int, head: int, buffers: Sequence[np.ndarray]
) -> Iterator[list[tuple[int, np.ndarray, int]]]:
    """Draw the chunk streams a block at a time, the two ``buffers`` taking
    turns, and yield each block's reductions: (request, view of its whole
    draws, first result row), one per request with draws in the block.

    Everything yielded follows from the chunk index and the stream position
    ``drawn``.  Before each block but a chunk's first go the last ``head``
    numbers of the previous block, so a draw across the edge is whole."""
    per_chunk = [_per_chunk(elems) for elems in sizes]
    buf, previous = buffers
    # The widest draw has the most chunks, as its chunks hold the fewest.
    for index, (_, rng) in enumerate(chunk_generators(mc, max(sizes))):
        ends = [max(0, min(per, mc.samples - index * per)) * elems
                for per, elems in zip(per_chunk, sizes)]
        for drawn in range(0, max(ends), block):
            if drawn:  # the block before, not a chunk's last, is full
                buf[:head] = previous[block : block + head]
            width = min(block, max(ends) - drawn)
            rng.standard_normal(out=buf[head : head + width])
            items = []
            for i, (per, elems, end) in enumerate(zip(per_chunk, sizes, ends)):
                first, stop = min(drawn, end) // elems, min(drawn + width, end) // elems
                if stop > first:
                    lo = head + first * elems - drawn
                    items.append((i, buf[lo : lo + (stop - first) * elems], index * per + first))
            yield items
            buf, previous = previous, buf


def draw_shared(
    mc: McRun, requests: Sequence[Request], consume: Consumer | None = None
) -> list[np.ndarray]:
    """``draw_reduced(mc, shape, reduce, row)`` of each (shape, reduce, row)
    request; with ``consume``, each result goes to ``consume(i, result)`` as
    soon as it is whole, is not kept, and the list returned is empty.

    The requests run in consecutive passes, each of as many in order as
    ``MAX_PASS_BYTES`` holds the results of (a request over it gets a pass
    alone), and every array of every pass is refused past ``MAX_DRAW_BYTES``
    before the first draw.  Chunk c of every request is a prefix of the one
    stream keyed by (seed, c), so a pass draws each chunk's stream once, up
    to the longest prefix it needs, a block at a time, and the results do
    not depend on the split.  The calling thread draws the next block while
    the last one is reduced; the head of a draw that straddles a block edge
    is copied before the next block, so the draw is reduced whole.

    A block's reductions, one per request with draws in it, go to a queue
    that the calling thread and, with two requests or more, ``_helpers()``
    helper threads share; the reduction that completes a result hands it to
    ``consume`` on its own thread.  The next block is queued once none of
    the last one's is busy, so a request's reductions run in stream order.
    No thread outlives the call.  A failed block stops the pass and raises
    the exception of its first failing request, whatever the threads.  A
    reduction whose rows are not of shape ``row`` is a ``ValueError``; a
    ``MemoryError`` of a draw is raised again naming the draw: the widest
    request's for the buffers, the request's own for a reduction or result.
    """
    if consume is None:
        collected: list[np.ndarray] = [np.empty(0)] * len(requests)
        draw_shared(mc, requests, collected.__setitem__)
        return collected
    passes: list[list[int]] = []
    held = 0
    for i, (_, _, row) in enumerate(requests):
        size = 8 * mc.samples * math.prod(row)
        if not passes or held + size > MAX_PASS_BYTES:
            passes.append([])
            held = 0
        passes[-1].append(i)
        held += size
    layouts = [_layout(mc, [requests[i] for i in indices]) for indices in passes]
    for indices, layout in zip(passes, layouts):
        _draw_pass(mc, [requests[i] for i in indices], layout,
                   lambda k, result, indices=indices: consume(indices[k], result))
    return []


def _draw_pass(mc: McRun, requests: Sequence[Request], layout: tuple, consume: Consumer) -> None:
    """One pass of ``draw_shared`` over ``requests``, laid out as ``layout``."""
    sizes, block, head, arrays = layout
    first, second, *results = [_naming(mc, shape, np.empty, dims) for shape, dims in arrays]
    cond = threading.Condition()
    queue: deque[tuple[int, np.ndarray, int]] = deque()
    busy = 0  # unfinished reductions of the last block queued
    failures: list[tuple[int, BaseException]] = []
    closed = False

    def reduction(i: int, view: np.ndarray, at: int) -> None:
        nonlocal busy
        shape, reduce, row = requests[i]
        try:
            reduced = _naming(mc, shape, reduce, view.reshape(-1, *shape))
            _check_sample(reduced, (len(view) // sizes[i], *row))
            results[i][at : at + len(reduced)] = reduced
            if at + len(reduced) == mc.samples:
                result, results[i] = results[i], None
                consume(i, result)
        except BaseException as exc:  # the calling thread raises it again
            failures.append((i, exc))
        with cond:
            busy -= 1
            cond.notify_all()

    def settle() -> None:
        """Reduce on the calling thread too until the last block is done."""
        while True:
            with cond:
                while busy and not queue:
                    cond.wait()
                if not busy:
                    return
                item = queue.popleft()
            reduction(*item)

    def helper() -> None:
        while True:
            with cond:
                while not queue and not closed:
                    cond.wait()
                if closed:
                    return
                item = queue.popleft()
            reduction(*item)

    # One request's reductions run one at a time: a helper could only
    # overlap them with the draws, and its hand-offs of the interpreter lock
    # cost more than that.
    threads = [threading.Thread(target=helper, daemon=True)
               for _ in range(_helpers() if len(requests) > 1 else 0)]
    for thread in threads:
        thread.start()
    try:
        # The next block is drawn while the last one is reduced.
        for items in _blocks(mc, sizes, block, head, (first, second)):
            settle()
            if failures:
                break
            with cond:
                queue.extend(items)
                busy = len(items)
                cond.notify_all()
        settle()
    finally:
        with cond:
            closed = True
            queue.clear()
            cond.notify_all()
        for thread in threads:
            thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def draw_reduced(
    mc: McRun, shape: tuple[int, ...], reduce: Callable[[np.ndarray], np.ndarray],
    row: tuple[int, ...],
) -> np.ndarray:
    """``reduce`` applied to ``mc.samples`` draws of ``shape`` standard
    normals each, concatenated along the first axis: a float64 array of
    shape ``(mc.samples, *row)``; ``draw_shared`` with one request.

    The draws come chunk by chunk from ``chunk_generators`` and are reduced
    in consecutive slabs of at most half ``SLAB_ELEMENTS`` normals (one
    draw, if a draw is larger), so the result equals ``reduce`` of the whole
    draw bit for bit wherever ``reduce`` treats draws independently.  A
    slab is a view of a buffer, copied into the result before its reuse.
    """
    return draw_shared(mc, [(shape, reduce, row)])[0]


def _check_sample(sample: np.ndarray, shape: tuple[int, ...]) -> None:
    """A ``ValueError`` unless a given sample has the ``shape`` drawn."""
    if sample.shape != shape:
        raise ValueError(f"a sample of shape {sample.shape} was given where one of "
                         f"shape {shape} is drawn")
