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
reductions into the results, each allocated once.  A generator's stream
does not depend on how its draws are split, so the blocks hold the chunk's
numbers bit for bit, while only the two buffers, one slab of normals in
all, not a whole chunk, are alive at a time; that bound is what keeps
concurrent samplers small.  ``draw_shared`` serves several (shape, reduce)
requests from one pass, drawing each chunk's stream once, as far as the
longest request needs, and can hand each result to a consumer as soon as
it is whole instead of keeping it; ``draw_reduced`` is its one-request
case.  A pass of several requests is pipelined: the calling thread draws
the next block while it and a helper thread reduce the last one and run
the consumers.  ``draw_passes`` splits requests whose results would take
more than ``MAX_PASS_BYTES`` into consecutive passes.  No array a pass
allocates may exceed ``MAX_DRAW_BYTES``.  Nothing is kept between
calls: an estimator draws its own sample, or reads one a caller passes it,
such as a pass's result, which ``_check_sample`` checks for its shape.
"""
from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["DEFAULT_SEED", "McRun"]

DEFAULT_SEED = 42

# Normal draws per chunk: fixes which generator draws which sample.
CHUNK_ELEMENTS = 1 << 22
# Normal draws per slab (1 MiB), the two buffers of a pass together:
# bounds peak memory, not the results.
SLAB_ELEMENTS = 1 << 17
# Most bytes one array of a draw may take: its block of normals or a result.
# Memory is committed lazily, so a larger array would not fail up front but
# get the process killed while it is filled.
MAX_DRAW_BYTES = 1 << 31
# Most bytes of results one pass of ``draw_passes`` holds; more run as
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


def _empty(shape: tuple[int, ...], dtype: np.dtype | type = float) -> np.ndarray:
    """``np.empty(shape, dtype)``, or a ``MemoryError`` past ``MAX_DRAW_BYTES``."""
    _check_size(shape, dtype)
    return np.empty(shape, dtype)


# One draw request: the shape of a draw and the reduction of a slab of draws.
Request = tuple[tuple[int, ...], Callable[[np.ndarray], np.ndarray]]
# Takes request i's result, ``consume(i, result)``, as soon as it is whole.
Consumer = Callable[[int, np.ndarray], None]


def _helpers() -> int:
    """Helper threads of a pass: one, or none when one CPU is usable."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(1, (cpus or 1) - 1)


def _named(mc: McRun, shape: tuple[int, ...], exc: MemoryError) -> MemoryError:
    return MemoryError(f"not enough memory to draw {mc.samples} samples of {shape} normals: {exc}")


def draw_shared(
    mc: McRun, requests: Sequence[Request], consume: Consumer | None = None
) -> list[np.ndarray]:
    """``draw_reduced(mc, shape, reduce)`` of each (shape, reduce) request,
    all from one pass over the chunk streams; with ``consume``, each result
    goes to ``consume(i, result)`` as soon as it is whole, is not kept, and
    the list returned is empty.

    Chunk c of every request is a prefix of the one stream keyed by
    (seed, c), so the pass draws each chunk's stream once, up to the longest
    prefix a request needs, a block at a time, and each request reduces the
    whole draws of its own prefix as they arrive.  A block holds the largest
    one-request slab of half ``SLAB_ELEMENTS``, or chunk 0's longest prefix
    if that is shorter, and two buffers take turns: the calling thread draws
    the next block into one while the block in the other is reduced, and
    queues its reductions once those of the last block are done.  The
    head of a draw that straddles a block edge is copied into room before
    the next block, so the draw is reduced whole with the draws after it.

    A block's reductions, one per request with draws in it, and the
    consumers of the results they complete go to a queue that the calling
    thread and, with two requests or more, ``_helpers()`` helper threads
    share; a request's reductions run one at a time, in stream order, and
    its result is allocated at the first.  No thread outlives the call.
    An exception raised on any thread stops the drawing; the work already
    queued still runs, and the exception of the earliest block, ties in
    request order, is raised, so which one does not depend on the threads.
    An array past ``MAX_DRAW_BYTES`` is refused before it is allocated, and
    a ``MemoryError`` of a draw is raised again naming the draw: the widest
    request's for the buffers, the request's own for a reduction or result.
    """
    if consume is None:
        collected: list[np.ndarray] = [np.empty(0)] * len(requests)
        draw_shared(mc, requests, collected.__setitem__)
        return collected
    if not requests:
        return []
    sizes = [math.prod(shape) for shape, _ in requests]
    per_chunk = [_per_chunk(elems) for elems in sizes]
    longest = max(min(per, mc.samples) * elems for per, elems in zip(per_chunk, sizes))
    block = min(max(max(1, SLAB_ELEMENTS // 2 // elems) * elems for elems in sizes), longest)
    # Room for the head of a draw that straddles a block edge.
    head = max((elems - 1 for elems in sizes if block % elems), default=0)
    widest = sizes.index(max(sizes))
    try:
        buffers = (_empty((head + block,)), _empty((head + block,)))
    except MemoryError as exc:
        raise _named(mc, requests[widest][0], exc) from None

    cond = threading.Condition()
    # Work items: (block, request) key, whether it is a reduction, the call.
    queue: deque[tuple[tuple[int, int], bool, Callable[[], None]]] = deque()
    pending = 0  # unfinished reductions of the last block queued
    outstanding = 0  # unfinished items of every kind
    results: list[np.ndarray | None] = [None] * len(requests)
    failures: list[tuple[tuple[int, int], BaseException]] = []
    closed = False

    def reduction(key: tuple[int, int], view: np.ndarray, row: int) -> None:
        nonlocal outstanding
        i = key[1]
        shape, reduce = requests[i]
        try:
            reduced = reduce(view.reshape(-1, *shape))
            if results[i] is None:
                results[i] = _empty((mc.samples, *reduced.shape[1:]), reduced.dtype)
        except MemoryError as exc:
            raise _named(mc, shape, exc) from None
        results[i][row : row + len(reduced)] = reduced
        if row + len(reduced) == mc.samples:
            with cond:
                queue.append((key, False, partial(hand_over, i)))
                outstanding += 1
                cond.notify()

    def hand_over(i: int) -> None:
        result, results[i] = results[i], None
        consume(i, result)

    def run(item: tuple[tuple[int, int], bool, Callable[[], None]]) -> None:
        nonlocal pending, outstanding
        key, reduces, call = item
        try:
            call()
        except BaseException as exc:  # the calling thread raises it again
            failures.append((key, exc))
        with cond:
            if reduces:
                pending -= 1
            outstanding -= 1
            cond.notify_all()

    def run_until(done: Callable[[], bool]) -> None:
        """Run queued work on the calling thread until ``done()``."""
        while True:
            with cond:
                while not done() and not queue:
                    cond.wait()
                if done():
                    return
                item = queue.popleft()
            run(item)

    def helper() -> None:
        while True:
            with cond:
                while not queue and not closed:
                    cond.wait()
                if closed:
                    return
                item = queue.popleft()
            run(item)

    # One request's reductions run one at a time: a helper could only
    # overlap them with the draws, and its hand-offs of the interpreter lock
    # cost more than that.
    threads = [threading.Thread(target=helper, daemon=True)
               for _ in range(_helpers() if len(requests) > 1 else 0)]
    for thread in threads:
        thread.start()
    try:
        rows = [0] * len(requests)  # draws of each request queued for reduction
        blocks = width = 0
        # The widest draw has the most chunks, as its chunks hold the fewest.
        for index, (_, rng) in enumerate(chunk_generators(mc, max(sizes))):
            ends = [max(0, min(per, mc.samples - index * per)) * elems
                    for per, elems in zip(per_chunk, sizes)]
            starts = [0] * len(requests)  # stream offset of each next draw
            drawn = 0
            while drawn < max(ends) and not failures:
                # Every request has queued its whole draws up to ``drawn``;
                # the tail left, under one draw of each, goes before the
                # block, in the buffer whose block is reduced already.
                tail = drawn - min((start for start, end in zip(starts, ends) if start < end),
                                   default=drawn)
                buf, previous = buffers[blocks % 2], buffers[1 - blocks % 2]
                buf[head - tail : head] = previous[head + width - tail : head + width]
                width = min(block, max(ends) - drawn)
                rng.standard_normal(out=buf[head : head + width])
                drawn += width
                items = []
                for i, (elems, end) in enumerate(zip(sizes, ends)):
                    stop = min(end, drawn) // elems * elems
                    if stop > starts[i]:
                        lo = head + starts[i] - (drawn - width)
                        view = buf[lo : lo + stop - starts[i]]
                        items.append(((blocks, i), True,
                                      partial(reduction, (blocks, i), view, rows[i])))
                        rows[i] += (stop - starts[i]) // elems
                        starts[i] = stop
                # The last block's reductions finish before this one's start.
                run_until(lambda: pending == 0)
                with cond:
                    queue.extend(items)
                    pending = len(items)
                    outstanding += len(items)
                    cond.notify_all()
                blocks += 1
            if failures:
                break
        run_until(lambda: outstanding == 0)
    finally:
        with cond:
            closed = True
            queue.clear()
            cond.notify_all()
        for thread in threads:
            thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return []


def draw_passes(
    mc: McRun, requests: Sequence[Request], values: Sequence[int], consume: Consumer
) -> None:
    """``draw_shared(mc, requests, consume)``, in consecutive passes when
    the results, ``values[i]`` float64 values per sample for request i,
    would take more than ``MAX_PASS_BYTES`` together.

    The passes take the requests in order, each as many as fit (a request
    over the limit gets a pass alone).  Every pass reads the same chunk
    streams, so the results do not depend on the split.
    """
    passes: list[list[int]] = [[]]
    held = 0
    for i, width in enumerate(values):
        size = 8 * mc.samples * width
        if passes[-1] and held + size > MAX_PASS_BYTES:
            passes.append([])
            held = 0
        passes[-1].append(i)
        held += size
    for indices in passes:
        draw_shared(mc, [requests[i] for i in indices],
                    lambda k, result, indices=indices: consume(indices[k], result))


def draw_reduced(
    mc: McRun, shape: tuple[int, ...], reduce: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``reduce`` applied to ``mc.samples`` draws of ``shape`` standard
    normals each, concatenated along the first axis.

    The draws come chunk by chunk from ``chunk_generators`` and are reduced
    in consecutive slabs of at most half ``SLAB_ELEMENTS`` normals (one
    draw, if a draw is larger), so the result equals ``reduce`` of the whole
    draw bit for bit wherever ``reduce`` treats draws independently.  The
    slabs are views of two buffers that take turns; a slab's reduction is
    copied into the result before its buffer is drawn into again.  This is
    ``draw_shared`` with one request.
    """
    return draw_shared(mc, [(shape, reduce)])[0]


def _check_sample(sample: np.ndarray, shape: tuple[int, ...]) -> None:
    """A ``ValueError`` unless a given sample has the ``shape`` drawn."""
    if sample.shape != shape:
        raise ValueError(f"a sample of shape {sample.shape} was given where one of "
                         f"shape {shape} is drawn")
