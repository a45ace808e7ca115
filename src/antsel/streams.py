"""Deterministic Monte Carlo plumbing shared by the sampling modules.

Sample generation is split into fixed-size chunks, each driven by its own
child stream derived from ``(seed, chunk index)``.  The chunk layout depends
only on the sample count, so results are bit-identical no matter how chunks
are scheduled or parallelized.  Since a chunk's stream depends on nothing
else, every sampler with one ``(samples, seed)`` reads a prefix of the same
chunk streams, whatever its draw shape: the samplers of one run are
correlated (common random numbers), and sharing their draws is exact.

Every sampler draws through ``draw_shared``, the one chunk -> slab ->
reduce pipeline: within a chunk it draws and reduces consecutive slabs of
about ``SLAB_ELEMENTS`` normals into one reused buffer, and writes each
slab's reduction into the result, which is allocated once.  A generator's
stream does not depend on how its draws are split, so the slabs hold the
chunk's numbers bit for bit, while only one slab of normals, not a whole
chunk, is alive at a time; that bound is what keeps concurrent samplers
small.  ``draw_shared`` serves several (shape, reduce) requests from one
pass, drawing each chunk's stream once, as far as the longest request
needs; ``draw_reduced`` is its one-request case.  No array it allocates
may exceed ``MAX_DRAW_BYTES``.  Inside a ``sharing()`` block, ``kept``
keeps the thread's last sample, read-only, for the next estimator until
another is drawn or the block ends; outside a block nothing is kept.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["DEFAULT_SEED", "McRun", "sharing"]

DEFAULT_SEED = 42

# Normal draws per chunk: fixes which generator draws which sample.
CHUNK_ELEMENTS = 1 << 22
# Normal draws per slab (1 MiB): bounds peak memory, not the results.
SLAB_ELEMENTS = 1 << 17
# Most bytes one array of a draw may take: its block of normals or a result.
# Memory is committed lazily, so a larger array would not fail up front but
# get the process killed while it is filled.
MAX_DRAW_BYTES = 1 << 31

# Inside a sharing() block, .slot holds the thread's last kept (key, sample).
_KEPT = threading.local()


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


def _empty(shape: tuple[int, ...], dtype: np.dtype | type = float) -> np.ndarray:
    """``np.empty(shape, dtype)``, or a ``MemoryError`` past ``MAX_DRAW_BYTES``."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if size > MAX_DRAW_BYTES:
        raise MemoryError(
            f"an array of {size} bytes is over the limit of {MAX_DRAW_BYTES} (MAX_DRAW_BYTES)")
    return np.empty(shape, dtype)


# One draw request: the shape of a draw and the reduction of a slab of draws.
Request = tuple[tuple[int, ...], Callable[[np.ndarray], np.ndarray]]


def draw_shared(mc: McRun, requests: Sequence[Request]) -> list[np.ndarray]:
    """``draw_reduced(mc, shape, reduce)`` of each (shape, reduce) request,
    all from one pass over the chunk streams.

    Chunk c of every request is a prefix of the one stream keyed by
    (seed, c), so the pass draws each chunk's stream once, up to the longest
    prefix a request needs, a block at a time into one reused buffer, and
    each request reduces the whole draws of its own prefix as they arrive.
    A block holds the largest one-request slab, or chunk 0's longest prefix
    if that is shorter.  The head of a draw that straddles a block edge is
    moved into room before the next block, so the draw is reduced whole
    with the draws after it and no block is copied.  Each request's result
    is allocated at its first reduced slab and filled in order.

    No requests draw nothing.  An array past ``MAX_DRAW_BYTES`` is refused
    before it is allocated, and that ``MemoryError``, or one raised on the
    way, is raised again with the draw named.
    """
    if not requests:
        return []
    sizes = [math.prod(shape) for shape, _ in requests]
    per_chunk = [_per_chunk(elems) for elems in sizes]
    try:
        block = min(
            max(max(1, SLAB_ELEMENTS // elems) * elems for elems in sizes),
            max(min(per, mc.samples) * elems for per, elems in zip(per_chunk, sizes)))
        # Room for the head of a draw that straddles a block edge.
        head = max((elems - 1 for elems in sizes if block % elems), default=0)
        buf = _empty((head + block,))
        results: list[np.ndarray] = [np.empty(0)] * len(requests)
        filled = [0] * len(requests)
        # The widest draw has the most chunks, as its chunks hold the fewest.
        for index, (_, rng) in enumerate(chunk_generators(mc, max(sizes))):
            ends = [max(0, min(per, mc.samples - index * per)) * elems
                    for per, elems in zip(per_chunk, sizes)]
            starts = [0] * len(requests)  # stream offset of each next draw
            drawn = width = 0
            while drawn < max(ends):
                # Every request has reduced its whole draws up to ``drawn``;
                # the tail left, under one draw of each, goes before the block.
                tail = drawn - min((start for start, end in zip(starts, ends) if start < end),
                                   default=drawn)
                buf[head - tail : head] = buf[head + width - tail : head + width]
                width = min(block, max(ends) - drawn)
                rng.standard_normal(out=buf[head : head + width])
                drawn += width
                for i, ((shape, reduce), elems, end) in enumerate(zip(requests, sizes, ends)):
                    stop = min(end, drawn) // elems * elems
                    if stop <= starts[i]:
                        continue
                    lo = head + starts[i] - (drawn - width)
                    reduced = reduce(buf[lo : lo + stop - starts[i]].reshape(-1, *shape))
                    if not filled[i]:
                        results[i] = _empty((mc.samples, *reduced.shape[1:]), reduced.dtype)
                    results[i][filled[i] : filled[i] + len(reduced)] = reduced
                    filled[i] += len(reduced)
                    starts[i] = stop
    except MemoryError as exc:
        shapes = " and ".join(str(shape) for shape, _ in requests)
        raise MemoryError(
            f"not enough memory to draw {mc.samples} samples of {shapes} normals: {exc}"
        ) from None
    return results


def draw_reduced(
    mc: McRun, shape: tuple[int, ...], reduce: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``reduce`` applied to ``mc.samples`` draws of ``shape`` standard
    normals each, concatenated along the first axis.

    The draws come chunk by chunk from ``chunk_generators`` and are reduced
    in consecutive slabs of at most ``SLAB_ELEMENTS`` normals (one draw, if a
    draw is larger), so the result equals ``reduce`` of the whole draw bit
    for bit wherever ``reduce`` treats draws independently.  The slabs are
    views of one buffer that each next slab overwrites; a slab's reduction
    is copied into the result before then.  This is ``draw_shared`` with
    one request.
    """
    return draw_shared(mc, [(shape, reduce)])[0]


@contextmanager
def sharing() -> Iterator[None]:
    """Keep the thread's ``kept`` sample until the outermost block exits."""
    if hasattr(_KEPT, "slot"):
        yield
        return
    _KEPT.slot = []
    try:
        yield
    finally:
        del _KEPT.slot


def kept(sampler: Callable[..., np.ndarray], *args: object) -> np.ndarray:
    """``sampler(*args)``, read-only; inside a ``sharing()`` block, the one
    kept for the same sampler, arguments and ``CHUNK_ELEMENTS`` if any."""
    key = (sampler, args, CHUNK_ELEMENTS)
    slot = getattr(_KEPT, "slot", [])
    if not slot or slot[0] != key:
        slot.clear()  # the kept sample is released before the next is drawn
        slot[:] = key, sampler(*args)
        slot[1].flags.writeable = False
    return slot[1]
