"""Deterministic Monte Carlo plumbing shared by the sampling modules.

Sample generation is split into fixed-size chunks, each driven by its own
child stream derived from ``(seed, chunk index)``.  The chunk layout depends
only on the sample count, so results are bit-identical no matter how chunks
are scheduled or parallelized.

Every sampler draws through ``draw_reduced``, the one chunk -> slab ->
reduce -> concatenate pipeline: within a chunk it draws and reduces
consecutive slabs of about ``SLAB_ELEMENTS`` normals.  A generator's stream
does not depend on how its draws are split, so the slabs hold the chunk's
numbers bit for bit, while only one slab of normals, not a whole chunk, is
alive at a time; that bound is what keeps concurrent samplers small.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .capacity import CapacityResult, Method

DEFAULT_SEED = 42

# Normal draws per chunk: fixes which generator draws which sample.
CHUNK_ELEMENTS = 1 << 22
# Normal draws per slab (8 MiB): bounds peak memory, not the results.
SLAB_ELEMENTS = 1 << 20


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


def chunk_generators(
    mc: McRun, elems_per_draw: int
) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield (draw count, generator) pairs covering ``mc.samples`` draws.

    Each chunk's generator is keyed by (seed, chunk index) alone, so a
    chunk's output never depends on how many chunks ran before it.
    """
    per_chunk = max(1, CHUNK_ELEMENTS // max(1, elems_per_draw))
    produced = 0
    index = 0
    while produced < mc.samples:
        count = min(per_chunk, mc.samples - produced)
        seq = np.random.SeedSequence(entropy=mc.seed, spawn_key=(0, index))
        yield count, np.random.default_rng(seq)
        produced += count
        index += 1


def draw_reduced(
    mc: McRun, shape: tuple[int, ...], reduce: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``reduce`` applied to ``mc.samples`` draws of ``shape`` standard
    normals each, concatenated along the first axis.

    The draws come chunk by chunk from ``chunk_generators`` and are reduced
    in consecutive slabs of at most ``SLAB_ELEMENTS`` normals (one draw, if a
    draw is larger), so the result equals ``reduce`` of the whole draw bit
    for bit wherever ``reduce`` treats draws independently.  Each slab is
    released once reduced, before the next is drawn, unless ``reduce``
    returns a view of it.
    """
    elems = math.prod(shape)
    per_slab = max(1, SLAB_ELEMENTS // max(1, elems))
    return np.concatenate([
        reduce(rng.standard_normal((min(per_slab, count - start), *shape)))
        for count, rng in chunk_generators(mc, elems)
        for start in range(0, count, per_slab)
    ])


def _sample_mean(values: np.ndarray) -> CapacityResult:
    """Monte Carlo mean of ``values``; error_estimate is the standard error."""
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return CapacityResult(float(values.mean()), Method.MONTE_CARLO, se)
