"""Sampling oracle for the analytic selection-gain machinery.

Draws go through the physical channel model end to end: each branch gain is
a sum of squared magnitudes of unit-variance complex Gaussians, and the
selection gain is the maximum over m branches.  Each draw is one channel's
2nm normals, drawn and reduced by ``streams.draw_reduced`` as the MIMO
sampler draws its channels.  Nothing here reuses the closed-form
distribution theory, so agreement between this module and the analytic
modules is a genuine two-route check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capacity import _LN2, CapacityResult, LinkParams
from .orderstats import SelectionConfig, max_cdf
from .streams import McRun, _sample_mean, draw_reduced

__all__ = [
    "DEFAULT_QUANTILES",
    "EmpiricalSummary",
    "sample_selection_gain",
    "ks_against",
    "empirical_ergodic",
]

DEFAULT_QUANTILES = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)
# A KS reference: maps the sorted sample to one cdf value per point.
_ArrayCdf = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class EmpiricalSummary:
    """Moments, quantiles, and goodness of fit of a selection-gain sample."""

    mean: float
    variance: float
    quantiles: tuple[tuple[float, float], ...]
    ks_distance: float
    samples: int
    seed: int


def _draws(cfg: SelectionConfig, mc: McRun) -> np.ndarray:
    """Selection-gain sample via squared complex-Gaussian branch sums, drawn
    and reduced a slab at a time."""
    n, m = cfg.n, cfg.m

    def best_gains(z: np.ndarray) -> np.ndarray:
        # Halving is exact and keeps the order, so halve the maxima only.
        return 0.5 * np.einsum("ijk,ijk->ij", z, z).max(axis=1)

    return draw_reduced(mc, (m, 2 * n), best_gains)


def _ks_statistic(sorted_draws: np.ndarray, reference_cdf: _ArrayCdf) -> float:
    """One-sample Kolmogorov-Smirnov sup-distance against a cdf.

    ``reference_cdf`` is called once, on the whole sorted sample, and must
    return one value per point.  Compares the reference from both sides of
    each jump of the empirical cdf, which handles ties correctly.
    """
    ref = np.asarray(reference_cdf(sorted_draws), dtype=float)
    if ref.shape != sorted_draws.shape:
        raise ValueError(f"reference_cdf must return one value per point, "
                         f"got shape {ref.shape} for {sorted_draws.size} points")
    size = sorted_draws.size
    steps = np.arange(1, size + 1) / size
    d_plus = float(np.max(steps - ref))
    d_minus = float(np.max(ref - (steps - 1.0 / size)))
    return max(d_plus, d_minus, 0.0)


def sample_selection_gain(
    cfg: SelectionConfig,
    mc: McRun,
    reference_cdf: _ArrayCdf | None = None,
) -> EmpiricalSummary:
    """Simulate the selection gain and summarize it.

    ``reference_cdf`` sets the target of the KS distance: it maps the sorted
    sample, an array, to one cdf value per point (``ValueError`` otherwise);
    by default the exact selection-gain cdf is used.
    """
    if mc.samples < 1_000:
        raise ValueError(f"summary needs >= 1000 samples, got {mc.samples}")
    draws = np.sort(_draws(cfg, mc))
    if reference_cdf is None:
        reference_cdf = lambda x: max_cdf(cfg, x)  # noqa: E731
    quantiles = tuple(
        (p, float(draws[max(math.ceil(p * draws.size) - 1, 0)]))
        for p in DEFAULT_QUANTILES
    )
    return EmpiricalSummary(
        mean=float(draws.mean()),
        variance=float(draws.var(ddof=1)),
        quantiles=quantiles,
        ks_distance=_ks_statistic(draws, reference_cdf),
        samples=mc.samples,
        seed=mc.seed,
    )


def ks_against(cfg: SelectionConfig, mc: McRun, reference_cdf: _ArrayCdf) -> float:
    """KS distance between a fresh selection-gain sample and ``reference_cdf``,
    which maps the sorted sample, an array, to one cdf value per point."""
    if mc.samples < 1_000:
        raise ValueError(f"KS estimate needs >= 1000 samples, got {mc.samples}")
    return _ks_statistic(np.sort(_draws(cfg, mc)), reference_cdf)


def empirical_ergodic(
    cfg: SelectionConfig, link: LinkParams, mc: McRun
) -> CapacityResult:
    """Sample-mean estimate of E[log2(1 + rho X)] with its standard error."""
    if mc.samples < 1_000:
        raise ValueError(f"ergodic estimate needs >= 1000 samples, got {mc.samples}")
    return _sample_mean(np.log1p(link.rho * _draws(cfg, mc)) / _LN2)
