"""Sampling oracle for the analytic selection-gain machinery.

Draws go through the physical channel model end to end: each branch gain is
a sum of squared magnitudes of unit-variance complex Gaussians, and the
selection gain is the maximum over m branches.  Each draw is one channel's
2nm normals, drawn and reduced by ``streams.draw_reduced`` as the MIMO
sampler draws its channels, and sorted once; every estimator reads it
sorted, the mean included, and ``empirical_ergodic`` can be given it.
Nothing here reuses the closed-form distribution theory, so agreement
between this module and the analytic modules is a genuine two-route check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capacity import CapacityResult, LinkParams, _log2_1p_inplace, _rank, _sample_mean
from .orderstats import SelectionConfig, max_cdf
from .streams import McRun, Request, _check_sample, draw_reduced

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


def _best_gains(z: np.ndarray) -> np.ndarray:
    """The selection gain of each draw of (m, 2n) normals: its largest branch."""
    # Halving is exact and keeps the order, so halve the maxima only.
    return 0.5 * np.einsum("ijk,ijk->ij", z, z).max(axis=1)


def _gains(cfg: SelectionConfig) -> Request:
    """The draw request of a selection-gain sample."""
    return (cfg.m, 2 * cfg.n), _best_gains, ()


def _draws(cfg: SelectionConfig, mc: McRun) -> np.ndarray:
    """Sorted selection-gain sample via squared complex-Gaussian branch sums,
    drawn and reduced a slab at a time."""
    gains = draw_reduced(mc, *_gains(cfg))
    gains.sort()
    return gains


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


def sample_selection_gain(cfg: SelectionConfig, mc: McRun) -> EmpiricalSummary:
    """Simulate the selection gain and summarize it; the KS distance is
    taken against the exact selection-gain cdf, ``max_cdf``."""
    if mc.samples < 1_000:
        raise ValueError(f"summary needs >= 1000 samples, got {mc.samples}")
    draws = _draws(cfg, mc)
    quantiles = tuple(
        (p, float(draws[_rank(p, draws.size)])) for p in DEFAULT_QUANTILES
    )
    return EmpiricalSummary(
        mean=float(draws.mean()),
        variance=float(draws.var(ddof=1)),
        quantiles=quantiles,
        ks_distance=_ks_statistic(draws, lambda x: max_cdf(cfg, x)),
        samples=mc.samples,
        seed=mc.seed,
    )


def ks_against(cfg: SelectionConfig, mc: McRun, reference_cdf: _ArrayCdf) -> float:
    """KS distance between a selection-gain sample and ``reference_cdf``,
    which maps the sorted sample, an array, to one cdf value per point."""
    if mc.samples < 1_000:
        raise ValueError(f"KS estimate needs >= 1000 samples, got {mc.samples}")
    return _ks_statistic(_draws(cfg, mc), reference_cdf)


def empirical_ergodic(
    cfg: SelectionConfig, link: LinkParams, mc: McRun, draws: np.ndarray | None = None
) -> CapacityResult:
    """Sample-mean estimate of E[log2(1 + rho X)] with its standard error,
    from ``draws``, the sorted sample ``_draws(cfg, mc)`` draws, if given."""
    if mc.samples < 1_000:
        raise ValueError(f"ergodic estimate needs >= 1000 samples, got {mc.samples}")
    if draws is None:
        draws = _draws(cfg, mc)
    else:
        _check_sample(draws, (mc.samples,))
    return _sample_mean(_log2_1p_inplace(link.rho * draws))
