"""Gumbel approximation of the selection-gain distribution.

The branch gain has an exponential-type upper tail, so the normalized best
of m converges to the Gumbel law G(x) = exp(-e^{-x}).  What matters in
practice is the choice of location/scale sequences (a_m, b_m): this module
implements the four constructions the analysis singles out (each fit built
once per configuration and strategy), the approximate cdf they induce (one
numpy expression for a float or an array of points), its moments and a
pointwise convergence-error probe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .orderstats import (
    SelectionConfig,
    characteristic_largest,
    max_cdf,
    mean_residual_life,
    upper_density_root,
)

__all__ = [
    "EULER_GAMMA",
    "FitStrategy",
    "GumbelFit",
    "gumbel_cdf",
    "normalizing_constants",
    "approx_max_cdf",
    "approx_moments",
    "convergence_error",
]

EULER_GAMMA = 0.5772156649015329

_VARIANCE_FACTOR = math.pi**2 / 6.0


class FitStrategy(Enum):
    """How the Gumbel location/scale constants are constructed.

    MRL          location at the (1 - 1/m) branch quantile, scale equal to
                 the mean residual life there; the reference choice.
    ASYMPTOTIC   log-expansion location ln m + (n-1) ln(ln m) - ln (n-1)!,
                 unit scale; simple but poor for small m.
    DENSITY_ROOT a = r + (n-1)/r, b = 1 + (n-1)/r with r the upper root of
                 pdf = 1/m; rate-optimal.
    QUANTILE_RATE location at the (1 - 1/m) quantile with the first-order
                 scale 1 + (n-1)/location; also rate-optimal.

    Values double as the CLI strategy tokens.
    """

    MRL = "lemma"
    ASYMPTOTIC = "asymptotic"
    DENSITY_ROOT = "alpha"
    QUANTILE_RATE = "corollary"


@dataclass(frozen=True)
class GumbelFit:
    """Location/scale pair approximating the selection gain as a + b*Gumbel.

    ``strategy`` records which construction produced the constants; None
    marks user-supplied (strategy-free) constants.
    """

    location: float
    scale: float
    strategy: FitStrategy | None = None

    def __post_init__(self) -> None:
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        return gumbel_cdf((x - self.location) / self.scale)


def gumbel_cdf(x: float | np.ndarray) -> float | np.ndarray:
    """Standard Gumbel cdf exp(-e^{-x}) of a float (as a float) or an array."""
    # Below -700 the inner exp would overflow; the cdf is flat zero there.
    g = np.exp(-np.exp(-np.maximum(x, -700.0)))
    return float(g) if np.ndim(x) == 0 else g


@lru_cache(maxsize=None)
def normalizing_constants(cfg: SelectionConfig, strategy: FitStrategy) -> GumbelFit:
    """Build the (location, scale) pair for ``strategy``.

    Requires m >= 2 throughout (the location quantile must be positive);
    ASYMPTOTIC additionally needs m >= 3 when n >= 2 so that ln(ln m) > 0,
    and DENSITY_ROOT needs the pdf-level crossing to exist.  Each fit is
    built once per (cfg, strategy) and shared, as it is frozen, so an
    outage grid does not rebuild it at every SINR.
    """
    n, m = cfg.n, cfg.m
    if m < 2:
        raise ValueError(f"strategy {strategy.value!r} needs m >= 2, got m={m}")
    if strategy is FitStrategy.MRL:
        q = characteristic_largest(cfg)
        return GumbelFit(q, mean_residual_life(n, q), strategy)
    if strategy is FitStrategy.ASYMPTOTIC:
        if n >= 2 and m < 3:
            raise ValueError(
                f"asymptotic constants need m >= 3 when n >= 2, got n={n}, m={m}"
            )
        loc = math.log(m) + (n - 1) * math.log(math.log(m)) - math.lgamma(n)
        return GumbelFit(loc, 1.0, strategy)
    if strategy is FitStrategy.DENSITY_ROOT:
        root = upper_density_root(cfg)
        return GumbelFit(root + (n - 1) / root, 1.0 + (n - 1) / root, strategy)
    if strategy is FitStrategy.QUANTILE_RATE:
        q = characteristic_largest(cfg)
        return GumbelFit(q, 1.0 + (n - 1) / q, strategy)
    raise ValueError(f"unknown strategy {strategy!r}")


def approx_max_cdf(fit: GumbelFit, x: float | np.ndarray) -> float | np.ndarray:
    """Gumbel approximation to the selection-gain cdf at x."""
    return fit.cdf(x)


def approx_moments(fit: GumbelFit) -> tuple[float, float]:
    """(mean, variance) of the fitted law: a + γ b and b² π²/6."""
    return (
        fit.location + EULER_GAMMA * fit.scale,
        fit.scale**2 * _VARIANCE_FACTOR,
    )


def convergence_error(cfg: SelectionConfig, strategy: FitStrategy, x: float) -> float:
    """Pointwise gap |F^m(a + b x) - G(x)| for the given construction."""
    fit = normalizing_constants(cfg, strategy)
    exact = max_cdf(cfg, fit.location + fit.scale * x)
    return abs(exact - gumbel_cdf(x))
