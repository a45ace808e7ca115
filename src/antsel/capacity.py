"""Outage and ergodic capacity of the best-antenna selection link.

Rates are in bits/s/Hz over a flat channel with average SINR ``rho``
(linear; ``db_to_linear`` is the one conversion from dB, used by the CLI
grid and the scheduling table).  The exact routes invert or
integrate the selection-gain law from :mod:`antsel.orderstats`; the
approximate routes use the Gumbel fit; the bounds sandwich the ergodic
capacity between two closed-form quantile expressions.  Every quantile
here (outage rates, bounds, the Gumbel location, the quadrature panel
edges) comes from :mod:`antsel.orderstats`.  Each estimator solves its
levels once per curve, and the solve cache per ``(n, tail level)`` lets the
estimators of one curve share the levels they have in common.

Expectations over the selection gain use a composite Gauss-Legendre rule
built once per :class:`SelectionConfig` and kept in a bounded cache (Golub &
Welsch nodes from ``numpy.polynomial.legendre.leggauss``).  Above the
``1 - 1/m`` quantile, equal panels run up to the quantile leaving ``1e-12``
of tail mass.  Below it, panels halve in width toward x = 0, next to the
singularity of ``log1p(rho x)`` at x = -1/rho, so one rule serves every
SINR; none of them is wider than an upper panel.  The rule starts at the
last panel edge where F^m is at most ``1e-20``: the density m F^{m-1} f
vanishes like x^{nm-1} at 0, so best of 20 single branches drops 26 of
its 43 panels, while (n, m) = (1, 1), whose density is 1 at x = 0, keeps
every panel.  The mass dropped is at most ``1e-20``, plus the ~1e-16
rounding of the lower-tail cdf at m = 1; times an integrand of at most
log2(1 + rho x_hi), that stays below 1e-13, far under ``QUAD_ABS_TOL``.
The weights carry the density, so an expectation is a weighted sum over
the nodes.  The value is the 2N-point rule on every panel; its difference
from the N-point rule is the error estimate.

The estimators take a whole SINR curve: a tuple of ``LinkParams`` gives a
tuple of results, one per SINR, and a single ``LinkParams`` a single result,
through the same code (as ``max_cdf`` takes a float or an array).  A curve
costs one pass over the rule: the integrand is evaluated on a (SINR x node)
block, in blocks of at most ``QUAD_BLOCK_ELEMENTS`` values, and each row is
summed as a point's 1-D sum would be, so a curve's values equal its points'
bit for bit.  The closed forms validate their arguments and solve their
quantile or Gumbel fit once per curve, then map each SINR through
``math.log1p``: numpy's ``log1p`` may differ from it in the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np
from numpy.polynomial.legendre import leggauss

from .gumbel import EULER_GAMMA, FitStrategy, normalizing_constants
from .orderstats import (
    SelectionConfig,
    SolverError,
    characteristic_largest,
    max_cdf,
    max_pdf,
    tail_quantile,
)

__all__ = [
    "LinkParams",
    "db_to_linear",
    "CapacityResult",
    "outage_probability",
    "outage_capacity",
    "ergodic_capacity",
    "ergodic_bounds",
    "ergodic_approx",
    "mean_selection_gain",
    "selection_gain_variance",
]

_LN2 = math.log(2.0)
_EXP_GAMMA = math.exp(EULER_GAMMA)

# Quadrature settings: the largest accepted error estimate, the tail mass
# left outside the truncated integration interval, and the most mass the
# rule may drop below its first panel edge.
QUAD_ABS_TOL = 1e-9
_TRUNCATION_MASS = 1e-12
_START_MASS = 1e-20

# Composite Gauss-Legendre rule: N and 2N nodes per panel, equal panels
# above the knee, and panels halving toward zero below it.  Each halving
# panel lies at least its own width away from the log1p singularity at
# x = -1/rho, whatever rho; thirty halvings leave an innermost panel of
# about 1e-9 of the knee, which keeps that distance up to about 80 dB.
_GAUSS_POINTS = 12
_UPPER_PANELS = 12
_GRADED_PANELS = 30
_GRADING = 0.5
_RULE_CACHE_SIZE = 256
_UNIT_RULES = tuple(leggauss(p) for p in (_GAUSS_POINTS, 2 * _GAUSS_POINTS))

# Values per (SINR x node) block of a curve's quadrature.  A curve is
# evaluated a block of SINRs at a time, with at most two arrays of this size
# alive at once: 1 MiB of temporaries, whatever the curve's length.
QUAD_BLOCK_ELEMENTS = 1 << 16
# Ergodic curves kept for reuse; an entry holds one result per SINR.
_CURVE_CACHE_SIZE = 32


@dataclass(frozen=True)
class LinkParams:
    """Average SINR of the link as a linear power ratio."""

    rho: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError(f"rho must be a positive finite number, got {self.rho!r}")


def db_to_linear(db: float) -> float:
    """Power ratio of ``db`` decibels; ValueError where it overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"SINR {db:g} dB is out of range") from None


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value (bits/s/Hz) with its error estimate.

    ``error_estimate`` is the quadrature error estimate or the Monte Carlo
    standard error; zero for closed forms.  ``degenerate`` marks a Gumbel
    approximation that strayed below the physical support and was clamped
    to zero.
    """

    value: float
    error_estimate: float = 0.0
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError(f"capacity must be nonnegative, got {self.value!r}")


def _sample_mean(values: np.ndarray) -> CapacityResult:
    """Monte Carlo mean of ``values``; error_estimate is the standard error.
    Consumes ``values``: the squared deviations are formed in its buffer."""
    mean = values.mean()
    values -= mean
    values *= values
    se = math.sqrt(float(values.sum()) / (values.size - 1)) / math.sqrt(values.size)
    return CapacityResult(float(mean), se)


def _rank(p: float, samples: int) -> int:
    """The index of the nearest-rank p-quantile among ``samples`` sorted values."""
    return max(math.ceil(p * samples) - 1, 0)


Links = LinkParams | tuple[LinkParams, ...]
Bounds = tuple[CapacityResult, CapacityResult]
_T = TypeVar("_T")


def _points(link: Links) -> tuple[LinkParams, ...]:
    """The SINRs of a curve: a single ``LinkParams`` is a curve of one."""
    return (link,) if isinstance(link, LinkParams) else tuple(link)


def _shaped(link: Links, results: tuple[_T, ...]) -> _T | tuple[_T, ...]:
    """One result for a single ``LinkParams``, the tuple for a curve."""
    return results[0] if isinstance(link, LinkParams) else results


def _rate(rho: float, gain: float) -> float:
    """log2(1 + rho gain), also where the product overflows a float."""
    y = rho * gain
    if math.isinf(y):
        return (math.log(rho) + math.log(gain + 1.0 / rho)) / _LN2
    return math.log1p(y) / _LN2


def _rates(link: Links, gain: float) -> tuple[CapacityResult, ...]:
    """log2(1 + rho gain) at each SINR of a curve, one selection gain for all."""
    return tuple(CapacityResult(_rate(point.rho, gain)) for point in _points(link))


def _log2_1p_inplace(y: np.ndarray) -> np.ndarray:
    """log2(1 + y) in place over an array: the quadrature's and samplers' map."""
    np.log1p(y, out=y)
    y /= _LN2
    return y


def _upper_cutoff(cfg: SelectionConfig) -> float:
    """Selection-gain quantile leaving _TRUNCATION_MASS above it."""
    branch_tail = -math.expm1(math.log1p(-_TRUNCATION_MASS) / cfg.m)
    return tail_quantile(cfg.n, branch_tail)


class _Rule(NamedTuple):
    """Nodes and density-weighted weights of the N- and 2N-point rules."""

    coarse_x: np.ndarray
    coarse_w: np.ndarray
    x: np.ndarray
    w: np.ndarray


def _panel_edges(cfg: SelectionConfig) -> np.ndarray:
    """Panel boundaries over [0, _upper_cutoff(cfg)]."""
    x_hi = _upper_cutoff(cfg)
    # For m = 1 the 1 - 1/m quantile is 0; the first equal panel then
    # takes its place as the start of the grading.
    knee = max(characteristic_largest(cfg), x_hi / _UPPER_PANELS)
    width = (x_hi - knee) / _UPPER_PANELS
    graded = [0.0] + [knee * _GRADING**k for k in range(_GRADED_PANELS, -1, -1)]
    edges = [0.0]
    for a, b in zip(graded, graded[1:]):
        parts = max(1, math.ceil((b - a) / width))
        edges += [a + (b - a) * j / parts for j in range(1, parts + 1)]
    edges += [knee + width * j for j in range(1, _UPPER_PANELS)] + [x_hi]
    return np.array(edges)


def _gauss_legendre(
    edges: np.ndarray, unit: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a unit rule mapped onto every panel."""
    t, w = unit
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * t).ravel(), (half * w).ravel()


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _density_rule(cfg: SelectionConfig) -> _Rule:
    edges = _panel_edges(cfg)
    # Start at the last edge with at most _START_MASS below it (edge 0 always
    # qualifies): the panels before it hold no mass any output can see.
    edges = edges[np.flatnonzero(max_cdf(cfg, edges) <= _START_MASS)[-1]:]
    (coarse_x, coarse_w), (x, w) = (_gauss_legendre(edges, unit) for unit in _UNIT_RULES)
    # One kernel call for the nodes of both rules.
    density = max_pdf(cfg, np.concatenate([coarse_x, x]))
    split = coarse_x.size
    rule = _Rule(coarse_x, coarse_w * density[:split], x, w * density[split:])
    for a in rule:
        a.flags.writeable = False
    return rule


def _expect(
    cfg: SelectionConfig,
    fn: Callable[[np.ndarray], np.ndarray],
    scales: Sequence[float] = (1.0,),
) -> tuple[list[float], list[float]]:
    """E[fn(s X)] over the selection gain for each scale s; returns the
    values and their error estimates, one per scale.

    ``fn`` maps an array to an array elementwise; it is called on (scale x
    node) blocks of at most ``QUAD_BLOCK_ELEMENTS`` values.  The estimate is
    |Q_N - Q_2N|, floored at the rounding error of the sum so that it is
    never exactly zero.  Each row is summed, and dotted with the coarse
    weights, on its own, so a scale's results do not depend on the others.
    Above ``QUAD_ABS_TOL`` a ``SolverError`` names the first failing scale.
    A scale whose terms overflow gets an inf or nan estimate or error and
    fails the same way, so numpy's overflow warnings are silenced: the
    ``SolverError`` is the one report.
    """
    rule = _density_rule(cfg)
    column = np.asarray(scales, dtype=float)[:, None]
    rows = max(1, QUAD_BLOCK_ELEMENTS // rule.x.size)
    values: list[float] = []
    errors: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(column), rows):
            block = column[start:start + rows]
            terms = fn(block * rule.x)
            terms *= rule.w
            value = terms.sum(axis=1)
            floor = np.finfo(float).eps * np.abs(terms, out=terms).sum(axis=1)
            del terms
            coarse = np.array([rule.coarse_w @ row for row in fn(block * rule.coarse_x)])
            error = np.maximum(np.abs(coarse - value), floor)
            values += value.tolist()
            errors += error.tolist()
            failed = np.flatnonzero(~(error <= QUAD_ABS_TOL))
            if failed.size:
                first = failed[0]
                raise SolverError(
                    f"quadrature did not converge for n={cfg.n}, m={cfg.m} "
                    f"(estimate {values[start + first]!r}, error {errors[start + first]!r})"
                )
    return values, errors


def outage_probability(cfg: SelectionConfig, link: LinkParams, c0: float) -> float:
    """Probability that the instantaneous rate falls at or below ``c0``.

    The rate threshold maps to the gain threshold (2^c0 - 1)/rho, and the
    exact selection-gain cdf is evaluated there.  The Gumbel approximation
    of the same probability is ``GumbelFit.cdf`` at that threshold.
    """
    if c0 < 0.0:
        raise ValueError(f"rate threshold must be nonnegative, got {c0!r}")
    return max_cdf(cfg, math.expm1(c0 * _LN2) / link.rho)


def outage_capacity(
    cfg: SelectionConfig, link: Links, p0: float, mode: str = "exact"
) -> CapacityResult | tuple[CapacityResult, ...]:
    """Largest rate whose outage probability is ``p0``, at one SINR or along
    a curve (see the module docstring).

    Exact: log2(1 + rho F^{-1}(p0^{1/m})).  Gumbel: the fitted quantile
    a - b ln(-ln p0); if that strays below zero the result is clamped to a
    zero rate and flagged degenerate.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"outage probability must lie in (0, 1), got {p0!r}")
    if mode == "exact":
        # F(x)^m = p0 as a tail level: 1 - p0^{1/m} without rounding p0^{1/m}
        # to 1 when p0 is near 1 or m is large.
        gain = tail_quantile(cfg.n, -math.expm1(math.log(p0) / cfg.m))
    elif mode == "gumbel":
        fit = normalizing_constants(cfg, FitStrategy.MRL)
        gain = fit.location - fit.scale * math.log(-math.log(p0))
    else:
        raise ValueError(f"mode must be 'exact' or 'gumbel', got {mode!r}")
    if gain < 0.0:
        return _shaped(link, (CapacityResult(0.0, degenerate=True),) * len(_points(link)))
    return _shaped(link, _rates(link, gain))


@lru_cache(maxsize=_CURVE_CACHE_SIZE)
def ergodic_capacity(
    cfg: SelectionConfig, link: Links
) -> CapacityResult | tuple[CapacityResult, ...]:
    """E[log2(1 + rho X)] over the selection gain, at one SINR or along a
    curve (see the module docstring).

    Composite Gauss-Legendre quadrature against the selection-gain density,
    with the rule cached per configuration, so a curve costs one pass over
    the rule.  ``error_estimate`` is the difference between the N- and
    2N-point rules, at least the sum's rounding error; above
    ``QUAD_ABS_TOL`` a ``SolverError`` names the first failing SINR.
    """
    links = _points(link)
    values, errors = _expect(cfg, _log2_1p_inplace, [point.rho for point in links])
    return _shaped(link, tuple(map(CapacityResult, values, errors)))


def ergodic_bounds(cfg: SelectionConfig, link: Links) -> Bounds | tuple[Bounds, ...]:
    """Closed-form sandwich around the ergodic capacity: a (lower, upper)
    pair at one SINR, or a tuple of pairs along a curve.

    Lower: log2(1 + rho q) at the (1 - 1/m) quantile q.  Upper: the same
    expression at the quantile with tail level 1/(e^γ (m+1)).
    """
    q_lower = characteristic_largest(cfg)
    q_upper = tail_quantile(cfg.n, 1.0 / (_EXP_GAMMA * (cfg.m + 1)))
    return _shaped(link, tuple(zip(_rates(link, q_lower), _rates(link, q_upper))))


def ergodic_approx(
    cfg: SelectionConfig, link: Links
) -> CapacityResult | tuple[CapacityResult, ...]:
    """Closed-form approximation log2(1 + rho (q + γ)) with q the
    (1 - 1/m) quantile, at one SINR or along a curve; lies inside the
    sandwich bounds."""
    gain = characteristic_largest(cfg) + EULER_GAMMA
    return _shaped(link, _rates(link, gain))


@lru_cache(maxsize=None)
def mean_selection_gain(cfg: SelectionConfig) -> float:
    """E[X] of the selection gain by quadrature, for every n (``verify``
    checks n = 1 against the harmonic sum)."""
    return _expect(cfg, lambda x: x)[0][0]


@lru_cache(maxsize=None)
def selection_gain_variance(cfg: SelectionConfig) -> float:
    """Var[X] of the selection gain by quadrature."""
    second = _expect(cfg, lambda x: x * x)[0][0]
    mean = mean_selection_gain(cfg)
    return second - mean * mean
