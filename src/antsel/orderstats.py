"""Order statistics of the selection gain over i.i.d. chi-square branch gains.

A receive array of ``n`` antennas over unit-power Rayleigh fading yields a
branch power gain distributed as half a chi-square with ``2n`` degrees of
freedom, i.e. Gamma(n, 1):

    pdf       f(x) = e^{-x} x^{n-1} / (n-1)!
    survival  1 - F(x) = e^{-x} sum_{k<n} x^k / k!

Picking the best of ``m`` independent branches makes the selection gain the
maximum order statistic with cdf F^m.  The upper tail is evaluated
tail-first: the survival sum is computed directly (never as one minus a
near-one cdf) and powers of F go through log1p of the survival, which keeps
m up to 1e4 and deep upper-tail levels exact to roundoff.  The lower tail is
not: F is still 1 - survival, so ``quantile(2, 1e-12)`` is 33% high and
``quantile(4, 1e-18)`` is 0 (ROADMAP item 2).

All functions are pure and thread-safe.  ``max_cdf`` and ``max_pdf`` take
a float or a numpy array through one numpy path (a float returns a float,
with the bits it has inside an array), so ``dist`` curves, KS distances and
the ergodic quadrature make one call per grid.  ``pdf``, ``survival``,
``cdf`` and the solvers stay scalar ``math`` code: a Newton solve evaluates
one point per step, and routed through the numpy kernel the solves of the
benchmark's curves workload took 0.180 s instead of 0.037 s, with a median
11% fewer rows per second (5 alternating pairs, 2-core x86-64, numpy 2.4).
``tail_quantile`` and ``upper_density_root`` share one Newton loop.  The
tail solves are cached per ``(n, tail level)`` for the estimators of one
curve that ask for the same level, such as the 1 - 1/m quantile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "SolverError",
    "SelectionConfig",
    "TailValue",
    "pdf",
    "survival",
    "cdf",
    "max_cdf",
    "max_pdf",
    "quantile",
    "tail_quantile",
    "characteristic_largest",
    "mean_residual_life",
    "upper_density_root",
]

_MAX_ITER = 200
_LOG_TAIL_TOL = 1e-12
# Distinct (n, tail level) solves kept.  Hits come from the estimators of
# one ergodic or scheduling curve sharing a level, such as the 1 - 1/m
# quantile of the quadrature rule, the bounds and the approximation: 76 in
# 194 lookups on the benchmark's ergodic grid, 39 in 118 on its scheduling
# grid.  fit, dist and outage solve each level once and never hit.
_SOLVE_CACHE_SIZE = 1024


class SolverError(RuntimeError):
    """An internal root solve or quadrature failed to converge.

    Raised instead of returning a wrong value; indicates a bug or an input
    far outside the supported regime, never a routine condition.
    """


@dataclass(frozen=True)
class SelectionConfig:
    """Best-of-``m`` selection over branch gains with ``n`` receive antennas."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")


class TailValue(NamedTuple):
    """Survival probability paired with its natural log.

    The log form stays informative where the probability itself underflows.
    """

    survival: float
    log_survival: float


# The Newton solves' scalar evaluators: about 4 us per point in ``math``
# against 20 us for the numpy kernel (see the module docstring).
def _log_terms(n: int, x: float) -> list[float]:
    """The logs k log x - log k! of the tail-sum terms x^k / k!, k < n."""
    lx = math.log(x)
    return [k * lx - math.lgamma(k + 1) for k in range(n)]


def _log_tail_sum(n: int, x: float) -> float:
    """log(sum_{k=0}^{n-1} x^k / k!) for x > 0, stable for any n."""
    if n == 1:
        return 0.0
    terms = _log_terms(n, x)
    hi = max(terms)
    return hi + math.log(math.fsum(math.exp(t - hi) for t in terms))


def _log_survival(n: int, x: float) -> float:
    """Log of the branch survival for x > 0."""
    return -x + _log_tail_sum(n, x)


def _log_pdf(n: int, x: float) -> float:
    """Log of the branch pdf, -x + (n-1) log x - log (n-1)!, for x > 0."""
    return -x + (n - 1) * math.log(x) - math.lgamma(n)


def pdf(n: int, x: float) -> float:
    """Branch-gain density e^{-x} x^{n-1}/(n-1)!; zero for x < 0."""
    if x < 0.0:
        return 0.0
    if n == 1:
        return math.exp(-x)
    if x == 0.0:
        return 0.0
    return math.exp(_log_pdf(n, x))


def survival(n: int, x: float) -> TailValue:
    """Upper tail 1 - F(x), computed directly from the tail sum."""
    if x <= 0.0:
        return TailValue(1.0, 0.0)
    ls = _log_survival(n, x)
    return TailValue(math.exp(ls), ls)


def cdf(n: int, x: float) -> float:
    """Branch-gain cdf; zero for x <= 0."""
    if x <= 0.0:
        return 0.0
    # -expm1(log survival) keeps small cdf values exact near x = 0.
    return -math.expm1(_log_survival(n, x))


def _log_tail_sums(n: int, log_x: np.ndarray) -> np.ndarray | float:
    """_log_tail_sum over an array of points, given their logs."""
    if n == 1:
        return 0.0
    k = np.arange(n)[:, None]
    terms = k * log_x - np.array([math.lgamma(j + 1) for j in range(n)])[:, None]
    hi = terms.max(axis=0)
    # Add the n terms in order of k at every point count, so a float call
    # (one point, which sum() would add pairwise) matches an array call.
    return hi + np.log(np.exp(terms - hi).cumsum(axis=0)[-1])


def max_cdf(cfg: SelectionConfig, x: float | np.ndarray) -> float | np.ndarray:
    """cdf of the selection gain, F^m(x), via m*log1p(-survival).

    Accepts a float or an array of points; a float returns a float.  The
    survival goes through the same log-domain tail sum as ``max_pdf``, and
    the cdf is zero for x <= 0 and wherever that survival rounds to one.
    """
    shape = np.shape(x)
    xs = np.asarray(x, dtype=float).reshape(-1)
    support = xs > 0.0
    log_x = np.log(np.where(support, xs, 1.0))
    s = np.exp(-np.where(support, xs, 0.0) + _log_tail_sums(cfg.n, log_x))
    support &= s < 1.0
    f = np.exp(cfg.m * np.log1p(-np.where(support, s, 0.0)))
    out = np.where(support, f, 0.0)
    return float(out[0]) if shape == () else out.reshape(shape)


def max_pdf(cfg: SelectionConfig, x: float | np.ndarray) -> float | np.ndarray:
    """Density of the selection gain, m F^{m-1}(x) f(x).

    Accepts a float or an array of points; a float returns a float.  The
    survival goes through the same log-domain tail sum as ``max_cdf``, and
    the density is zero wherever that survival rounds to one.
    """
    n, m = cfg.n, cfg.m
    shape = np.shape(x)
    xs = np.asarray(x, dtype=float).reshape(-1)
    # Only a single exponential branch has a nonzero density at x = 0.
    support = xs >= 0.0 if n == 1 and m == 1 else xs > 0.0
    x0 = np.where(support, xs, 0.0)
    log_x = np.log(np.where(xs > 0.0, xs, 1.0))
    f = np.exp(-x0 + (n - 1) * log_x - math.lgamma(n))
    if m > 1:
        s = np.exp(-x0 + _log_tail_sums(n, log_x))
        support &= s < 1.0
        f = m * np.exp((m - 1) * np.log1p(-np.where(support, s, 0.0))) * f
    out = np.where(support, f, 0.0)
    return float(out[0]) if shape == () else out.reshape(shape)


def _tail_seed(n: int, log_tail: float) -> float:
    """Asymptotic location of the tail level exp(log_tail), for n >= 2."""
    t = -log_tail
    return t + (n - 1) * math.log(max(t, 2.0)) - math.lgamma(n)


def tail_quantile(n: int, tail: float) -> float:
    """The x >= 0 at which the survival function equals ``tail``.

    Safeguarded Newton iteration on the log survival, bracketed and with
    bisection fallback; meets |F(x) - p| <= 1e-12 with large margin.
    """
    if not 0.0 < tail <= 1.0:
        raise ValueError(f"tail level must lie in (0, 1], got {tail!r}")
    if tail == 1.0:
        return 0.0
    if n == 1:
        return -math.log(tail)
    return _solve_tail(n, tail)


@lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _solve_tail(n: int, tail: float) -> float:
    """tail_quantile's Newton solve for n >= 2 and 0 < tail < 1."""
    log_t = math.log(tail)

    lo, hi = 0.0, max(_tail_seed(n, log_t), 1.0)
    for _ in range(_MAX_ITER):
        if _log_survival(n, hi) <= log_t:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise SolverError(f"tail bracket failed for n={n}, tail={tail!r}")

    def residual_step(x: float) -> tuple[float, float]:
        ls, f = _log_survival(n, x), pdf(n, x)
        r = ls - log_t
        return r, r * math.exp(ls) / f if f > 0.0 else math.inf

    return _newton(residual_step, 0.5 * (lo + hi), lo, hi, _LOG_TAIL_TOL,
                   f"tail quantile stalled for n={n}, tail={tail!r}")


def _newton(residual_step: Callable[[float], tuple[float, float]], x: float,
            lo: float, hi: float, tol: float, stalled: str) -> float:
    """Safeguarded Newton iteration from x for the root in [lo, hi]:
    ``residual_step(x)`` gives the residual, positive left of the root, and the
    step; a step leaving the bracket (an infinite one) bisects it instead."""
    for _ in range(_MAX_ITER):
        residual, step = residual_step(x)
        if abs(residual) <= tol:
            return x
        if residual > 0.0:
            lo = x
        else:
            hi = x
        nxt = x + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-16 * (1.0 + x):
            return nxt
        x = nxt
    raise SolverError(stalled)


def quantile(n: int, p: float) -> float:
    """Inverse cdf; requires 0 <= p < 1 and returns 0 at p = 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"probability must lie in [0, 1), got {p!r}")
    return tail_quantile(n, 1.0 - p)


def characteristic_largest(cfg: SelectionConfig) -> float:
    """The (1 - 1/m) branch quantile: the typical scale of the best of m.

    Equals ln m when n = 1; zero when m = 1.
    """
    return tail_quantile(cfg.n, 1.0 / cfg.m)


def mean_residual_life(n: int, t: float) -> float:
    """Expected exceedance of a branch gain beyond t, given it exceeds t.

    Closed form: both the integrated tail and the tail itself reduce to
    e^{-t} times a polynomial, so the ratio is polynomial,
    sum (n-k) t^k/k! / sum t^k/k! over k < n.  Its terms are the tail sum's,
    scaled by their largest, so neither sum overflows at large n.  Equals 1
    for n = 1 and approaches 1 + (n-1)/t from above as t grows.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    if n == 1:
        return 1.0
    terms = _log_terms(n, t)
    hi = max(terms)
    weights = [math.exp(term - hi) for term in terms]
    return math.fsum((n - k) * w for k, w in enumerate(weights)) / math.fsum(weights)


def upper_density_root(cfg: SelectionConfig) -> float:
    """Largest x at which the branch pdf equals 1/m.

    For n >= 2 the pdf is unimodal with peak at x = n - 1; the level 1/m
    must sit below the peak for the crossing to exist, and the root right
    of the mode is returned.  For n = 1 this is exactly ln m.
    """
    n, m = cfg.n, cfg.m
    if n == 1:
        return math.log(m)
    log_level = -math.log(m)
    mode = float(n - 1)
    if log_level >= _log_pdf(n, mode):
        raise ValueError(
            f"density level 1/m is not below the pdf peak for n={n}, m={m}; "
            "no upper crossing exists (fall back to quantile-based constants)"
        )

    # phi(x) = log pdf(x) - log(1/m), strictly decreasing right of the mode.
    def phi(x: float) -> float:
        return _log_pdf(n, x) - log_level

    seed = _tail_seed(n, log_level)
    lo, hi = mode, mode + max(seed - mode, 1.0)
    for _ in range(_MAX_ITER):
        if phi(hi) <= 0.0:
            break
        lo, hi = hi, hi + 2.0 * (hi - mode)
    else:
        raise SolverError(f"density-root bracket failed for n={n}, m={m}")

    def residual_step(x: float) -> tuple[float, float]:
        val, slope = phi(x), (n - 1) / x - 1.0
        return val, -(val / slope) if slope < 0.0 else math.inf

    return _newton(residual_step, min(max(seed, lo + 1e-12), hi), lo, hi, 1e-13,
                   f"density root stalled for n={n}, m={m}")
