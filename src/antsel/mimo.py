"""Open-loop MIMO baseline by Monte Carlo.

With no transmitter channel knowledge the power splits equally across the
m transmit antennas, and the instantaneous rate of an n x m channel H with
i.i.d. unit-variance complex Gaussian entries is

    log2 det(I_n + t H H†) = log2(1 + e_1 t + e_2 t^2 + ... + e_r t^r),

with t = rho/m, r = min(n, m) and e_k the sum of the k x k principal
minors of the Gram matrix H H† (the k-th elementary symmetric polynomial
of its eigenvalues).  Ergodic capacity, outage capacity, and the
greedy-scheduled multiuser variant are estimated by seeded,
chunk-deterministic simulation.  Receive arrays up to n = 8 are supported.

Each estimator takes one ``LinkParams`` or a whole SINR curve (a tuple of
them gives a tuple of results), validates its arguments once per call and
computes the rates one SINR at a time, so one SINR's rates are alive at
once; an empty curve returns () before any draw.  The coefficients e_k do
not depend on rho, so the ergodic and outage estimators each draw the
single-user channel set once per call, or read the (samples, r) set a
caller passes them last: an ergodic and an outage call of one curve given
one set share a single draw.  The greedy-scheduled estimator draws its
K-user set once per call, reduced slab by slab to a table of every SINR's
best rate per slot, or reads the (samples, SINRs) table a caller passes it
last: the rate grows with det - 1, so a slot's best rate is one ``log1p``
of its users' largest det - 1.  The reduction works in real
arithmetic on the real and imaginary parts of H, on the smaller of the
two Gram matrices (H H† or H^T conj(H), which share their nonzero
eigenvalues and so their e_k).  Up to r = 3 the e_k are polynomials in
the Gram entries, written as plain array expressions: an entry's real and
imaginary parts are each a sum of two dot products along rows; e_1 is the
trace (at r = 1 a squared norm over all 2 max(n, m) numbers of a channel),
e_2 the sum of the 2 x 2 minors and e_3 the determinant.  Larger r forms
the Gram matrix by matmul, takes its eigenvalues from
``numpy.linalg.eigvalsh`` and the e_k from them by Vieta's recurrence.  A
rate is then one Horner pass and one ``log1p`` per channel.  Past about
3080/r dB the polynomial overflows a float; there a channel's rate is
r log t + log(e_r + u(e_{r-1} + ... + u)) with u = 1/t, which stays finite
at every SINR a float holds.  The outage bootstrap resamples sorted rates,
so a resample's quantile is the rate at a rank that depends only on (seed,
sample count, quantile level); those ranks are drawn once, kept in a small
cache, and refused before any draw when one resample's indices would pass
``streams.MAX_DRAW_BYTES``.

``grid_estimates`` estimates a whole grid of curves.  It checks every
curve, in grid order, and then computes the outage bootstrap ranks, before
any draw, so the first failing curve in grid order decides the error.  All
samplers with one ``McRun`` read prefixes of the same chunk streams, so the
curves of one run share their normals (they are correlated) and can share
their draws exactly: the grid's K-user best-rate tables and single-user
sets are drawn by one ``streams.draw_shared`` call.  Each set is estimated
as soon as it is whole, on whichever thread of the pass completed it: made
read-only, a single-user set is passed to the curve's ``mimo_ergodic`` and
``mimo_outage`` calls, a table to its ``mimo_scheduled_ergodic`` call, and
then it is released.  Channels are drawn a block of normals at a time, so
memory stays bounded however many curves a pass serves.  The estimators
are safe to call from several threads.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .capacity import (
    _LN2,
    CapacityResult,
    LinkParams,
    Links,
    _log2_1p_inplace,
    _points,
    _rank,
    _sample_mean,
    _shaped,
)
from .streams import (
    McRun,
    Request,
    _check_sample,
    _check_size,
    draw_reduced,
    draw_shared,
    substream,
)

__all__ = ["MAX_RX_ANTENNAS", "mimo_ergodic", "mimo_outage", "mimo_scheduled_ergodic"]

MAX_RX_ANTENNAS = 8

_BOOTSTRAP_RESAMPLES = 100
_BOOTSTRAP_TAG = 1


def _validate(n: int, m: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_RX_ANTENNAS:
        raise ValueError(f"n must be an integer in 1..{MAX_RX_ANTENNAS}, got {n!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", x, y)


def _gram_invariants(z: np.ndarray) -> np.ndarray:
    """e_1..e_r with det(I + t H H†) = 1 + e_1 t + ... + e_r t^r, for
    channels drawn as (..., 2, n, m) standard normals,
    H = (z[..., 0, :, :] + i z[..., 1, :, :]) / sqrt(2).

    Returns (..., r), r = min(n, m).  For m < n the coefficients come from
    the m x m matrix H^T conj(H), which has the same nonzero eigenvalues.
    Up to r = 3 they are polynomials in the Gram entries, each evaluated
    in the order it is written: another grouping moves the last bits.
    """
    n, m = z.shape[-2:]
    if n == 1 or m == 1:
        # Half the squared norm of the channel's 2 max(n, m) numbers, one
        # contiguous run.
        flat = z.reshape(z.shape[:-3] + (-1,))
        return 0.5 * _dot(flat, flat)[..., None]
    if m < n:
        z = z.swapaxes(-1, -2)
    r = z.shape[-2]
    a, b = z[..., 0, :, :], z[..., 1, :, :]
    if r <= 3:
        # The diagonal: half the squared norm of each row, over a and b.
        g = (_dot(a, a) + _dot(b, b)) * 0.5
        # Entry (i, j) off it, i < j, is re + i im, of squared modulus s.
        pairs = list(combinations([(a[..., i, :], b[..., i, :]) for i in range(r)], 2))
        re = [(_dot(ai, aj) + _dot(bi, bj)) * 0.5 for (ai, bi), (aj, bj) in pairs]
        im = [(_dot(bi, aj) - _dot(ai, bj)) * 0.5 for (ai, bi), (aj, bj) in pairs]
        s = [x * x + y * y for x, y in zip(re, im)]
        g1, g2 = g[..., 0], g[..., 1]
        e = np.empty_like(g)
        e[..., 0] = g.sum(axis=-1)
        if r == 2:
            e[..., 1] = g1 * g2 - s[0]
            return e
        g3 = g[..., 2]
        (r12, r13, r23), (i12, i13, i23), (s12, s13, s23) = re, im, s
        # The middle term of the determinant is 2 Re(g12 g23 conj(g13)).
        triple = (r12 * r23 - i12 * i23) * r13 + (r12 * i23 + i12 * r23) * i13
        e[..., 1] = (g1 * g2 - s12) + (g1 * g3 - s13) + (g2 * g3 - s23)
        e[..., 2] = g1 * g2 * g3 + 2 * triple - g1 * s23 - g2 * s13 - g3 * s12
        return e
    at, bt = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
    gram = np.empty(z.shape[:-3] + (r, r), dtype=complex)
    gram.real = 0.5 * (a @ at + b @ bt)
    gram.imag = 0.5 * (b @ at - a @ bt)
    lam = np.moveaxis(np.linalg.eigvalsh(gram), -1, 0)
    # Vieta: multiply in (1 + lambda_j t) one eigenvalue at a time, e_0 = 1.
    e = np.zeros((r + 1, *lam.shape[1:]))
    e[0] = 1.0
    for j, lam_j in enumerate(lam):
        e[1 : j + 2] += lam_j * e[: j + 1]
    return np.moveaxis(e[1:], 0, -1)


def _det_minus_one(invariants: np.ndarray, t: float) -> np.ndarray:
    """det(I + t H H†) - 1 from the coefficients e_k on the last axis, by
    Horner: t (e_1 + t (e_2 + ... + t e_r)), which keeps it, and so its
    log1p, accurate however small t e_1 is.  Past a float it is inf."""
    e = np.moveaxis(invariants, -1, 0)
    with np.errstate(over="ignore"):
        y = t * e[-1]
        for ek in e[-2::-1]:
            y += ek
            y *= t
    return y


def _det_rates(invariants: np.ndarray, t: float) -> np.ndarray:
    """log2 det(I + t H H†) from the coefficients e_k on the last axis."""
    y = _det_minus_one(invariants, t)
    huge = np.isinf(y)
    _log2_1p_inplace(y)
    if huge.any():
        # det / t^r = e_r + u (e_{r-1} + ... + u (e_1 + u)), u = 1/t: each
        # term is at most e_k, far from overflow, where t is this large.
        e = np.moveaxis(invariants, -1, 0)
        u = 1.0 / t
        scaled = e[0][huge] + u
        for ek in e[1:]:
            scaled *= u
            scaled += ek[huge]
        y[huge] = (len(e) * math.log(t) + np.log(scaled)) / _LN2
    return y


class _BestRates:
    """Reduction of a slab of K-user channel draws, (..., K, 2, n, m), to
    each slot's best rate at every SINR ``rhos``, one column per SINR.

    The rate is increasing in det - 1, so a slot's best rate is the rate of
    its largest det - 1: one log1p per slot and SINR.  A slot whose largest
    det - 1 overflows takes the best of its users' rates from
    ``_det_rates``.
    """

    def __init__(self, m: int, rhos: tuple[float, ...]) -> None:
        self.m, self.rhos = m, rhos

    def __call__(self, z: np.ndarray) -> np.ndarray:
        invariants = _gram_invariants(z)
        best = np.empty((len(z), len(self.rhos)))
        for column, rho in zip(best.T, self.rhos):
            top = _det_minus_one(invariants, rho / self.m).max(axis=-1)
            huge = np.isinf(top)
            column[:] = _log2_1p_inplace(top)
            if huge.any():
                column[huge] = _det_rates(invariants[huge], rho / self.m).max(axis=-1)
        return best


def _check_ergodic(n: int, m: int, mc: McRun, users: int = 1) -> None:
    """The checks of ``mimo_ergodic``, and with ``users`` those of
    ``mimo_scheduled_ergodic``."""
    _validate(n, m)
    if not isinstance(users, int) or users < 1:
        raise ValueError(f"users must be a positive integer, got {users!r}")
    if mc.samples < 1_000:
        raise ValueError(f"ergodic estimate needs >= 1000 samples, got {mc.samples}")


def _check_outage(n: int, m: int, p0: float, mc: McRun) -> None:
    _validate(n, m)
    if mc.samples < 10_000:
        raise ValueError(f"outage estimate needs >= 10000 samples, got {mc.samples}")
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"outage probability must lie in (0, 1), got {p0!r}")


def _channels(n: int, m: int) -> Request:
    """The draw request of a single-user channel set: each channel's e_k."""
    return (2, n, m), _gram_invariants, (min(n, m),)


def _user_sets(n: int, m: int, users: int, links: tuple[LinkParams, ...]) -> Request:
    """The draw request of a curve's K-user channel sets: each slot's best
    rate at every SINR."""
    return (users, 2, n, m), _BestRates(m, tuple(point.rho for point in links)), (len(links),)


def mimo_ergodic(
    n: int, m: int, link: Links, mc: McRun, invariants: np.ndarray | None = None
) -> CapacityResult | tuple[CapacityResult, ...]:
    """Monte Carlo mean rate, at one SINR or along a curve (a tuple of
    ``LinkParams`` gives a tuple of results); error_estimate is the
    standard error; read from ``invariants``, if given, the channel set
    ``draw_reduced(mc, *_channels(n, m))`` draws."""
    _check_ergodic(n, m, mc)
    links = _points(link)
    if not links:
        return ()
    if invariants is None:
        invariants = draw_reduced(mc, *_channels(n, m))
    else:
        _check_sample(invariants, (mc.samples, min(n, m)))
    return _shaped(link, tuple(
        _sample_mean(_det_rates(invariants, point.rho / m)) for point in links
    ))


# A CLI grid needs one rank set at a time.
@lru_cache(maxsize=4)
def _bootstrap_ranks(seed: int, size: int, k: int) -> np.ndarray:
    """For each bootstrap resample of ``size`` indices, its k-th smallest
    index.  On sorted data that index holds the resample's k-th smallest
    value, so the resample itself is never gathered or partitioned."""
    try:
        _check_size((size,), np.int64)  # the indices of one resample
    except MemoryError as exc:
        raise MemoryError(f"not enough memory to resample {size} samples: {exc}") from None
    boot_rng = substream(seed, _BOOTSTRAP_TAG)
    ranks = np.empty(_BOOTSTRAP_RESAMPLES, dtype=np.intp)
    for i in range(_BOOTSTRAP_RESAMPLES):
        idx = boot_rng.integers(0, size, size)
        ranks[i] = np.partition(idx, k)[k]
    ranks.flags.writeable = False
    return ranks


def mimo_outage(
    n: int, m: int, link: Links, p0: float, mc: McRun, invariants: np.ndarray | None = None
) -> CapacityResult | tuple[CapacityResult, ...]:
    """Empirical p0-quantile rate (nearest rank), bootstrap standard error,
    at one SINR or along a curve; ``invariants`` as for ``mimo_ergodic``."""
    _check_outage(n, m, p0, mc)
    links = _points(link)
    if not links:
        return ()
    k = _rank(p0, mc.samples)
    ranks = _bootstrap_ranks(mc.seed, mc.samples, k)
    if invariants is None:
        invariants = draw_reduced(mc, *_channels(n, m))
    else:
        _check_sample(invariants, (mc.samples, min(n, m)))

    def quantile(point: LinkParams) -> CapacityResult:
        rates = _det_rates(invariants, point.rho / m)
        rates.sort()
        se = float(rates[ranks].std(ddof=1))
        return CapacityResult(float(rates[k]), se)

    return _shaped(link, tuple(map(quantile, links)))


def mimo_scheduled_ergodic(
    n: int, m: int, users: int, link: Links, mc: McRun, table: np.ndarray | None = None
) -> CapacityResult | tuple[CapacityResult, ...]:
    """Greedy-scheduled MIMO system capacity: mean of the best rate among
    ``users`` independent channels per slot, at one SINR or along a curve
    (a tuple of ``LinkParams`` gives a tuple of results).

    The K-user channels are drawn and reduced to each slot's best rate at
    every SINR once per call, or read from ``table``, if given, the
    best-rate table ``draw_reduced(mc, *_user_sets(n, m, users, links))``
    draws.
    """
    _check_ergodic(n, m, mc, users)
    links = _points(link)
    if not links:
        return ()
    if table is None:
        table = draw_reduced(mc, *_user_sets(n, m, users, links))
    else:
        _check_sample(table, (mc.samples, len(links)))
    # One SINR at a time, copied contiguous, as a single SINR's rates would be.
    return _shaped(link, tuple(_sample_mean(rates.copy()) for rates in table.T))


# A curve of a grid: n, m and its SINRs.
_Curve = tuple[int, int, tuple[LinkParams, ...]]
# A curve's estimates by column: "ergodic", then "outage" and "scheduled"
# where asked for.
_Estimates = dict[str, tuple[CapacityResult, ...]]


def grid_estimates(
    curves: Sequence[_Curve], mc: McRun, p0: float | None = None, users: int | None = None
) -> list[_Estimates]:
    """Estimates of every curve of a grid, in grid order: ergodic, with
    ``p0`` outage, and with ``users`` greedy-scheduled capacity.

    First raises the error that each curve's ``mimo_ergodic``,
    ``mimo_outage`` and ``mimo_scheduled_ergodic`` calls, made curve by
    curve in grid order, would raise.  Then, with ``p0``, the bootstrap
    ranks are drawn, and the K-user tables and the single-user sets of the
    curves with SINRs are drawn by one ``streams.draw_shared`` call; each
    is estimated as soon as it is whole, on whichever thread of the pass
    completed it, and released.
    """
    for n, m, links in curves:
        _check_ergodic(n, m, mc)
        if p0 is not None:
            _check_outage(n, m, p0, mc)
        if users is not None:
            _check_ergodic(n, m, mc, users)
    columns = ["ergodic", *["outage"] * (p0 is not None), *["scheduled"] * (users is not None)]
    estimates: list[_Estimates] = [dict.fromkeys(columns, ()) for _ in curves]
    sampled = [(i, n, m, links) for i, (n, m, links) in enumerate(curves) if links]
    if p0 is not None and sampled:
        # Drawn before the pass, so that none of its outage calls draws them.
        _bootstrap_ranks(mc.seed, mc.samples, _rank(p0, mc.samples))
    # The K-user tables first, then the single-user sets: (grid index, request).
    draws = [(i, _user_sets(n, m, users, links))
             for i, n, m, links in sampled if users is not None]
    tables = len(draws)
    draws += [(i, _channels(n, m)) for i, n, m, _ in sampled]

    def consume(k: int, result: np.ndarray) -> None:
        i = draws[k][0]
        n, m, links = curves[i]
        result.flags.writeable = False
        if k < tables:
            estimates[i]["scheduled"] = mimo_scheduled_ergodic(n, m, users, links, mc, result)
            return
        estimates[i]["ergodic"] = mimo_ergodic(n, m, links, mc, result)
        if p0 is not None:
            estimates[i]["outage"] = mimo_outage(n, m, links, p0, mc, result)

    draw_shared(mc, [request for _, request in draws], consume)
    return estimates
