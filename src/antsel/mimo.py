"""Open-loop MIMO baseline by Monte Carlo.

With no transmitter channel knowledge the power splits equally across the
m transmit antennas, and the instantaneous rate of an n x m channel H with
i.i.d. unit-variance complex Gaussian entries is

    log2 det(I_n + (rho/m) H H†) = sum_i log2(1 + (rho/m) lambda_i),

with lambda_i the eigenvalues of the Gram matrix H H†.  Ergodic capacity,
outage capacity, and the greedy-scheduled multiuser variant are estimated
by seeded, chunk-deterministic simulation.  Receive arrays up to n = 8 are
supported.

The eigenvalues do not depend on rho, so each thread keeps the last
(n, m, McRun) channel set it drew and reduced: the ergodic and outage
estimators at every SINR of a point share it.  The greedy-scheduled
estimator takes a whole SINR curve instead and draws its K-user set once
per call, taking every SINR's best rate per slot from the same Gram
eigenvalues of each slab.  The reduction works in real
arithmetic on the real and imaginary parts of H, on the smaller of the two
Gram matrices (H H† or H^T conj(H), which share their nonzero eigenvalues).
With r = min(n, m), the eigenvalue is a squared norm for r = 1; r = 2 and
r = 3 use the closed forms of 2 x 2 and 3 x 3 Hermitian matrices, and
larger r ``numpy.linalg.eigvalsh``.  Up to r = 3 every sum is one dot
product along a row: over all 2 max(n, m) numbers of a channel for
r = 1, and over each row of the real and of the imaginary part for the
Gram entries at r = 2 and 3; r >= 4 forms the Gram matrix by matmul and
takes no separate diagonal, since ``eigvalsh`` does not use it.  The
rates add one or two logarithms directly, because numpy's ``sum`` is slow
over so short an axis; it adds them in the same order.  The outage
bootstrap resamples sorted rates, so a resample's quantile is the rate at
a rank that depends only on (seed, sample count, quantile level); those
ranks are drawn once and kept in a small cache.

Channels are drawn through ``streams.draw_reduced``, which reduces each
chunk in slabs of about ``streams.SLAB_ELEMENTS`` normals, so a call holds
one slab of normals and its reductions, never a whole chunk: memory stays
bounded when the CLI runs several (n, m) points on worker threads at once
(numpy releases the GIL while it fills the normals).  The estimators are
safe to call from several threads.  A grid point that runs its SINRs on
one thread draws its set once; the bootstrap ranks, which every (n, m)
shares, are computed under a lock, so concurrent outage calls draw them
once.
"""
from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .capacity import _LN2, CapacityResult, LinkParams, Links, Method, _points, _shaped
from .streams import McRun, _sample_mean, draw_reduced, substream

__all__ = ["MAX_RX_ANTENNAS", "mimo_ergodic", "mimo_outage", "mimo_scheduled_ergodic"]

MAX_RX_ANTENNAS = 8

_BOOTSTRAP_RESAMPLES = 100
_BOOTSTRAP_TAG = 1
_RANKS_LOCK = threading.Lock()
# The channel set (samples x min(n, m) eigenvalues) each thread used last.
# A CLI grid runs all SINRs of an (n, m) point on one thread, so the point
# draws its set once.
_HELD = threading.local()


def _validate(n: int, m: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_RX_ANTENNAS:
        raise ValueError(f"n must be an integer in 1..{MAX_RX_ANTENNAS}, got {n!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")


# Real and imaginary parts of one Gram matrix entry across a batch.
_Entry = tuple[np.ndarray, np.ndarray]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", x, y)


def _gram_real(a: np.ndarray, b: np.ndarray, i: int, j: int) -> np.ndarray:
    """Real part of entry (i, j) of H H†, H = (a + i b)/sqrt(2); for i = j,
    the (real) diagonal entry."""
    return 0.5 * (_dot(a[..., i, :], a[..., j, :]) + _dot(b[..., i, :], b[..., j, :]))


def _gram_entry(a: np.ndarray, b: np.ndarray, i: int, j: int) -> _Entry:
    """Real and imaginary parts of entry (i, j) of H H†."""
    ai, aj, bi, bj = a[..., i, :], a[..., j, :], b[..., i, :], b[..., j, :]
    return _gram_real(a, b, i, j), 0.5 * (_dot(bi, aj) - _dot(ai, bj))


def _abs2(entry: _Entry) -> np.ndarray:
    re, im = entry
    return re * re + im * im


def _hermitian3_eigenvalues(
    diag: np.ndarray, g12: _Entry, g13: _Entry, g23: _Entry
) -> np.ndarray:
    """Eigenvalues of 3 x 3 Hermitian matrices, largest first, from the
    diagonal and the (real, imaginary) upper entries: the trigonometric
    solution of the characteristic cubic (O. K. Smith, CACM 4, 1961)."""
    q = diag.sum(axis=-1) / 3
    e1, e2, e3 = (diag[..., i] - q for i in range(3))
    s12, s13, s23 = _abs2(g12), _abs2(g13), _abs2(g23)
    p = np.sqrt((e1 * e1 + e2 * e2 + e3 * e3 + 2 * (s12 + s13 + s23)) / 6)
    (r12, i12), (r13, i13), (r23, i23) = g12, g13, g23
    # det(G - qI); the middle term is 2 Re(g12 g23 conj(g13)).
    triple = (r12 * r23 - i12 * i23) * r13 + (r12 * i23 + i12 * r23) * i13
    det = e1 * e2 * e3 + 2 * triple - e1 * s23 - e2 * s13 - e3 * s12
    half = np.divide(det, 2 * p**3, out=np.zeros_like(p), where=p > 0)
    phi = np.arccos(np.clip(half, -1.0, 1.0)) / 3
    largest = q + 2 * p * np.cos(phi)
    smallest = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    # Next to a repeated pair, arccos leaves each of the two close
    # eigenvalues an error near sqrt(eps) times p, of opposite sign: taking
    # the middle one from the trace keeps their sum, so sum log1p(x lambda)
    # moves only at second order, far below rounding.
    return np.stack([largest, 3 * q - largest - smallest, smallest], axis=-1)


def _gram_eigenvalues(z: np.ndarray) -> np.ndarray:
    """Nonzero eigenvalues of H H† for channels drawn as (..., 2, n, m)
    standard normals, H = (z[..., 0, :, :] + i z[..., 1, :, :]) / sqrt(2).

    Returns (..., min(n, m)), clipped at zero.  For m < n the Gram matrix
    has rank m and the eigenvalues come from the m x m matrix H^T conj(H),
    so none of them is rounding noise.
    """
    n, m = z.shape[-2:]
    if n == 1 or m == 1:
        # Half the squared norm of the channel's 2 max(n, m) numbers, one
        # contiguous run.  A pair is multiplied out: faster than einsum,
        # which adds a pair in the same order.
        if n == m:
            re, im = z[..., 0, :, 0], z[..., 1, :, 0]
            return 0.5 * (re * re + im * im)
        flat = z.reshape(z.shape[:-3] + (-1,))
        return 0.5 * _dot(flat, flat)[..., None]
    if m < n:
        z = z.swapaxes(-1, -2)
    r = z.shape[-2]
    a, b = z[..., 0, :, :], z[..., 1, :, :]
    if r == 2:
        g11, g22 = _gram_real(a, b, 0, 0), _gram_real(a, b, 1, 1)
        g12 = _gram_entry(a, b, 0, 1)
        upper = 0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), np.hypot(*g12))
        # det / upper keeps the small eigenvalue accurate where the
        # difference tr/2 - hypot(...) would cancel.
        lower = (g11 * g22 - _abs2(g12)) / upper
        lam = np.stack([upper, lower], axis=-1)
    elif r == 3:
        # Half the squared norm of each row, summed over a and b.
        diag = 0.5 * (_dot(a, a) + _dot(b, b))
        entries = (_gram_entry(a, b, i, j) for i, j in ((0, 1), (0, 2), (1, 2)))
        lam = _hermitian3_eigenvalues(diag, *entries)
    else:
        at, bt = a.swapaxes(-1, -2), b.swapaxes(-1, -2)
        gram = np.empty(z.shape[:-3] + (r, r), dtype=complex)
        gram.real = 0.5 * (a @ at + b @ bt)
        gram.imag = 0.5 * (b @ at - a @ bt)
        lam = np.linalg.eigvalsh(gram)
    return np.maximum(lam, 0.0, out=lam)


def _log2det(eigenvalues: np.ndarray, m: int, rho: float) -> np.ndarray:
    """log2 det(I + (rho/m) H H†) from the Gram eigenvalues (last axis)."""
    terms = (rho / m) * eigenvalues
    np.log1p(terms, out=terms)
    # sum() is slow over so short an axis; one term, or a pair added in
    # the order sum() adds it, gives the same bits.
    r = terms.shape[-1]
    if r == 1:
        total = terms[..., 0]
    elif r == 2:
        total = terms[..., 0] + terms[..., 1]
    else:
        total = terms.sum(axis=-1)
    return total / _LN2


def _rates(n: int, m: int, rho: float, mc: McRun) -> np.ndarray:
    """Rates of the single-user channel set at SINR rho."""
    key = (n, m, mc)
    held = getattr(_HELD, "entry", None)
    if held is None or held[0] != key:
        eigenvalues = draw_reduced(mc, (2, n, m), _gram_eigenvalues)
        eigenvalues.flags.writeable = False
        held = _HELD.entry = (key, eigenvalues)
    return _log2det(held[1], m, rho)


def mimo_ergodic(n: int, m: int, link: LinkParams, mc: McRun) -> CapacityResult:
    """Monte Carlo mean rate; error_estimate is the standard error."""
    _validate(n, m)
    if mc.samples < 1_000:
        raise ValueError(f"ergodic estimate needs >= 1000 samples, got {mc.samples}")
    return _sample_mean(_rates(n, m, link.rho, mc))


# A CLI grid needs one rank set at a time.
@lru_cache(maxsize=4)
def _bootstrap_ranks(seed: int, size: int, k: int) -> np.ndarray:
    """For each bootstrap resample of ``size`` indices, its k-th smallest
    index.  On sorted data that index holds the resample's k-th smallest
    value, so the resample itself is never gathered or partitioned."""
    boot_rng = substream(seed, _BOOTSTRAP_TAG)
    ranks = np.empty(_BOOTSTRAP_RESAMPLES, dtype=np.intp)
    for i in range(_BOOTSTRAP_RESAMPLES):
        idx = boot_rng.integers(0, size, size)
        ranks[i] = np.partition(idx, k)[k]
    ranks.flags.writeable = False
    return ranks


def mimo_outage(
    n: int, m: int, link: LinkParams, p0: float, mc: McRun
) -> CapacityResult:
    """Empirical p0-quantile rate (nearest rank), bootstrap standard error."""
    _validate(n, m)
    if mc.samples < 10_000:
        raise ValueError(f"outage estimate needs >= 10000 samples, got {mc.samples}")
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"outage probability must lie in (0, 1), got {p0!r}")
    rates = np.sort(_rates(n, m, link.rho, mc))
    k = max(math.ceil(p0 * rates.size) - 1, 0)
    # lru_cache alone would let two threads compute the same ranks at once.
    with _RANKS_LOCK:
        ranks = _bootstrap_ranks(mc.seed, rates.size, k)
    resampled = rates[ranks]
    se = float(resampled.std(ddof=1))
    return CapacityResult(float(rates[k]), Method.MONTE_CARLO, se)


def mimo_scheduled_ergodic(
    n: int, m: int, users: int, link: Links, mc: McRun
) -> CapacityResult | tuple[CapacityResult, ...]:
    """Greedy-scheduled MIMO system capacity: mean of the best rate among
    ``users`` independent channels per slot, at one SINR or along a curve
    (a tuple of ``LinkParams`` gives a tuple of results).

    The K-user channels are drawn and reduced to Gram eigenvalues once per
    call; every SINR's best rate per slot comes from those eigenvalues.
    """
    _validate(n, m)
    if not isinstance(users, int) or users < 1:
        raise ValueError(f"users must be a positive integer, got {users!r}")
    if mc.samples < 1_000:
        raise ValueError(f"ergodic estimate needs >= 1000 samples, got {mc.samples}")
    rhos = [point.rho for point in _points(link)]
    if not rhos:
        return ()

    def best_rates(z: np.ndarray) -> np.ndarray:
        eigenvalues = _gram_eigenvalues(z)
        return np.stack(
            [_log2det(eigenvalues, m, rho).max(axis=1) for rho in rhos], axis=1
        )

    # One row per SINR, each contiguous, as a single SINR's rates would be.
    rates = draw_reduced(mc, (users, 2, n, m), best_rates).T.copy()
    return _shaped(link, tuple(_sample_mean(row) for row in rates))
