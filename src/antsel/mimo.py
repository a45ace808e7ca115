"""Open-loop MIMO baseline by Monte Carlo.

With no transmitter channel knowledge the power splits equally across the
m transmit antennas, and the instantaneous rate of an n x m channel H with
i.i.d. unit-variance complex Gaussian entries is

    log2 det(I_n + (rho/m) H H†).

Ergodic capacity, outage capacity, and the greedy-scheduled multiuser
variant are estimated by seeded, chunk-deterministic simulation.  Receive
arrays up to n = 8 are supported; the log-determinant is
``numpy.linalg.slogdet`` of I_n + (rho/m) H H† on the small Gram matrix.
"""
from __future__ import annotations

import math

import numpy as np

from .capacity import CapacityResult, LinkParams, Method
from .streams import McRun, chunk_generators, substream

__all__ = ["MAX_RX_ANTENNAS", "mimo_ergodic", "mimo_outage", "mimo_scheduled_ergodic"]

MAX_RX_ANTENNAS = 8

_LN2 = math.log(2.0)
_BOOTSTRAP_RESAMPLES = 100
_BOOTSTRAP_TAG = 1


def _validate(n: int, m: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_RX_ANTENNAS:
        raise ValueError(f"n must be an integer in 1..{MAX_RX_ANTENNAS}, got {n!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")


def _logdet_rates(z: np.ndarray, n: int, m: int, rho: float) -> np.ndarray:
    """Rates for a batch of channels drawn as (..., 2, n, m) standard normals."""
    h = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) * math.sqrt(0.5)
    gram = h @ h.conj().swapaxes(-1, -2)
    a = np.eye(n) + (rho / m) * gram
    _, logdet = np.linalg.slogdet(a)
    return logdet / _LN2


def _rates(n: int, m: int, rho: float, mc: McRun) -> np.ndarray:
    parts = []
    for count, rng in chunk_generators(mc, 2 * n * m):
        z = rng.standard_normal((count, 2, n, m))
        parts.append(_logdet_rates(z, n, m, rho))
    return np.concatenate(parts)


def mimo_ergodic(n: int, m: int, link: LinkParams, mc: McRun) -> CapacityResult:
    """Monte Carlo mean rate; error_estimate is the standard error."""
    _validate(n, m)
    if mc.samples < 1_000:
        raise ValueError(f"ergodic estimate needs >= 1000 samples, got {mc.samples}")
    rates = _rates(n, m, link.rho, mc)
    se = float(rates.std(ddof=1) / math.sqrt(rates.size))
    return CapacityResult(float(rates.mean()), Method.MONTE_CARLO, se)


def _nearest_rank(sorted_rates: np.ndarray, p0: float) -> float:
    k = math.ceil(p0 * sorted_rates.size) - 1
    return float(sorted_rates[max(k, 0)])


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
    value = _nearest_rank(rates, p0)

    k = max(math.ceil(p0 * rates.size) - 1, 0)
    boot_rng = substream(mc.seed, _BOOTSTRAP_TAG)
    resampled = np.empty(_BOOTSTRAP_RESAMPLES)
    for i in range(_BOOTSTRAP_RESAMPLES):
        idx = boot_rng.integers(0, rates.size, rates.size)
        resampled[i] = np.partition(rates[idx], k)[k]
    return CapacityResult(value, Method.MONTE_CARLO, float(resampled.std(ddof=1)))


def mimo_scheduled_ergodic(
    n: int, m: int, users: int, link: LinkParams, mc: McRun
) -> CapacityResult:
    """Greedy-scheduled MIMO system capacity: mean of the best rate among
    ``users`` independent channels per slot."""
    _validate(n, m)
    if not isinstance(users, int) or users < 1:
        raise ValueError(f"users must be a positive integer, got {users!r}")
    if mc.samples < 1_000:
        raise ValueError(f"ergodic estimate needs >= 1000 samples, got {mc.samples}")
    parts = []
    for count, rng in chunk_generators(mc, 2 * n * m * users):
        z = rng.standard_normal((count, users, 2, n, m))
        parts.append(_logdet_rates(z, n, m, link.rho).max(axis=1))
    best = np.concatenate(parts)
    se = float(best.std(ddof=1) / math.sqrt(best.size))
    return CapacityResult(float(best.mean()), Method.MONTE_CARLO, se)
