"""Multiuser scheduling gain for selection links.

Greedy scheduling of K symmetric users, each running best-of-m antenna
selection, serves the instantaneously best branch among all users, so its
average system capacity is the point-to-point ergodic capacity with m*K
branches.  Round robin keeps the single-user capacity.  The gain is their
difference; a closed-form approximation replaces each capacity with the
quantile form log2(1 + rho (q + γ)).

A scenario holds one SINR or a whole curve, as the capacity estimators
take one ``LinkParams`` or a tuple: the functions here give one result
for a single link and a tuple along a curve, and cost one capacity call
per estimator and configuration whatever the curve's length.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .capacity import (
    CapacityResult,
    LinkParams,
    Links,
    _points,
    _shaped,
    db_to_linear,
    ergodic_approx,
    ergodic_capacity,
)
from .orderstats import SelectionConfig

__all__ = [
    "SchedulingScenario",
    "GainReport",
    "GainCell",
    "greedy_capacity",
    "round_robin_capacity",
    "scheduling_gain",
    "fractional_gain",
    "gain_report",
    "gain_table",
]

@dataclass(frozen=True)
class SchedulingScenario:
    """K users with identical per-user antenna configuration, at one SINR
    or along a curve (``link`` a tuple of ``LinkParams``)."""

    cfg: SelectionConfig
    users: int
    link: Links

    def __post_init__(self) -> None:
        if not isinstance(self.users, int) or self.users < 1:
            raise ValueError(f"users must be a positive integer, got {self.users!r}")

    @property
    def pooled_cfg(self) -> SelectionConfig:
        """Selection over all users' branches combined."""
        return SelectionConfig(self.cfg.n, self.cfg.m * self.users)


@dataclass(frozen=True)
class GainReport:
    """Greedy vs round-robin capacities with exact and approximate gains."""

    greedy: CapacityResult
    round_robin: CapacityResult
    exact_gain: float
    approx_gain: float
    fractional: float


class GainCell(NamedTuple):
    m: int
    rho_db: float
    exact: float
    approx: float | None


Capacities = CapacityResult | tuple[CapacityResult, ...]
Gains = float | tuple[float, ...]


def _difference(greedy: CapacityResult, rr: CapacityResult) -> float:
    return greedy.value - rr.value


def _fraction(greedy: CapacityResult, rr: CapacityResult) -> float:
    if not rr.value > 0.0:
        raise ValueError(
            f"round-robin capacity {rr.value!r} is not positive; "
            "fractional gain undefined for this scenario"
        )
    return _difference(greedy, rr) / rr.value


def greedy_capacity(scen: SchedulingScenario) -> Capacities:
    """Average system capacity when the best user is always served."""
    return ergodic_capacity(scen.pooled_cfg, scen.link)


def round_robin_capacity(scen: SchedulingScenario) -> Capacities:
    """Average system capacity under equal time sharing (K-independent)."""
    return ergodic_capacity(scen.cfg, scen.link)


def _gains(
    scen: SchedulingScenario, links: tuple[LinkParams, ...], mode: str
) -> tuple[float, ...]:
    """Greedy minus round-robin capacity at each SINR of ``links``."""
    if mode == "exact":
        estimator = ergodic_capacity
    elif mode == "approx":
        estimator = ergodic_approx
    else:
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    greedy, rr = estimator(scen.pooled_cfg, links), estimator(scen.cfg, links)
    return tuple(map(_difference, greedy, rr))


def scheduling_gain(scen: SchedulingScenario, mode: str = "exact") -> Gains:
    """Capacity increase of greedy over round-robin scheduling, in bits.

    "exact" differences the two quadrature capacities; "approx" uses the
    closed-form quantile capacities for both terms.
    """
    return _shaped(scen.link, _gains(scen, _points(scen.link), mode))


def fractional_gain(scen: SchedulingScenario) -> Gains:
    """Exact scheduling gain as a fraction of the round-robin capacity."""
    links = _points(scen.link)
    rr = ergodic_capacity(scen.cfg, links)
    greedy = ergodic_capacity(scen.pooled_cfg, links)
    return _shaped(scen.link, tuple(map(_fraction, greedy, rr)))


def gain_report(scen: SchedulingScenario) -> GainReport | tuple[GainReport, ...]:
    """All scheduling figures of merit, at one SINR or along a curve."""
    links = _points(scen.link)
    greedy = ergodic_capacity(scen.pooled_cfg, links)
    rr = ergodic_capacity(scen.cfg, links)
    approx = _gains(scen, links, "approx")
    return _shaped(scen.link, tuple(
        GainReport(g, r, _difference(g, r), a, _fraction(g, r))
        for g, r, a in zip(greedy, rr, approx)
    ))


def gain_table(
    users: int = 32,
    n: int = 1,
    rho_db: Sequence[float] = (-5.0, 0.0, 5.0, 10.0),
    m_values: Iterable[int] = range(1, 21),
) -> list[GainCell]:
    """Exact and approximate scheduling gains over an (m, SINR) grid, one
    scenario per m over the whole SINR list.

    Full precision throughout; display rounding is left to the caller.
    The approximate gain is reported for m >= 2 only, where the location
    quantile is positive.
    """
    links = tuple(LinkParams(db_to_linear(db)) for db in rho_db)
    cells: list[GainCell] = []
    for m in m_values:
        scen = SchedulingScenario(SelectionConfig(n, m), users, links)
        exact = scheduling_gain(scen, "exact")
        approx = scheduling_gain(scen, "approx") if m >= 2 else repeat(None)
        cells += map(GainCell, repeat(m), rho_db, exact, approx)
    return cells
