"""Multiuser scheduling gain for selection links.

Greedy scheduling of K symmetric users, each running best-of-m antenna
selection, serves the instantaneously best branch among all users, so its
average system capacity is the point-to-point ergodic capacity with m*K
branches.  Round robin keeps the single-user capacity.  The gain is their
difference; a closed-form approximation replaces each capacity with the
quantile form log2(1 + rho (q + γ)).

The capacity and gain functions take one scenario or a curve of them, as
the capacity estimators take one ``LinkParams`` or a tuple: a tuple of
scenarios that share the antenna configuration and user count, one SINR
each, gives a tuple of results and costs one capacity call per estimator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from .capacity import (
    CapacityResult,
    LinkParams,
    Links,
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
    """K users with identical per-user antenna configuration and SINR."""

    cfg: SelectionConfig
    users: int
    link: LinkParams

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


Scenarios = SchedulingScenario | tuple[SchedulingScenario, ...]
_T = TypeVar("_T")


def _curve(scen: Scenarios) -> tuple[SelectionConfig, SelectionConfig, Links]:
    """Per-user and pooled configurations of a scenario or of a curve of
    scenarios, with the link argument for the capacity estimators: the
    scenario's link, or the tuple of the curve's links."""
    if isinstance(scen, SchedulingScenario):
        return scen.cfg, scen.pooled_cfg, scen.link
    scens = tuple(scen)
    if len({(s.cfg, s.users) for s in scens}) != 1:
        raise ValueError(
            "a curve needs at least one scenario, all with the same cfg and users"
        )
    return scens[0].cfg, scens[0].pooled_cfg, tuple(s.link for s in scens)


def _pointwise(link: Links, fn: Callable[..., _T], *results) -> _T | tuple[_T, ...]:
    """``fn`` of the estimators' results at each SINR: one value for a
    single link, a tuple along a curve."""
    if isinstance(link, LinkParams):
        return fn(*results)
    return tuple(map(fn, *results))


def _difference(greedy: CapacityResult, rr: CapacityResult) -> float:
    return greedy.value - rr.value


def _fraction(greedy: CapacityResult, rr: CapacityResult) -> float:
    if not rr.value > 0.0:
        raise ValueError(
            f"round-robin capacity {rr.value!r} is not positive; "
            "fractional gain undefined for this scenario"
        )
    return _difference(greedy, rr) / rr.value


def greedy_capacity(scen: Scenarios) -> CapacityResult | tuple[CapacityResult, ...]:
    """Average system capacity when the best user is always served."""
    _, pooled, link = _curve(scen)
    return ergodic_capacity(pooled, link)


def round_robin_capacity(scen: Scenarios) -> CapacityResult | tuple[CapacityResult, ...]:
    """Average system capacity under equal time sharing (K-independent)."""
    cfg, _, link = _curve(scen)
    return ergodic_capacity(cfg, link)


def scheduling_gain(scen: Scenarios, mode: str = "exact") -> float | tuple[float, ...]:
    """Capacity increase of greedy over round-robin scheduling, in bits.

    "exact" differences the two quadrature capacities; "approx" uses the
    closed-form quantile capacities for both terms.
    """
    cfg, pooled, link = _curve(scen)
    if mode == "exact":
        estimator = ergodic_capacity
    elif mode == "approx":
        estimator = ergodic_approx
    else:
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    return _pointwise(link, _difference, estimator(pooled, link), estimator(cfg, link))


def fractional_gain(scen: Scenarios) -> float | tuple[float, ...]:
    """Exact scheduling gain as a fraction of the round-robin capacity."""
    cfg, pooled, link = _curve(scen)
    rr = ergodic_capacity(cfg, link)
    return _pointwise(link, _fraction, ergodic_capacity(pooled, link), rr)


def gain_report(scen: Scenarios) -> GainReport | tuple[GainReport, ...]:
    """All scheduling figures of merit for one scenario or along a curve."""
    cfg, pooled, link = _curve(scen)
    greedy = ergodic_capacity(pooled, link)
    rr = ergodic_capacity(cfg, link)

    def report(greedy: CapacityResult, rr: CapacityResult, approx: float) -> GainReport:
        exact, fraction = _difference(greedy, rr), _fraction(greedy, rr)
        return GainReport(greedy, rr, exact, approx, fraction)

    return _pointwise(link, report, greedy, rr, scheduling_gain(scen, "approx"))


def gain_table(
    users: int = 32,
    n: int = 1,
    rho_db: Sequence[float] = (-5.0, 0.0, 5.0, 10.0),
    m_values: Iterable[int] = range(1, 21),
) -> list[GainCell]:
    """Exact and approximate scheduling gains over an (m, SINR) grid.

    Full precision throughout; display rounding is left to the caller.
    The approximate gain is reported for m >= 2 only, where the location
    quantile is positive.
    """
    cells: list[GainCell] = []
    for m in m_values:
        for db in rho_db:
            scen = SchedulingScenario(
                SelectionConfig(n, m), users, LinkParams(db_to_linear(db))
            )
            exact = scheduling_gain(scen, "exact")
            approx = scheduling_gain(scen, "approx") if m >= 2 else None
            cells.append(GainCell(m, db, exact, approx))
    return cells
