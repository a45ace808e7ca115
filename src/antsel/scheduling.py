"""Multiuser scheduling gain for selection links.

Greedy scheduling of K symmetric users, each running best-of-m antenna
selection, serves the instantaneously best branch among all users, so its
average system capacity is the point-to-point ergodic capacity with m*K
branches.  Round robin keeps the single-user capacity.  The gain is their
difference; a closed-form approximation replaces each capacity with the
quantile form log2(1 + rho (q + γ)).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .capacity import (
    CapacityResult,
    LinkParams,
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


def greedy_capacity(scen: SchedulingScenario) -> CapacityResult:
    """Average system capacity when the best user is always served."""
    return ergodic_capacity(scen.pooled_cfg, scen.link)


def round_robin_capacity(scen: SchedulingScenario) -> CapacityResult:
    """Average system capacity under equal time sharing (K-independent)."""
    return ergodic_capacity(scen.cfg, scen.link)


def scheduling_gain(scen: SchedulingScenario, mode: str = "exact") -> float:
    """Capacity increase of greedy over round-robin scheduling, in bits.

    "exact" differences the two quadrature capacities; "approx" uses the
    closed-form quantile capacities for both terms.
    """
    if mode == "exact":
        return greedy_capacity(scen).value - round_robin_capacity(scen).value
    if mode == "approx":
        return (
            ergodic_approx(scen.pooled_cfg, scen.link).value
            - ergodic_approx(scen.cfg, scen.link).value
        )
    raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")


def fractional_gain(scen: SchedulingScenario) -> float:
    """Exact scheduling gain as a fraction of the round-robin capacity."""
    base = round_robin_capacity(scen)
    if not base.value > 0.0:
        raise ValueError(
            f"round-robin capacity {base.value!r} is not positive; "
            "fractional gain undefined for this scenario"
        )
    return scheduling_gain(scen, "exact") / base.value


def gain_report(scen: SchedulingScenario) -> GainReport:
    """All scheduling figures of merit for one scenario."""
    greedy = greedy_capacity(scen)
    rr = round_robin_capacity(scen)
    exact = greedy.value - rr.value
    return GainReport(
        greedy=greedy,
        round_robin=rr,
        exact_gain=exact,
        approx_gain=scheduling_gain(scen, "approx"),
        fractional=exact / rr.value,
    )


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
