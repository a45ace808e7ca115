"""Capacity and scheduling analysis of best-antenna selection links.

Exact chi-square order statistics of the selection gain, Gumbel tail
approximations with selectable normalizing constants, outage and ergodic
capacity with closed-form sandwich bounds, multiuser scheduling gain, and
Monte Carlo baselines (channel-level oracle and open-loop MIMO).
"""
from .capacity import (
    CapacityResult,
    LinkParams,
    Method,
    ergodic_approx,
    ergodic_bounds,
    ergodic_capacity,
    mean_selection_gain,
    outage_capacity,
    outage_probability,
    selection_gain_variance,
)
from .gumbel import (
    EULER_GAMMA,
    FitStrategy,
    GumbelFit,
    approx_max_cdf,
    approx_moments,
    convergence_error,
    gumbel_cdf,
    normalizing_constants,
)
from .mimo import MAX_RX_ANTENNAS, mimo_ergodic, mimo_outage, mimo_scheduled_ergodic
from .oracle import (
    EmpiricalSummary,
    empirical_ergodic,
    ks_against,
    sample_selection_gain,
)
from .orderstats import (
    SelectionConfig,
    SolverError,
    TailValue,
    cdf,
    characteristic_largest,
    max_cdf,
    max_pdf,
    mean_residual_life,
    pdf,
    quantile,
    survival,
    tail_quantile,
    upper_density_root,
)
from .scheduling import (
    GainCell,
    GainReport,
    SchedulingScenario,
    fractional_gain,
    gain_report,
    gain_table,
    greedy_capacity,
    round_robin_capacity,
    scheduling_gain,
)
from .streams import DEFAULT_SEED, McRun, sharing

__version__ = "0.1.0"

__all__ = [
    "CapacityResult",
    "DEFAULT_SEED",
    "EULER_GAMMA",
    "EmpiricalSummary",
    "FitStrategy",
    "GainCell",
    "GainReport",
    "GumbelFit",
    "LinkParams",
    "MAX_RX_ANTENNAS",
    "McRun",
    "Method",
    "SchedulingScenario",
    "SelectionConfig",
    "SolverError",
    "TailValue",
    "approx_max_cdf",
    "approx_moments",
    "cdf",
    "characteristic_largest",
    "convergence_error",
    "empirical_ergodic",
    "ergodic_approx",
    "ergodic_bounds",
    "ergodic_capacity",
    "fractional_gain",
    "gain_report",
    "gain_table",
    "greedy_capacity",
    "gumbel_cdf",
    "ks_against",
    "max_cdf",
    "max_pdf",
    "mean_residual_life",
    "mean_selection_gain",
    "mimo_ergodic",
    "mimo_outage",
    "mimo_scheduled_ergodic",
    "normalizing_constants",
    "outage_capacity",
    "outage_probability",
    "pdf",
    "quantile",
    "round_robin_capacity",
    "sample_selection_gain",
    "scheduling_gain",
    "selection_gain_variance",
    "sharing",
    "survival",
    "tail_quantile",
    "upper_density_root",
]
