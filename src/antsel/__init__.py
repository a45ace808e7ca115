"""Capacity and scheduling analysis of best-antenna selection links.

Exact chi-square order statistics of the selection gain, Gumbel tail
approximations with selectable normalizing constants, outage and ergodic
capacity with closed-form sandwich bounds, multiuser scheduling gain, and
Monte Carlo baselines (channel-level oracle and open-loop MIMO).
"""
from . import capacity, gumbel, mimo, oracle, orderstats, scheduling, streams
from .capacity import *
from .gumbel import *
from .mimo import *
from .oracle import *
from .orderstats import *
from .scheduling import *
from .streams import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = sorted(
    name
    for module in (capacity, gumbel, mimo, oracle, orderstats, scheduling, streams)
    for name in module.__all__
)
