"""Command-line front end: grid evaluation and CSV emission.

Every data subcommand writes one CSV with a fixed column schema
(``SCHEMAS``), preceded by ``#`` comment lines recording the exact
parameters, so outputs are byte-stable for identical invocations; the
estimators its ``--mode`` may pick are listed in ``MODES``.  SINR is
accepted in dB and converted to linear exactly once, in ``_grid``, which
hands out the grid one (n, m) curve at a time with the curve's key columns.
A subcommand fills in each curve's other columns; ``_emit`` formats the
block a column at a time and writes its rows in grid order, with the same
bytes as formatting cell by cell (``"%.10g" % x`` prints what
``f"{x:.10g}"`` prints).

The Monte Carlo work of a run is one ``streams.draw_shared`` call: the
``mimo`` grid's K-user tables and single-user sets
(``mimo.grid_estimates``), or ``verify``'s seven samplers, drawn after its
run and sample floor are checked and before its analytic checks.  Each
sample goes, read-only, to its estimators on whichever thread of the pass
completed it.  Results are read in grid or report order, and an error is
the pass's earliest, so the output, and which error is reported, do not
depend on the threads.

Importing this module registers ``gc.freeze`` to run at interpreter exit.
Finalization would otherwise run full collections over the tens of
thousands of objects the imports create and tear their cycles down one
object at a time, about 27 ms after the last statement of every run; frozen,
they are left to the OS with the rest of the heap.  Nothing here needs a
finalizer at exit: ``_emit`` closes ``--out`` itself, the interpreter
flushes stdout, and a pass joins its helper before it returns.  ``import
antsel`` alone registers nothing, and in-process callers of ``main`` are
unaffected until their interpreter exits.

Exit codes: 0 success, 2 invalid arguments or parameter combinations
(the parser rejects a mode the subcommand does not have, and a bad
``--rho-db`` exits 2 before any curve is computed) or a run that
does not fit in memory (the message names the draw when a Monte Carlo
draw runs out), 3 numerical diagnostic (solver or verification failure).
"""
from __future__ import annotations

import argparse
import atexit
import csv
import gc
import io
import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .capacity import (
    CapacityResult,
    LinkParams,
    db_to_linear,
    ergodic_approx,
    ergodic_bounds,
    ergodic_capacity,
    mean_selection_gain,
    outage_capacity,
    outage_probability,
    selection_gain_variance,
)
from .gumbel import (
    FitStrategy,
    approx_moments,
    convergence_error,
    normalizing_constants,
)
from .mimo import _channels, grid_estimates, mimo_ergodic
from .oracle import _gains, _ks_statistic, empirical_ergodic
from .orderstats import (
    SelectionConfig,
    SolverError,
    max_cdf,
    quantile,
    tail_quantile,
)
from .scheduling import SchedulingScenario, gain_report, scheduling_gain
from .streams import DEFAULT_SEED, McRun, draw_shared

SCHEMAS: dict[str, list[str]] = {
    "dist": ["n", "m", "strategy", "x", "exact_cdf", "approx_cdf"],
    "fit": ["n", "m", "strategy", "location", "scale", "mean", "variance"],
    "outage": ["n", "m", "rho_db", "p0", "exact", "approx", "approx_clamped"],
    "ergodic": ["n", "m", "rho_db", "exact", "quad_error", "lower", "upper", "approx"],
    "scheduling": ["n", "m", "users", "rho_db", "greedy", "round_robin", "gain_exact",
                   "gain_approx", "fractional"],
    "table1": ["m", "rho_db", "exact_gain", "approx_gain"],
    "mimo": ["n", "m", "rho_db", "p0", "users", "samples", "seed", "ergodic",
             "ergodic_stderr", "outage", "outage_stderr", "scheduled",
             "scheduled_stderr"],
    "verify": ["check", "status", "detail"],
}

# The estimators each subcommand's --mode may pick, in --help order; a
# subcommand missing here has no --mode.  No --mode fills every value
# column; a mode fills only its estimator's columns, keeping the schema.
MODES: dict[str, tuple[str, ...]] = {
    "dist": ("exact", "approx"),
    "outage": ("exact", "approx"),
    "ergodic": ("exact", "bounds", "approx"),
    "scheduling": ("exact", "approx"),
    "table1": ("exact", "approx"),
    "mimo": ("mc",),
}

# Cells printed with fixed decimals instead of 10 significant digits.
_FORMATS = {"table1": {"exact_gain": ".4f", "approx_gain": ".2f"}}

_STRATEGIES = {s.value: s for s in FitStrategy}

# Leave the heap to the OS at exit (see the module docstring).
atexit.register(gc.freeze)

# Most values one range of a grid option, or --points, may ask for.
MAX_GRID_VALUES = 10**6


def _check_grid_size(text: str, count: float) -> None:
    """Reject a range of more than ``MAX_GRID_VALUES`` values before it is built.

    ``count`` may be fractional (a float range's last step is cut short), so
    the values are ``floor(count)``.
    """
    if count >= MAX_GRID_VALUES + 1:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has {count:.7g} values; at most {MAX_GRID_VALUES} are allowed")


def parse_int_grid(text: str) -> list[int]:
    """Integer grid: '7', '1,2,5', or inclusive range '1..20'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        _check_grid_size(text, hi_i - lo_i + 1)
        return list(range(lo_i, hi_i + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_float_grid(text: str) -> list[float]:
    """Float grid: '5', '-5,0,5,10', or 'start:step:stop' (inclusive)."""
    text = text.strip()
    if ":" in text:
        start_s, step_s, stop_s = text.split(":", 2)
        start, step, stop = float(start_s), float(step_s), float(stop_s)
        if not all(map(math.isfinite, (start, step, stop))):
            raise argparse.ArgumentTypeError(f"range bounds must be finite in {text!r}")
        if step <= 0:
            raise argparse.ArgumentTypeError(f"step must be positive in {text!r}")
        # Steps past the start, kept as a float: a span that
        # overflows to inf is rejected by the size check, not converted.
        steps = (stop - start) / step + 1e-9
        if steps < 0:
            raise argparse.ArgumentTypeError(f"empty grid {text!r}")
        _check_grid_size(text, steps + 1)
        return [start + i * step for i in range(math.floor(steps) + 1)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _grid(args: argparse.Namespace) -> Iterator[tuple]:
    """(block, cfg, links), one (n, m) curve at a time in output order: n,
    then m, each curve with the SINRs in order.  ``block`` starts the
    curve's block with its key columns: n, m and every option whose name is
    a column of the subcommand's schema (the ``--rho-db`` list among them).
    ``links`` is a tuple of ``LinkParams`` that the estimators take whole.
    The CLI's one place where dB becomes linear: the whole SINR list is
    converted before the first curve is yielded, so a bad ``--rho-db`` is
    reported before any work.

    Subcommands without ``--rho-db`` get curves of one point with link
    None, and an empty ``--rho-db`` gives curves of no point, which the
    estimators still validate their options on.  ``cfg`` is the curve's
    ``SelectionConfig``, which checks (n, m) for every subcommand.
    """
    dbs = getattr(args, "rho_db", [None])
    links = tuple(None if db is None else LinkParams(db_to_linear(db)) for db in dbs)
    columns = SCHEMAS[args.command]
    for n in args.n:
        for m in args.m:
            keys = {**vars(args), "n": n, "m": m}
            yield ({name: keys[name] for name in columns if name in keys},
                   SelectionConfig(n, m), links)


def _column(value: object, spec: str, rows: int) -> list[str]:
    """Cells of one column: None as "", a float as ``spec % value``, anything
    else with str.  A value that is not a list fills all ``rows`` cells."""
    if not isinstance(value, list):
        return _column([value], spec, 1) * rows
    return ["" if v is None else spec % v if isinstance(v, float) else str(v)
            for v in value]


def _emit(args: argparse.Namespace, blocks: Iterable[dict[str, object]]) -> None:
    """Write the blocks as CSV after a ``# antsel`` line of the parsed options.

    A block holds the rows of one curve (of the whole grid for ``fit``):
    each column maps to a list with one value per row or to one value for
    every row, and a column the block leaves out is empty.
    """
    command = args.command
    formats = _FORMATS.get(command, {})
    specs = {name: "%" + formats.get(name, ".10g") for name in SCHEMAS[command]}
    buf = io.StringIO()
    # Every option of the subcommand but --mode and --out, in declaration
    # order: argparse sets the defaults on the namespace in that order.
    params = (f"{k}={v}" for k, v in vars(args).items()
              if k not in ("command", "func", "mode", "out"))
    buf.write(f"# antsel {command} {' '.join(params)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCHEMAS[command])
    for block in blocks:
        lengths = {len(v) for v in block.values() if isinstance(v, list)}
        if len(lengths) != 1 or not block.keys() <= specs.keys():
            raise SolverError(f"internal schema mismatch for {command!r}")
        rows = lengths.pop()
        writer.writerows(zip(*(_column(block.get(name), spec, rows)
                               for name, spec in specs.items())))
    text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


def _dist_grid(cfg: SelectionConfig, points: int) -> list[float]:
    """x grid spanning the bulk of the selection-gain distribution."""
    lo = quantile(cfg.n, 0.001 ** (1.0 / cfg.m))
    hi = tail_quantile(cfg.n, -math.expm1(math.log(0.999) / cfg.m))
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def cmd_dist(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    if args.points > MAX_GRID_VALUES:
        raise ValueError(f"--points must be at most {MAX_GRID_VALUES}, got {args.points}")
    strategy = _STRATEGIES[args.strategy]
    blocks = []
    for block, cfg, _ in _grid(args):
        xs = _dist_grid(cfg, args.points)
        block["x"] = xs
        if args.mode in (None, "approx") and cfg.m >= 2:
            fit = normalizing_constants(cfg, strategy)
            block["approx_cdf"] = fit.cdf(np.array(xs)).tolist()
        if args.mode in (None, "exact"):
            block["exact_cdf"] = max_cdf(cfg, np.array(xs)).tolist()
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    # One row per (n, m), so the whole grid is one block.
    strategy = _STRATEGIES[args.strategy]
    cfgs = [cfg for _, cfg, _ in _grid(args)]
    fits = [normalizing_constants(cfg, strategy) for cfg in cfgs]
    moments = [approx_moments(fit) for fit in fits]
    _emit(args, [{"n": [cfg.n for cfg in cfgs], "m": [cfg.m for cfg in cfgs],
                  "strategy": args.strategy,
                  "location": [fit.location for fit in fits],
                  "scale": [fit.scale for fit in fits],
                  "mean": [mean for mean, _ in moments],
                  "variance": [var for _, var in moments]}])
    return 0


def cmd_outage(args: argparse.Namespace) -> int:
    blocks = []
    for block, cfg, links in _grid(args):
        if args.mode in (None, "exact"):
            exact = outage_capacity(cfg, links, args.p0, "exact")
            block["exact"] = [e.value for e in exact]
        if args.mode in (None, "approx") and cfg.m >= 2:
            approx = outage_capacity(cfg, links, args.p0, "gumbel")
            block.update(approx=[a.value for a in approx],
                         approx_clamped=[int(a.degenerate) for a in approx])
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_ergodic(args: argparse.Namespace) -> int:
    blocks = []
    for block, cfg, links in _grid(args):
        if args.mode in (None, "exact"):
            exact = ergodic_capacity(cfg, links)
            block.update(exact=[e.value for e in exact],
                         quad_error=[e.error_estimate for e in exact])
        if args.mode in (None, "bounds"):
            bounds = ergodic_bounds(cfg, links)
            block.update(lower=[lower.value for lower, _ in bounds],
                         upper=[upper.value for _, upper in bounds])
        if args.mode in (None, "approx"):
            block["approx"] = [a.value for a in ergodic_approx(cfg, links)]
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_scheduling(args: argparse.Namespace) -> int:
    blocks = []
    for block, cfg, links in _grid(args):
        scen = SchedulingScenario(cfg, args.users, links)
        if args.mode in (None, "exact"):
            reps = gain_report(scen)
            block.update(greedy=[r.greedy.value for r in reps],
                         round_robin=[r.round_robin.value for r in reps],
                         gain_exact=[r.exact_gain for r in reps],
                         fractional=[r.fractional for r in reps])
            if args.mode in (None, "approx"):
                block["gain_approx"] = [r.approx_gain for r in reps]
        elif args.mode in (None, "approx"):
            block["gain_approx"] = list(scheduling_gain(scen, "approx"))
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    if len(args.n) != 1:
        raise ValueError(f"table1 takes a single n, got {args.n}")
    blocks = []
    for block, cfg, links in _grid(args):
        scen = SchedulingScenario(cfg, args.users, links)
        if args.mode in (None, "exact"):
            block["exact_gain"] = list(scheduling_gain(scen, "exact"))
        if args.mode in (None, "approx") and cfg.m >= 2:
            block["approx_gain"] = list(scheduling_gain(scen, "approx"))
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_mimo(args: argparse.Namespace) -> int:
    mc = McRun(args.samples, args.seed)
    curves = list(_grid(args))
    estimates = grid_estimates([(cfg.n, cfg.m, links) for _, cfg, links in curves],
                               mc, args.p0, args.users)
    for (block, _, _), curve in zip(curves, estimates):
        for name, results in curve.items():
            block[name] = [r.value for r in results]
            block[f"{name}_stderr"] = [r.error_estimate for r in results]
    _emit(args, [block for block, _, _ in curves])
    return 0


# ----------------------------- verification -----------------------------

_Check = tuple[str, bool, str]


def _verify_checks(samples: int, seed: int) -> list[_Check]:
    """verify's eight checks, in report order.  The run and its sample floor
    are checked first.  Then one ``streams.draw_shared`` pass draws the seven
    samplers; each sample, sorted if a selection gain, goes read-only to its
    estimators on whichever thread completed it, and their estimates fill one
    list per sampler family.  The analytic checks run after the pass."""
    mc = McRun(samples, seed)
    if mc.samples < 1_000:
        raise ValueError(f"ergodic estimate needs >= 1000 samples, got {mc.samples}")
    link = LinkParams(10**0.5)
    configs = (SelectionConfig(1, 1), SelectionConfig(1, 5), SelectionConfig(2, 5))
    points = ((1, 2, 1.0), (2, 2, 10**0.5), (3, 4, 1.0), (1, 1, 1.0))
    oracle_est: list[CapacityResult | None] = [None] * len(configs)
    mimo_est: list[CapacityResult | None] = [None] * len(points)
    ks: list[float] = []

    def consume(k: int, sample: np.ndarray) -> None:
        if k < len(configs):
            cfg = configs[k]
            sample.sort()
            sample.flags.writeable = False
            oracle_est[k] = empirical_ergodic(cfg, link, mc, sample)
            if k == 1:
                ks.append(_ks_statistic(sample, lambda x: max_cdf(cfg, x)))
        else:
            n, m, rho = points[k - len(configs)]
            sample.flags.writeable = False
            mimo_est[k - len(configs)] = mimo_ergodic(n, m, LinkParams(rho), mc, sample)

    draw_shared(mc, [*map(_gains, configs), *(_channels(n, m) for n, m, _ in points)], consume)

    # Quadrature mean vs the exponential-maximum harmonic sum.
    mean_gap = 0.0
    for m in (1, 3, 10):
        harmonic = sum(1.0 / k for k in range(1, m + 1))
        mean_gap = max(mean_gap, abs(mean_selection_gain(SelectionConfig(1, m)) - harmonic))

    # Ergodic capacity inside its closed-form sandwich, one curve per (n, m).
    in_sandwich = True
    curve = (LinkParams(10**-0.5), LinkParams(10**0.5))
    for n in (1, 2, 3):
        for m in (1, 5, 20):
            cfg = SelectionConfig(n, m)
            for (lower, upper), val in zip(ergodic_bounds(cfg, curve),
                                           ergodic_capacity(cfg, curve)):
                in_sandwich &= lower.value - 1e-6 <= val.value <= upper.value + 1e-6

    # Outage round trip.
    round_trip = 0.0
    for n in (1, 2):
        for m in (1, 4):
            cfg = SelectionConfig(n, m)
            for p0 in (0.01, 0.1, 0.5):
                c0 = outage_capacity(cfg, link, p0, "exact").value
                round_trip = max(round_trip, abs(outage_probability(cfg, link, c0) - p0))

    near_quadrature = True
    detail = []
    for cfg, est in zip(configs, oracle_est):
        ref = ergodic_capacity(cfg, link).value
        z = (est.value - ref) / est.error_estimate
        detail.append(f"(n={cfg.n},m={cfg.m}) z={z:+.2f}")
        near_quadrature &= abs(z) <= 3.0
    limit = 1.95 / math.sqrt(mc.samples)

    # Convergence-rate probe for the reference constants (n = 1).
    e100 = convergence_error(SelectionConfig(1, 100), FitStrategy.MRL, 0.0)
    e1000 = convergence_error(SelectionConfig(1, 1000), FitStrategy.MRL, 0.0)
    ratio = e100 / e1000

    mimo_ok = True
    for (n, _, rho), est in zip(points, mimo_est[:-1]):
        ceiling = n * math.log2(1 + rho)
        mimo_ok &= est.value <= ceiling + 3 * est.error_estimate
    ref = ergodic_capacity(SelectionConfig(1, 1), LinkParams(1.0)).value
    point_z = (mimo_est[-1].value - ref) / mimo_est[-1].error_estimate
    mimo_ok &= abs(point_z) <= 3.0

    # Variance of the selection gain stays at or above the single-branch value.
    variance_ok = all(
        selection_gain_variance(SelectionConfig(1, m)) > 1.0 for m in (10, 100, 1000)
    )
    return [
        ("mean-harmonic", mean_gap <= 1e-7, f"max |quad - harmonic| = {mean_gap:.2e}"),
        ("capacity-sandwich", in_sandwich, "n in {1,2,3}, m in {1,5,20}, rho at -5/+5 dB"),
        ("outage-round-trip", round_trip <= 1e-9, f"max |P(C(p0)) - p0| = {round_trip:.2e}"),
        ("mc-vs-quadrature", near_quadrature, "; ".join(detail)),
        ("ks-exact-fit", ks[0] <= limit, f"KS = {ks[0]:.5f}, limit = {limit:.5f}"),
        ("gumbel-rate", 5.0 <= ratio <= 20.0, f"error ratio per decade = {ratio:.2f}"),
        ("mimo-baseline", mimo_ok, f"Jensen ceiling respected; point z={point_z:+.2f}"),
        ("variance-floor", variance_ok, "Var > 1 for n=1, m in {10,100,1000}"),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    results = _verify_checks(args.samples, args.seed)
    statuses = ["PASS" if ok else "FAIL" for _, ok, _ in results]
    for (name, _, detail), status in zip(results, statuses):
        print(f"{status}  {name}: {detail}")
    if args.out is not None:
        _emit(args, [{"check": [name for name, _, _ in results], "status": statuses,
                      "detail": [detail for _, _, detail in results]}])
    failed = statuses.count("FAIL")
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


# ----------------------------- argument wiring -----------------------------


def _add_common(
    parser: argparse.ArgumentParser, command: str, *, users: bool = False,
    rho_db: list[float] | None = None,
) -> None:
    """The grid options, declared in the order the ``# antsel`` line lists
    them; ``--mode`` offers ``MODES[command]``, and ``rho_db`` is the
    default of a ``--rho-db`` grid."""
    parser.add_argument("--n", type=parse_int_grid, default=[1],
                        help="receive antennas; int, comma list, or a..b")
    parser.add_argument("--m", type=parse_int_grid, default=[1],
                        help="transmit antennas; int, comma list, or a..b")
    if users:
        parser.add_argument("--users", type=int, default=32, help="number of users K")
    if command in MODES:
        parser.add_argument("--mode", choices=MODES[command], default=None,
                            help="restrict output to one estimator (default: all)")
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    if rho_db is not None:
        parser.add_argument("--rho-db", type=parse_float_grid, default=rho_db,
                            help="SINR grid in dB; value, comma list, or start:step:stop")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antsel",
        description="Capacity and scheduling analysis of best-antenna selection links.",
    )
    parser.add_argument("--version", action="version", version=f"antsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="exact vs Gumbel-approximate selection-gain cdf")
    _add_common(p, "dist")
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="lemma")
    p.add_argument("--points", type=int, default=400, help="grid points per curve")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("fit", help="Gumbel normalizing constants and moments")
    _add_common(p, "fit")
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="lemma")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("outage", help="outage capacity, exact and approximate")
    _add_common(p, "outage", rho_db=[5.0])
    p.add_argument("--p0", type=float, default=0.1, help="outage probability")
    p.set_defaults(func=cmd_outage)

    p = sub.add_parser("ergodic", help="ergodic capacity with bounds and approximation")
    _add_common(p, "ergodic", rho_db=[5.0])
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("scheduling", help="greedy vs round-robin scheduling capacities")
    _add_common(p, "scheduling", users=True, rho_db=[5.0])
    p.set_defaults(func=cmd_scheduling)

    p = sub.add_parser("table1", help="scheduling-gain table over (m, SINR)")
    _add_common(p, "table1", users=True, rho_db=[-5.0, 0.0, 5.0, 10.0])
    p.set_defaults(m=list(range(1, 21)), func=cmd_table1)

    p = sub.add_parser("mimo", help="open-loop MIMO Monte Carlo baseline")
    _add_common(p, "mimo", rho_db=[5.0])
    p.add_argument("--p0", type=float, default=None,
                   help="also estimate the p0 outage capacity")
    p.add_argument("--users", type=int, default=None,
                   help="also estimate greedy-scheduled capacity for K users")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_mimo)

    p = sub.add_parser("verify", help="cross-check analytics against the sampling oracle")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="optional CSV report path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
