"""Command-line front end: grid evaluation and CSV emission.

Every data subcommand writes one CSV with a fixed, documented column
schema, preceded by ``#`` comment lines recording the exact parameters, so
outputs are byte-stable for identical invocations.  SINR is accepted in dB
and converted to linear exactly once, in ``_grid``, which hands out the
grid one (n, m) curve at a time.  A subcommand computes each curve as one
block of columns; ``_emit`` formats a block a column at a time and writes
its rows in grid order, with the same bytes as formatting cell by cell
(``"%.10g" % x`` prints what ``f"{x:.10g}"`` prints).  The ``mimo`` grid
always computes its curves on a pool of worker threads, one per usable
CPU (at least one), submitted largest first (n m times the curve's SINR
count) so that no long curve starts last while a thread idles.  It reads
the results in grid order, so its output, and which error it reports, do
not depend on the thread count.

Exit codes: 0 success, 2 invalid arguments or parameter combinations,
3 numerical diagnostic (solver or verification failure).
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .capacity import (
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
from .mimo import mimo_ergodic, mimo_outage, mimo_scheduled_ergodic
from .oracle import empirical_ergodic, ks_against
from .orderstats import (
    SelectionConfig,
    SolverError,
    max_cdf,
    quantile,
    tail_quantile,
)
from .scheduling import SchedulingScenario, gain_report, scheduling_gain
from .streams import DEFAULT_SEED, McRun

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

# Cells printed with fixed decimals instead of 10 significant digits.
_FORMATS = {"table1": {"exact_gain": ".4f", "approx_gain": ".2f"}}

_STRATEGIES = {s.value: s for s in FitStrategy}

# Threads for the mimo grid's (n, m) points: the CPUs this process may use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def parse_int_grid(text: str) -> list[int]:
    """Integer grid: '7', '1,2,5', or inclusive range '1..20'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_float_grid(text: str) -> list[float]:
    """Float grid: '5', '-5,0,5,10', or 'start:step:stop' (inclusive)."""
    text = text.strip()
    if ":" in text:
        start_s, step_s, stop_s = text.split(":", 2)
        start, step, stop = float(start_s), float(step_s), float(stop_s)
        if step <= 0:
            raise argparse.ArgumentTypeError(f"step must be positive in {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise argparse.ArgumentTypeError(f"empty grid {text!r}")
        return [start + i * step for i in range(count)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _mode_set(args: argparse.Namespace, allowed: tuple[str, ...]) -> set[str]:
    """Estimator selection for subcommands with alternatives.

    No --mode fills every value column; an explicit mode fills only that
    estimator's columns, keeping the schema fixed.
    """
    mode = getattr(args, "mode", None)
    if mode is None:
        return set(allowed)
    if mode not in allowed:
        raise ValueError(
            f"mode {mode!r} is not available here (choose from {', '.join(allowed)})"
        )
    return {mode}


def _grid(args: argparse.Namespace, configs: bool = True) -> Iterator[tuple]:
    """(n, m, cfg, rho_dbs, links), one (n, m) curve at a time in output
    order: n, then m, each curve with the SINRs in order.  The one place
    where dB becomes linear.

    Subcommands without ``--rho-db`` get curves of one point with rho_db
    and link None.  ``configs=False`` yields cfg None, for estimators that
    validate (n, m) themselves.  A SINR that does not convert cuts the
    first curve short before it, and its error is raised once that curve
    has been computed, so the errors of the points before it come first,
    as point by point.
    """
    dbs, links, bad_sinr = getattr(args, "rho_db", [None]), [], None
    try:
        for db in dbs:
            links.append(None if db is None else LinkParams(db_to_linear(db)))
    except ValueError as exc:
        bad_sinr = exc
    dbs = dbs[:len(links)]
    for n in args.n:
        for m in args.m:
            yield n, m, SelectionConfig(n, m) if configs else None, dbs, links
            if bad_sinr is not None:
                raise bad_sinr


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
    strategy = _STRATEGIES[args.strategy]
    enabled = _mode_set(args, ("exact", "approx"))
    blocks = []
    for n, m, cfg, _, _ in _grid(args):
        xs = _dist_grid(cfg, args.points)
        block = {"n": n, "m": m, "strategy": args.strategy, "x": xs}
        if "approx" in enabled and m >= 2:
            fit = normalizing_constants(cfg, strategy)
            block["approx_cdf"] = fit.cdf(np.array(xs)).tolist()
        if "exact" in enabled:
            block["exact_cdf"] = max_cdf(cfg, np.array(xs)).tolist()
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    # One row per (n, m), so the whole grid is one block.
    strategy = _STRATEGIES[args.strategy]
    points = [(n, m, normalizing_constants(cfg, strategy))
              for n, m, cfg, _, _ in _grid(args)]
    moments = [approx_moments(fit) for _, _, fit in points]
    _emit(args, [{"n": [n for n, _, _ in points], "m": [m for _, m, _ in points],
                  "strategy": args.strategy,
                  "location": [fit.location for *_, fit in points],
                  "scale": [fit.scale for *_, fit in points],
                  "mean": [mean for mean, _ in moments],
                  "variance": [var for _, var in moments]}])
    return 0


def cmd_outage(args: argparse.Namespace) -> int:
    enabled = _mode_set(args, ("exact", "approx"))
    blocks = []
    for n, m, cfg, dbs, links in _grid(args):
        block = {"n": n, "m": m, "rho_db": dbs, "p0": args.p0}
        if "exact" in enabled:
            block["exact"] = [outage_capacity(cfg, link, args.p0, "exact").value
                              for link in links]
        if "approx" in enabled and m >= 2:
            approx = [outage_capacity(cfg, link, args.p0, "gumbel") for link in links]
            block.update(approx=[a.value for a in approx],
                         approx_clamped=[int(a.degenerate) for a in approx])
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_ergodic(args: argparse.Namespace) -> int:
    enabled = _mode_set(args, ("exact", "bounds", "approx"))
    blocks = []
    for n, m, cfg, dbs, links in _grid(args):
        block = {"n": n, "m": m, "rho_db": dbs}
        if "exact" in enabled:
            exact = [ergodic_capacity(cfg, link) for link in links]
            block.update(exact=[e.value for e in exact],
                         quad_error=[e.error_estimate for e in exact])
        if "bounds" in enabled:
            bounds = [ergodic_bounds(cfg, link) for link in links]
            block.update(lower=[lower.value for lower, _ in bounds],
                         upper=[upper.value for _, upper in bounds])
        if "approx" in enabled:
            block["approx"] = [ergodic_approx(cfg, link).value for link in links]
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_scheduling(args: argparse.Namespace) -> int:
    enabled = _mode_set(args, ("exact", "approx"))
    blocks = []
    for n, m, cfg, dbs, links in _grid(args):
        scens = [SchedulingScenario(cfg, args.users, link) for link in links]
        block = {"n": n, "m": m, "users": args.users, "rho_db": dbs}
        if "exact" in enabled:
            reps = [gain_report(scen) for scen in scens]
            block.update(greedy=[r.greedy.value for r in reps],
                         round_robin=[r.round_robin.value for r in reps],
                         gain_exact=[r.exact_gain for r in reps],
                         fractional=[r.fractional for r in reps])
            if "approx" in enabled:
                block["gain_approx"] = [r.approx_gain for r in reps]
        elif "approx" in enabled:
            block["gain_approx"] = [scheduling_gain(scen, "approx") for scen in scens]
        blocks.append(block)
    _emit(args, blocks)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    enabled = _mode_set(args, ("exact", "approx"))
    if len(args.n) != 1:
        raise ValueError(f"table1 takes a single n, got {args.n}")
    blocks = []
    for _, m, cfg, dbs, links in _grid(args):
        scens = [SchedulingScenario(cfg, args.users, link) for link in links]
        block = {"m": m, "rho_db": dbs}
        if "exact" in enabled:
            block["exact_gain"] = [scheduling_gain(scen, "exact") for scen in scens]
        if "approx" in enabled and m >= 2:
            block["approx_gain"] = [scheduling_gain(scen, "approx") for scen in scens]
        blocks.append(block)
    _emit(args, blocks)
    return 0


def _mimo_curve(args: argparse.Namespace, mc: McRun, curve: tuple) -> dict[str, object]:
    n, m, _, dbs, links = curve
    block = {"n": n, "m": m, "rho_db": dbs, "p0": args.p0, "users": args.users,
             "samples": args.samples, "seed": args.seed}
    estimates = {"ergodic": [mimo_ergodic(n, m, link, mc) for link in links]}
    if args.p0 is not None:
        estimates["outage"] = [mimo_outage(n, m, link, args.p0, mc) for link in links]
    if args.users is not None:
        estimates["scheduled"] = [mimo_scheduled_ergodic(n, m, args.users, link, mc)
                                  for link in links]
    for name, results in estimates.items():
        block[name] = [r.value for r in results]
        block[f"{name}_stderr"] = [r.error_estimate for r in results]
    return block


def cmd_mimo(args: argparse.Namespace) -> int:
    from concurrent.futures import ThreadPoolExecutor

    _mode_set(args, ("mc",))
    mc = McRun(args.samples, args.seed)
    curves, bad_sinr = [], None
    try:
        for curve in _grid(args, configs=False):
            curves.append(curve)
    except ValueError as exc:  # a bad SINR, raised once the first curve has run
        bad_sinr = exc
    # A repeated (n, m) is one curve, computed once.  Largest curves first
    # (n m times the SINR count), so that none of them starts last and
    # leaves the other threads idle.  The results are read in grid order,
    # so the first failing curve in grid order still decides the error.
    unique = {curve[:2]: curve for curve in curves}
    largest_first = sorted(unique, key=lambda key: -key[0] * key[1] * len(unique[key][4]))
    pool = ThreadPoolExecutor(max(1, min(len(unique), _WORKERS)))
    try:
        futures = {key: pool.submit(_mimo_curve, args, mc, unique[key])
                   for key in largest_first}
        computed = {key: futures[key].result() for key in unique}
    finally:
        pool.shutdown(cancel_futures=True)
    if bad_sinr is not None:
        raise bad_sinr
    _emit(args, [computed[curve[:2]] for curve in curves])
    return 0


# ----------------------------- verification -----------------------------


def _verify_checks(samples: int, seed: int) -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        results.append((name, ok, detail))

    # Quadrature mean vs the exponential-maximum harmonic sum.
    worst = 0.0
    for m in (1, 3, 10):
        harmonic = sum(1.0 / k for k in range(1, m + 1))
        worst = max(worst, abs(mean_selection_gain(SelectionConfig(1, m)) - harmonic))
    record("mean-harmonic", worst <= 1e-7, f"max |quad - harmonic| = {worst:.2e}")

    # Ergodic capacity inside its closed-form sandwich.
    ok = True
    for n in (1, 2, 3):
        for m in (1, 5, 20):
            cfg = SelectionConfig(n, m)
            for rho in (10**-0.5, 10**0.5):
                link = LinkParams(rho)
                lower, upper = ergodic_bounds(cfg, link)
                val = ergodic_capacity(cfg, link).value
                ok &= lower.value - 1e-6 <= val <= upper.value + 1e-6
    record("capacity-sandwich", ok, "n in {1,2,3}, m in {1,5,20}, rho at -5/+5 dB")

    # Outage round trip.
    worst = 0.0
    for n in (1, 2):
        for m in (1, 4):
            cfg = SelectionConfig(n, m)
            for p0 in (0.01, 0.1, 0.5):
                link = LinkParams(10**0.5)
                c0 = outage_capacity(cfg, link, p0, "exact").value
                worst = max(worst, abs(outage_probability(cfg, link, c0) - p0))
    record("outage-round-trip", worst <= 1e-9, f"max |P(C(p0)) - p0| = {worst:.2e}")

    # Monte Carlo vs quadrature.
    mc = McRun(samples, seed)
    ok = True
    detail = []
    for n, m in ((1, 1), (1, 5), (2, 5)):
        cfg = SelectionConfig(n, m)
        link = LinkParams(10**0.5)
        est = empirical_ergodic(cfg, link, mc)
        ref = ergodic_capacity(cfg, link).value
        z = (est.value - ref) / est.error_estimate
        detail.append(f"(n={n},m={m}) z={z:+.2f}")
        ok &= abs(z) <= 3.0
    record("mc-vs-quadrature", ok, "; ".join(detail))

    # KS distance of the sample against the exact distribution.
    cfg = SelectionConfig(1, 5)
    ks = ks_against(cfg, mc, lambda x: max_cdf(cfg, x))
    limit = 1.95 / math.sqrt(samples)
    record("ks-exact-fit", ks <= limit, f"KS = {ks:.5f}, limit = {limit:.5f}")

    # Convergence-rate probe for the reference constants (n = 1).
    e100 = convergence_error(SelectionConfig(1, 100), FitStrategy.MRL, 0.0)
    e1000 = convergence_error(SelectionConfig(1, 1000), FitStrategy.MRL, 0.0)
    ratio = e100 / e1000
    record("gumbel-rate", 5.0 <= ratio <= 20.0, f"error ratio per decade = {ratio:.2f}")

    # MIMO: Jensen ceiling and agreement with quadrature at n = m = 1.
    ok = True
    detail = []
    for n, m, rho in ((1, 2, 1.0), (2, 2, 10**0.5), (3, 4, 1.0)):
        est = mimo_ergodic(n, m, LinkParams(rho), mc)
        ceiling = n * math.log2(1 + rho)
        ok &= est.value <= ceiling + 3 * est.error_estimate
    est = mimo_ergodic(1, 1, LinkParams(1.0), mc)
    ref = ergodic_capacity(SelectionConfig(1, 1), LinkParams(1.0)).value
    z = (est.value - ref) / est.error_estimate
    ok &= abs(z) <= 3.0
    record("mimo-baseline", ok, f"Jensen ceiling respected; point z={z:+.2f}")

    # Variance of the selection gain stays at or above the single-branch value.
    ok = all(
        selection_gain_variance(SelectionConfig(1, m)) > 1.0 for m in (10, 100, 1000)
    )
    record("variance-floor", ok, "Var > 1 for n=1, m in {10,100,1000}")
    return results


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
    parser: argparse.ArgumentParser, *, users: bool = False, mode: bool = True
) -> None:
    parser.add_argument("--n", type=parse_int_grid, default=[1],
                        help="receive antennas; int, comma list, or a..b")
    parser.add_argument("--m", type=parse_int_grid, default=[1],
                        help="transmit antennas; int, comma list, or a..b")
    if users:
        parser.add_argument("--users", type=int, default=32, help="number of users K")
    if mode:
        parser.add_argument(
            "--mode",
            choices=["exact", "approx", "bounds", "mc"],
            default=None,
            help="restrict output to one estimator (default: all available)",
        )
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antsel",
        description="Capacity and scheduling analysis of best-antenna selection links.",
    )
    parser.add_argument("--version", action="version", version=f"antsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="exact vs Gumbel-approximate selection-gain cdf")
    _add_common(p)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="lemma")
    p.add_argument("--points", type=int, default=400, help="grid points per curve")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("fit", help="Gumbel normalizing constants and moments")
    _add_common(p, mode=False)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="lemma")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("outage", help="outage capacity, exact and approximate")
    _add_common(p)
    p.add_argument("--rho-db", type=parse_float_grid, default=[5.0],
                   help="SINR grid in dB; value, comma list, or start:step:stop")
    p.add_argument("--p0", type=float, default=0.1, help="outage probability")
    p.set_defaults(func=cmd_outage)

    p = sub.add_parser("ergodic", help="ergodic capacity with bounds and approximation")
    _add_common(p)
    p.add_argument("--rho-db", type=parse_float_grid, default=[5.0])
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("scheduling", help="greedy vs round-robin scheduling capacities")
    _add_common(p, users=True)
    p.add_argument("--rho-db", type=parse_float_grid, default=[5.0])
    p.set_defaults(func=cmd_scheduling)

    p = sub.add_parser("table1", help="scheduling-gain table over (m, SINR)")
    _add_common(p, users=True)
    p.set_defaults(m=list(range(1, 21)))
    p.add_argument("--rho-db", type=parse_float_grid, default=[-5.0, 0.0, 5.0, 10.0])
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("mimo", help="open-loop MIMO Monte Carlo baseline")
    _add_common(p)
    p.add_argument("--rho-db", type=parse_float_grid, default=[5.0])
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
