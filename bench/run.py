#!/usr/bin/env python3
"""Benchmark of the antsel command-line tool.

    python3 bench/run.py --workload quad-grid --seed 3 --seconds 20 --trace 0

Each CLI invocation runs in a fresh child process (bench/child.py, which
runs ``antsel.cli.main`` as ``python -m antsel.cli`` would), one at a time
in a closed loop: the next starts when the previous has exited.  One pass
runs every invocation of the workload once; passes repeat until
``--seconds`` are used up.  Every output is checked against the stored
reference (check.py).

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over passes; with ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of the traced ones (layertrace.py).
Human-readable lines, the machine description included, come first.

``--smoke`` runs the reduced workloads that the benchmark's own tests use.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The CLI seed is the benchmark seed modulo SEED_BANK: references of the
# sampled outputs exist for each seed in the bank.
SEED_BANK = 16
SEED = "{seed}"

# Invocations per workload, as CLI argument lists; SEED marks the --seed value.
WORKLOADS: dict[str, list[list[str]]] = {
    "quad-grid": [
        ["ergodic", "--n", "1,2,3", "--m", "1..20", "--rho-db=-10:1:20"],
        ["scheduling", "--n", "1,2", "--m", "1..20", "--users", "32", "--rho-db=-10:2:20"],
        ["table1"],
    ],
    "mc-baseline": [
        ["mimo", "--n", "1,2,3", "--m", "1..8", "--rho-db=0,10,20", "--p0", "0.1",
         "--samples", "20000", "--seed", SEED],
        ["mimo", "--n", "1,2", "--m", "1..6", "--rho-db", "5", "--users", "16",
         "--samples", "20000", "--seed", SEED],
    ],
    "curves": [
        ["dist", "--n", "1,2,5", "--m", "2,5,10,20", "--points", "2000"],
        ["outage", "--n", "1,2,3,4", "--m", "1..40", "--rho-db=-10:1:30", "--p0", "0.01"],
        ["fit", "--n", "1,2,3", "--m", "3..200"],
        ["verify", "--seed", SEED],
    ],
}
SMOKE_WORKLOADS: dict[str, list[list[str]]] = {
    "quad-grid": [
        ["ergodic", "--n", "1,2", "--m", "1..3", "--rho-db=-10:10:20"],
        ["scheduling", "--n", "1", "--m", "1..3", "--users", "4", "--rho-db=0,10"],
        ["table1", "--m", "1..3"],
    ],
    "mc-baseline": [
        ["mimo", "--n", "1,2", "--m", "1..2", "--rho-db=0,10", "--p0", "0.1",
         "--samples", "10000", "--seed", SEED],
        ["mimo", "--n", "1", "--m", "1..2", "--rho-db", "5", "--users", "4",
         "--samples", "2000", "--seed", SEED],
    ],
    "curves": [
        ["dist", "--n", "1,2", "--m", "2,5", "--points", "50"],
        ["outage", "--n", "1,2", "--m", "1..3", "--rho-db=0,10", "--p0", "0.01"],
        ["fit", "--n", "1,2", "--m", "3..5"],
        ["verify", "--samples", "20000", "--seed", SEED],
    ],
}

# Name -> unit of the metrics reported with --trace 0 and --trace 1.
END_TO_END = {"wall_s": "s", "setup_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "orderstats.kernel.calls": "count",
    "orderstats.kernel.points": "count",
    "orderstats.kernel.self_s": "s",
    "orderstats.kernel.points_per_s": "1/s",
    "orderstats.solver.calls": "count",
    "orderstats.solver.self_s": "s",
    "capacity.ergodic.calls": "count",
    "capacity.ergodic.self_s": "s",
    "capacity.integrand_evals_per_point": "count",
    "capacity.cache_hits": "count",
    "capacity.cache_misses": "count",
    "capacity.closed_form.self_s": "s",
    "gumbel.fit.calls": "count",
    "gumbel.fit.self_s": "s",
    "gumbel.cdf.calls": "count",
    "scheduling.self_s": "s",
    "scheduling.calls": "count",
    "mimo.ergodic.self_s": "s",
    "mimo.outage.self_s": "s",
    "mimo.scheduled.self_s": "s",
    "mimo.normals": "count",
    "mimo.normals_per_s": "1/s",
    "oracle.self_s": "s",
    "oracle.normals": "count",
    "oracle.reference_cdf.calls": "count",
    "streams.chunks": "count",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.bytes_out": "bytes",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}
_MIMO_LAYERS = ("mimo.ergodic", "mimo.outage", "mimo.scheduled")


def invocations(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    table = SMOKE_WORKLOADS if smoke else WORKLOADS
    cli_seed = str(seed % SEED_BANK)
    return [[cli_seed if arg == SEED else arg for arg in argv] for argv in table[workload]]


def reference_path(smoke: bool) -> Path:
    return BENCH / "reference" / ("smoke.json" if smoke else "full.json")


def child_env(trace: bool) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(2, os.cpu_count() or 1))
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        BENCH_TRACE="1" if trace else "0",
    )
    return env


@dataclass
class Invocation:
    """One finished child: its output, exit code, timings and trace."""

    argv: list[str]
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    setup_s: float
    import_s: float
    rss_mb: float
    trace: dict | None

    @property
    def rows(self) -> int:
        return len(check.Output(self.argv[0], self.stdout).rows)


def run_child(argv: list[str], trace: bool = False) -> Invocation:
    """Run one CLI invocation in a fresh interpreter and wait for it."""
    read_fd, write_fd = os.pipe()
    env = child_env(trace)
    env["BENCH_REPORT_FD"] = str(write_fd)
    start = time.perf_counter_ns()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            pass_fds=(write_fd,),
            cwd=ROOT,
        )
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd) as report_pipe:
        # The report is written at exit and is far smaller than a pipe
        # buffer, so reading it after the output cannot block the child.
        stdout, stderr = proc.communicate()
        end = time.perf_counter_ns()
        report_text = report_pipe.read()
    report = json.loads(report_text) if report_text else {}
    ready = report.get("t_ready_ns", end)
    return Invocation(
        argv=argv,
        exit_code=proc.returncode,
        stdout=stdout.decode(),
        stderr=stderr.decode(),
        wall_s=(end - start) / 1e9,
        setup_s=(ready - start) / 1e9,
        import_s=(ready - report.get("t_first_ns", ready)) / 1e9,
        rss_mb=report.get("maxrss_kb", 0) / 1024.0,
        trace=report.get("trace"),
    )


def interpreter_start_s() -> float:
    """Wall time of a bare ``python -c pass`` in the children's environment."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(False), cwd=ROOT, check=True)
    return (time.perf_counter_ns() - start) / 1e9


@dataclass
class Pass:
    invocations: list[Invocation]
    failed: int

    @property
    def wall_s(self) -> float:
        return sum(inv.wall_s for inv in self.invocations)

    @property
    def rows(self) -> int:
        return sum(inv.rows for inv in self.invocations)

    @property
    def rows_per_s(self) -> float:
        busy = self.wall_s - sum(inv.setup_s for inv in self.invocations)
        return self.rows / busy

    @property
    def peak_rss_mb(self) -> float:
        return max(inv.rss_mb for inv in self.invocations)


def run_pass(argvs: list[list[str]], reference: dict, trace: bool) -> Pass:
    done, failed = [], 0
    for argv in argvs:
        inv = run_child(argv, trace)
        problems = check.check(argv, inv.exit_code, inv.stdout, reference.get(" ".join(argv)))
        if problems:
            failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
            if inv.stderr:
                print(inv.stderr, file=sys.stderr)
        done.append(inv)
    return Pass(done, failed)


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(inv.setup_s for p in passes for inv in p.invocations),
        "rows_per_s": statistics.median(p.rows_per_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_pass(p: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its invocations."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for inv in p.invocations:
        trace = inv.trace or {}
        for layer, value in trace.get("calls", {}).items():
            calls[layer] = calls.get(layer, 0) + value
        for layer, value in trace.get("self_ns", {}).items():
            self_s[layer] = self_s.get(layer, 0.0) + value / 1e9
        for name, value in trace.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
    kernel_points = counts.get("orderstats.kernel.points", 0)
    mimo_s = sum(self_s.get(layer, 0.0) for layer in _MIMO_LAYERS)
    metrics = {
        "orderstats.kernel.calls": calls.get("orderstats.kernel", 0),
        "orderstats.kernel.points": kernel_points,
        "orderstats.kernel.points_per_s": _ratio(kernel_points, self_s.get("orderstats.kernel", 0.0)),
        "orderstats.solver.calls": calls.get("orderstats.solver", 0),
        "capacity.ergodic.calls": calls.get("capacity.ergodic", 0),
        "capacity.integrand_evals_per_point": _ratio(
            counts.get("capacity.kernel_points_in_ergodic", 0),
            counts.get("capacity.cache_misses", 0),
        ),
        "capacity.cache_hits": counts.get("capacity.cache_hits", 0),
        "capacity.cache_misses": counts.get("capacity.cache_misses", 0),
        "gumbel.fit.calls": calls.get("gumbel.fit", 0),
        "gumbel.cdf.calls": calls.get("gumbel.cdf", 0),
        "scheduling.calls": calls.get("scheduling", 0),
        "mimo.normals": counts.get("mimo.normals", 0),
        "mimo.normals_per_s": _ratio(counts.get("mimo.normals", 0), mimo_s),
        "oracle.normals": counts.get("oracle.normals", 0),
        "oracle.reference_cdf.calls": counts.get("oracle.reference_cdf.calls", 0),
        "streams.chunks": counts.get("streams.chunks", 0),
        "cli.rows": p.rows,
        "cli.bytes_out": sum(len(inv.stdout.encode()) for inv in p.invocations),
    }
    for layer in ("orderstats.kernel", "orderstats.solver", "capacity.ergodic",
                  "capacity.closed_form", "gumbel.fit", "scheduling", *_MIMO_LAYERS,
                  "oracle", "cli"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return metrics


def per_layer(plain: list[Pass], traced: list[Pass], interpreter_s: list[float]) -> dict[str, float]:
    figures = [per_layer_pass(p) for p in traced]
    metrics = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    metrics["setup.interpreter_s"] = statistics.median(interpreter_s)
    metrics["setup.import_s"] = statistics.median(
        inv.import_s for p in plain + traced for inv in p.invocations
    )
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in plain
    )
    return metrics


def machine() -> dict[str, object]:
    """Commit, CPU, core count and versions, recorded with every result."""
    commit = "unknown"  # a source export without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced grids, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "antsel" / "cli.py").is_file():
        print(f"error: antsel sources not found under {SRC}", file=sys.stderr)
        return 2
    ref_file = reference_path(args.smoke)
    if not ref_file.is_file():
        print(f"error: reference outputs not found at {ref_file}", file=sys.stderr)
        return 2
    reference = check.load_reference(ref_file)
    argvs = invocations(args.workload, args.seed, args.smoke)
    trace = bool(args.trace)

    # Compile the package's bytecode once, as an installed copy would have it.
    run_child(["--version"])

    plain: list[Pass] = []
    traced: list[Pass] = []
    # Start another pass (or traced pair) only if one as long as the last
    # still fits in --seconds, so that a run lasts about --seconds.
    deadline = time.monotonic() + args.seconds
    while True:
        started = time.monotonic()
        plain.append(run_pass(argvs, reference, False))
        if trace:
            traced.append(run_pass(argvs, reference, True))
        now = time.monotonic()
        if now + (now - started) > deadline:
            break

    passes = plain + traced
    attempted = sum(len(p.invocations) for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        figures = per_layer(plain, traced, [interpreter_start_s() for _ in range(5)])
        units = PER_LAYER
    else:
        figures = end_to_end(plain)
        units = END_TO_END
    metrics = {name: figures[name] for name in units}

    print(f"# machine {json.dumps(machine())}")
    print(f"# workload {args.workload} seed {args.seed} (CLI seed {args.seed % SEED_BANK}) "
          f"passes {len(plain)}{' + ' + str(len(traced)) + ' traced' if trace else ''} "
          f"invocations {attempted}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print(f"{'error_rate':36s} {failed / attempted:.6g} ({failed}/{attempted} invocations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
