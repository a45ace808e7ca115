"""One antsel CLI invocation, as the benchmark runs it.

Usage: ``python bench/child.py <antsel arguments>`` with ``src`` on
PYTHONPATH.  This does what ``python -m antsel.cli`` does, and also times
its own set-up: interpreter start, ``import antsel.cli`` and building the
argument parser, all before the first numeric call.  With BENCH_TRACE=1 it
wraps the layers' public functions (see layertrace.py) before running the
command.

At exit it writes one JSON object to the file descriptor named by
BENCH_REPORT_FD: perf_counter_ns stamps (CLOCK_MONOTONIC, comparable with
the parent's), peak RSS and, when traced, the layer summary.
"""
import time

T_FIRST_NS = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    report: dict[str, object] = {"t_first_ns": T_FIRST_NS}
    import antsel.cli

    report["t_imported_ns"] = time.perf_counter_ns()
    antsel.cli.build_parser()
    report["t_ready_ns"] = time.perf_counter_ns()

    tracer = None
    if os.environ.get("BENCH_TRACE") == "1":
        import layertrace

        tracer = layertrace.install()
    try:
        try:
            code = antsel.cli.main(sys.argv[1:])
        except SystemExit as exc:  # argparse usage errors exit through here
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    finally:
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            report["trace"] = tracer.summary()
        with os.fdopen(int(os.environ["BENCH_REPORT_FD"]), "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
