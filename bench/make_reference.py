#!/usr/bin/env python3
"""Regenerate the benchmark's reference outputs from the current sources.

    python3 bench/make_reference.py [--smoke]

Runs every invocation of every workload once, and every seeded invocation
once per CLI seed in the bank, and writes bench/reference/full.json (or
smoke.json).  Regenerating is a declared output change: do it only in a
change that says which outputs moved and why.
"""
from __future__ import annotations

import argparse
import sys

import check
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    entries: dict[str, dict] = {}
    for workload in run.WORKLOADS:
        for seed in range(run.SEED_BANK):
            for argv in run.invocations(workload, seed, args.smoke):
                key = " ".join(argv)
                if key in entries:
                    continue
                inv = run.run_child(argv)
                entries[key] = check.reference_entry(argv, inv.exit_code, inv.stdout)
                print(f"{inv.exit_code} {inv.wall_s:7.2f}s {key}", file=sys.stderr)
    path = run.reference_path(args.smoke)
    path.parent.mkdir(exist_ok=True)
    check.write_reference(path, entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
