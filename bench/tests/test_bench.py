"""Tests of the benchmark itself: names, the output check and smoke runs.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SMOKE_REFERENCE = check.load_reference(run.reference_path(smoke=True))


def _names(key: str) -> list[str]:
    return [entry["name"] for entry in SPEC[key]]


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_names_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(_names("workloads"))
    assert sorted(run.SMOKE_WORKLOADS) == sorted(run.WORKLOADS)
    assert list(run.END_TO_END) == _names("end_to_end")
    assert list(run.PER_LAYER) == _names("per_layer")
    units = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert units == {**run.END_TO_END, **run.PER_LAYER}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_is_correct(workload):
    result = _smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.WORKLOADS[workload])
    assert list(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    result = _smoke("mc-baseline", trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == _names("per_layer")
    # mc-baseline bypasses the analytic layers entirely.
    assert metrics["orderstats.kernel.calls"] == 0
    assert metrics["capacity.ergodic.calls"] == 0
    assert metrics["mimo.normals"] > 0


def _run(argv: list[str]) -> tuple[str, dict]:
    inv = run.run_child(argv)
    assert inv.exit_code == 0, inv.stderr
    ref = SMOKE_REFERENCE[" ".join(argv)]
    assert check.check(argv, inv.exit_code, inv.stdout, ref) == []
    return inv.stdout, ref


def _edit(text: str, column: str, values) -> str:
    """Replace ``column`` of a CSV output: ``values(old column) -> new column``."""
    lines = text.splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    index = header.index(column)
    for row, value in zip(rows, values([row[index] for row in rows])):
        row[index] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return "".join(comments) + buf.getvalue()


def _first(change):
    return lambda column: [repr(change(float(column[0]))), *column[1:]]


def test_check_flags_quadrature_move():
    argv = run.invocations("quad-grid", 0, smoke=True)[0]
    text, ref = _run(argv)
    moved = _edit(text, "exact", _first(lambda v: v + 1e-6))
    assert any("exact" in p for p in check.check(argv, 0, moved, ref))
    within = _edit(text, "exact", _first(lambda v: v + 5e-10))
    assert check.check(argv, 0, within, ref) == []


def test_check_flags_monte_carlo_move():
    argv = run.invocations("mc-baseline", 0, smoke=True)[0]
    text, ref = _run(argv)
    moved = _edit(text, "ergodic", _first(lambda v: v * (1 + 1e-6)))
    assert any("ergodic" in p for p in check.check(argv, 0, moved, ref))


def test_check_flags_changed_sample_stream():
    argv = run.invocations("mc-baseline", 0, smoke=True)[0]
    text, ref = _run(argv)
    other = run.run_child(run.invocations("mc-baseline", 1, smoke=True)[0]).stdout
    resampled = _edit(text, "ergodic", lambda _: check.Output("mimo", other).column("ergodic"))
    assert any("ergodic" in p for p in check.check(argv, 0, resampled, ref))


def test_check_flags_broken_sandwich():
    argv = run.invocations("quad-grid", 0, smoke=True)[0]
    text, ref = _run(argv)
    broken = _edit(text, "upper", _first(lambda v: -1.0))
    assert any("bounds violated" in p for p in check.check(argv, 0, broken, ref))


def test_check_flags_failed_verify():
    argv = run.invocations("curves", 0, smoke=True)[-1]
    text, ref = _run(argv)
    assert ref["exit"] == 0
    failed = text.replace("PASS  ks-exact-fit", "FAIL  ks-exact-fit")
    problems = check.check(argv, 3, failed, ref)
    assert any("not all PASS" in p for p in problems)
    assert any("exit code" in p for p in problems)
