"""Golden outputs: every CLI invocation below against its frozen result.

Each case is one command line.  Its golden is the CSV it writes
(``<name>.csv``: the ``--out`` file when the case has one, stdout
otherwise), any other stdout (``<name>.stdout``, verify's report), and in
``index.json`` its exit code and last stderr line, so error exits are
frozen too.

Grid, closed-form and Monte Carlo cells must match byte for byte.
Quadrature columns may move by 1e-9 absolute, plus one unit in the last
printed place, since a roundoff-level move can tip a printed digit; verify's
detail numbers are compared the same way.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py [NAME ...]``,
only in a change that declares the moved outputs.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from antsel.cli import main

GOLDEN = Path(__file__).parent / "golden"
QUAD_ABS_TOL = 1e-9

_STRATEGIES = ("lemma", "asymptotic", "alpha", "corollary")
CASES: dict[str, str] = {
    # README figure recipes, with the mimo sample counts reduced.
    "readme_dist": "dist --n 1,2,5 --m 2,5,10,20 --out {out}",
    "readme_outage": "outage --n 1,2,3 --m 1..20 --rho-db 5 --p0 0.1 --out {out}",
    "readme_mimo_outage": "mimo --n 1,2,3 --m 1..20 --rho-db 5 --p0 0.1 "
    "--samples 10000 --out {out}",
    "readme_ergodic_vs_m": "ergodic --n 1 --m 1..20 --rho-db 5 --out {out}",
    "readme_ergodic_vs_rho": "ergodic --n 1,2 --m 1,2 --rho-db=-10:1:20 --out {out}",
    "readme_scheduling": "scheduling --n 1 --m 1..20 --users 32 --rho-db 5 --out {out}",
    "readme_mimo_sched": "mimo --n 1 --m 1..20 --rho-db 5 --users 32 --samples 1000 "
    "--out {out}",
    "readme_table1": "table1 --out {out}",
    # dist and fit for every strategy where it is defined ...
    **{f"dist_{s}": f"dist --n 1,2,3 --m 4,10,40 --points 25 --strategy {s}"
       for s in _STRATEGIES},
    **{f"fit_{s}": f"fit --n 1,2,3 --m 4..24 --strategy {s}" for s in _STRATEGIES},
    # ... and where it is not.
    "dist_alpha_undefined": "dist --n 2 --m 2 --strategy alpha",
    "fit_asymptotic_undefined": "fit --n 2 --m 2 --strategy asymptotic",
    "dist_m1": "dist --n 1,2 --m 1..3 --points 10",
    # Large n, where the lemma scale's terms t^k/k! overflow a float.
    "fit_large_n": "fit --n 700,708,710,800,3000 --m 2,32",
    "outage_large_n": "outage --n 709,800 --m 2 --rho-db 5",
    "dist_large_n": "dist --n 800 --m 2 --points 5",
    # Every --mode.
    **{f"dist_mode_{mode}": f"dist --n 2 --m 5 --points 10 --mode {mode}"
       for mode in ("exact", "approx")},
    **{f"outage_mode_{mode}": f"outage --n 1,2 --m 1,4 --rho-db=-5,5 --p0 0.05 --mode {mode}"
       for mode in ("exact", "approx")},
    **{f"ergodic_mode_{mode}": f"ergodic --n 1,2 --m 1,5 --rho-db=-5,5 --mode {mode}"
       for mode in ("exact", "bounds", "approx")},
    **{f"scheduling_mode_{mode}":
       f"scheduling --n 1,2 --m 1,5 --users 8 --rho-db=0,10 --mode {mode}"
       for mode in ("exact", "approx")},
    **{f"table1_mode_{mode}": f"table1 --m 1..4 --rho-db=0,10 --mode {mode}"
       for mode in ("exact", "approx")},
    "mimo_mode_mc": "mimo --n 2 --m 1,3 --rho-db=0,10 --samples 2000 --mode mc",
    # Every optional mimo column filled at once.
    "mimo_all_columns": "mimo --n 1,2 --m 1,3 --rho-db=0,10 --p0 0.1 --users 4 "
    "--samples 10000",
    "verify": "verify --samples 20000 --seed 3 --out {out}",
    # Error exits.
    "err_mode_unavailable": "ergodic --n 1 --m 2 --mode mc",
    "err_points": "dist --n 1 --m 2 --points 1",
    "err_grid_step": "ergodic --rho-db 5:0:10",
    "err_ergodic_n0": "ergodic --n 0",
    "err_rho_underflow": "ergodic --rho-db=-4000",
    "err_outage_p0": "outage --p0 1.5",
    "err_scheduling_users": "scheduling --users 0",
    "err_table1_n": "table1 --n 1,2",
    "err_mimo_n9": "mimo --n 9",
    "err_mimo_n0": "mimo --n 0 --m 0",
    "err_mimo_samples": "mimo --p0 0.1 --samples 2000",
    "err_mimo_users": "mimo --users 0 --samples 2000",
    # Quadrature that does not converge: the first failing SINR is named.
    "err_ergodic_quad": "ergodic --n 5000 --m 1 --rho-db=-10,5,20",
    "err_scheduling_quad": "scheduling --n 5000 --m 1 --rho-db=-10,5",
}

# Quadrature columns by command; table1 prints exact_gain with 4 decimals.
QUAD_COLUMNS = {
    "ergodic": {"exact", "quad_error"},
    "scheduling": {"greedy", "round_robin", "gain_exact", "fractional"},
    "table1": {"exact_gain"},
}
_FIXED_UNITS = {("table1", "exact_gain"): 1e-4}
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def run(name: str) -> dict:
    """Exit code, last stderr line, CSV text and other stdout of one case."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = shlex.split(CASES[name].format(out=out))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        lines = stderr.getvalue().splitlines()
        result = {"exit": code, "stderr": lines[-1] if lines else ""}
        if out.exists():
            result["csv"], result["stdout"] = out.read_text(), stdout.getvalue()
        else:
            result["csv"], result["stdout"] = stdout.getvalue(), ""
    return result


def _g10_unit(value: float) -> float:
    """One unit in the last place of ``f"{value:.10g}"``."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 9) if value else 0.0


def _decimal_unit(text: str) -> float:
    """One unit in the last place of a number as written, e.g. '1.23e-05'."""
    mantissa, _, exponent = text.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def _quad_close(got: str, want: str, unit: float) -> bool:
    return got == want or (
        got != "" and want != "" and abs(float(got) - float(want)) <= QUAD_ABS_TOL + unit
    )


def _text_close(got: str, want: str) -> bool:
    """Same words, and each number within the quadrature tolerance."""
    return _NUMBER.sub("#", got) == _NUMBER.sub("#", want) and all(
        _quad_close(a, b, _decimal_unit(b))
        for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want))
    )


def compare_csv(command: str, got: str, want: str) -> list[str]:
    """Differences between two outputs of ``command``; empty when they agree."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if got_lines[:1] != want_lines[:1]:
        return [f"parameter line {got_lines[:1]}, golden {want_lines[:1]}"]
    got_rows, want_rows = list(csv.reader(got_lines[1:])), list(csv.reader(want_lines[1:]))
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        return [f"{len(got_rows)} rows, golden {len(want_rows)}; or a new header"]
    header, problems = want_rows[0], []
    for i, (got_row, want_row) in enumerate(zip(got_rows[1:], want_rows[1:]), 1):
        for name, a, b in zip(header, got_row, want_row):
            if (command, name) in _FIXED_UNITS:
                unit = _FIXED_UNITS[command, name]
                ok = _quad_close(a, b, unit) and (a == "" or _decimal_unit(a) == unit)
            elif name in QUAD_COLUMNS.get(command, ()):
                ok = _quad_close(a, b, _g10_unit(float(b or 0)))
            else:
                ok = a == b or (command == "verify" and name == "detail" and _text_close(a, b))
            if not ok:
                problems.append(f"row {i} {name}: {a!r}, golden {b!r}")
    return problems


@pytest.fixture(scope="module")
def index() -> dict:
    return json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, index):
    got, want = run(name), index[name]
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    csv_path = GOLDEN / f"{name}.csv"
    if csv_path.exists():
        command = CASES[name].split()[0]
        assert compare_csv(command, got["csv"], csv_path.read_text()) == []
    else:
        assert got["csv"] == ""
    stdout_path = GOLDEN / f"{name}.stdout"
    want_stdout = stdout_path.read_text() if stdout_path.exists() else ""
    assert len(got["stdout"].splitlines()) == len(want_stdout.splitlines())
    assert all(map(_text_close, got["stdout"].splitlines(), want_stdout.splitlines()))


def test_quadrature_tolerance_is_tight():
    """A move beyond 1e-9 plus one printed unit fails; exact cells must match."""
    want = "# antsel ergodic n=[1]\nn,exact,lower\n1,1.234567891,0.5\n"
    assert compare_csv("ergodic", want.replace("891", "892"), want) == []
    assert compare_csv("ergodic", want.replace("891", "894"), want) != []
    assert compare_csv("ergodic", want.replace("0.5", "0.50"), want) != []
    table = "# antsel table1 n=[1]\nm,rho_db,exact_gain\n1,0.0,1.4366\n"
    assert compare_csv("table1", table.replace("4366", "4367"), table) == []
    assert compare_csv("table1", table.replace("4366", "43660"), table) != []


def regenerate(names: list[str]) -> None:
    path = GOLDEN / "index.json"
    index = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        result = run(name)
        index[name] = {"exit": result["exit"], "stderr": result["stderr"]}
        for suffix in ("csv", "stdout"):
            target = GOLDEN / f"{name}.{suffix}"
            target.unlink(missing_ok=True)
            if result[suffix]:
                target.write_text(result[suffix])
    path.write_text(json.dumps(dict(sorted(index.items())), indent=1) + "\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    regenerate(sys.argv[1:] or sorted(CASES))
