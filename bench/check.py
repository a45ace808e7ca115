"""Output check of the benchmark: each CLI output against its stored reference.

An output is split into a table (header and rows) and the lines around it
(the ``# antsel ...`` parameter line, or verify's summary line).  Columns
fall into three classes:

- exact: grid and closed-form columns, compared byte for byte through a
  SHA-256 digest of everything that is not a tolerance column;
- quad: quadrature columns, which may move by 1e-9 absolute;
- mc: Monte Carlo columns, which may move only at roundoff level, 1e-9
  relative, far below their standard errors.

Every numeric comparison also allows one unit in the last printed place, so
that a roundoff-level change that tips a printed digit still passes.
Verify's report is checked as a table of (check, status, detail) whose
detail numbers are compared like quadrature values.

Two invariants need no reference: ``lower <= exact <= upper`` on every
ergodic row, and every verify check PASS wherever the reference for that
seed passes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

QUAD_ABS_TOL = 1e-9
MC_REL_TOL = 1e-9

_MC_COLUMNS = (
    "ergodic",
    "ergodic_stderr",
    "outage",
    "outage_stderr",
    "scheduled",
    "scheduled_stderr",
)
TOLERANCE_COLUMNS: dict[str, dict[str, str]] = {
    "ergodic": {"exact": "quad", "quad_error": "quad"},
    "scheduling": {
        "greedy": "quad",
        "round_robin": "quad",
        "gain_exact": "quad",
        "fractional": "quad",
    },
    "table1": {"exact_gain": "quad"},
    "mimo": {name: "mc" for name in _MC_COLUMNS},
    "verify": {"detail": "text"},
}
# Printed unit of columns not written with %.10g.
_FIXED_UNITS = {("table1", "exact_gain"): 1e-4}

_VERIFY_LINE = re.compile(r"^(PASS|FAIL)  ([\w-]+): (.*)$")
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


class Output:
    """One invocation's output as (extra lines, header, rows)."""

    def __init__(self, command: str, text: str) -> None:
        self.command = command
        self.extra: list[str] = []
        self.rows: list[list[str]] = []
        if command == "verify":
            self.header = ["check", "status", "detail"]
            for line in text.splitlines():
                match = _VERIFY_LINE.match(line)
                if match:
                    status, name, detail = match.groups()
                    self.rows.append([name, status, detail])
                else:
                    self.extra.append(line)
            return
        lines = text.splitlines()
        while lines and lines[0].startswith("#"):
            self.extra.append(lines.pop(0))
        table = list(csv.reader(lines))
        self.header = table[0] if table else []
        self.rows = table[1:]

    def column(self, name: str) -> list[str]:
        index = self.header.index(name)
        return [row[index] for row in self.rows]

    def tolerance_columns(self) -> dict[str, str]:
        classes = TOLERANCE_COLUMNS.get(self.command, {})
        return {name: cls for name, cls in classes.items() if name in self.header}

    def digest(self) -> str:
        """SHA-256 of every exact part: extra lines, header and exact cells."""
        blank = {self.header.index(name) for name in self.tolerance_columns()}
        sha = hashlib.sha256()
        for line in self.extra:
            sha.update(line.encode() + b"\n")
        sha.update("\x1f".join(self.header).encode() + b"\n")
        for row in self.rows:
            cells = ["" if i in blank else cell for i, cell in enumerate(row)]
            sha.update("\x1f".join(cells).encode() + b"\n")
        return sha.hexdigest()


def reference_entry(argv: list[str], exit_code: int, text: str) -> dict:
    """What the reference stores for one invocation."""
    out = Output(argv[0], text)
    return {
        "exit": exit_code,
        "rows": len(out.rows),
        "digest": out.digest(),
        "columns": {name: out.column(name) for name in out.tolerance_columns()},
    }


def _g10_unit(value: float) -> float:
    """One unit in the last place of ``f"{value:.10g}"``."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - 9)


def _decimal_unit(text: str) -> float:
    """One unit in the last place of a number as written, e.g. '1.23e-05'."""
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _close(got: str, want: str, cls: str, unit: float | None) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if unit is None:
        unit = _g10_unit(b)
    if cls == "mc":
        return abs(a - b) <= MC_REL_TOL * abs(b) + unit
    return abs(a - b) <= QUAD_ABS_TOL + unit


def _text_close(got: str, want: str) -> bool:
    """Same words; integers equal; decimals within the quadrature tolerance."""
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want):
        return False
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if re.fullmatch(r"[-+]?\d+", b):
            if a != b:
                return False
        elif not _close(a, b, "quad", _decimal_unit(b)):
            return False
    return True


def _invariants(out: Output, ref: dict) -> list[str]:
    problems = []
    if out.command == "ergodic":
        for row in out.rows:
            cells = dict(zip(out.header, row))
            if cells["exact"] and cells["lower"] and cells["upper"]:
                lower, exact, upper = (float(cells[k]) for k in ("lower", "exact", "upper"))
                if not lower <= exact <= upper:
                    problems.append(
                        f"bounds violated at n={cells['n']} m={cells['m']} "
                        f"rho_db={cells['rho_db']}: {lower} <= {exact} <= {upper}"
                    )
    if out.command == "verify" and ref["exit"] == 0:
        failed = [row[0] for row in out.rows if row[1] != "PASS"]
        if failed or not out.rows:
            problems.append(f"verify checks not all PASS: {failed or 'no checks'}")
    return problems


def check(argv: list[str], exit_code: int, text: str, ref: dict | None) -> list[str]:
    """Problems with one invocation's output; an empty list means correct."""
    if ref is None:
        return [f"no reference for: {' '.join(argv)}"]
    problems = []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code}, reference {ref['exit']}")
    out = Output(argv[0], text)
    if len(out.rows) != ref["rows"]:
        return problems + [f"{len(out.rows)} rows, reference {ref['rows']}"]
    if out.digest() != ref["digest"]:
        problems.append("grid or closed-form columns differ from the reference")
    for name, cls in out.tolerance_columns().items():
        want = ref["columns"].get(name)
        if want is None:
            problems.append(f"column {name!r} missing from the reference")
            continue
        unit = _FIXED_UNITS.get((out.command, name))
        for i, (a, b) in enumerate(zip(out.column(name), want)):
            ok = _text_close(a, b) if cls == "text" else _close(a, b, cls, unit)
            if not ok:
                problems.append(f"{name} row {i + 1}: {a}, reference {b}")
                break
    return problems + _invariants(out, ref)


def load_reference(path: Path) -> dict[str, dict]:
    with open(path) as fh:
        return json.load(fh)


def write_reference(path: Path, entries: dict[str, dict]) -> None:
    """One entry per line, keyed by the command line, so diffs stay readable."""
    lines = [
        f"{json.dumps(key)}: {json.dumps(entries[key], separators=(',', ':'))}"
        for key in sorted(entries)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
