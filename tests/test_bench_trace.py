"""The benchmark's layer tracer still binds to the package.

``bench/layertrace.py`` wraps functions by name at every place they are
bound, so renaming or moving one under ``src/`` can break the traced
benchmark without failing any other test.  This runs small commands under
the tracer in a fresh interpreter, as a traced benchmark child does.  It
only reads ``bench/``: the child writes no bytecode.

The capacity estimators take whole SINR curves; the traced layer must see
one call per curve, so a curve path that bypasses the wrapped public names
shows up as missing calls.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, os, sys
sys.path[:0] = [os.path.join(sys.argv[1], "bench"), os.path.join(sys.argv[1], "src")]
import layertrace
from antsel import cli
tracer = layertrace.install()
commands = [
    ["table1"],
    ["ergodic", "--n", "1,2", "--m", "1..3", "--rho-db=0:5:20"],
    ["scheduling", "--n", "1", "--m", "1,2", "--users", "4", "--rho-db=0,10"],
    ["mimo", "--n", "1,2", "--m", "2,3", "--rho-db=0,10", "--p0", "0.1",
     "--users", "3", "--samples", "10000"],
    ["verify", "--samples", "20000"],
]
codes, calls = [], []
for i, argv in enumerate(commands):
    codes.append(cli.main([*argv, "--out", os.path.join(sys.argv[2], f"{i}.csv")]))
    calls.append(dict(tracer.calls))  # cumulative, after each command
print(json.dumps({"codes": codes, "counts": tracer.summary()["counts"], "calls": calls}))
"""


def test_traced_commands_count_draws(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["counts"]["streams.chunks"] > 0
    assert result["counts"]["mimo.normals"] > 0
    # ergodic: 6 curves, one call each; scheduling: 2 curves, greedy and
    # round robin each, and one scheduling call per curve.
    before, after = result["calls"][0], result["calls"][2]
    assert after["capacity.ergodic"] - before["capacity.ergodic"] == 6 + 2 * 2
    assert after["scheduling"] - result["calls"][1]["scheduling"] == 2
