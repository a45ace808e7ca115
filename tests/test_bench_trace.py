"""The benchmark's layer tracer still binds to the package.

``bench/layertrace.py`` wraps functions by name at every place they are
bound, so renaming or moving one under ``src/`` can break the traced
benchmark without failing any other test.  This runs small commands under
the tracer in a fresh interpreter, as a traced benchmark child does.  It
only reads ``bench/``: the child writes no bytecode.
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
    ["mimo", "--n", "1,2", "--m", "2,3", "--rho-db=0,10", "--p0", "0.1",
     "--users", "3", "--samples", "10000"],
    ["verify", "--samples", "20000"],
]
codes = [cli.main([*argv, "--out", os.path.join(sys.argv[2], f"{i}.csv")])
         for i, argv in enumerate(commands)]
print(json.dumps({"codes": codes, "counts": tracer.summary()["counts"]}))
"""


def test_traced_commands_count_draws(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["counts"]["streams.chunks"] > 0
    assert result["counts"]["mimo.normals"] > 0
