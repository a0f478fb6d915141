"""Library structure: the library runs on numpy alone (scipy is a
test-only oracle), and only gf knows the layout of its product tables."""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Blocks every scipy import, then imports and plans through the library.
_PROBE = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import batchcast
import batchcast.cli
import batchcast.sim
from batchcast.analytics import (
    NetworkParams, optimize_batches, rank_distribution, stopping_time
)

ex2 = NetworkParams(3, 0.05, 0.5, 0.1, 16, 1600)
plan = optimize_batches(ex2)
assert (plan.n_min, plan.n_opt, plan.n_max) == (129, 152, 216)
t = stopping_time(plan.n_opt, ex2)
for approximate in (False, True):
    law = rank_distribution(plan.n_opt, t, ex2, approximate=approximate)
    assert abs(law.sum() - 1.0) < 1e-9
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
print("ok")
"""


def test_library_runs_without_scipy():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_only_gf_reaches_into_gf():
    """No module but gf reads gf's private names or its product table, so
    the table layout and the kernels over it can change in one place."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "batchcast", "*.py"))):
        if os.path.basename(path) == "gf.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("gf"):
                names = [a.name for a in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gf"
            ):
                names = [node.attr]
            else:
                continue
            where = "%s:%d" % (os.path.basename(path), node.lineno)
            found += [
                "%s gf.%s" % (where, name)
                for name in names
                if name.startswith("_") or name == "MUL_TABLE"
            ]
    assert not found, sorted(found)
