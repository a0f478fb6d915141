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


def test_only_the_symbolic_system_pivots_outside_gf():
    """Column elimination lives in gf.row_reduce: outside gf, gf.pivot is
    used by codec._ZSystem.add alone, which pivots each row on its first
    nonzero column, a different rule. A second column loop beside
    row_reduce would show up here."""
    found = []

    class Uses(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_scope

        def visit_Attribute(self, node):
            if isinstance(node.value, ast.Name) and node.value.id == "gf":
                if node.attr == "pivot":
                    found.append("%s:%d" % (".".join(self.scope), node.lineno))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if (node.module or "").endswith("gf"):
                if "pivot" in [a.name for a in node.names]:
                    found.append("%s:%d" % (".".join(self.scope), node.lineno))

    for path in sorted(glob.glob(os.path.join(SRC, "batchcast", "*.py"))):
        module = os.path.basename(path)[:-3]
        if module == "gf":
            continue
        with open(path) as fh:
            Uses(module).visit(ast.parse(fh.read(), path))
    assert [f.rsplit(":", 1)[0] for f in found] == ["codec._ZSystem.add"], found


def test_only_batch_buffers_write_reception_rows():
    """Reception rows have one writer: outside codec.BatchBuffers no library
    code assigns into a subscript of an attribute named raw or _raw, so a
    decoder that reads a receiver's rows in place sees each row as it was
    absorbed."""
    found = []

    def writes_rows(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(writes_rows(t) for t in target.elts)
        while isinstance(target, ast.Subscript):
            target = target.value
            if isinstance(target, ast.Attribute) and target.attr in ("raw", "_raw"):
                return True
        return False

    class Writes(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_scope

        def visit_assign(self, node):
            targets = getattr(node, "targets", None) or [node.target]
            if any(writes_rows(t) for t in targets):
                found.append("%s:%d" % (".".join(self.scope), node.lineno))
            self.generic_visit(node)

        visit_Assign = visit_AugAssign = visit_AnnAssign = visit_assign

    for path in sorted(glob.glob(os.path.join(SRC, "batchcast", "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            Writes(module).visit(ast.parse(fh.read(), path))
    outside = [f for f in found if not f.startswith("codec.BatchBuffers.")]
    assert found and not outside, found
