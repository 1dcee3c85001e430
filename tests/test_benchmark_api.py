"""The winoconv names the benchmark harness (perfbench/) reads must exist.

perfbench's own tests run the harness and are slow; this reads its sources
with ast, so a deleted or renamed name fails here, in Tier-1.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from winoconv import dse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolves(module: str, name: str) -> bool:
    """`from module import name` works: an attribute or a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_benchmark_imports_and_dse_reads_resolve():
    missing = []
    for source in ("workloads.py", "record_golden.py"):
        tree = ast.parse((PERFBENCH / source).read_text(), filename=source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "winoconv":
                missing += [f"{source}: from {node.module} import {alias.name}"
                            for alias in node.names if not _resolves(node.module, alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "dse" and not hasattr(dse, node.attr)):
                missing.append(f"{source}: dse.{node.attr}")
    assert not missing
