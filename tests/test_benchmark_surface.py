"""The benchmark under ``perfbench/`` calls lipagg from outside the package;
every name it reads must still exist, so that removing one fails here rather
than only in a benchmark run."""

import ast
import importlib
from pathlib import Path

_MODULES = {"mechanisms", "analysis", "core", "cip", "harness", "notions", "errors"}


def _names_read(source: str):
    """(module, name) for every ``module.name`` read of a lipagg module and
    every name imported from lipagg or one of its modules."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in _MODULES):
            yield node.value.id, node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lipagg"):
            for alias in node.names:
                yield node.module.removeprefix("lipagg").lstrip("."), alias.name


def test_every_name_the_benchmark_reads_resolves_in_lipagg():
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    read = {pair for path in sorted(bench.glob("*.py"))
            for pair in _names_read(path.read_text(encoding="utf-8"))}
    assert len(read) >= 20, sorted(read)  # the scan found the benchmark's calls
    missing = []
    for module, name in sorted(read):
        where = f"lipagg.{module}" if module else "lipagg"
        if not hasattr(importlib.import_module(where), name):
            missing.append(f"{where}.{name}")
    assert not missing, missing
