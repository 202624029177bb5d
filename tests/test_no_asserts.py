"""The package source holds no `assert` statement.

`python -O` strips asserts, so an invariant checked by one silently goes
unchecked; the source raises an exception instead.
"""
import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "driftbench").glob("*.py"))


def test_sources_are_found():
    assert "mlp.py" in {p.name for p in SOURCES}


def test_no_assert_in_source():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the source: {found}"
