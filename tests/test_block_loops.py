"""Every cache-block loop in the package source walks dataset.row_blocks.

A hand-written `for lo in range(0, n, step)` picks its own block size; the
block decision lives in dataset.BLOCK and dataset.row_blocks. The walker
itself and the training batch loop, whose step is the batch size, are the
only stepped ranges allowed.
"""
import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "driftbench").glob("*.py"))
ALLOWED = {"dataset.row_blocks", "training.train"}


def stepped_range_loops(path):
    """(function, line) of each for loop or comprehension over a 3-argument range."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id == "range" and len(it.args) == 3):
                found.append((scope, it.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return found


def test_sources_are_found():
    assert {"dataset.py", "training.py"} <= {p.name for p in SOURCES}


def test_allowed_loops_are_the_only_stepped_ranges():
    loops = [loop for path in SOURCES for loop in stepped_range_loops(path)]
    stray = [f"{scope} line {line}" for scope, line in loops if scope not in ALLOWED]
    assert not stray, f"block loops outside dataset.row_blocks: {stray}"
    assert {scope for scope, _ in loops} == ALLOWED  # the walk sees each of them
