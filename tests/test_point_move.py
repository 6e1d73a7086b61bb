"""Adding or removing one point of a configuration is Functional.moved alone:
no other source line calls a count functional's h on a count matrix shifted
by + or -."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coxsim"


def _moved_nodes(tree: ast.Module) -> set:
    """ids of the nodes inside Functional.moved."""
    return {id(node) for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "Functional"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "moved"
            for node in ast.walk(fn)}


def shifted_h_calls(path: Path) -> list:
    """file:line of each call x.h(a + b) or x.h(a - b) outside Functional.moved."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    allowed = _moved_nodes(tree)
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in allowed
                   and isinstance(node.func, ast.Attribute) and node.func.attr == "h"
                   and node.args and isinstance(node.args[0], ast.BinOp)
                   and isinstance(node.args[0].op, (ast.Add, ast.Sub)))
    return [f"{path.name}:{line}" for line in lines]


def test_one_point_move():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in shifted_h_calls(path)]
    assert hits == [], f"point moves outside Functional.moved: {', '.join(hits)}"
