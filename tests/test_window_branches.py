"""Every per-window difference is a method of Disk or Rect in geometry.py, so
no source file asks what kind a window is: no isinstance check against a
window class, and no comparison with a window-kind name outside geometry.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coxsim"
CLASSES = {"Disk", "Rect", "Window"}
KINDS = {"disk", "rect"}


def _names(node) -> set:
    return {leaf.id if isinstance(leaf, ast.Name) else leaf.attr
            for leaf in ast.walk(node) if isinstance(leaf, (ast.Name, ast.Attribute))}


def window_branches(source: str, name: str, kinds: bool = True) -> list:
    """name:line of each isinstance call whose class argument names a window
    class and, if kinds, of each comparison with a window-kind literal."""
    lines = []
    for node in ast.walk(ast.parse(source, name)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _names(node.args[1]) & CLASSES):
            lines.append(node.lineno)
        elif kinds and isinstance(node, ast.Compare) and any(
                isinstance(leaf, ast.Constant) and leaf.value in KINDS
                for operand in (node.left, *node.comparators) for leaf in ast.walk(operand)):
            lines.append(node.lineno)
    return [f"{name}:{line}" for line in sorted(lines)]


def test_no_window_branches():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in window_branches(path.read_text(encoding="utf-8"), path.name,
                                       kinds=path.name != "geometry.py")]
    assert hits == [], f"window-kind branches outside Disk and Rect: {', '.join(hits)}"


def test_scanner_flags_branches():
    snippet = ("def f(window, kind):\n"
               "    if isinstance(window, Disk):\n"
               "        return 1\n"
               "    if isinstance(window, (geometry.Rect, Annulus)):\n"
               "        return 2\n"
               "    if kind in ('disk', 'annulus'):\n"
               "        return 3\n"
               "    return isinstance(window, Annulus) or kind == 'annulus'\n")
    assert window_branches(snippet, "s.py") == ["s.py:2", "s.py:4", "s.py:6"]
    assert window_branches(snippet, "s.py", kinds=False) == ["s.py:2", "s.py:4"]
