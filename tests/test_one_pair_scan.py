"""The close-pair scan _max_pair_dot is read by ClosePair alone: every other
statistic of the package is a count functional, so no other source line may
call the scan."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coxsim"
OWNER = "ClosePair"
SCAN = "_max_pair_dot"


def _owner_nodes(tree: ast.Module) -> set:
    """ids of the nodes inside the owner class."""
    return {id(node) for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == OWNER
            for node in ast.walk(cls)}


def _calls_scan(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return ((isinstance(func, ast.Name) and func.id == SCAN)
            or (isinstance(func, ast.Attribute) and func.attr == SCAN))


def scan_calls(source: str, filename: str) -> list:
    """filename:line of each call of the scan outside the owner class."""
    tree = ast.parse(source, filename)
    allowed = _owner_nodes(tree)
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if _calls_scan(node) and id(node) not in allowed)
    return [f"{filename}:{line}" for line in lines]


def test_one_close_pair_reader():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in scan_calls(path.read_text(encoding="utf-8"), path.name)]
    assert hits == [], f"close-pair scans outside {OWNER}: {', '.join(hits)}"


def test_guard_sees_the_owner():
    # the exemption names a class that exists and calls the scan
    tree = ast.parse((SRC / "diagnostics.py").read_text(encoding="utf-8"))
    [owner] = [cls for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == OWNER]
    assert any(map(_calls_scan, ast.walk(owner)))


def test_guard_flags_a_stray_call():
    snippet = ("class ClosePair:\n"
               "    def __call__(self, batch):\n"
               "        return _max_pair_dot(batch) >= self.threshold\n"
               "def far_pairs(batch):\n"
               "    return _max_pair_dot(batch) < 0.5\n"
               "class Functional:\n"
               "    def __call__(self, batch):\n"
               "        return diagnostics._max_pair_dot(batch)\n")
    assert scan_calls(snippet, "s.py") == ["s.py:5", "s.py:8"]
