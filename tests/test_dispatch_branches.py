"""Every check group is an entry of harness.CHECKS and every subcommand sets
its handler as the parser default run, so no source file compares a check
group or subcommand name with a literal."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coxsim"
NAMES = {"mecke", "invariance", "glauber", "coarea", "bounds",
         "simulate", "bound", "experiment", "check"}


def _is_name(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in NAMES


def dispatch_compares(source: str, filename: str) -> list:
    """filename:line of each == or != with a check-group or subcommand name
    literal, and of each in or not in against a literal tuple, list or set
    that holds one."""
    lines = set()
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (_is_name(lhs) or _is_name(rhs)):
                lines.add(node.lineno)
            if (isinstance(op, (ast.In, ast.NotIn))
                    and isinstance(rhs, (ast.Tuple, ast.List, ast.Set))
                    and any(map(_is_name, rhs.elts))):
                lines.add(node.lineno)
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_no_dispatch_branches():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in dispatch_compares(path.read_text(encoding="utf-8"), path.name)]
    assert hits == [], f"check-group or subcommand branches: {', '.join(hits)}"


def test_guard_flags_both_forms():
    snippet = ("if args.command == 'check':\n"
               "    pass\n"
               "if which in ('all', 'mecke'):\n"
               "    pass\n"
               "if 'glauber' != which or which not in ['x', 'bound']:\n"
               "    pass\n"
               "if 'experiment' not in parser or which in ('all', name):\n"
               "    pass\n")
    assert dispatch_compares(snippet, "s.py") == ["s.py:1", "s.py:3", "s.py:5"]
