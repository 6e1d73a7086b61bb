"""Every 3-sigma verdict comes from harness.within_3se, so no source file
compares against 3 standard errors anywhere else: a comparison that
multiplies or divides by the literal 3 is a second copy of the rule."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coxsim"
RULE = "within_3se"


def _scales_by_3(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div))
            and any(isinstance(side, ast.Constant) and type(side.value) in (int, float)
                    and side.value == 3 for side in (node.left, node.right)))


def three_sigma_compares(path: Path) -> list:
    """file:line of each comparison scaled by the literal 3 outside the rule."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    rule = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == RULE
            for node in ast.walk(fn)}
    lines = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Compare) and id(node) not in rule
                    and any(_scales_by_3(leaf) for leaf in ast.walk(node))})
    return [f"{path.name}:{line}" for line in lines]


def test_one_three_sigma_rule():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in three_sigma_compares(path)]
    assert hits == [], f"3-sigma verdicts outside harness.{RULE}: {', '.join(hits)}"


def test_guard_sees_the_rule():
    # the exemption names a function that exists and holds a scaled comparison
    tree = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    [rule] = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == RULE]
    assert any(isinstance(node, ast.Compare) and any(map(_scales_by_3, ast.walk(node)))
               for node in ast.walk(rule))
