"""Every per-model difference is a field or method of the model's record in
coxmodels.MODELS, so no source file compares a model or experiment name
with a literal."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coxsim"
NAMES = {"cox-line", "satellites", "converge-cox", "converge-sat"}


def model_name_compares(path: Path) -> list:
    """file:line of each comparison with a model or experiment name literal,
    alone or inside a tuple, list or set operand."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Compare)
                   and any(isinstance(leaf, ast.Constant) and leaf.value in NAMES
                           for operand in (node.left, *node.comparators)
                           for leaf in ast.walk(operand)))
    return [f"{path.name}:{line}" for line in lines]


def test_no_model_name_branches():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in model_name_compares(path)]
    assert hits == [], f"model-name branches outside MODELS: {', '.join(hits)}"
