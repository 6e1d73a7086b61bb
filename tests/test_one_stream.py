"""Every generator comes from harness.stream, so the stream layout has one
owner: a np.random call anywhere else in the package would make a
generator keyed outside the determinism contract."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coxsim"
OWNER = "stream"


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _makes_generator(node) -> bool:
    return (isinstance(node, ast.Call)
            and _dotted(node.func).startswith(("np.random.", "numpy.random.")))


def generator_calls(path: Path) -> list:
    """file:line of each np.random call outside the owner function."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    owner = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name == OWNER
             and path.name == "harness.py"
             for node in ast.walk(fn)}
    lines = sorted({node.lineno for node in ast.walk(tree)
                    if _makes_generator(node) and id(node) not in owner})
    return [f"{path.name}:{line}" for line in lines]


def test_one_generator_factory():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in generator_calls(path)]
    assert hits == [], f"np.random calls outside harness.{OWNER}: {', '.join(hits)}"


def test_guard_sees_the_factory():
    # the exemption names a function that exists and makes a generator
    tree = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    [owner] = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == OWNER]
    assert any(map(_makes_generator, ast.walk(owner)))
