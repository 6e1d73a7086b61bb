"""Every point count goes through ReplicateBatch: a region's contains test
runs only in ReplicateBatch.membership, which caches the mask, and the
counting kernel region_counts runs only in ReplicateBatch.counts, which reads
those masks.  A call anywhere else would test a (batch, region) pair a
second time, or count it without the cache."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coxsim"
OWNERS = {"contains": "membership", "region_counts": "counts"}


def _called_name(node) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _owner_nodes(tree, method: str) -> set:
    """ids of the nodes inside ReplicateBatch.<method>."""
    return {id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "ReplicateBatch"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == method
            for node in ast.walk(fn)}


def stray_calls(path: Path, name: str) -> list:
    """file:line of each call of name outside its owner method."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    owner = _owner_nodes(tree, OWNERS[name])
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == name
            and id(node) not in owner]


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_one_count_path(name):
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in stray_calls(path, name)]
    assert hits == [], (f"{name} called outside ReplicateBatch.{OWNERS[name]}: "
                        f"{', '.join(hits)}")


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_guard_sees_the_owner(name):
    # the exemption names a method that exists and makes the call
    tree = ast.parse((SRC / "pointprocess.py").read_text(encoding="utf-8"))
    owner = _owner_nodes(tree, OWNERS[name])
    assert any(isinstance(node, ast.Call) and _called_name(node) == name and id(node) in owner
               for node in ast.walk(tree))
