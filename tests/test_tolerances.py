"""The tolerance policy: every small numerical threshold lives in expconvex.tolerances."""

import ast
from pathlib import Path

import expconvex

SRC = Path(expconvex.__file__).parent
POLICY = SRC / "tolerances.py"
OTHERS = sorted(p for p in SRC.glob("*.py") if p != POLICY)


def _floats(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            yield node


def test_no_tolerance_literal_outside_policy():
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in OTHERS
        for node in _floats(ast.parse(path.read_text(encoding="utf-8")))
        if 0.0 < abs(node.value) < 1e-2
    ]
    assert not found, "tolerance literals outside tolerances.py:\n" + "\n".join(found)


def test_policy_holds_constants_only():
    tree = ast.parse(POLICY.read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # the module docstring
        assert isinstance(stmt, ast.Assign), ast.dump(stmt)
        assert isinstance(stmt.value, ast.Constant), ast.unparse(stmt)
        assert all(isinstance(t, ast.Name) and t.id.isupper() for t in stmt.targets)


def test_every_policy_constant_is_used():
    names = {
        t.id
        for stmt in ast.parse(POLICY.read_text(encoding="utf-8")).body
        if isinstance(stmt, ast.Assign)
        for t in stmt.targets
    }
    # an import alone does not count: some module must read the name
    read = {
        node.id
        for path in OTHERS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert names <= read, f"unused tolerance constants: {sorted(names - read)}"
