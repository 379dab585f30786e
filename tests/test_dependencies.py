"""Every third-party module the package or its tests import is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _declared(extras):
    """Normalized names of the core requirements plus those of the given extras."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    reqs = list(project["dependencies"])
    for extra in extras:
        reqs += project["optional-dependencies"][extra]
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in reqs}


def _third_party(directory):
    """{top-level module: first place it is imported} outside the stdlib and this package."""
    found = {}
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "expconvex":
                    found.setdefault(top, f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


@pytest.mark.parametrize("directory, extras", [("src", ()), ("tests", ("test",))])
def test_imports_are_declared(directory, extras):
    declared = _declared(extras)
    missing = {m: at for m, at in _third_party(ROOT / directory).items() if m not in declared}
    assert not missing, f"imported but not declared (extras {extras}): {missing}"
