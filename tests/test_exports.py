"""The export list and the package namespace name the same public objects."""

import types
from pathlib import Path

import expconvex


def test_all_equals_public_names():
    public = {
        name for name, obj in vars(expconvex).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert sorted(expconvex.__all__) == sorted(public)
    assert len(expconvex.__all__) == len(set(expconvex.__all__))


def test_every_export_resolves():
    for name in expconvex.__all__:
        assert getattr(expconvex, name) is not None


def test_readme_quick_start_runs(capsys):
    # the README's library example, as a reader would paste it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    passed, min_eigenvalue = capsys.readouterr().out.split()
    assert passed == "True" and float(min_eigenvalue) > -1e-8
