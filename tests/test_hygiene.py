"""Source hygiene that no installed linter checks: unused imports in
src/mwlab, the tests and the scripts."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mwlab"


def unused_imports(source: str) -> list:
    """Names imported at any level of a module and never used in it.

    A name counts as used when it appears as an identifier or inside a string
    annotation; an import line marked ``# noqa: F401`` is exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # forward references such as -> "CubeFamily"
            used.update(n.id for n in ast.walk(_parse_or_empty(node.value))
                        if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _parse_or_empty(text: str) -> ast.AST:
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError:
        return ast.Module(body=[], type_ignores=[])


# library modules keep their bare names as test ids
CHECKED = ([pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))]
           + [pytest.param(p, id=str(p.relative_to(ROOT)))
              for d in ("tests", "scripts") for p in sorted((ROOT / d).glob("*.py"))])


@pytest.mark.parametrize("path", CHECKED)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_honours_noqa():
    src = ("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
           "def f() -> \"tau\":\n    return pi\n")
    assert unused_imports(src) == ["os (line 1)"]
