"""Every name a library module imports at module level is used in it.

No linter is a dependency, so this check parses the modules with ``ast``.
``__init__.py`` re-exports names and is skipped.
"""

import ast
from pathlib import Path

import pytest

import logmaj

MODULES = sorted(p for p in Path(logmaj.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\n\nprint(path)\n"
    assert unused_imports(source) == ["math (line 1)", "sep (line 2)"]
