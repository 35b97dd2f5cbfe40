"""Every imported name is used: a stdlib-only scan, as no linter is installed.

Each module under src/codlab and tools/ is parsed with ast, and a name
that an import binds must be read somewhere in the module, on its own
or as the root of an attribute chain.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "codlab").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each imported name that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_scan_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom math import gcd as g, lcm\nsys.exit(g)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
