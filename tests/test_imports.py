"""Every imported name is used: a stdlib-only scan, as no linter is installed.

Each module under src/codlab, tools/ and tests/ is parsed with ast, and
a name that an import binds must be read somewhere in the module, on its
own or as the root of an attribute chain.  A name imported on a line
marked `# noqa: F401` is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for part in ("src/codlab", "tools", "tests")
                 for path in (ROOT / part).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        for alias, name in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                bound[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_scan_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom math import gcd as g, lcm\nsys.exit(g)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: lcm"]
    exempt = "import os  # noqa: F401\nfrom math import (\n    gcd,  # noqa: F401\n    lcm,\n)\n"
    assert unused_imports(exempt) == ["line 4: lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
