"""Every imported name and every library definition is used: stdlib-only
scans, as no linter is installed.

Each module under src/codlab, tools/ and tests/ is parsed with ast, and
a name that an import binds must be read somewhere in the module, on its
own or as the root of an attribute chain.  A name imported on a line
marked `# noqa: F401` is exempt.

Each module-level function and class of src/codlab must be read, as a
name or an attribute, somewhere in src/codlab or tools/ outside its own
definition, unless it is exported in codlab.__all__ or is a dunder: the
library keeps no helper that only the tests use.
"""

import ast
from pathlib import Path

import pytest

import codlab

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


def reads(tree: ast.AST) -> list[str]:
    """Every name read in tree, as a Name or as an Attribute's attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append(node.attr)
    return out


def unread_definitions(library: dict[str, str], readers: list[str],
                       exported: set[str]) -> list[str]:
    """'module.name' for each module-level function or class of library
    (module -> source) that no module of library or readers reads outside
    the definition itself, and that is neither exported nor a dunder."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    counts: dict[str, int] = {}
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for name in reads(tree):
            counts[name] = counts.get(name, 0) + 1
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            name = getattr(node, "name", "")
            if (not isinstance(node, kinds) or name in exported
                    or name.startswith("__") and name.endswith("__")):
                continue
            if counts.get(name, 0) <= reads(node).count(name):
                unread.append(f"{module}.{name}")
    return unread


def test_scan_finds_an_unread_definition():
    library = {
        "a": "def used():\n    pass\n\n\ndef only_self():\n    return only_self()\n"
             "\n\nclass Gone:\n    pass\n\n\ndef exported():\n    pass\n"
             "\n\ndef __getattr__(name):\n    return used\n",
        "b": "import a\n\n\ndef tool_only():\n    a.used()\n",
    }
    readers = ["from b import tool_only\ntool_only()\n"]
    assert unread_definitions(library, readers, {"exported"}) == [
        "a.only_self", "a.Gone",
    ]


def test_library_keeps_no_unread_definition():
    library = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src/codlab").glob("*.py"))}
    readers = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "tools").glob("*.py"))]
    assert unread_definitions(library, readers, set(codlab.__all__)) == []
