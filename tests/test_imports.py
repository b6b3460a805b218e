"""Every module-level import in the package is used in its module.

No linter runs on the package, so this stands in for its unused-import
rule: a deletion that leaves an import behind fails here.  An import line
marked `# noqa: F401` is a deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gha"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    todo = list(tree.body)  # module level, into try and if blocks but not into defs
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            todo.extend(ast.iter_child_nodes(node))
        elif getattr(node, "module", None) != "__future__" and not any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "import math\n"
        "from os import path, sep\n"
        "from x import y  # noqa: F401\n"
        "try:\n"
        "    import json as js\n"
        "except ImportError:\n"
        "    js = None\n"
        "def f():\n"
        "    import re\n"
        "    return sep\n"
    )
    assert sorted(_unused_imports(source)) == ["math (line 1)", "path (line 2)"]
    unused = sorted(_unused_imports(source.replace("js = None", "pass")))
    assert unused == ["js (line 5)", "math (line 1)", "path (line 2)"]
