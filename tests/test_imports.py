"""Every module-level import in the package is used in its module, and every
module-level private name is read somewhere in the package.

No linter runs on the package, so this stands in for its unused-import
and dead-code rules: a deletion that leaves an import, a helper or a
constant behind fails here.  An import line marked `# noqa: F401` is a
deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gha"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_level(tree: ast.Module):
    """The nodes at module level, into try and if blocks but not into defs or imports."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, DEFS + (ast.Import, ast.ImportFrom)):
            todo.extend(ast.iter_child_nodes(node))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    for node in _module_level(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (_x, not dunder) of sources that no source reads.

    A name is read by a load of it, an attribute of that name (module._x)
    or an import of it (from .module import _x).
    """
    defined, read = {}, set()  # private name -> "module:line"
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in _module_level(tree):
            if isinstance(node, DEFS):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{name} ({where})" for name, where in defined.items() if name not in read]


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


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_SCALE: int = 10\n"
            "_dead, __all__ = 0, []\n"
            "try:\n"
            "    _fast = None\n"
            "except ImportError:\n"
            "    pass\n"
            "def _helper():\n"
            "    _local = 1\n"
            "    return _LIMIT\n"
            "class _Base:\n"
            "    _slot = 2\n"
        ),
        "b.py": "from .a import _helper\nimport a\nprint(a._SCALE)\n",
    }
    assert sorted(_unread_private_names(sources)) == ["_Base (a.py:11)", "_dead (a.py:3)", "_fast (a.py:5)"]
    sources["b.py"] += "print(a._fast)\n"
    assert sorted(_unread_private_names(sources)) == ["_Base (a.py:11)", "_dead (a.py:3)"]
