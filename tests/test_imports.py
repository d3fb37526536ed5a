"""No module imports a name it never uses, and the package never imports scipy eagerly.

Every ``.py`` file under ``src/leeway``, ``tests`` and ``demos`` is parsed
with ``ast``; a name bound by an import must appear somewhere else in the
file. ``from __future__`` imports and the re-exports of ``__init__.py``
files are exempt.

No file under ``src/leeway`` imports scipy outside a function body: only
rank stability needs scipy, and it imports ``scipy.stats`` when called.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for folder in ("src/leeway", "tests", "demos")
               for p in (ROOT / folder).rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_files_found():
    names = {p.name for p in FILES}
    assert {"cli.py", "test_cli.py", "01_game_and_leeway.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.relative_to(ROOT)}: unused import, {'; '.join(unused)}"


@pytest.mark.parametrize("source,expected", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["line 1: c"]),
    ("from __future__ import annotations\n", []),
    ("import json\ndef f():\n    return json.dumps\n", []),
])
def test_scan_finds_unused_names(source, expected):
    assert unused_imports(source) == expected


def eager_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import that runs when ``source`` is imported.

    Imports inside a function body run only when it is called and are skipped.
    """
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


PACKAGE = sorted((ROOT / "src/leeway").rglob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_scipy_import(path):
    eager = [f"line {line}: {module}" for line, module in
             eager_imports(path.read_text(encoding="utf-8")) if module.split(".")[0] == "scipy"]
    assert not eager, f"{path.relative_to(ROOT)}: module-level scipy import, {'; '.join(eager)}"


@pytest.mark.parametrize("source,expected", [
    ("import scipy.stats\n", [(1, "scipy.stats")]),
    ("import os\nfrom scipy import special\n", [(1, "os"), (2, "scipy")]),
    ("try:\n    import scipy\nexcept ImportError:\n    pass\n", [(2, "scipy")]),
    ("class A:\n    from scipy import stats\n", [(2, "scipy")]),
    ("def f():\n    from scipy import stats\n", []),
    ("from . import metrics\n", []),
])
def test_scan_finds_eager_imports(source, expected):
    assert eager_imports(source) == expected
