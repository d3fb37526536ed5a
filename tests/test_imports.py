"""No module imports a name it never uses.

Every ``.py`` file under ``src/leeway``, ``tests`` and ``demos`` is parsed
with ``ast``; a name bound by an import must appear somewhere else in the
file. ``from __future__`` imports and the re-exports of ``__init__.py``
files are exempt.
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
