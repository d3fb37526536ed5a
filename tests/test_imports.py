"""No module imports a name it never uses, and the package never imports scipy.

Every ``.py`` file under ``src/leeway``, ``tests`` and ``demos`` is parsed
with ``ast``; a name bound by an import must appear somewhere else in the
file. ``from __future__`` imports and the re-exports of ``__init__.py``
files are exempt.

No file under ``src/leeway`` imports scipy, at module level or in a
function body: scipy is an oracle of the tests only.

Every private name the package defines is read somewhere in the package:
a function, method, class, module constant or ``self._attr`` whose name
starts with one underscore, and that nothing reads, is a leftover.

One function in the package reads CSV records, ``codebook.read_table``:
no other code refers to ``csv.reader`` or ``csv.DictReader``, so every
table input follows one set of rules. It is also the one function that
decides what a comment is: no other code tests a line for ``"#"`` or calls
``np.loadtxt`` with ``comments`` other than ``None``.

One method in the package skips rows without a game, ``BatchContext.games``:
no other code filters rows on ``Drawer.NA``, so every table builder leaves
out the same rows. A check on one row that raises is not a filter.

One function in the package opens an output file, ``cli._write``: no other
code opens a file to write, except the forked child's pipe, so every output
is encoded and replaced the same way.

One function in the package decides whether a row can be solved,
``codebook.check``: it alone constructs ``InvariantViolation``, and only
it, ``lint_codebook`` (which lists every violation) and
``counterfactual.apply_template`` (which raises its own ``TemplateError``)
call ``validate``.

Only ``solver.BatchContext`` constructs the tree evaluator,
``_TreeEvaluator``, so every tree is solved in a pass of its shape's group.

Only ``cli._batch`` calls ``sample_draws``: every solver consumer takes the
batch of its caller, so consumers handed one batch share its draws.
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


def imports(source: str, lazy: bool = True) -> list[tuple[int, str]]:
    """(line, module) of each absolute import in ``source``.

    With ``lazy=False`` only those that run when ``source`` is imported:
    imports inside a function body run only when it is called and are skipped.
    """
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if not lazy and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


PACKAGE = sorted((ROOT / "src/leeway").rglob("*.py"))


def scipy_imports(path, lazy=True) -> list[str]:
    return [f"line {line}: {module}" for line, module in
            imports(path.read_text(encoding="utf-8"), lazy) if module.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_scipy_import(path):
    found = scipy_imports(path)
    assert not found, f"{path.relative_to(ROOT)}: scipy import, {'; '.join(found)}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_scipy_import(path):
    eager = scipy_imports(path, lazy=False)
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
    assert imports(source, lazy=False) == expected


@pytest.mark.parametrize("source,expected", [
    ("def f():\n    from scipy import stats\n", [(2, "scipy")]),
    ("class A:\n    def m(self):\n        import scipy.stats\n", [(3, "scipy.stats")]),
    ("def f():\n    from . import metrics\n    import numpy\n", [(3, "numpy")]),
])
def test_scan_finds_lazy_imports(source, expected):
    assert imports(source) == expected


def _private(name: str) -> bool:
    return name.startswith("_") and name.strip("_") != "" and not name.endswith("__")


def unread_private_names(sources: dict) -> list[str]:
    """Private names defined in ``sources`` (label to text) that none of them reads.

    Definitions are functions, methods, classes, module-level assignments
    and assignments to ``self._attr``; a read is any loaded name or
    attribute of that name, in any of the sources.
    """
    defined, read = {}, set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined.setdefault(name.id, f"{label}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{label}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    defined.setdefault(node.attr, f"{label}:{node.lineno}")
    return [f"{where}: {name}" for name, where in sorted(defined.items())
            if _private(name) and name not in read]


def test_every_private_name_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    unread = unread_private_names(sources)
    assert not unread, f"private names nothing in src/leeway reads: {'; '.join(unread)}"


@pytest.mark.parametrize("sources,expected", [
    ({"a": "def _f():\n    pass\n"}, ["a:1: _f"]),
    ({"a": "def _f():\n    pass\n", "b": "import a\na._f()\n"}, []),
    ({"a": "_X = 1\nclass _C:\n    pass\n"}, ["a:2: _C", "a:1: _X"]),
    ({"a": "class C:\n    def __init__(self):\n        self._x = 1\n"}, ["a:3: _x"]),
    ({"a": "class C:\n    def m(self):\n        self._x = 1\n        return self._x\n"}, []),
    ({"a": "def f(_y):\n    _z = _y\n    for _ in _z:\n        pass\n"}, []),
    ({"a": "__all__ = []\nclass C:\n    def __len__(self):\n        return 0\n"}, []),
])
def test_scan_finds_unread_private_names(sources, expected):
    assert unread_private_names(sources) == expected


_CSV_READERS = {"reader", "DictReader"}


def csv_reader_uses(source: str) -> list[tuple[int, str]]:
    """(line, top-level definition or "<module>") of each use of csv.reader or csv.DictReader.

    A use is ``csv.reader`` through any name ``csv`` is imported as, or a
    name bound by ``from csv import reader`` or ``DictReader``.
    """
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "csv"}
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name in _CSV_READERS}
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in _CSV_READERS
                    and isinstance(node.value, ast.Name) and node.value.id in modules) \
                    or (isinstance(node, ast.Name) and node.id in names):
                found.append((node.lineno, owner))
    return sorted(found)


def test_one_function_reads_csv_records():
    uses = {f"{path.name}:{owner}" for path in PACKAGE
            for _, owner in csv_reader_uses(path.read_text(encoding="utf-8"))}
    assert uses == {"codebook.py:read_table"}


@pytest.mark.parametrize("source,expected", [
    ("import csv\ncsv.reader([])\n", [(2, "<module>")]),
    ("import csv\ncsv.writer(out)\n", []),
    ("import csv as c\ndef f():\n    return c.DictReader([])\n", [(3, "f")]),
    ("from csv import reader\nclass A:\n    def m(self):\n        return reader([])\n",
     [(4, "A")]),
    ("from csv import DictReader as R\nrows = R\n", [(2, "<module>")]),
    ("reader = None\nreader([])\n", []),
])
def test_scan_finds_csv_reader_uses(source, expected):
    assert csv_reader_uses(source) == expected


def comment_rules(source: str) -> list[tuple[int, str]]:
    """(line, top-level definition or "<module>") of each comment rule in ``source``.

    A rule is the string ``"#"`` (or ``b"#"``) itself, or a call of
    ``loadtxt`` whose ``comments`` is not ``None``; numpy's default is "#".
    """
    found = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in ("#", b"#"):
                found.add((node.lineno, owner))
            elif isinstance(node, ast.Call) and "loadtxt" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                comments = [k.value for k in node.keywords if k.arg == "comments"]
                if not (comments and isinstance(comments[0], ast.Constant)
                        and comments[0].value is None):
                    found.add((node.lineno, owner))
    return sorted(found)


def test_one_function_decides_what_a_comment_is():
    uses = {f"{path.name}:{owner}" for path in PACKAGE
            for _, owner in comment_rules(path.read_text(encoding="utf-8"))}
    assert uses == {"codebook.py:read_table"}


@pytest.mark.parametrize("source,expected", [
    ('def f(line):\n    return line.startswith("#")\n', [(2, "f")]),
    ('if b"#" in data:\n    pass\n', [(1, "<module>")]),
    ('header = "# leeway v0"\nline.split(",")\n', []),
    ("import numpy as np\nnp.loadtxt(p, comments=None)\n", []),
    ("import numpy as np\nnp.loadtxt(p)\n", [(2, "<module>")]),
    ('import numpy\nclass A:\n    def m(self, p):\n        return numpy.loadtxt(p, comments="")\n',
     [(4, "A")]),
    ('from numpy import loadtxt\nloadtxt(p, comments="#")\nloadtxt(p, comments=None)\n',
     [(2, "<module>")]),
])
def test_scan_finds_comment_rules(source, expected):
    assert comment_rules(source) == expected


def _reads_drawer_na(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "NA" and "Drawer" in (
        getattr(n.value, "id", None), getattr(n.value, "attr", None)) for n in ast.walk(node))


def drawer_na_filters(source: str) -> list[tuple[int, str]]:
    """(line, enclosing definition or "<module>") of each row filter on ``Drawer.NA``.

    A filter is a comprehension ``if``, or an ``if`` statement in the body of
    a ``for`` or ``while`` loop of the same function, whose test reads
    ``Drawer.NA``. A definition inside a class is named ``Class.method``.
    """
    found = []

    def visit(node, owner, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
            in_loop = False
        elif isinstance(node, ast.comprehension):
            found.extend((test.lineno, owner) for test in node.ifs if _reads_drawer_na(test))
        elif isinstance(node, ast.If) and in_loop and _reads_drawer_na(node.test):
            found.append((node.lineno, owner))
        loop = isinstance(node, (ast.For, ast.AsyncFor, ast.While))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, in_loop or (loop and child in node.body))

    visit(ast.parse(source), "<module>", False)
    return sorted(found)


def test_one_method_skips_rows_without_a_game():
    uses = {f"{path.name}:{owner}" for path in PACKAGE
            for _, owner in drawer_na_filters(path.read_text(encoding="utf-8"))}
    assert uses == {"solver.py:BatchContext.games"}


@pytest.mark.parametrize("source,expected", [
    ("def path_table(codebook):\n"
     "    solvable = [row for row in codebook if row.drawer is not Drawer.NA]\n",
     [(2, "path_table")]),
    ("class B:\n    def games(self, rows):\n        for row in rows:\n"
     "            if row.drawer is not Drawer.NA:\n                yield row\n",
     [(4, "B.games")]),
    ("for row in rows:\n    if row.drawer is codebook.Drawer.NA:\n        continue\n",
     [(2, "<module>")]),
    ("def leeway(p):\n    if p.drawer is Drawer.NA:\n        raise NotApplicable(p.key)\n", []),
    ("for row in rows:\n    def f(p):\n        if p.drawer is Drawer.NA:\n            raise E\n",
     []),
    ("[row.drawer is Drawer.NA for row in rows]\n", []),
    ("for row in rows:\n    if row.veto1 is Veto1.NA:\n        continue\n", []),
])
def test_scan_finds_drawer_na_filters(source, expected):
    assert drawer_na_filters(source) == expected


_WRITERS = {"write_text", "write_bytes"}


def _write_mode(node: ast.AST) -> bool:
    """Whether ``node`` is a string constant made of mode letters that include a write."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value != ""
            and set(node.value) <= set("rwxabt+") and bool(set(node.value) & set("wax+")))


def write_opens(source: str) -> list[tuple[int, str]]:
    """(line, enclosing definition or "<module>") of each call that opens a file to write.

    Such a call is ``open``, ``fdopen`` or an ``open`` method given a write
    mode ("w", "a", "x" or "+") as a positional argument or ``mode=``, or a
    ``write_text`` or ``write_bytes`` method. A definition inside a class is
    named ``Class.method``.
    """
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            modes = [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]
            if name in _WRITERS or (name in ("open", "fdopen") and any(map(_write_mode, modes))):
                found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_one_function_opens_output_files():
    uses = {f"{path.name}:{owner}" for path in PACKAGE
            for _, owner in write_opens(path.read_text(encoding="utf-8"))}
    assert uses == {"cli.py:_write", "cli.py:_Forked._child"}


@pytest.mark.parametrize("source,expected", [
    ('def _write_text(path, text):\n'
     '    with open(path, "w", encoding="utf-8", newline="") as fh:\n        fh.write(text)\n',
     [(2, "_write_text")]),
    ('def save(path):\n    with _Forked(path, f) as tail, open(path, "wb") as fh:\n'
     '        fh.write(b"")\n', [(2, "save")]),
    ('open(p)\nopen(p, "rb")\nopen(p, encoding="utf-8", newline="")\nopen("w.csv")\n', []),
    ('from pathlib import Path\nPath(p).open("a")\n', [(2, "<module>")]),
    ('class A:\n    def m(self, p):\n        p.write_text("x")\n', [(3, "A.m")]),
    ('import os\ndef f(p, fd):\n    open(p, mode="r+b")\n    return os.fdopen(fd, "wb")\n',
     [(3, "f"), (4, "f")]),
    ('with open(p, "xb") as fh:\n    pass\n', [(1, "<module>")]),
])
def test_scan_finds_write_opens(source, expected):
    assert write_opens(source) == expected


def calls_of(source: str, name: str) -> list[tuple[int, str]]:
    """(line, top-level definition or "<module>") of each call of ``name``.

    A call is ``name(...)`` or ``module.name(...)`` through any attribute.
    """
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((node.lineno, owner))
    return sorted(found)


def _callers(name: str) -> set[str]:
    return {f"{path.name}:{owner}" for path in PACKAGE
            for _, owner in calls_of(path.read_text(encoding="utf-8"), name)}


def test_one_function_raises_invariant_violation():
    assert _callers("InvariantViolation") == {"codebook.py:check"}


def test_validate_called_only_by_the_row_check_lint_and_templates():
    assert _callers("validate") == {"codebook.py:check", "codebook.py:lint_codebook",
                                    "counterfactual.py:apply_template"}


def test_only_the_batch_builds_tree_evaluators():
    assert _callers("_TreeEvaluator") == {"solver.py:BatchContext"}


def test_only_the_cli_samples_draws():
    assert _callers("sample_draws") == {"cli.py:_batch"}


@pytest.mark.parametrize("source,name,expected", [
    ("def path_table(book):\n    for row in book:\n        validate(row)\n", "validate",
     [(3, "path_table")]),
    ("class TreeKey:\n    def of(cls, p):\n"
     "        raise codebook.InvariantViolation(p.key, r, m, w)\n", "InvariantViolation",
     [(3, "TreeKey")]),
    ("checks = [validate]\nvalidated(row)\n", "validate", []),
    ("class InvariantViolation(CodebookError):\n    pass\n", "InvariantViolation", []),
    ("rows = [validate(r) for r in book]\n", "validate", [(1, "<module>")]),
    ("def solve(process, batch):\n    return _TreeEvaluator([TreeKey.of(process)], batch)\n",
     "_TreeEvaluator", [(2, "solve")]),
    ("class SolvedTree:\n    def alone(self):\n        return solver._TreeEvaluator(k, t, g, c)\n",
     "_TreeEvaluator", [(3, "SolvedTree")]),
    ("def _batch(args, prior):\n"
     "    return BatchContext(solver.sample_draws(prior, args.seed, args.draws))\n",
     "sample_draws", [(2, "_batch")]),
])
def test_scan_finds_calls(source, name, expected):
    assert calls_of(source, name) == expected
