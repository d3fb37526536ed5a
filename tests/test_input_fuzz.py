"""Seeded mutations of the codebook fed to ``leeway`` and ``paths``.

Each case takes a small valid codebook, applies one or two mutations
drawn by a seeded stdlib ``random.Random``, and runs ``leeway
--emit-diagnostics`` and ``paths --per-state`` on it in process. The
mutations are those of the input fuzzer on the ROADMAP: replace a cell
(empty, ``nan``, ``inf``, +-1e308, 1e-320, ``-0``, text, a 30-digit
integer, a stray quote, an embedded comma), duplicate, drop or truncate a
row, add a cell, switch to CRLF line endings, or add a byte-order mark.

The gates: every case exits 0 or 1 and never raises; exit 1 prints one
``error:`` line that names the codebook; on exit 0, ``json`` and ``csv``
read every output, and no number in them is NaN or infinite.
"""

import csv
import json
import math
import random

import pytest

from leeway.cli import main
from leeway.codebook import Codebook, load_fixture_codebook, serialize_codebook

CASES = 84
_KEYS = {("AL", 2020), ("MI", 2020), ("IA", 2020), ("WV", 2010), ("OH", 2020)}
BASE = serialize_codebook(Codebook(tuple(
    row for row in load_fixture_codebook() if row.key in _KEYS))).splitlines(keepends=True)

_CELLS = ("", "nan", "inf", "1e308", "-1e308", "1e-320", "-0", "text",
          "123456789012345678901234567890", 'x"y', "a,b", '"a,b"')


def _row(rng, lines) -> int:
    """A row below the header, or the header where none is left."""
    return rng.randrange(1, len(lines)) if len(lines) > 1 else 0


def replace_cell(rng, lines):
    """Replace a cell, the state cell of a row in half the cases: it is the one free text."""
    i = rng.randrange(len(lines))
    cells = lines[i].rstrip("\r\n").split(",")
    cells[0 if i and rng.random() < 0.5 else rng.randrange(len(cells))] = rng.choice(_CELLS)
    lines[i] = ",".join(cells) + "\n"


def duplicate_row(rng, lines):
    i = _row(rng, lines)
    lines.insert(rng.randrange(1, len(lines) + 1), lines[i])


def drop_row(rng, lines):
    if len(lines) > 1:
        del lines[_row(rng, lines)]


def truncate_row(rng, lines):
    i = _row(rng, lines)
    lines[i] = lines[i][:rng.randrange(len(lines[i]))] + "\n"


def add_cell(rng, lines):
    i = rng.randrange(len(lines))
    lines[i] = lines[i].rstrip("\r\n") + "," + rng.choice(_CELLS) + "\n"


def crlf(rng, lines):
    lines[:] = [line.rstrip("\r\n") + "\r\n" for line in lines]


def bom(rng, lines):
    lines[0] = "\ufeff" + lines[0]


MUTATIONS = (replace_cell, duplicate_row, drop_row, truncate_row, add_cell, crlf, bom)


def mutated(case: int) -> str:
    """Case ``case``'s codebook: the mutation kinds take turns as the first one."""
    rng = random.Random(case)
    lines = list(BASE)
    kinds = [MUTATIONS[case % len(MUTATIONS)], *rng.choices(MUTATIONS, k=rng.randrange(2))]
    for kind in kinds:
        kind(rng, lines)
    return "".join(lines)


def _no_constant(name):
    raise AssertionError(f"JSON holds {name}")


def _finite_json(path):
    def walk(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            return all(walk(item) for item in node)
        return not isinstance(node, float) or math.isfinite(node)

    with open(path, encoding="utf-8") as fh:
        assert walk(json.load(fh, parse_constant=_no_constant)), path


# Text columns; every other cell of a CSV output must be a finite number.
_TEXT_COLUMNS = {"state", "modal", "actual", "final_drawer"}


def _finite_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header = rows[0]
    for row in rows[1:]:
        assert len(row) == len(header), (path, row)
        for name, cell in zip(header, row):
            if name not in _TEXT_COLUMNS:
                assert math.isfinite(float(cell)), (path, name, cell)


@pytest.mark.parametrize("case", range(CASES))
def test_mutated_codebook(case, tmp_path, capsys):
    book = tmp_path / "book.csv"
    book.write_bytes(mutated(case).encode("utf-8"))
    common = ["--codebook", str(book), "--draws", "2", "--seed", str(case)]
    runs = {
        "leeway": (["--emit-diagnostics", str(tmp_path / "diag.json")],
                   ["scores.csv"], ["diag.json"]),
        "paths": (["--per-state", str(tmp_path / "per_state.csv")],
                  ["paths.csv", "per_state.csv"], []),
    }
    codes = {}
    for command, (extra, csvs, jsons) in runs.items():
        out = tmp_path / csvs[0]
        codes[command] = main([command, *common, *extra, "--output", str(out)])
        err = capsys.readouterr().err
        assert codes[command] in (0, 1), (command, err)
        if codes[command] == 1:
            assert err.startswith(f"error: {book}") and err.count("\n") == 1, err
            continue
        assert err == ""
        for name in csvs:
            _finite_csv(tmp_path / name)
        for name in jsons:
            _finite_json(tmp_path / name)
    assert codes["leeway"] == codes["paths"], codes
    if codes["leeway"] == 0:  # one diagnostics record per (scored row, draw)
        with open(tmp_path / "scores.csv", encoding="utf-8", newline="") as fh:
            scored = sum(1 for line in csv.reader(fh) if not line[0].startswith("#")) - 1
        assert len(json.loads((tmp_path / "diag.json").read_text())["draws"]) == 2 * scored
