"""Seeded mutations of CSV inputs fed to the commands that read them.

Each case takes a small valid input, applies one or two mutations drawn
by a seeded stdlib ``random.Random``, and runs the commands that read it
in process: a codebook goes to ``leeway --emit-diagnostics`` and ``paths
--per-state``, a plan file to ``metrics``, and a draw file that passes the
convergence gate to ``counterfactual --seat-model``. The mutations are
those of the input fuzzer on the ROADMAP: replace a cell (empty, ``nan``,
``inf``, +-1e308, 1e-320, ``-0``, text, a 30-digit integer, a stray quote,
an embedded comma), duplicate, drop or truncate a row, add a cell, switch
to CRLF line endings, or add a byte-order mark.

The gates: every case exits 0 or 1 and never raises; exit 1 prints one
``error:`` line that names the mutated file; on exit 0, ``json`` and
``csv`` read every output, and no number in them is NaN or infinite.
"""

import csv
import json
import math
import random

import numpy as np
import pytest

from leeway.cli import main
from leeway.codebook import Codebook, load_fixture_codebook, serialize_codebook
from leeway.inference import COLUMN_NAMES

CASES = 84
_KEYS = {("AL", 2020), ("MI", 2020), ("IA", 2020), ("WV", 2010), ("OH", 2020)}
BASE = serialize_codebook(Codebook(tuple(
    row for row in load_fixture_codebook() if row.key in _KEYS))).splitlines(keepends=True)

PLANS = ["state,cycle,district,rep_share,turnout\n",
         *(f"{state},2020,{d},{share},{turnout}\n" for state, d, share, turnout in (
             ("NH", 1, 0.48, 310.5), ("NH", 2, 0.55, 298.0), ("TX", 1, 0.61, 250.25),
             ("TX", 2, 0.39, 275.0), ("TX", 3, 0.7, 190.0)))]

# 4 chains of 200 independent draws: an ESS near 800 passes the gate of 400.
_RNG = np.random.default_rng(7)
DRAWS = [",".join(["chain", "draw", *COLUMN_NAMES, "sigma"]) + "\n",
         *(",".join(map(repr, [c, t, *_RNG.normal(0.0, 0.1, len(COLUMN_NAMES)).tolist(),
                               _RNG.gamma(20.0, 0.01)])) + "\n"
           for c in range(4) for t in range(200))]

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


def mutated(case: int, base=BASE) -> str:
    """Case ``case``'s mutation of ``base``: the mutation kinds take turns as the first one."""
    rng = random.Random(case)
    lines = list(base)
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
_TEXT_COLUMNS = {"state", "modal", "actual", "final_drawer", "metric"}


def _finite_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header = rows[0]
    for row in rows[1:]:
        assert len(row) == len(header), (path, row)
        for name, cell in zip(header, row):
            if name not in _TEXT_COLUMNS:
                assert math.isfinite(float(cell)), (path, name, cell)


def run_gated(capsys, argv, bad, csvs=(), jsons=()) -> int:
    """``main(argv)`` under the gates on its exit code, its stderr and its outputs."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), (argv[0], err)
    if code == 1:
        assert err.startswith(f"error: {bad}") and err.count("\n") == 1, err
        return code
    assert err == ""
    for path in csvs:
        _finite_csv(path)
    for path in jsons:
        _finite_json(path)
    return code


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
        codes[command] = run_gated(
            capsys, [command, *common, *extra, "--output", str(tmp_path / csvs[0])], book,
            [tmp_path / name for name in csvs], [tmp_path / name for name in jsons])
    assert codes["leeway"] == codes["paths"], codes
    if codes["leeway"] == 0:  # one diagnostics record per (scored row, draw)
        with open(tmp_path / "scores.csv", encoding="utf-8", newline="") as fh:
            scored = sum(1 for line in csv.reader(fh) if not line[0].startswith("#")) - 1
        assert len(json.loads((tmp_path / "diag.json").read_text())["draws"]) == 2 * scored


@pytest.mark.parametrize("case", range(CASES))
def test_mutated_plan_file(case, tmp_path, capsys):
    plans, out = tmp_path / "plans.csv", tmp_path / "metrics.csv"
    plans.write_bytes(mutated(case, PLANS).encode("utf-8"))
    run_gated(capsys, ["metrics", "--plans", str(plans), "--output", str(out)], plans, [out])


@pytest.fixture(scope="module")
def reform_inputs(tmp_path_factory):
    """The codebook, covariates, baseline and unmutated draw file of a counterfactual run."""
    root = tmp_path_factory.mktemp("reform")
    paths = [root / name for name in ("book.csv", "cov.csv", "base.json", "resp.csv")]
    paths[0].write_text("".join(BASE))
    paths[1].write_text(
        "state,dem08,south,log_seats,delta_seats,log_corrupt,initiative,n_districts\n"
        "AL,0.39,1,1.95,0,1.2,0,7\nIA,0.54,0,1.39,0,0.5,0,4\n"
        "MI,0.57,0,2.56,-1,1.5,1,13\nOH,0.52,0,2.71,-1,1.8,1,15\n")
    paths[2].write_text('{"dem_seats": 213.5, "slope_seats_per_pp": 7.8}\n')
    paths[3].write_text("".join(DRAWS))
    return [str(path) for path in paths]


@pytest.mark.parametrize("case", range(CASES))
def test_mutated_draw_file(case, reform_inputs, tmp_path, capsys):
    book, cov, base, resp = reform_inputs
    seat = tmp_path / "seat.csv"
    seat.write_bytes(mutated(case, DRAWS).encode("utf-8"))
    outputs = [tmp_path / name for name in ("cf.json", "doses.csv", "lines.csv")]
    run_gated(capsys, ["counterfactual", "--template", "mi", "--codebook", book,
                       "--seat-model", str(seat), "--resp-model", resp, "--covariates", cov,
                       "--baseline", base, "--draws", "2", "--seed", str(case),
                       "--output", str(outputs[0]), "--doses-csv", str(outputs[1]),
                       "--line-samples", str(outputs[2])], seat, outputs[1:], outputs[:1])
