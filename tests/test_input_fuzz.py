"""Seeded mutations of CSV and JSON inputs fed to the commands that read them.

Each case takes a small valid input, applies one or two mutations drawn
by a seeded stdlib ``random.Random``, and runs the commands that read it
in process: a codebook goes to ``leeway --emit-diagnostics`` and ``paths
--per-state``, a plan file and an ensemble file to ``metrics``, a ``did``
input to ``did``, a draw file that passes the convergence gate, a
covariates file and a baseline file to ``counterfactual``, and a priors
file to ``leeway``. The CSV mutations are those of the input fuzzer on the
ROADMAP: replace a cell (empty, ``nan``, ``inf``, +-1e308, 1e-320, ``-0``,
text, a 30-digit integer, a stray quote, an embedded comma, ``1_0``, a
non-ASCII digit), duplicate, drop or truncate a row, add a cell, switch to
CRLF line endings, or add a byte-order mark. The JSON mutations give a
value another type, put in a huge integer, drop a key or add a
byte-order mark.

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
from leeway.inference import COLUMN_NAMES, COVARIATE_NAMES

CASES = 84  # per kind for the codebook, plan and draw files
# The other kinds take fewer cases, so that the file stays near 10 s of tier-1.
ENSEMBLE_CASES = 28
DID_CASES = 21
COVARIATES_CASES = 14
BASELINE_CASES = 14
PRIORS_CASES = 28
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
          "123456789012345678901234567890", 'x"y', "a,b", '"a,b"', "1_0", "\u0661")

ENSEMBLE = ["state,cycle,metric,mean,sd\n",
            *(f"{state},2020,{metric},{mean},{sd}\n" for state, metric, mean, sd in (
                ("NH", "expected_seats", 1.1, 0.3), ("NH", "efficiency_gap", 0.01, 0.02),
                ("TX", "competitive_share", 0.2, 0.1), ("TX", "partisan_bias", 0.0, 0.0)))]

# 30 states whose outcomes, doses and covariates are all random numbers.
DID = [",".join(["state", "dY0", "dY1", "d0", "d1", *COVARIATE_NAMES]) + "\n",
       *(f"S{i}," + ",".join(map(repr, _RNG.normal(0.0, 1.0, 10).round(3).tolist())) + "\n"
         for i in range(30))]

COVARIATES = ["state," + ",".join(COVARIATE_NAMES) + ",n_districts\n",
              "AL,0.39,1,1.95,0,1.2,0,7\n", "IA,0.54,0,1.39,0,0.5,0,4\n",
              "MI,0.57,0,2.56,-1,1.5,1,13\n", "OH,0.52,0,2.71,-1,1.8,1,15\n"]
BASELINE = {"dem_seats": 213.5, "slope_seats_per_pp": 7.8}
PRIORS = {"stale_slope": {"dist": "beta", "params": [3.0, 17.0]},
          "vra_out_breakeven": {"dist": "normal", "params": [-1.5, 0.5]},
          "out_nonp_bias2": {"dist": "folded_normal", "params": [0.0, 0.5]}}


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


# JSON values of another type, or at the edge of the float range.
_JSON_VALUES = ("text", True, None, [], {}, [1.0, 2.0], 0, -1, 1e308, -1e308, 5e-324, -0.0,
                math.nan, math.inf)


def _slots(node):
    """The (container, key) of every value inside ``node``, depth first."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _pick(rng, node, test=lambda value: True):
    """A random (container, key) inside ``node`` whose value passes ``test``, or None."""
    found = [(parent, key) for parent, key in _slots(node) if test(parent[key])]
    return rng.choice(found) if found else None


def swap_type(rng, node):
    picked = _pick(rng, node)
    if picked:
        picked[0][picked[1]] = rng.choice(_JSON_VALUES)


def huge_integer(rng, node):
    """Put +-10**400 in place of a number, beyond every float."""
    picked = _pick(rng, node, lambda value: isinstance(value, (int, float)))
    if picked:
        picked[0][picked[1]] = rng.choice((1, -1)) * 10**400


def drop_key(rng, node):
    picked = _pick(rng, {"": node}, lambda value: isinstance(value, dict) and value)  # root too
    if picked:
        table = picked[0][picked[1]]
        del table[rng.choice(sorted(table))]


def json_bom(rng, node):
    """Marker: the mutated text starts with a byte-order mark."""


JSON_MUTATIONS = (swap_type, huge_integer, drop_key, json_bom)


def mutated_json(case: int, base: dict) -> str:
    """Case ``case``'s mutation of the JSON object ``base``, as ``mutated`` takes turns."""
    rng = random.Random(case)
    node = json.loads(json.dumps(base))
    kinds = [JSON_MUTATIONS[case % len(JSON_MUTATIONS)],
             *rng.choices(JSON_MUTATIONS, k=rng.randrange(2))]
    for kind in kinds:
        kind(rng, node)
    return ("\ufeff" if json_bom in kinds else "") + json.dumps(node) + "\n"


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


@pytest.mark.parametrize("case", range(ENSEMBLE_CASES))
def test_mutated_ensemble_file(case, tmp_path, capsys):
    plans, ensemble, out = (tmp_path / name for name in ("plans.csv", "ens.csv", "m.csv"))
    plans.write_text("".join(PLANS))
    ensemble.write_bytes(mutated(case, ENSEMBLE).encode("utf-8"))
    run_gated(capsys, ["metrics", "--plans", str(plans), "--ensemble", str(ensemble),
                       "--output", str(out)], ensemble, [out])


@pytest.mark.parametrize("case", range(DID_CASES))
def test_mutated_did_input(case, tmp_path, capsys):
    did, draws, diag = (tmp_path / name for name in ("did.csv", "draws.csv", "diag.json"))
    did.write_bytes(mutated(case, DID).encode("utf-8"))
    run_gated(capsys, ["did", "--input", str(did), "--draws", "200", "--seed", str(case),
                       "--output-draws", str(draws), "--output-diagnostics", str(diag)],
              did, [draws], [diag])


@pytest.fixture(scope="module")
def reform_inputs(tmp_path_factory):
    """The codebook, covariates, baseline and unmutated draw file of a counterfactual run."""
    root = tmp_path_factory.mktemp("reform")
    paths = [root / name for name in ("book.csv", "cov.csv", "base.json", "resp.csv")]
    paths[0].write_text("".join(BASE))
    paths[1].write_text("".join(COVARIATES))
    paths[2].write_text(json.dumps(BASELINE) + "\n")
    paths[3].write_text("".join(DRAWS))
    return [str(path) for path in paths]


def run_counterfactual(capsys, tmp_path, case, bad, book, seat, resp, cov, base):
    """``counterfactual`` with every output under the gates; ``bad`` is the mutated file."""
    outputs = [tmp_path / name for name in ("cf.json", "doses.csv", "lines.csv")]
    run_gated(capsys, ["counterfactual", "--template", "mi", "--codebook", book,
                       "--seat-model", seat, "--resp-model", resp, "--covariates", cov,
                       "--baseline", base, "--draws", "2", "--seed", str(case),
                       "--output", str(outputs[0]), "--doses-csv", str(outputs[1]),
                       "--line-samples", str(outputs[2])], bad, outputs[1:], outputs[:1])


@pytest.mark.parametrize("case", range(CASES))
def test_mutated_draw_file(case, reform_inputs, tmp_path, capsys):
    book, cov, base, resp = reform_inputs
    seat = tmp_path / "seat.csv"
    seat.write_bytes(mutated(case, DRAWS).encode("utf-8"))
    run_counterfactual(capsys, tmp_path, case, seat, book, str(seat), resp, cov, base)


@pytest.mark.parametrize("case", range(COVARIATES_CASES))
def test_mutated_covariates_file(case, reform_inputs, tmp_path, capsys):
    book, _, base, draws = reform_inputs
    cov = tmp_path / "cov.csv"
    cov.write_bytes(mutated(case, COVARIATES).encode("utf-8"))
    run_counterfactual(capsys, tmp_path, case, cov, book, draws, draws, str(cov), base)


@pytest.mark.parametrize("case", range(BASELINE_CASES))
def test_mutated_baseline_file(case, reform_inputs, tmp_path, capsys):
    book, cov, _, draws = reform_inputs
    base = tmp_path / "base.json"
    base.write_bytes(mutated_json(case, BASELINE).encode("utf-8"))
    run_counterfactual(capsys, tmp_path, case, base, book, draws, draws, cov, str(base))


@pytest.mark.parametrize("case", range(PRIORS_CASES))
def test_mutated_priors_file(case, reform_inputs, tmp_path, capsys):
    priors, scores, diag = (tmp_path / name for name in ("priors.json", "l.csv", "diag.json"))
    priors.write_bytes(mutated_json(case, PRIORS).encode("utf-8"))
    run_gated(capsys, ["leeway", "--codebook", reform_inputs[0], "--priors", str(priors),
                       "--draws", "2", "--seed", str(case), "--output", str(scores),
                       "--emit-diagnostics", str(diag)], priors, [scores], [diag])
