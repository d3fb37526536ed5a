"""Each benchmark check passes on real output and fails on a perturbed copy.

Runs every workload once at smoke size, then nudges one value at a time in
the files an operation wrote and requires that operation's check to fail.

    python -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from leeway import cli  # noqa: E402


def _run(name, tmp_path_factory):
    work = str(tmp_path_factory.mktemp(name))
    ops = workloads.WORKLOADS[name](ROOT, work, 3, workloads.SMOKE)
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op.argv) == 0, op.name
        assert op.check() == [], op.name
    return {op.name: op for op in ops}


@pytest.fixture(scope="module")
def scores(tmp_path_factory):
    return _run("scores", tmp_path_factory)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return _run("outcomes", tmp_path_factory)


@pytest.fixture(scope="module")
def reform(tmp_path_factory):
    return _run("reform", tmp_path_factory)


@contextlib.contextmanager
def perturbed(path, edit):
    """Apply ``edit`` to the file's text for the duration of the block."""
    with open(path, encoding="utf-8", newline="") as fh:
        original = fh.read()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(edit(original))
    try:
        yield
    finally:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(original)


def csv_cell(select, column, change):
    """Edit that applies ``change`` to ``column`` of the first row ``select`` picks."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        head = [ln for ln in lines if ln.startswith("#")]
        rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
        row = next(r for r in rows if select(r))
        row[column] = repr(change(float(row[column])))
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return "".join(head) + out.getvalue()
    return edit


def shift_draws(column, amount):
    """Edit that adds ``amount`` to one coefficient in every draw."""
    index = 2 + workloads.inputs.COLUMN_NAMES.index(column)

    def edit(text):
        lines = text.splitlines(keepends=True)
        for k, line in enumerate(lines):
            cells = line.split(",")
            if not line.startswith("#") and cells[0] != "chain":
                cells[index] = repr(float(cells[index]) + amount)
                lines[k] = ",".join(cells)
        return "".join(lines)
    return edit


def json_value(change):
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


def state_is(state):
    return lambda r: r["state"] == state


def fails(op):
    return op.check() != []


def test_nudged_nonpartisan_leeway_fails(scores):
    op = scores["leeway"]
    with perturbed(op.outputs[0], csv_cell(lambda r: r["state"] == "MI" and r["cycle"] == "2020",
                                           "realized_leeway", lambda v: v + 1e-6)):
        assert fails(op)


def test_broken_mirror_fails(scores):
    op = scores["leeway"]
    with perturbed(op.outputs[0], csv_cell(state_is("IA_M"), "realized_leeway",
                                           lambda v: v + 1e-6)):
        assert fails(op)


def test_diagnostic_draw_off_the_mean_fails(scores):
    op = scores["leeway"]

    def nudge(payload):
        payload["draws"][0]["value"] += 1e-9
    with perturbed(op.outputs[1], json_value(nudge)):
        assert fails(op)


def test_dropped_path_bucket_fails(scores):
    op = scores["paths"]
    with perturbed(op.outputs[1], csv_cell(state_is("AL"), "p_court", lambda v: 0.0)):
        assert fails(op)


def test_cross_tab_total_fails(scores):
    op = scores["paths"]
    with perturbed(op.outputs[0], csv_cell(lambda r: r["final_drawer"] == "total", "total",
                                           lambda v: v - 1.0)):
        assert fails(op)


@pytest.mark.parametrize("metric", ["expected_seats", "efficiency_gap",
                                    "responsiveness_sim_diff"])
def test_nudged_plan_metric_fails(outcomes, metric):
    op = outcomes["metrics"]
    with perturbed(op.outputs[0], csv_cell(lambda r: r["metric"] == metric, "value",
                                           lambda v: v + 1e-6)):
        assert fails(op)


def test_shifted_posterior_fails(outcomes):
    op = outcomes["did"]
    with perturbed(op.outputs[0], shift_draws("dose_change", 1.0)):
        assert fails(op)


def test_acr_off_the_dose_slope_fails(outcomes):
    op = outcomes["did"]

    def scale(payload):
        payload["acr"]["mean"] *= 1.2
    with perturbed(op.outputs[1], json_value(scale)):
        assert fails(op)


def test_identity_reform_that_moves_a_dose_fails(reform):
    op = reform["counterfactual-identity"]
    with perturbed(op.outputs[1], csv_cell(state_is("WI"), "d_reformed", lambda v: v + 1e-9)):
        assert fails(op)


def test_mi_reform_leaving_a_dose_fails(reform):
    op = reform["counterfactual-mi"]
    with perturbed(op.outputs[1], csv_cell(state_is("IA"), "d_reformed", lambda v: 1e-9)):
        assert fails(op)


def test_current_dose_differing_between_templates_fails(reform):
    op = reform["counterfactual-ny"]
    with perturbed(op.outputs[1], csv_cell(state_is("OH"), "d_current", lambda v: v + 1e-9)):
        assert fails(op)


def test_national_seat_change_fails(reform):
    op = reform["counterfactual-oh"]

    def nudge(payload):
        payload["total_dem_seat_change"]["mean"] *= 1.0 + 1e-6
    with perturbed(op.outputs[0], json_value(nudge)):
        assert fails(op)
