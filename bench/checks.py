"""Correctness checks on the files each benchmark operation writes.

Every check compares an output against a computation made here, apart from
the program, or against a property the method must have; none compares
against a stored copy of earlier output. Each returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from inputs import (COLUMN_NAMES, DID_BETA, METRIC_NAMES, MIRROR_SUFFIX,
                    design_row)

# Calibrated total swing sd: a 60/40 district counts as 0.14 competitive
# seats, so exp(-0.5 * (0.1 / sigma)^2) = 0.14.
SIGMA_TOTAL = 0.1 / math.sqrt(-2.0 * math.log(0.14))


def _rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# -- scores ------------------------------------------------------------------

def check_leeway(scores_path: str, diagnostics_path: str, codebook: list[dict],
                 n_draws: int) -> list[str]:
    problems = []
    scores = {(r["state"], r["cycle"]): r for r in _rows(scores_path)}
    expected = {(r["state"], r["cycle"]) for r in codebook}
    if set(scores) != expected:
        return [f"scores cover {len(scores)} rows, codebook has {len(expected)}"]
    realized = {key: float(r["realized_leeway"]) for key, r in scores.items()}

    if realized[("MI", "2020")] != 0.0:
        problems.append(f"MI-2020 realized leeway {realized[('MI', '2020')]!r} is not 0")
    for (state, cycle), value in realized.items():
        if state.endswith(MIRROR_SUFFIX):
            original = realized[(state[:-len(MIRROR_SUFFIX)], cycle)]
            if not _close(value, -original, 1e-9):
                problems.append(f"{state}-{cycle}: mirror {value!r} is not -{original!r}")

    per_row: dict[tuple[str, str], list[float]] = {}
    for record in _json(diagnostics_path)["draws"]:
        per_row.setdefault((record["state"], str(record["cycle"])), []).append(record["value"])
    for key, value in realized.items():
        values = per_row.get(key, [])
        if len(values) != n_draws:
            problems.append(f"{key}: {len(values)} diagnostic draws, expected {n_draws}")
        elif not _close(value, math.fsum(values) / n_draws, 1e-12):
            problems.append(f"{key}: realized {value!r} is not the mean of its draws")
    return problems


def check_paths(table_path: str, per_state_path: str, codebook: list[dict]) -> list[str]:
    problems = []
    per_state = _rows(per_state_path)
    if len(per_state) != len(codebook):
        problems.append(f"{len(per_state)} per-state rows, codebook has {len(codebook)}")
    for r in per_state:
        total = sum(float(r[c]) for c in ("p_legislature", "p_commission", "p_court"))
        if not _close(total, 1.0, 1e-9):
            problems.append(f"{r['state']}-{r['cycle']}: path probabilities sum to {total!r}")
    totals = [r for r in _rows(table_path) if r["final_drawer"] == "total"]
    if len(totals) != 1 or not _close(float(totals[0]["total"]), len(codebook), 1e-9):
        problems.append(f"cross-tab total is not {len(codebook)}")
    return problems


# -- outcomes ----------------------------------------------------------------

def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def efficiency_gap(shares, turnouts) -> float:
    """Wasted Democratic minus wasted Republican votes over all votes."""
    waste_d = waste_r = 0.0
    for p, t in zip(shares, turnouts):
        rep, dem = p * t, (1.0 - p) * t
        if p > 0.5:
            waste_r += rep - 0.5 * t
            waste_d += dem
        elif p < 0.5:
            waste_d += dem - 0.5 * t
            waste_r += rep
        else:
            waste_d += 0.25 * t
            waste_r += 0.25 * t
    return (waste_d - waste_r) / sum(turnouts)


def check_metrics(metrics_path: str, plans: dict, ensemble: dict) -> list[str]:
    problems = []
    values = {(r["state"], r["metric"]): float(r["value"]) for r in _rows(metrics_path)}
    for state, (shares, turnouts) in plans.items():
        seats = math.fsum(_phi((p - 0.5) / SIGMA_TOTAL) for p in shares)
        for name, expected in (("expected_seats", seats),
                               ("efficiency_gap", efficiency_gap(shares, turnouts))):
            got = values.get((state, name))
            if got is None or not _close(got, expected, 1e-9):
                problems.append(f"{state}: {name} {got!r}, recomputed {expected!r}")
        for metric in METRIC_NAMES:
            value = values.get((state, metric))
            diff = values.get((state, f"{metric}_sim_diff"))
            if value is None or diff is None:
                problems.append(f"{state}: {metric} or its _sim_diff is missing")
            elif not _close(diff, value - ensemble[(state, metric)][0], 1e-12):
                problems.append(f"{state}: {metric}_sim_diff {diff!r} is not value - mean")
    return problems


def check_did(draws_path: str, diagnostics_path: str) -> list[str]:
    problems = []
    with open(draws_path, encoding="utf-8") as fh:
        skip = 1
        line = fh.readline()
        while line.startswith("#"):
            skip, line = skip + 1, fh.readline()
    if line.strip().split(",") != ["chain", "draw", *COLUMN_NAMES, "sigma"]:
        return ["draws file header does not match the design layout"]
    draws = np.loadtxt(draws_path, delimiter=",", skiprows=skip,
                       usecols=range(2, 2 + len(COLUMN_NAMES)))
    means, sds = draws.mean(axis=0), draws.std(axis=0)
    for name, mean, sd, beta in zip(COLUMN_NAMES, means, sds, DID_BETA):
        if not abs(mean - beta) <= 4.0 * sd:
            problems.append(f"posterior mean of {name} {mean:.5g} is more than "
                            f"4 sd ({sd:.3g}) from {beta}")
    diagnostics = _json(diagnostics_path)
    if len(diagnostics["ess"]) != len(COLUMN_NAMES) + 1:
        problems.append(f"{len(diagnostics['ess'])} ESS values, expected {len(COLUMN_NAMES) + 1}")
    slope = DID_BETA[1]
    acr = diagnostics["acr"]["mean"]
    if not abs(acr - slope) <= 0.1 * abs(slope):
        problems.append(f"ACR mean {acr!r} is more than 10% from {slope}")
    return problems


# -- reform ------------------------------------------------------------------

def dem_seat_change_mean(doses: list[dict], seat_draws: np.ndarray,
                         covariates: dict) -> float:
    """Mean national Democratic seat change, recomputed per posterior draw."""
    total = np.zeros(seat_draws.shape[0])
    for r in doses:
        d, d_new = float(r["d_current"]), float(r["d_reformed"])
        cov = covariates[r["state"]][0]
        delta = design_row(d_new - d, d, cov) - design_row(0.0, d, cov)
        total -= seat_draws @ delta
    return float(total.mean())


def check_counterfactual(template: str, output_path: str, doses_path: str,
                         codebook: list[dict], seat_draws: np.ndarray,
                         covariates: dict, reference: dict) -> list[str]:
    """``reference`` holds the first d_current seen; every template must match it."""
    problems = []
    doses = _rows(doses_path)
    preclearance = {r["state"]: r["preclearance"] == "yes"
                    for r in codebook if r["cycle"] == "2020"}
    if sorted(r["state"] for r in doses) != sorted(preclearance):
        return [f"doses cover {len(doses)} states, expected {len(preclearance)}"]
    current = {r["state"]: float(r["d_current"]) for r in doses}
    reference.setdefault("d_current", current)
    if current != reference["d_current"]:
        problems.append(f"{template}: d_current differs from the other templates")
    for r in doses:
        reformed = float(r["d_reformed"])
        if template == "identity" and reformed != current[r["state"]]:
            problems.append(f"identity: {r['state']} d_reformed {reformed!r} "
                            f"!= d_current {current[r['state']]!r}")
        if template == "mi" and not preclearance[r["state"]] and reformed != 0.0:
            problems.append(f"mi: {r['state']} d_reformed {reformed!r} is not 0")
    got = _json(output_path)["total_dem_seat_change"]["mean"]
    expected = dem_seat_change_mean(doses, seat_draws, covariates)
    if not (got == expected or abs(got - expected) <= 1e-9 * abs(expected)):
        problems.append(f"{template}: total_dem_seat_change.mean {got!r}, "
                        f"recomputed {expected!r}")
    return problems
