"""Seeded generators for every input the benchmark feeds the CLI.

Each generator writes its files into a work directory and, where a check
needs it, returns the ground truth (the plans as generated, the draws
written to a file). Nothing here calls into ``leeway``: the fixture codebook is read
as text, and the design-row layout is written out by hand, so the checks in
``checks.py`` compare the program against a computation made apart from it.
"""

from __future__ import annotations

import csv
import os

import numpy as np

FIXTURE = os.path.join("src", "leeway", "data", "fixture_codebook.csv")

CONTROL_COLUMNS = ("drawer_control", "veto1_control", "veto2_control",
                   "court_control", "stalemate1_control", "stalemate2_control")
MIRROR_SUFFIX = "_M"

COVARIATES = ("dem08", "south", "log_seats", "delta_seats", "log_corrupt", "initiative")
# Design-row layout of the dose-response model: intercept, dose change,
# baseline dose, the six covariates, then the dose change times the baseline
# dose and times each covariate.
COLUMN_NAMES = ("intercept", "dose_change", "baseline_dose", *COVARIATES,
                "dose_change:baseline_dose", *[f"dose_change:{c}" for c in COVARIATES])

# Generating coefficients of the did workload: intercept, dose change,
# dem08 and log_seats carry an effect, everything else is zero.
DID_BETA = np.zeros(len(COLUMN_NAMES))
DID_BETA[[0, 1, 3, 5]] = (0.5, 0.3, -0.8, 0.2)
DID_NOISE_SD = 0.01
DID_STATES = 87

# Posterior centres of the reform workload's seat and responsiveness draw
# files; the draws scatter around them independently, so they pass the
# convergence gate of ``counterfactual``.
SEAT_CENTRE = np.zeros(len(COLUMN_NAMES))
SEAT_CENTRE[[1, 9, 12]] = (0.20, 0.02, -0.03)
RESP_CENTRE = np.zeros(len(COLUMN_NAMES))
RESP_CENTRE[[1, 9, 10]] = (-0.15, 0.01, 0.02)
DRAW_SD = 0.05

PLAN_STATES = 43
PLAN_DISTRICTS = 435
METRIC_NAMES = ("expected_seats", "responsiveness", "competitive_share",
                "efficiency_gap", "partisan_bias", "dilution_asymmetry")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, input file)."""
    return np.random.default_rng([seed, *stream.encode()])


def design_row(dose_change: float, baseline_dose: float, covariates) -> np.ndarray:
    cov = np.asarray(covariates, dtype=float)
    return np.concatenate([[1.0, dose_change, baseline_dose], cov,
                           [dose_change * baseline_dose], dose_change * cov])


def read_fixture(root: str) -> list[dict]:
    with open(os.path.join(root, FIXTURE), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _write_rows(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def mirrored_codebook(root: str, path: str) -> list[dict]:
    """Fixture rows plus the party mirror of every row without preclearance.

    Mirrored rows swap Democrats and Republicans at every control cell and
    carry the state id with ``MIRROR_SUFFIX``. Returns the rows written.
    """
    rows = read_fixture(root)
    swap = {"Democrats": "Republicans", "Republicans": "Democrats"}
    mirrors = []
    for row in rows:
        if row["preclearance"] == "no":
            mirror = dict(row, state=row["state"] + MIRROR_SUFFIX)
            for column in CONTROL_COLUMNS:
                mirror[column] = swap.get(row[column], row[column])
            mirrors.append(mirror)
    out = rows + mirrors
    _write_rows(path, list(out[0]), [list(r.values()) for r in out])
    return out


def fixture_codebook(root: str, path: str) -> list[dict]:
    rows = read_fixture(root)
    _write_rows(path, list(rows[0]), [list(r.values()) for r in rows])
    return rows


def plans(seed: int, plans_path: str, ensemble_path: str) -> dict:
    """A national-size plan file (435 districts in 43 states) and ensembles.

    Returns {state: (shares, turnouts)} and {(state, metric): (mean, sd)}.
    """
    rng = rng_for(seed, "plans")
    counts = 2 + rng.multinomial(PLAN_DISTRICTS - 2 * PLAN_STATES,
                                 rng.dirichlet(np.ones(PLAN_STATES)))
    truth, rows = {}, []
    for s, n in enumerate(counts):
        state = f"P{s:02d}"
        shares = np.clip(rng.beta(6.0, 6.0, n) + rng.normal(0.0, 0.05), 0.05, 0.95)
        turnout = rng.uniform(2.0e5, 4.0e5, n).round()
        truth[state] = ([float(x) for x in shares], [float(t) for t in turnout])
        rows += [(state, 2020, d + 1, repr(float(p)), repr(float(t)))
                 for d, (p, t) in enumerate(zip(shares, turnout))]
    _write_rows(plans_path, ("state", "cycle", "district", "rep_share", "turnout"), rows)

    ensemble, rows = {}, []
    for state in truth:
        for metric in METRIC_NAMES:
            mean, sd = float(rng.normal(0.0, 0.5)), float(rng.uniform(0.01, 0.5))
            ensemble[(state, metric)] = (mean, sd)
            rows.append((state, 2020, metric, repr(mean), repr(sd)))
    _write_rows(ensemble_path, ("state", "cycle", "metric", "mean", "sd"), rows)
    return {"plans": truth, "ensemble": ensemble}


def did_input(seed: int, path: str):
    """87 states whose outcome change is linear in the design with DID_BETA."""
    rng = rng_for(seed, "did")
    rows = []
    for i in range(DID_STATES):
        d0, d1 = rng.uniform(0.0, 4.0, 2)
        cov = [rng.uniform(0.3, 0.7), float(rng.integers(2)), rng.uniform(0.5, 3.5),
               float(rng.integers(-2, 3)), rng.uniform(-1.0, 3.0), float(rng.integers(2))]
        dy0 = rng.normal(0.0, 0.1)
        response = float(design_row(d1 - d0, d0, cov) @ DID_BETA + rng.normal(0.0, DID_NOISE_SD))
        rows.append((f"S{i:02d}", repr(float(dy0)), repr(float(dy0) + response),
                     repr(float(d0)), repr(float(d1)),
                     *(repr(float(c)) for c in cov)))
    _write_rows(path, ("state", "dY0", "dY1", "d0", "d1", *COVARIATES), rows)


def draws_file(seed: int, stream: str, centre: np.ndarray, path: str,
               chains: int = 4, per_chain: int = 10000) -> np.ndarray:
    """A did-sized draw file: independent draws around ``centre``.

    Returns the (chains * per_chain, 16) coefficient matrix as written.
    """
    rng = rng_for(seed, stream)
    coefficients = centre + DRAW_SD * rng.standard_normal((chains * per_chain, len(centre)))
    sigma = 0.1 * np.exp(0.05 * rng.standard_normal(chains * per_chain))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# benchmark input\n")
        fh.write(",".join(("chain", "draw", *COLUMN_NAMES, "sigma")) + "\n")
        for k in range(chains * per_chain):
            cells = ",".join(repr(float(v)) for v in coefficients[k])
            fh.write(f"{k // per_chain},{k % per_chain},{cells},{float(sigma[k])!r}\n")
    return coefficients


def covariates(seed: int, states: list[str], path: str) -> dict:
    rng = rng_for(seed, "covariates")
    table, rows = {}, []
    for state in states:
        values = (float(rng.uniform(0.35, 0.65)), float(rng.integers(2)),
                  float(rng.uniform(1.0, 3.5)), float(rng.integers(-1, 2)),
                  float(rng.uniform(0.0, 2.0)), float(rng.integers(2)))
        n_districts = int(rng.integers(2, 30))
        table[state] = (values, n_districts)
        rows.append((state, *(repr(v) for v in values), n_districts))
    _write_rows(path, ("state", *COVARIATES, "n_districts"), rows)
    return table


def baseline(seed: int, path: str):
    rng = rng_for(seed, "baseline")
    dem_seats, slope = float(rng.uniform(200.0, 230.0)), float(rng.uniform(6.0, 9.0))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"dem_seats": {dem_seats!r}, "slope_seats_per_pp": {slope!r}}}\n')
