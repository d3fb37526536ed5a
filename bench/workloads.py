"""The benchmark's workloads: seeded inputs, CLI operations and their checks.

One operation is one ``leeway.cli.main`` call. Each workload builds its
inputs in a work directory from the run's seed and returns its operations
in pass order; every operation carries the check of the files it writes.
Every solver subcommand gets ``--threads 1``: results do not depend on it,
and the default starts one GIL-bound thread per core.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import checks
import inputs


@dataclass(frozen=True)
class Size:
    """Draw counts and draw-file sizes of one workload variant."""

    score_draws: int
    reform_draws: int
    reform_chains: int
    reform_per_chain: int


# Below the CLI's 100 draws, for time (README.md, "Draw counts"): at 40 the
# solver still carries most of a reform pass, and the scores mix does not
# depend on the count, where 20 keeps each call short enough to scale well.
FULL = Size(score_draws=20, reform_draws=40, reform_chains=4, reform_per_chain=10000)
SMOKE = Size(score_draws=2, reform_draws=1, reform_chains=2, reform_per_chain=600)


@dataclass
class Operation:
    name: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[], list[str]]


def scores(root: str, work: str, seed: int, size: Size) -> list[Operation]:
    """``leeway --emit-diagnostics`` then ``paths --per-state`` on one codebook.

    The codebook is the fixture plus the party mirror of every row without
    preclearance, so mirror symmetry can be checked on every run.
    """
    path = os.path.join(work, "codebook.csv")
    book = inputs.mirrored_codebook(root, path)
    common = ["--codebook", path, "--draws", str(size.score_draws), "--seed", str(seed),
              "--threads", "1"]
    out = {name: os.path.join(work, name) for name in
           ("scores.csv", "diagnostics.json", "paths.csv", "paths_per_state.csv")}
    return [
        Operation("leeway", ["leeway", *common, "--output", out["scores.csv"],
                             "--emit-diagnostics", out["diagnostics.json"]],
                  [out["scores.csv"], out["diagnostics.json"]],
                  lambda: checks.check_leeway(out["scores.csv"], out["diagnostics.json"],
                                              book, size.score_draws)),
        Operation("paths", ["paths", *common, "--output", out["paths.csv"],
                            "--per-state", out["paths_per_state.csv"]],
                  [out["paths.csv"], out["paths_per_state.csv"]],
                  lambda: checks.check_paths(out["paths.csv"], out["paths_per_state.csv"],
                                             book)),
    ]


def outcomes(root: str, work: str, seed: int, size: Size) -> list[Operation]:
    """``metrics`` on a national-size plan file, then ``did`` at its defaults."""
    plans_path = os.path.join(work, "plans.csv")
    ensemble_path = os.path.join(work, "ensemble.csv")
    did_path = os.path.join(work, "did.csv")
    truth = inputs.plans(seed, plans_path, ensemble_path)
    inputs.did_input(seed, did_path)
    metrics_out = os.path.join(work, "metrics.csv")
    draws_out = os.path.join(work, "did_draws.csv")
    diag_out = os.path.join(work, "did_diagnostics.json")
    return [
        Operation("metrics", ["metrics", "--plans", plans_path, "--ensemble", ensemble_path,
                              "--output", metrics_out],
                  [metrics_out],
                  lambda: checks.check_metrics(metrics_out, truth["plans"], truth["ensemble"])),
        Operation("did", ["did", "--input", did_path, "--seed", str(seed),
                          "--outcome-label", "seats", "--output-draws", draws_out,
                          "--output-diagnostics", diag_out],
                  [draws_out, diag_out],
                  lambda: checks.check_did(draws_out, diag_out)),
    ]


def reform(root: str, work: str, seed: int, size: Size) -> list[Operation]:
    """``counterfactual`` once per template on the fixture's 2020 rows."""
    book_path = os.path.join(work, "codebook.csv")
    book = inputs.fixture_codebook(root, book_path)
    seat_path = os.path.join(work, "seat_draws.csv")
    resp_path = os.path.join(work, "resp_draws.csv")
    seat_draws = inputs.draws_file(seed, "seat", inputs.SEAT_CENTRE, seat_path,
                                   size.reform_chains, size.reform_per_chain)
    inputs.draws_file(seed, "resp", inputs.RESP_CENTRE, resp_path,
                      size.reform_chains, size.reform_per_chain)
    states = [r["state"] for r in book if r["cycle"] == "2020"]
    cov_path = os.path.join(work, "covariates.csv")
    covariates = inputs.covariates(seed, states, cov_path)
    base_path = os.path.join(work, "baseline.json")
    inputs.baseline(seed, base_path)
    reference: dict = {}

    def operation(template: str) -> Operation:
        output = os.path.join(work, f"reform_{template}.json")
        doses = os.path.join(work, f"doses_{template}.csv")
        argv = ["counterfactual", "--template", template, "--codebook", book_path,
                "--seat-model", seat_path, "--resp-model", resp_path,
                "--covariates", cov_path, "--baseline", base_path,
                "--draws", str(size.reform_draws), "--seed", str(seed), "--threads", "1",
                "--output", output, "--doses-csv", doses]
        return Operation(f"counterfactual-{template}", argv, [output, doses],
                         lambda: checks.check_counterfactual(template, output, doses, book,
                                                             seat_draws, covariates,
                                                             reference))

    return [operation(t) for t in ("mi", "ny", "oh", "identity")]


WORKLOADS = {"scores": scores, "outcomes": outcomes, "reform": reform}
