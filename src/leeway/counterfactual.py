"""Nationwide reform counterfactuals.

A reform template rewrites a state's process fields to mimic one of three
adopted commission designs (or leaves it unchanged). Re-solving the game
gives each state a reformed dose; pushing the dose change through fitted
outcome models yields per-state seat and responsiveness effects, which
aggregate into a national seats-votes line around the 50% vote share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .codebook import (Codebook, CourtReview, Drawer, PartyControl, StateProcess,
                       Stalemate1, Stalemate2, Veto1, Veto2)
from .errors import DomainError
from .inference import EffectSummary, PosteriorDraws, cate_draws
from .nature import PriorSpec
from .solver import ControlAssignment, OptimizationGrid, sample_draws, solve_batch


class TemplateError(ValueError):
    """Applying a template produced a process that fails validation."""

    def __init__(self, key, rule, message):
        super().__init__(f"{key}: template breaks rule [{rule}]: {message}")
        self.rule = rule


def _fallback_split(control: PartyControl) -> PartyControl:
    return control if control is not PartyControl.NA else PartyControl.SPLIT


def _legislature_control(process: StateProcess) -> PartyControl:
    """Current legislature control, read off whichever node the body holds.

    A legislative stalemate-breaker or veto records the chamber majority
    directly, so those are read before the drawer coding (which encodes a
    supermajority requirement as Split). States whose coded process never
    involves the legislature fall back to Split: no single party is
    presumed to hold a chamber majority there.
    """
    if process.stalemate2 is Stalemate2.LEGISLATURE:
        return _fallback_split(process.stalemate2_control)
    if process.veto1 is Veto1.LEGISLATURE:
        return _fallback_split(process.veto1_control)
    if process.drawer is Drawer.LEGISLATURE:
        return _fallback_split(process.drawer_control)
    return PartyControl.SPLIT


def _governor_control(process: StateProcess) -> PartyControl:
    if process.veto1 is Veto1.GOVERNOR:
        return _fallback_split(process.veto1_control)
    if process.veto2 is Veto2.GOVERNOR:
        return _fallback_split(process.veto2_control)
    return PartyControl.SPLIT


@dataclass(frozen=True)
class ReformTemplate:
    """Named set of field overrides applied to a StateProcess.

    Built-ins: ``identity`` (no change); ``mi`` (nonpartisan commission, no
    vetoes, nonpartisan court review); ``ny`` (nonpartisan commission
    drawer behind legislature and governor vetoes at current party
    control); ``oh`` (legislature drawing under a bipartisan supermajority
    requirement, governor veto, bipartisan backup commission, then the
    current legislative majority). Preclearance is never touched: reforms
    change procedure, not VRA exposure.
    """

    name: str
    static_overrides: tuple = ()

    @classmethod
    def identity(cls) -> "ReformTemplate":
        return cls("identity")

    @classmethod
    def michigan(cls) -> "ReformTemplate":
        return cls("mi")

    @classmethod
    def new_york(cls) -> "ReformTemplate":
        return cls("ny")

    @classmethod
    def ohio(cls) -> "ReformTemplate":
        return cls("oh")

    @classmethod
    def custom(cls, overrides: dict) -> "ReformTemplate":
        return cls("custom", tuple(sorted(overrides.items())))

    def overrides_for(self, process: StateProcess) -> dict:
        if self.name == "identity":
            return {}
        if self.name == "mi":
            return {
                "drawer": Drawer.COMMISSION,
                "drawer_control": PartyControl.NONPARTISANS,
                "veto1": Veto1.NA, "veto1_control": PartyControl.NA,
                "veto2": Veto2.NA, "veto2_control": PartyControl.NA,
                "stalemate1": Stalemate1.COMMISSION,
                "stalemate1_control": PartyControl.NONPARTISANS,
                "stalemate2": Stalemate2.NA, "stalemate2_control": PartyControl.NA,
                "court_review": CourtReview.YES,
                "court_control": PartyControl.NONPARTISANS,
            }
        if self.name == "ny":
            return {
                "drawer": Drawer.COMMISSION,
                "drawer_control": PartyControl.NONPARTISANS,
                "veto1": Veto1.LEGISLATURE,
                "veto1_control": _legislature_control(process),
                "veto2": Veto2.GOVERNOR,
                "veto2_control": _governor_control(process),
                "stalemate1": Stalemate1.UNCLEAR,
                "stalemate1_control": PartyControl.NA,
                "stalemate2": Stalemate2.NA, "stalemate2_control": PartyControl.NA,
            }
        if self.name == "oh":
            return {
                "drawer": Drawer.LEGISLATURE,
                "drawer_control": PartyControl.SPLIT,
                "veto1": Veto1.GOVERNOR,
                "veto1_control": _governor_control(process),
                "veto2": Veto2.NA, "veto2_control": PartyControl.NA,
                "stalemate1": Stalemate1.COMMISSION,
                "stalemate1_control": PartyControl.SPLIT,
                "stalemate2": Stalemate2.LEGISLATURE,
                "stalemate2_control": _legislature_control(process),
            }
        if self.name == "custom":
            return dict(self.static_overrides)
        raise DomainError(f"unknown template {self.name!r}")


TEMPLATES = {
    "identity": ReformTemplate.identity,
    "mi": ReformTemplate.michigan,
    "ny": ReformTemplate.new_york,
    "oh": ReformTemplate.ohio,
}


def apply_template(process: StateProcess, template: ReformTemplate) -> StateProcess:
    """Apply a template's overrides; unspecified fields are retained.

    The result must pass validation; a failure raises TemplateError naming
    the broken rule. Applying a template twice equals applying it once.
    """
    from .codebook import validate

    if process.drawer is Drawer.NA:
        raise DomainError(f"{process.key}: cannot reform a single-district state")
    reformed = replace(process, **template.overrides_for(process))
    violations = validate(reformed)
    if violations:
        first = violations[0]
        raise TemplateError(process.key, first.rule, first.message)
    return reformed


@dataclass(frozen=True)
class DosePair:
    state_id: str
    d_current: float
    d_reformed: float


def counterfactual_doses(codebook: Codebook, template: ReformTemplate,
                         prior: PriorSpec, n_draws: int = 100, seed: int = 0,
                         grid: OptimizationGrid | None = None,
                         cycle: int = 2020) -> list[DosePair]:
    """Realized leeway before and after reform for every state in a cycle.

    Each dose is the ``realized`` leeway score of :func:`~leeway.solver.leeway`.
    Both doses are computed from the same prior draws, so a row the
    template leaves unchanged (every row under ``identity``) reuses its
    current dose. Single-district rows carry no dose and are skipped.
    """
    grid = grid or OptimizationGrid()
    thetas = sample_draws(prior, seed, n_draws)

    def dose(process: StateProcess) -> float:
        solved = solve_batch(process, ControlAssignment.realized(process), thetas, grid)
        return float(solved.values.mean())

    pairs = []
    for row in codebook.for_cycle(cycle):
        if row.drawer is Drawer.NA:
            continue
        current = dose(row)
        reformed_row = apply_template(row, template)
        reformed = current if reformed_row == row else dose(reformed_row)
        pairs.append(DosePair(row.state_id, current, reformed))
    return pairs


@dataclass(frozen=True)
class StateCovariates:
    """The six model covariates plus the district count used for weighting."""

    dem08: float
    south: float
    log_seats: float
    delta_seats: float
    log_corrupt: float
    initiative: float
    n_districts: int

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.dem08, self.south, self.log_seats,
                         self.delta_seats, self.log_corrupt, self.initiative])


@dataclass(frozen=True)
class Baseline:
    """Current national seats-votes line around the 50% vote share."""

    dem_seats: float           # expected Democratic seats at 50% national vote
    slope_seats_per_pp: float  # Democratic seats gained per +1pp vote share


@dataclass(frozen=True)
class NationalPrediction:
    """Posterior summary of a nationwide reform's electoral consequences."""

    template: str
    total_dem_seat_change: EffectSummary
    responsiveness_slope: EffectSummary       # post-reform, seats per +1pp
    seats_votes_line: tuple                   # (intercept seats, slope seats/pp)
    state_seat_effects: dict                  # state -> EffectSummary (Republican seats)
    seat_change_draws: np.ndarray
    slope_draws: np.ndarray


def predict_national(dose_pairs: list[DosePair], seat_model: PosteriorDraws,
                     resp_model: PosteriorDraws, covariates: dict,
                     baseline: Baseline, template: str = "") -> NationalPrediction:
    """Aggregate per-state dose-change effects into a national prediction.

    Per posterior draw: the seat model's effect (on Republican seats) is
    negated and summed into the Democratic seat change; the responsiveness
    model's per-state effect (seat share per unit vote share) is weighted
    by district count and divided by 100 to give seats per percentage
    point. The new seats-votes line adds both to the baseline. National
    change is exactly the sum of per-state effects in every draw.
    ``template`` names the reform the doses came from and is carried into
    the result.
    """
    if seat_model.n_total != resp_model.n_total:
        raise DomainError("seat and responsiveness models must have matching draws")
    missing = [p.state_id for p in dose_pairs if p.state_id not in covariates]
    if missing:
        raise DomainError(f"missing covariates for: {', '.join(missing)}")
    if not dose_pairs:
        raise DomainError("no dose pairs supplied")

    n_total = seat_model.n_total
    seat_effects = np.empty((len(dose_pairs), n_total))
    slope_effects = np.empty((len(dose_pairs), n_total))
    for i, pair in enumerate(dose_pairs):
        cov = covariates[pair.state_id]
        seat_effects[i] = cate_draws(seat_model, cov.vector,
                                     pair.d_current, pair.d_reformed)
        resp = cate_draws(resp_model, cov.vector, pair.d_current, pair.d_reformed)
        slope_effects[i] = cov.n_districts * resp / 100.0

    dem_change = -seat_effects.sum(axis=0)
    slope = baseline.slope_seats_per_pp + slope_effects.sum(axis=0)
    intercept = baseline.dem_seats + dem_change

    total = EffectSummary.from_draws(dem_change)
    slope_summary = EffectSummary.from_draws(slope)
    return NationalPrediction(
        template=template,
        total_dem_seat_change=total,
        responsiveness_slope=slope_summary,
        seats_votes_line=(float(intercept.mean()), slope_summary.mean),
        state_seat_effects={p.state_id: EffectSummary.from_draws(seat_effects[i])
                            for i, p in enumerate(dose_pairs)},
        seat_change_draws=dem_change,
        slope_draws=slope,
    )
