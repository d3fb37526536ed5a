"""Nationwide reform counterfactuals.

A reform template rewrites a state's process fields to mimic one of three
adopted commission designs (or leaves it unchanged). Re-solving the game
gives each state a reformed dose; pushing the dose change through fitted
outcome models yields per-state seat and responsiveness effects, which
aggregate into a national seats-votes line around the 50% vote share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .codebook import (Codebook, CourtReview, Drawer, PartyControl, StateProcess,
                       Stalemate1, Stalemate2, Veto1, Veto2, validate)
from .errors import DomainError
from .inference import COVARIATE_NAMES, EffectSummary, PosteriorDraws, cate_draws
from .solver import BatchContext


class TemplateError(DomainError):
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


def _michigan(process: StateProcess) -> dict:
    """Nonpartisan commission, no vetoes, nonpartisan court review."""
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


def _new_york(process: StateProcess) -> dict:
    """Nonpartisan commission drawer behind legislature and governor vetoes at current control."""
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


def _ohio(process: StateProcess) -> dict:
    """Legislature under a bipartisan supermajority requirement, governor veto,
    bipartisan backup commission, then the current legislative majority."""
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


@dataclass(frozen=True)
class ReformTemplate:
    """A named rewrite of a StateProcess: ``overrides_for(process)`` gives the new fields.

    The built-ins are in :data:`TEMPLATES`: ``identity`` (no change), ``mi``,
    ``ny`` and ``oh``. Preclearance is never touched: reforms change
    procedure, not VRA exposure.
    """

    name: str
    overrides_for: Callable[[StateProcess], dict]


TEMPLATES = {template.name: template for template in (
    ReformTemplate("identity", lambda p: {}),
    ReformTemplate("mi", _michigan),
    ReformTemplate("ny", _new_york),
    ReformTemplate("oh", _ohio),
)}


def apply_template(process: StateProcess, template: ReformTemplate) -> StateProcess:
    """Apply a template's overrides; unspecified fields are retained.

    The result must pass validation; a failure raises TemplateError naming
    the broken rule. Applying a template twice equals applying it once.
    """
    if process.drawer is Drawer.NA:
        raise DomainError(f"{process.key}: cannot reform a single-district state")
    reformed = replace(process, **template.overrides_for(process))
    violations = validate(reformed)
    if violations:
        first = violations[0]
        raise TemplateError(process.key, first.rule, first.message)
    return reformed


REFORM_CYCLE = 2020  # the cycle whose processes a reform rewrites: the current maps


@dataclass(frozen=True)
class DosePair:
    state_id: str
    d_current: float
    d_reformed: float


def counterfactual_doses(codebook: Codebook, template: ReformTemplate,
                         batch: BatchContext) -> list[DosePair]:
    """Realized leeway before and after reform for every state in :data:`REFORM_CYCLE`.

    Each dose is the ``realized`` leeway score of :func:`~leeway.solver.leeway`
    over the batch's draws. The batch solves the current and reformed trees
    of every row together, each distinct tree once, so a reformed row whose
    tree matches a current one (every row under ``identity``) reuses that
    solve; templates compared over one batch share their current trees and
    any reformed tree they have in common. Its ``games`` walks the rows and
    skips single-district rows, which carry no dose.
    """
    return [DosePair(row.state_id, float(current.values.mean()), float(reformed.values.mean()))
            for row, current, reformed in batch.games(
                codebook.for_cycle(REFORM_CYCLE), lambda row: apply_template(row, template))]


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

    def __post_init__(self):
        for field in fields(self)[:-1]:
            value = getattr(self, field.name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise DomainError(f"{field.name}={value!r} is not a finite number")
        n = self.n_districts
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise DomainError(f"n_districts={n!r} must be an int of at least 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in COVARIATE_NAMES])


@dataclass(frozen=True)
class Baseline:
    """Current national seats-votes line around the 50% vote share."""

    dem_seats: float           # expected Democratic seats at 50% national vote
    slope_seats_per_pp: float  # Democratic seats gained per +1pp vote share


@dataclass(frozen=True, eq=False)  # array fields: identity, not value, equality
class NationalPrediction:
    """Posterior summary of a nationwide reform's electoral consequences."""

    total_dem_seat_change: EffectSummary
    responsiveness_slope: EffectSummary       # post-reform, seats per +1pp
    seats_votes_line: tuple                   # (intercept seats, slope seats/pp)
    state_seat_effects: dict                  # state -> EffectSummary (Republican seats)
    seat_change_draws: np.ndarray
    slope_draws: np.ndarray


def _finite(draws: np.ndarray, quantity: str) -> np.ndarray:
    """``draws``, or DomainError if a draw, their mean or their spread is not finite."""
    if np.isfinite(draws.mean()) and np.isfinite(draws.max() - draws.min()):
        return draws
    raise DomainError(f"{quantity} overflows: a draw, the mean or the spread is not finite")


def predict_national(dose_pairs: list[DosePair], seat_model: PosteriorDraws,
                     resp_model: PosteriorDraws, covariates: dict,
                     baseline: Baseline) -> NationalPrediction:
    """Aggregate per-state dose-change effects into a national prediction.

    Per posterior draw: the seat model's effect (on Republican seats) is
    negated and summed into the Democratic seat change; the responsiveness
    model's per-state effect (seat share per unit vote share) is weighted
    by district count and divided by 100 to give seats per percentage
    point. The new seats-votes line adds both to the baseline. National
    change is exactly the sum of per-state effects in every draw.

    Memory: beyond the two draw sets and the (states x draws) seat draws
    returned in ``state_seat_effects``, the aggregation holds a few arrays
    of one value per draw. The responsiveness effects are added into one
    running sum in state order, starting from the first state's, which is
    the order in which numpy sums axis 0 of a (states x draws) matrix.

    A per-state effect or national sum that overflows (a baseline or
    covariate near the float limit) raises DomainError naming it and the state.
    """
    if seat_model.n_total != resp_model.n_total:
        raise DomainError("seat and responsiveness models must have matching draws")
    missing = [p.state_id for p in dose_pairs if p.state_id not in covariates]
    if missing:
        raise DomainError(f"missing covariates for: {', '.join(missing)}")
    if not dose_pairs:
        raise DomainError("no dose pairs supplied")

    seat_effects = np.empty((len(dose_pairs), seat_model.n_total))
    slope_effect = None
    with np.errstate(over="ignore", invalid="ignore"):  # _finite names what overflows
        for i, pair in enumerate(dose_pairs):
            cov = covariates[pair.state_id]
            seat_effects[i] = cate_draws(seat_model, cov.vector, pair.d_current, pair.d_reformed)
            _finite(seat_effects[i], f"seat effect of {pair.state_id}")
            resp = cate_draws(resp_model, cov.vector, pair.d_current, pair.d_reformed)
            resp *= cov.n_districts
            resp /= 100.0
            _finite(resp, f"responsiveness effect of {pair.state_id}")
            if slope_effect is None:
                slope_effect = resp
            else:
                slope_effect += resp

        dem_change = _finite(-seat_effects.sum(axis=0), "national seat change")
        slope = _finite(baseline.slope_seats_per_pp + slope_effect, "responsiveness slope")
        intercept = _finite(baseline.dem_seats + dem_change, "seats-votes intercept")

    total = EffectSummary.from_draws(dem_change)
    slope_summary = EffectSummary.from_draws(slope)
    return NationalPrediction(
        total_dem_seat_change=total,
        responsiveness_slope=slope_summary,
        seats_votes_line=(float(intercept.mean()), slope_summary.mean),
        state_seat_effects={p.state_id: EffectSummary.from_draws(seat_effects[i])
                            for i, p in enumerate(dose_pairs)},
        seat_change_draws=dem_change,
        slope_draws=slope,
    )
