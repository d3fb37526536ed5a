"""Districting-plan outcome measures under a normal swing election model.

A plan is a vector of baseline district-level Republican two-party vote
shares. Future elections perturb every district by a shared national swing
and an independent district swing, both mean-zero normal on the vote-share
scale. Seat expectations, responsiveness, and competitiveness follow in
closed form; wasted-vote measures (efficiency gap, dilution asymmetry) are
evaluated at the baseline shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import DomainError

_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def ndtr(z):
    """Standard normal CDF, elementwise."""
    from scipy import special  # deferred: most of the package's import time otherwise
    return special.ndtr(z)


# Total swing scale chosen so a 60/40 district counts as exactly 0.14
# competitive seats; it also puts a state of two 50/50 districts at
# responsiveness 7.91.
CALIBRATED_SIGMA_TOTAL = 0.1 / math.sqrt(-2.0 * math.log(0.14))


@dataclass(frozen=True)
class PlanProfile:
    """District baseline Republican shares with optional turnout weights."""

    district_shares: tuple
    turnout_weights: tuple | None = None

    def __post_init__(self):
        shares = tuple(float(s) for s in self.district_shares)
        if len(shares) == 0:
            raise DomainError("a plan needs at least one district")
        if any(not 0.0 < s < 1.0 for s in shares):
            raise DomainError("district shares must lie strictly inside (0, 1)")
        object.__setattr__(self, "district_shares", shares)
        if self.turnout_weights is not None:
            weights = tuple(float(w) for w in self.turnout_weights)
            if len(weights) != len(shares):
                raise DomainError("one turnout weight per district required")
            if any(w <= 0.0 for w in weights):
                raise DomainError("turnout weights must be positive")
            object.__setattr__(self, "turnout_weights", weights)

    @property
    def shares(self) -> np.ndarray:
        return np.asarray(self.district_shares)

    @property
    def weights(self) -> np.ndarray:
        if self.turnout_weights is None:
            return np.ones(len(self.district_shares))
        return np.asarray(self.turnout_weights)

    def mirrored(self) -> "PlanProfile":
        return PlanProfile(tuple(1.0 - s for s in self.district_shares),
                           self.turnout_weights)


@dataclass(frozen=True)
class SwingModel:
    """Standard deviations of the national and district vote swings."""

    sigma_national: float
    sigma_district: float

    def __post_init__(self):
        if self.sigma_national <= 0.0 or self.sigma_district <= 0.0:
            raise DomainError("swing standard deviations must be positive")

    @property
    def sigma_total(self) -> float:
        return math.hypot(self.sigma_national, self.sigma_district)

    @classmethod
    def calibrated(cls) -> "SwingModel":
        """Default model with the calibrated total scale, split evenly."""
        component = CALIBRATED_SIGMA_TOTAL / math.sqrt(2.0)
        return cls(sigma_national=component, sigma_district=component)


@dataclass(frozen=True)
class EnsembleSummary:
    """Mean and spread of one metric over a nonpartisan simulated plan set."""

    mean_outcome: float
    sd_outcome: float

    def __post_init__(self):
        if self.sd_outcome < 0.0:
            raise DomainError("ensemble sd must be nonnegative")


def expected_seats(plan: PlanProfile, model: SwingModel, national_shift: float = 0.0,
                   method: str = "analytic", quadrature_points: int = 64) -> float:
    """Expected Republican seats under the swing model.

    ``analytic`` folds both swings into one normal with the total scale:
    sum_i Phi((p_i + delta - 1/2) / sigma_total). ``quadrature`` instead
    integrates the conditional expectation (district swings only) over the
    national swing with Gauss-Hermite nodes; the two agree to quadrature
    precision and the second serves as an independent check.
    """
    shares = plan.shares
    if method == "analytic":
        z = (shares + national_shift - 0.5) / model.sigma_total
        return float(ndtr(z).sum())
    if method == "quadrature":
        if quadrature_points < 2:
            raise DomainError("quadrature needs at least 2 points")
        nodes, weights = hermegauss(quadrature_points)
        weights = weights / math.sqrt(2.0 * math.pi)
        swings = national_shift + model.sigma_national * nodes
        z = (shares[None, :] + swings[:, None] - 0.5) / model.sigma_district
        return float((weights @ ndtr(z).sum(axis=1)))
    raise DomainError(f"unknown method {method!r}")


def seat_share_at_vote(plan: PlanProfile, model: SwingModel, v: float) -> float:
    """Expected Republican seat share when the statewide vote share is v.

    Conditioning on the statewide vote pins the national swing at
    v - baseline, leaving only independent district swings.
    """
    if not 0.0 < v < 1.0:
        raise DomainError("vote share must lie in (0, 1)")
    baseline = float(np.average(plan.shares, weights=plan.weights))
    z = (plan.shares + (v - baseline) - 0.5) / model.sigma_district
    return float(ndtr(z).mean())


def responsiveness(plan: PlanProfile, model: SwingModel) -> float:
    """Seat-share change per unit change in national vote share.

    Analytic derivative of the expected seat share at zero shift:
    (1/n) sum_i phi((p_i - 1/2) / sigma_total) / sigma_total.
    """
    z = (plan.shares - 0.5) / model.sigma_total
    return float(np.mean(np.exp(-0.5 * z * z) * _PHI0) / model.sigma_total)


def competitive_share(plan: PlanProfile, model: SwingModel) -> float:
    """Fraction of seats that are competitive.

    Each district counts in proportion to the derivative of its win
    probability at its baseline vote relative to a 50/50 district, i.e.
    phi((p_i - 1/2)/sigma_total) / phi(0); no arbitrary cutoff. This is
    responsiveness rescaled by the plan-independent constant
    sigma_total / phi(0).
    """
    z = (plan.shares - 0.5) / model.sigma_total
    return float(np.mean(np.exp(-0.5 * z * z)))


def _wasted_votes(plan: PlanProfile) -> tuple[float, float, float, float]:
    """(wasted_dem, wasted_rep, total_dem, total_rep) at baseline shares.

    In a won district the winner wastes votes beyond half and the loser
    wastes all; an exact 50/50 district counts as half-won by each side.
    """
    shares = plan.shares
    weights = plan.weights
    rep = shares * weights
    dem = (1.0 - shares) * weights
    waste_r = np.where(shares > 0.5, rep - 0.5 * weights, rep)
    waste_d = np.where(shares < 0.5, dem - 0.5 * weights, dem)
    tie = shares == 0.5
    waste_r = np.where(tie, 0.25 * weights, waste_r)
    waste_d = np.where(tie, 0.25 * weights, waste_d)
    return float(waste_d.sum()), float(waste_r.sum()), float(dem.sum()), float(rep.sum())


def efficiency_gap(plan: PlanProfile) -> float:
    """Difference in wasted votes over total votes; positive favors Republicans."""
    waste_d, waste_r, total_d, total_r = _wasted_votes(plan)
    return (waste_d - waste_r) / (total_d + total_r)


def dilution_asymmetry(plan: PlanProfile) -> float:
    """Difference in the share of each party's own votes that are wasted.

    (wasted_dem / dem votes) - (wasted_rep / rep votes); positive favors
    Republicans. Invariant to rescaling all turnout weights.
    """
    waste_d, waste_r, total_d, total_r = _wasted_votes(plan)
    if total_d == 0.0 or total_r == 0.0:
        raise DomainError("dilution asymmetry undefined when a party has no votes")
    return waste_d / total_d - waste_r / total_r


def partisan_bias(plan: PlanProfile, model: SwingModel, v: float = 0.5) -> float:
    """Seats-votes symmetry deviation at vote share v.

    (S(v) - (1 - S(1 - v))) / 2, where S is the expected seat share at a
    given statewide vote. Zero for any plan whose shares are symmetric
    about one half; positive favors Republicans.
    """
    s_v = seat_share_at_vote(plan, model, v)
    s_mirror = seat_share_at_vote(plan, model, 1.0 - v)
    return 0.5 * (s_v - (1.0 - s_mirror))


@dataclass(frozen=True)
class SimulationAdjusted:
    difference: float
    z_score: float | None
    abs_difference: float
    abs_z: float | None


def simulation_adjust(observed: float, baseline: EnsembleSummary) -> SimulationAdjusted:
    """Difference and z-score of an observed metric against its ensemble.

    With a degenerate ensemble (sd = 0) the differences are still returned
    and the z-scores are None.
    """
    difference = observed - baseline.mean_outcome
    if baseline.sd_outcome == 0.0:
        return SimulationAdjusted(difference, None, abs(difference), None)
    z = difference / baseline.sd_outcome
    return SimulationAdjusted(difference, z, abs(difference), abs(z))
