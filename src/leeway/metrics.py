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

from .errors import DomainError

_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


# The Cephes ndtr routine that scipy.special ships, cut to the path ndtr
# takes: erf's series inside |a| < sqrt 2, erfc's fractions outside. Its
# coefficients, Horner order, branch points and libm exp (math.exp; np.exp
# rounds differently) keep every result bitwise equal to scipy's. Q, S and U
# carry the leading 1 that Cephes' p1evl implies: 1.0 * x + c is x + c.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation of coef[0] x^N + ... + coef[N]."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    if a != a:
        return math.nan
    x = a * _SQRT1_2
    t = abs(x)
    if t < 1.0:  # 0.5 + 0.5 erf(x); the series is odd bit for bit
        z = x * x
        return 0.5 + 0.5 * (x * _polevl(z, _T) / _polevl(z, _U))
    z = -t * t  # y = erfc(t) / 2, which underflows to 0 past sqrt(MAXLOG)
    y = 0.0
    if z >= -_MAXLOG:
        z = math.exp(z)
        if t < 8.0:
            y = 0.5 * (z * _polevl(t, _P) / _polevl(t, _Q))
        else:
            y = 0.5 * (z * _polevl(t, _R) / _polevl(t, _S))
    return 1.0 - y if x > 0.0 else y


def ndtr(z):
    """Standard normal CDF, elementwise; a 0-d input gives a numpy scalar."""
    a = np.asarray(z, dtype=float)
    out = np.fromiter(map(_ndtr, a.ravel().tolist()), float, a.size).reshape(a.shape)
    return out if out.ndim else out[()]


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
            bad = [w for w in weights if not 0.0 < w < math.inf]
            if bad:
                raise DomainError(f"turnout_weights: {bad[0]!r} is not positive and finite")
            if math.isinf(sum(weights)):  # a weighted average would overflow
                raise DomainError("turnout_weights: their sum overflows to inf")
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
        if not all(0.0 < s < math.inf for s in (self.sigma_national, self.sigma_district)):
            raise DomainError("swing standard deviations must be positive and finite, got "
                              f"sigma_national={self.sigma_national!r}, "
                              f"sigma_district={self.sigma_district!r}")

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
        if not math.isfinite(self.mean_outcome):
            raise DomainError(f"mean_outcome={self.mean_outcome!r} is not finite")
        if not 0.0 <= self.sd_outcome < math.inf:
            raise DomainError(f"sd_outcome={self.sd_outcome!r} must be finite and nonnegative")


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
        from numpy.polynomial.hermite_e import hermegauss  # deferred: no CLI path needs it
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
