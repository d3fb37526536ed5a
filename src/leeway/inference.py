"""Bayesian dose-response estimation on two-period outcome changes.

One row per state: simulation-adjusted outcomes for both redistricting
cycles, the leeway dose in each cycle, and six fixed covariates. The
response is the change in the adjusted outcome; predictors are the dose
change, the baseline dose, the covariates, and the interaction of the dose
change with the baseline dose and with each covariate. A Gaussian linear
model with weakly informative priors is sampled by independent draws
(the residual scale from its closed-form marginal posterior on a log grid,
then the coefficients from their Gaussian conditional in a whitened basis),
and treatment-effect queries are answered per posterior draw.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, allocate

COVARIATE_NAMES = ("dem08", "south", "log_seats", "delta_seats", "log_corrupt",
                   "initiative")

COLUMN_NAMES = (
    "intercept", "dose_change", "baseline_dose", *COVARIATE_NAMES,
    "dose_change:baseline_dose",
    *[f"dose_change:{c}" for c in COVARIATE_NAMES],
)

_N_COLUMNS = len(COLUMN_NAMES)  # 16: intercept + 15 predictors
_INTERACTION_START = 9          # columns from here interact with dose_change

# A fit passes when every split R-hat is below RHAT_MAX and every ESS is above ESS_MIN.
RHAT_MAX = 1.05
ESS_MIN = 400.0


class SingularDesign(UserWarning):
    """A design column (or the response) has no variation."""


class ConvergenceError(RuntimeError):
    """Sampler diagnostics failed the required thresholds."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class DidRow:
    """One state's two-cycle record: outcomes, doses, covariates."""

    state_id: str
    dy0: float
    dy1: float
    d0: float
    d1: float
    dem08: float
    south: float
    log_seats: float
    delta_seats: float
    log_corrupt: float
    initiative: float

    @property
    def covariates(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in COVARIATE_NAMES])

    @property
    def response(self) -> float:
        return self.dy1 - self.dy0


def design_row(dose_change: float, d0: float, covariates) -> np.ndarray:
    """One design-matrix row in the fixed column order; d0 is the baseline (first-period) dose."""
    covariates = np.asarray(covariates, dtype=float)
    if covariates.shape != (len(COVARIATE_NAMES),):
        raise DomainError(f"expected {len(COVARIATE_NAMES)} covariates")
    return np.concatenate([
        [1.0, dose_change, d0], covariates,
        [dose_change * d0], dose_change * covariates,
    ])


@dataclass(frozen=True, eq=False)  # array fields: identity, not value, equality
class DesignMatrix:
    """Response vector and the 16-column predictor matrix."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[1] != _N_COLUMNS:
            raise DomainError(f"design must have {_N_COLUMNS} columns")
        if self.y.shape != (self.X.shape[0],):
            raise DomainError("response length must match the design")

    @property
    def n(self) -> int:
        return self.X.shape[0]


def build_design(rows: list[DidRow]) -> DesignMatrix:
    """Assemble the design from DidRow records (deterministic column order)."""
    if len(rows) < 2:
        raise DomainError("need at least 2 rows")
    X = np.array([design_row(r.d1 - r.d0, r.d0, r.covariates) for r in rows])
    y = np.array([r.response for r in rows])
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DomainError("design contains non-finite values")
    if np.ptp(y) == 0.0:
        warnings.warn("response has no variation", SingularDesign, stacklevel=2)
    if np.ptp(X[:, 1]) == 0.0:
        warnings.warn("dose_change column is constant", SingularDesign, stacklevel=2)
    return DesignMatrix(X=X, y=y)


def _check_scale(name: str, value: float) -> None:
    """Reject a prior scale that is not finite and positive (NaN included)."""
    if not 0.0 < value < np.inf:
        raise DomainError(f"prior scale {name}={float(value)} must be finite and positive")


@dataclass(frozen=True)
class PriorConfig:
    """Per-coefficient normal prior scales plus the residual-scale prior rate.

    Intercept sd 2.5 sigma_y; each main effect 0.75 sigma_y / sigma_x for
    its own column; interaction columns additionally scaled by 0.25 (using
    the interaction column's own sd); residual sd ~ Exponential(1/sigma_y).
    """

    sigma_y: float
    coefficient_sds: tuple

    @property
    def residual_rate(self) -> float:
        return 1.0 / self.sigma_y

    def __post_init__(self):
        if len(self.coefficient_sds) != _N_COLUMNS:
            raise DomainError(f"need {_N_COLUMNS} coefficient sds")
        _check_scale("sigma_y", self.sigma_y)
        _check_scale("residual_rate", self.residual_rate)
        for name, sd in zip(COLUMN_NAMES, self.coefficient_sds):
            _check_scale(f"{name} sd", sd)

    @classmethod
    def from_design(cls, design: DesignMatrix, sigma_y: float | None = None) -> "PriorConfig":
        if sigma_y is not None:
            _check_scale("sigma_y", sigma_y)
        else:
            sigma_y = float(design.y.std(ddof=1)) if design.n > 1 else 1.0
            if sigma_y == 0.0:
                warnings.warn("response sd is zero; using 1.0", SingularDesign, stacklevel=2)
                sigma_y = 1.0
        sds = [2.5 * sigma_y]
        for j in range(1, _N_COLUMNS):
            sigma_x = float(design.X[:, j].std(ddof=1)) if design.n > 1 else 1.0
            if sigma_x == 0.0:
                sigma_x = 1.0
            scale = 0.25 if j >= _INTERACTION_START else 1.0
            sds.append(scale * 0.75 * sigma_y / sigma_x)
        return cls(sigma_y=sigma_y, coefficient_sds=tuple(sds))


@dataclass(frozen=True)
class Diagnostics:
    rhat: dict
    ess: dict

    def worst(self) -> tuple[float, float]:
        """Largest R-hat and smallest ESS; a NaN in either is the worst."""
        return (float(np.max(list(self.rhat.values()))),
                float(np.min(list(self.ess.values()))))

    def passes(self) -> bool:
        worst_rhat, worst_ess = self.worst()
        return worst_rhat < RHAT_MAX and worst_ess > ESS_MIN


@dataclass(frozen=True, eq=False)  # array fields: identity, not value, equality
class PosteriorDraws:
    """Sampled coefficients and residual sd, kept per chain for diagnostics."""

    coefficients: np.ndarray  # (n_chains, n_draws, n_columns)
    sigma: np.ndarray         # (n_chains, n_draws)
    diagnostics: Diagnostics

    @property
    def flat(self) -> np.ndarray:
        chains, draws, p = self.coefficients.shape
        return self.coefficients.reshape(chains * draws, p)

    @property
    def n_total(self) -> int:
        return self.coefficients.shape[0] * self.coefficients.shape[1]


_SIGMA_GRID = 4097  # points of each pass of the log-sigma grid


def _sample(X, y, prior: PriorConfig, seed: int, coefficients, sigmas):
    """Fill (C, N, p) ``coefficients`` and (C, N) ``sigmas`` with independent posterior draws.

    Chain k draws from its own stream, spawn key k of ``seed``.

    With S = diag(coefficient sds), S X'X S = V diag(lam) V', b = V'S X'y and
    s2 = sigma^2, the coefficients are S V w, where w | sigma has independent
    normal coordinates of mean b / (lam + s2) and variance s2 / (lam + s2).
    Integrating w out gives sigma's marginal posterior, drawn by inverse CDF
    on a log-sigma grid (Gelman et al., BDA 3e, ch. 14):

        log p(sigma | y) = log p(sigma) - 1/2 sum log(s2 + lam) - (n - p) log sigma
                           - (y'y - sum b^2 / (s2 + lam)) / (2 s2).
    """
    n, p = X.shape
    sds = np.asarray(prior.coefficient_sds)
    XS = X * sds
    gram = XS.T @ XS
    if not np.isfinite(gram).all():
        raise DomainError(f"prior scale sigma_y={float(prior.sigma_y)} must be finite and "
                          "positive, and small enough that S X'X S is finite")
    lam, V = np.linalg.eigh(gram)
    b = V.T @ (XS.T @ y)
    # Where lam is zero up to rounding (n < p, or collinear columns), the data
    # say nothing and b is rounding noise; kept, it would blow up as sigma -> 0.
    null = lam <= lam[-1] * max(n, p) * np.finfo(float).eps
    lam[null] = b[null] = 0.0
    # y'y - sum b^2 / (s2 + lam) = rss + s2 sum c / (s2 + lam) with c = b^2 / lam,
    # which has no cancellation at small sigma.
    c = b[~null] ** 2 / lam[~null]
    rss = max(float(y @ y) - c.sum(), 0.0)

    def log_density(t):
        """log p(sigma | y) plus the Jacobian t at t = log sigma, up to a constant."""
        s2 = np.exp(2.0 * t)
        return (-prior.residual_rate * np.exp(t) - (n - p - 1) * t - 0.5 * rss / s2
                - 0.5 * np.log(s2[:, None] + lam).sum(axis=1)
                - 0.5 * (c / (s2[:, None] + lam[~null])).sum(axis=1))

    # A first pass from e^-40 to e^40 prior means finds where the density is
    # within e^-40 of its peak; the second pass spans that region.
    t = np.linspace(-40.0, 40.0, _SIGMA_GRID) - np.log(prior.residual_rate)
    log_p = log_density(t)
    if not np.isfinite(log_p.max()):  # NaN, or no finite point: scales out of float range
        raise DomainError("the residual sd's posterior is not finite on its grid")
    kept = np.flatnonzero(log_p >= log_p.max() - 40.0)
    t = np.linspace(*t[np.clip([kept[0] - 1, kept[-1] + 1], 0, _SIGMA_GRID - 1)], _SIGMA_GRID)
    log_p = log_density(t)
    density = np.exp(log_p - log_p.max())
    cdf = np.concatenate([[0.0], np.cumsum(density[1:] + density[:-1])])  # trapezoid rule

    SV = sds[:, None] * V
    n_draws = sigmas.shape[1]
    for k in range(len(sigmas)):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(k,))))
        sigmas[k] = np.exp(np.interp(rng.random(n_draws) * cdf[-1], cdf, t))
        s2 = sigmas[k][:, None] ** 2
        denom = lam + s2
        w = rng.standard_normal(out=coefficients[k])  # in place: one (draws, p) array fewer
        w *= np.sqrt(s2 * denom)
        w += b
        w /= denom
        coefficients[k] = w @ SV.T
    if not (np.isfinite(coefficients).all() and np.isfinite(sigmas).all()):
        raise DomainError(f"prior scale sigma_y={float(prior.sigma_y)} must be finite and "
                          "positive, and small enough that every posterior draw is finite")


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c at least n: a length numpy's FFT handles fast."""
    return min(k << ((n - 1) // k).bit_length()
               for k in (3**i * 5**j for i in range(12) for j in range(9)))


def _rhat_ess(chains: np.ndarray) -> tuple[float, float]:
    """Split-chain R-hat and effective sample size for one parameter."""
    m, n = chains.shape
    half = n // 2
    splits = chains[:, :2 * half].reshape(2 * m, half)
    n_seq, length = splits.shape
    means = splits.mean(axis=1)
    variances = splits.var(axis=1, ddof=1)
    w = variances.mean()
    b = length * means.var(ddof=1)
    var_plus = (length - 1) / length * w + b / length
    if var_plus == 0.0:
        return 1.0, float(n_seq * length)  # constant everywhere
    if w == 0.0:
        return float("inf"), 0.0  # chains frozen at different values
    rhat = float(np.sqrt(var_plus / w))

    size = _fft_length(2 * length - 1)
    f = np.fft.rfft(splits - means[:, None], size, axis=1)
    acov = np.fft.irfft(f.real**2 + f.imag**2, size, axis=1)[:, :length] / length
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    # Geyer initial monotone positive sequence on paired sums.
    pairs = rho[:2 * (length // 2)].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    stop = nonpositive[0] if nonpositive.size else len(pairs)
    tau = float(np.minimum.accumulate(pairs[:stop]).sum())
    tau = max(2.0 * tau - 1.0, 1.0)
    return rhat, float(n_seq * length / tau)


def _diagnostics(coefficients: np.ndarray, sigma: np.ndarray) -> Diagnostics:
    """Split R-hat and ESS of every coefficient and of sigma, per chain layout.

    Each coefficient column, 16 or 17 values apart in the draws, is copied
    out contiguous on its own: R-hat and ESS take less time on it and keep
    every bit, and one copy of all the columns would double the draws' memory.
    """
    rhat, ess = {}, {}
    for j, name in enumerate(COLUMN_NAMES):
        rhat[name], ess[name] = _rhat_ess(np.ascontiguousarray(coefficients[:, :, j]))
    rhat["sigma"], ess["sigma"] = _rhat_ess(sigma)
    return Diagnostics(rhat=rhat, ess=ess)


def fit_posterior(design: DesignMatrix, prior: PriorConfig, n_draws: int = 10000,
                  n_chains: int = 4, seed: int = 0) -> PosteriorDraws:
    """Sample the posterior; deterministic in (seed, n_chains, n_draws).

    Every draw is independent, with no warm-up and no acceptance step: sigma
    from its marginal posterior, then the coefficients given sigma. Raises
    ConvergenceError when split R-hat >= RHAT_MAX or ESS <= ESS_MIN for any
    parameter; production fits should use at least 1000 draws on 2 or more
    chains. Fewer than 4 draws per chain raise DomainError: split R-hat
    needs 2 draws in each half.
    """
    if n_chains < 1:
        raise DomainError(f"{n_chains} chains; a fit needs at least 1")
    if n_draws < 4:
        raise DomainError(f"{n_draws} draws per chain; split R-hat needs at least 4")
    if seed < 0:
        raise DomainError(f"seed {seed} is negative; a seed must be a non-negative integer")
    what = f"{n_chains} chains (--chains) of {n_draws} draws (--draws)"
    coefficients = allocate((n_chains, n_draws, design.X.shape[1]), what)
    sigma = allocate((n_chains, n_draws), what)
    with np.errstate(over="ignore", invalid="ignore"):  # _sample names an overflowing scale
        _sample(design.X, design.y, prior, seed, coefficients, sigma)
    diagnostics = _diagnostics(coefficients, sigma)
    draws = PosteriorDraws(coefficients=coefficients, sigma=sigma, diagnostics=diagnostics)
    if not diagnostics.passes():
        worst_rhat, worst_ess = diagnostics.worst()
        raise ConvergenceError(
            f"sampler did not converge: max R-hat {worst_rhat:.3f}, min ESS {worst_ess:.0f}",
            diagnostics)
    return draws


@dataclass(frozen=True, eq=False)  # array fields: identity, not value, equality
class EffectSummary:
    """Posterior mean and central credible intervals of a scalar effect.

    The intervals are computed on first read, since many summaries are
    only ever asked for their mean.
    """

    mean: float
    draws: np.ndarray

    @classmethod
    def from_draws(cls, values: np.ndarray) -> "EffectSummary":
        return cls(mean=float(values.mean()), draws=values)

    @cached_property
    def _quantiles(self) -> tuple:
        return tuple(float(q) for q in np.quantile(self.draws, [0.025, 0.1, 0.9, 0.975]))

    @property
    def ci80(self) -> tuple:
        return self._quantiles[1:3]

    @property
    def ci95(self) -> tuple:
        return self._quantiles[0], self._quantiles[3]


def cate_draws(draws: PosteriorDraws, covariates, d: float, d_prime: float) -> np.ndarray:
    """Per-draw effect of moving the dose from d to d_prime at covariates x.

    The first-period dose enters the model through its interaction with the
    dose change; it is taken to be d (the from-dose), matching a state
    observed at dose d and counterfactually moved to d_prime.
    """
    covariates = np.asarray(covariates, dtype=float)
    return draws.flat @ (design_row(d_prime - d, d, covariates)
                         - design_row(0.0, d, covariates))


def cate(draws: PosteriorDraws, covariates, d: float, d_prime: float) -> EffectSummary:
    """Conditional average treatment effect of a dose change, summarized."""
    return EffectSummary.from_draws(cate_draws(draws, covariates, d, d_prime))


def _mean_dose_gradient(rows: list[DidRow]) -> np.ndarray:
    grads = [design_row(1.0, r.d0, r.covariates) - design_row(0.0, r.d0, r.covariates)
             for r in rows]
    return np.mean(grads, axis=0)


@dataclass(frozen=True)
class AcrEstimate:
    effect: EffectSummary
    standardized: EffectSummary


def acr(draws: PosteriorDraws, rows: list[DidRow]) -> AcrEstimate:
    """Average causal response: dose-response slope averaged over the rows.

    Per draw, the derivative of the predicted response with respect to the
    dose change, evaluated at each row's baseline dose and covariates, then
    averaged. The standardized version divides by the sd of the observed
    response.
    """
    if not rows:
        raise DomainError("acr needs at least one row")
    values = draws.flat @ _mean_dose_gradient(rows)
    outcome_sd = float(np.std([r.response for r in rows], ddof=1)) if len(rows) > 1 else 1.0
    if outcome_sd == 0.0:
        outcome_sd = 1.0
    return AcrEstimate(effect=EffectSummary.from_draws(values),
                       standardized=EffectSummary.from_draws(values / outcome_sd))


def dose_response_curve(draws: PosteriorDraws, rows: list[DidRow],
                        dose_grid) -> list[tuple[float, EffectSummary]]:
    """Covariate-averaged effect of each dose change on the grid.

    The model is linear in the dose change, so each point is the dose times
    the per-draw average causal response and the fitted curve passes
    through zero.
    """
    slope = draws.flat @ _mean_dose_gradient(rows)
    return [(float(d), EffectSummary.from_draws(float(d) * slope)) for d in dose_grid]
