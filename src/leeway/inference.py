"""Bayesian dose-response estimation on two-period outcome changes.

One row per state: simulation-adjusted outcomes for both redistricting
cycles, the leeway dose in each cycle, and six fixed covariates. The
response is the change in the adjusted outcome; predictors are the dose
change, the baseline dose, the covariates, and the interaction of the dose
change with the baseline dose and with each covariate. A Gaussian linear
model with weakly informative priors is sampled by exact Gibbs sampling
with no adaptation (the coefficients from their Gaussian conditional in a
whitened basis, the residual scale by an independence Metropolis-Hastings
step from its conditional without the prior), and treatment-effect queries
are answered per posterior draw.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

COVARIATE_NAMES = ("dem08", "south", "log_seats", "delta_seats", "log_corrupt",
                   "initiative")

COLUMN_NAMES = (
    "intercept", "dose_change", "baseline_dose", *COVARIATE_NAMES,
    "dose_change:baseline_dose",
    *[f"dose_change:{c}" for c in COVARIATE_NAMES],
)

_N_COLUMNS = len(COLUMN_NAMES)  # 16: intercept + 15 predictors
_INTERACTION_START = 9          # columns from here interact with dose_change


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
        return np.array([self.dem08, self.south, self.log_seats,
                         self.delta_seats, self.log_corrupt, self.initiative])

    @property
    def response(self) -> float:
        return self.dy1 - self.dy0


def design_row(dose_change: float, baseline_dose: float, covariates) -> np.ndarray:
    """One design-matrix row in the fixed column order."""
    covariates = np.asarray(covariates, dtype=float)
    if covariates.shape != (len(COVARIATE_NAMES),):
        raise DomainError(f"expected {len(COVARIATE_NAMES)} covariates")
    return np.concatenate([
        [1.0, dose_change, baseline_dose], covariates,
        [dose_change * baseline_dose], dose_change * covariates,
    ])


@dataclass(frozen=True)
class DesignMatrix:
    """Response vector and the 16-column predictor matrix."""

    X: np.ndarray
    y: np.ndarray
    column_names: tuple = COLUMN_NAMES

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


@dataclass(frozen=True)
class PriorConfig:
    """Per-coefficient normal prior scales plus the residual-scale prior rate.

    Intercept sd 2.5 sigma_y; each main effect 0.75 sigma_y / sigma_x for
    its own column; interaction columns additionally scaled by 0.25 (using
    the interaction column's own sd); residual sd ~ Exponential(1/sigma_y).
    """

    sigma_y: float
    coefficient_sds: tuple
    residual_rate: float

    def __post_init__(self):
        if self.sigma_y <= 0 or self.residual_rate <= 0:
            raise DomainError("prior scales must be positive")
        if len(self.coefficient_sds) != _N_COLUMNS:
            raise DomainError(f"need {_N_COLUMNS} coefficient sds")
        if any(s <= 0 for s in self.coefficient_sds):
            raise DomainError("coefficient sds must be positive")

    @classmethod
    def from_design(cls, design: DesignMatrix, sigma_y: float | None = None) -> "PriorConfig":
        if sigma_y is None:
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
        return cls(sigma_y=sigma_y, coefficient_sds=tuple(sds),
                   residual_rate=1.0 / sigma_y)


@dataclass(frozen=True)
class Diagnostics:
    rhat: dict
    ess: dict
    accept_coefficients: tuple
    accept_sigma: tuple

    def worst(self) -> tuple[float, float]:
        """Largest R-hat and smallest ESS; a NaN in either is the worst."""
        return (float(np.max(list(self.rhat.values()))),
                float(np.min(list(self.ess.values()))))

    def passes(self, rhat_max: float = 1.05, ess_min: float = 400.0) -> bool:
        worst_rhat, worst_ess = self.worst()
        return worst_rhat < rhat_max and worst_ess > ess_min


@dataclass(frozen=True)
class PosteriorDraws:
    """Sampled coefficients and residual sd, kept per chain for diagnostics."""

    coefficients: np.ndarray  # (n_chains, n_draws, n_columns)
    sigma: np.ndarray         # (n_chains, n_draws)
    column_names: tuple
    diagnostics: Diagnostics

    @property
    def flat(self) -> np.ndarray:
        chains, draws, p = self.coefficients.shape
        return self.coefficients.reshape(chains * draws, p)

    @property
    def sigma_flat(self) -> np.ndarray:
        return self.sigma.reshape(-1)

    @property
    def n_total(self) -> int:
        return self.coefficients.shape[0] * self.coefficients.shape[1]


_BLOCK_STEPS = 1000  # sampler steps whose random numbers are drawn at once


def _gibbs(X, y, prior: PriorConfig, n_draws, warmup, rngs):
    """Exact Gibbs sampling of all chains in one (chains, p) batch.

    With S = diag(coefficient sds) and S X'X S = V diag(lam) V', the
    coefficients are beta = S V w, where w has a standard normal prior and,
    given sigma, independent normal coordinates with mean b / (lam + s2) and
    variance s2 / (lam + s2), for b = V'S X'y and s2 = sigma^2. Sigma is
    updated by independence Metropolis-Hastings: the proposal sigma'^-2 ~
    Gamma((n-1)/2, rate RSS/2) is sigma's conditional without its
    Exponential prior, so the acceptance ratio is exp(-rate (sigma' - sigma)).
    Returns the coefficients, sigma and each chain's sigma acceptance rate.
    """
    n, p = X.shape
    sds = np.asarray(prior.coefficient_sds)
    rate = prior.residual_rate
    XS = X * sds
    lam, V = np.linalg.eigh(XS.T @ XS)
    lam = np.maximum(lam, 0.0)  # rounding can leave a zero eigenvalue negative
    M = XS @ V
    b = M.T @ y
    # The proposal's density in sigma is sigma^-(2 shape + 1) exp(-RSS / (2 sigma^2)),
    # so the ratio gains (sigma' / sigma)^power, with power 0 at shape (n-1)/2.
    # With n < 2 that is no Gamma shape and shape 1 is used; with n = 0
    # sigma's conditional is its prior, drawn exactly.
    shape = (n - 1) / 2 if n >= 2 else 1.0
    power = 2.0 * shape + 1.0 - n

    n_chains = len(rngs)
    coefficients = np.empty((n_chains, n_draws, p))
    sigmas = np.empty((n_chains, n_draws))
    accepted = np.zeros(n_chains)
    sigma = np.full(n_chains, prior.sigma_y)
    for start in range(0, warmup + n_draws, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, warmup + n_draws - start)
        z = np.stack([rng.standard_normal((steps, p)) for rng in rngs], axis=1)
        gamma = np.stack([rng.standard_gamma(shape, steps) for rng in rngs], axis=1)
        # Accept where log-ratio > -E for E ~ Exponential(1), i.e. u < ratio.
        expo = np.stack([rng.standard_exponential(steps) for rng in rngs], axis=1)
        for i in range(steps):
            s2 = (sigma * sigma)[:, None]
            denom = lam + s2
            w = (b + np.sqrt(s2 * denom) * z[i]) / denom
            if n:
                resid = y - w @ M.T
                proposal = np.sqrt(np.einsum("ij,ij->i", resid, resid) / (2.0 * gamma[i]))
                log_ratio = rate * (sigma - proposal)
                if power:
                    log_ratio += power * np.log(proposal / sigma)
                accept = log_ratio > -expo[i]
            else:
                proposal = gamma[i] / rate
                accept = np.ones(n_chains, dtype=bool)
            sigma = np.where(accept, proposal, sigma)
            t = start + i - warmup
            if t >= 0:
                coefficients[:, t] = w
                sigmas[:, t] = sigma
                accepted += accept
    SV = sds[:, None] * V
    for c in range(n_chains):
        coefficients[c] = coefficients[c] @ SV.T
    return coefficients, sigmas, accepted / n_draws


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


def _diagnostics(coefficients: np.ndarray, sigma: np.ndarray,
                 accept_coefficients=(), accept_sigma=()) -> Diagnostics:
    """Split R-hat and ESS of every coefficient and of sigma, per chain layout."""
    rhat, ess = {}, {}
    for j, name in enumerate(COLUMN_NAMES):
        rhat[name], ess[name] = _rhat_ess(coefficients[:, :, j])
    rhat["sigma"], ess["sigma"] = _rhat_ess(sigma)
    return Diagnostics(rhat=rhat, ess=ess, accept_coefficients=tuple(accept_coefficients),
                       accept_sigma=tuple(accept_sigma))


def fit_posterior(design: DesignMatrix, prior: PriorConfig, n_draws: int = 10000,
                  n_chains: int = 4, seed: int = 0, warmup: int = 1000,
                  enforce_diagnostics: bool = True) -> PosteriorDraws:
    """Sample the posterior; deterministic in (seed, n_chains, n_draws).

    Exact Gibbs sampling with no adaptation: the coefficients are drawn
    from their Gaussian conditional and sigma by an independence
    Metropolis-Hastings step whose proposal is its conditional without the
    prior. The first ``warmup`` steps of each chain are discarded. Raises
    ConvergenceError when split R-hat >= 1.05 or ESS <= 400 for any
    parameter, unless ``enforce_diagnostics`` is off; production fits
    should use at least 1000 post-warmup draws on 2 or more chains. Fewer
    than 4 draws per chain raise DomainError: split R-hat needs 2 draws in
    each half.
    """
    if n_chains < 1 or warmup < 1:
        raise DomainError("n_chains and warmup must be positive")
    if n_draws < 4:
        raise DomainError(f"{n_draws} draws per chain; split R-hat needs at least 4")
    rngs = [np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(c,)))) for c in range(n_chains)]
    coefficients, sigma, accept_sigma = _gibbs(design.X, design.y, prior, n_draws,
                                               warmup, rngs)
    diagnostics = _diagnostics(coefficients, sigma, accept_coefficients=(1.0,) * n_chains,
                               accept_sigma=accept_sigma.tolist())
    draws = PosteriorDraws(coefficients=coefficients, sigma=sigma,
                           column_names=COLUMN_NAMES, diagnostics=diagnostics)
    if enforce_diagnostics and not diagnostics.passes():
        worst_rhat, worst_ess = diagnostics.worst()
        raise ConvergenceError(
            f"sampler did not converge: max R-hat {worst_rhat:.3f}, min ESS {worst_ess:.0f}",
            diagnostics)
    return draws


@dataclass(frozen=True)
class EffectSummary:
    """Posterior mean and central credible intervals of a scalar effect."""

    mean: float
    ci80: tuple
    ci95: tuple
    draws: np.ndarray

    @classmethod
    def from_draws(cls, values: np.ndarray) -> "EffectSummary":
        lo80, hi80 = np.quantile(values, [0.1, 0.9])
        lo95, hi95 = np.quantile(values, [0.025, 0.975])
        return cls(mean=float(values.mean()), ci80=(float(lo80), float(hi80)),
                   ci95=(float(lo95), float(hi95)), draws=values)


def cate_draws(draws: PosteriorDraws, covariates, d: float, d_prime: float,
               baseline_dose: float | None = None) -> np.ndarray:
    """Per-draw effect of moving the dose from d to d_prime at covariates x.

    The first-period dose enters the model through its interaction with the
    dose change; by default it is taken to be d (the from-dose), matching a
    state observed at dose d and counterfactually moved to d_prime. Pass
    ``baseline_dose`` to hold it fixed instead; effects chain additively
    (d to d' plus d' to d'' equals d to d'') only at a fixed baseline.
    """
    covariates = np.asarray(covariates, dtype=float)
    b = d if baseline_dose is None else baseline_dose
    delta = design_row(d_prime - d, b, covariates) - design_row(0.0, b, covariates)
    return draws.flat @ delta


def cate(draws: PosteriorDraws, covariates, d: float, d_prime: float,
         baseline_dose: float | None = None) -> EffectSummary:
    """Conditional average treatment effect of a dose change, summarized."""
    return EffectSummary.from_draws(cate_draws(draws, covariates, d, d_prime,
                                               baseline_dose))


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
