"""Estimate how changes in leeway move outcomes, on synthetic data.

One row per state: simulation-adjusted outcomes in both cycles, the leeway
dose in each cycle, and six fixed covariates. The response is the change in
the adjusted outcome; the model regresses it on the dose change, the
baseline dose, the covariates, and dose-change interactions, with weakly
informative priors sampled by exact Gibbs sampling with no adaptation.

Here the data are simulated with a known constant marginal effect so the
whole chain - design, sampler, diagnostics, effect queries - can be watched
recovering the truth.
"""

import numpy as np

from leeway import DidRow, PriorConfig, acr, build_design, cate, fit_posterior
from leeway.inference import design_row, dose_response_curve

TRUE_EFFECT = 0.3   # outcome units per unit of dose change
NOISE_SD = 0.05

rng = np.random.default_rng(7)
beta = np.zeros(16)
beta[0], beta[1], beta[3], beta[5] = 0.5, TRUE_EFFECT, -0.8, 0.2

rows = []
for i in range(87):
    d0, d1 = rng.uniform(0, 4, 2)
    cov = [rng.uniform(0.3, 0.7), float(rng.integers(2)), rng.uniform(0.5, 3.5),
           float(rng.integers(-2, 3)), rng.uniform(-1, 3), float(rng.integers(2))]
    response = float(design_row(d1 - d0, d0, cov) @ beta + rng.normal(0, NOISE_SD))
    rows.append(DidRow(f"S{i:02d}", 0.0, response, d0, d1, *cov))

design = build_design(rows)
prior = PriorConfig.from_design(design)
print(f"design: {design.X.shape[0]} states x {design.X.shape[1]} columns, "
      f"response sd {prior.sigma_y:.3f}")

draws = fit_posterior(design, prior, seed=7)
diag = draws.diagnostics
print(f"sampler: max split R-hat {max(diag.rhat.values()):.3f}, "
      f"min ESS {min(diag.ess.values()):.0f}, "
      f"sigma acceptance ~{np.mean(diag.accept_sigma):.2f}")
print()

# ---------------------------------------------------------------------------
# The average causal response: covariate-averaged dose-response slope.
# ---------------------------------------------------------------------------
estimate = acr(draws, rows)
print(f"ACR: {estimate.effect.mean:+.3f} "
      f"(80% CI {estimate.effect.ci80[0]:+.3f} .. {estimate.effect.ci80[1]:+.3f}; "
      f"true {TRUE_EFFECT:+.3f})")
print(f"standardized ACR: {estimate.standardized.mean:+.3f} outcome sds per unit")
print()

# ---------------------------------------------------------------------------
# Targeted effects: a full reform for a high-dose state (dose 4 -> 0).
# ---------------------------------------------------------------------------
state = rows[0]
effect = cate(draws, state.covariates, 4.0, 0.0)
print(f"CATE of a 4 -> 0 dose cut at one state's covariates: "
      f"{effect.mean:+.3f} (95% CI {effect.ci95[0]:+.3f} .. {effect.ci95[1]:+.3f})")
print()

# ---------------------------------------------------------------------------
# The dose-response curve is a line through zero; bands widen with |dose|.
# ---------------------------------------------------------------------------
print("dose-response curve (effect of a dose change, averaged over states)")
for dose, summary in dose_response_curve(draws, rows, [-4, -2, 0, 2, 4]):
    lo, hi = summary.ci95
    print(f"  dose change {dose:+.0f}: {summary.mean:+.3f}  [{lo:+.3f}, {hi:+.3f}]")
