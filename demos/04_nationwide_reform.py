"""What if every state adopted one of the reformed redistricting designs?

Three templates rewrite a state's process: a strong nonpartisan commission
with court review ("mi"), a nonpartisan drawer behind partisan vetoes
("ny"), and a supermajority-legislature design with a bipartisan backup
commission ("oh"). Re-solving the game gives each state a reformed dose;
pushing the dose change through fitted outcome models aggregates into a
national seats-votes line.

The outcome models here are synthetic (a known positive effect of leeway on
Republican seats and a known negative effect on responsiveness), so the
numbers illustrate the machinery rather than any measured effect.
"""

import numpy as np

from leeway import (Baseline, PriorSpec, StateCovariates, counterfactual_doses,
                    load_fixture_codebook, predict_national)
from leeway.counterfactual import TEMPLATES
from leeway.inference import COLUMN_NAMES, Diagnostics, PosteriorDraws

codebook = load_fixture_codebook().for_cycle(2020)
prior = PriorSpec.default()


def synthetic_model(mean_effect, sd, n_draws=400, seed=0):
    """Posterior whose only nonzero coefficient is the dose-change effect."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n_draws, 16))
    matrix[:, 1] = rng.normal(mean_effect, sd, n_draws)
    diag = Diagnostics(rhat={}, ess={}, accept_coefficients=(), accept_sigma=())
    return PosteriorDraws(coefficients=matrix[None], sigma=np.ones((1, n_draws)),
                          column_names=COLUMN_NAMES, diagnostics=diag)


seat_model = synthetic_model(0.20, 0.05, seed=1)   # R seats per unit of leeway
resp_model = synthetic_model(-0.15, 0.05, seed=2)  # responsiveness per unit

# Stand-in covariates; a real run reads these from a file.
rng = np.random.default_rng(3)
covariates = {
    row.state_id: StateCovariates(
        dem08=float(rng.uniform(0.35, 0.65)), south=float(row.state_id in ("AL", "NC", "VA", "KY", "WV")),
        log_seats=float(rng.uniform(1.0, 3.5)), delta_seats=float(rng.integers(-1, 2)),
        log_corrupt=float(rng.uniform(0.0, 2.0)), initiative=float(rng.integers(2)),
        n_districts=int(rng.integers(2, 30)))
    for row in codebook
}
baseline = Baseline(dem_seats=213.0, slope_seats_per_pp=7.8)

print(f"{'template':<10} {'mean dose cut':>13} {'dem seats':>10} {'95% CI':>16} {'slope':>7}")
for name in ("identity", "ny", "oh", "mi"):
    pairs = counterfactual_doses(codebook, TEMPLATES[name](), prior,
                                 n_draws=25, seed=11)
    prediction = predict_national(pairs, seat_model, resp_model, covariates, baseline,
                                  template=name)
    cut = np.mean([p.d_current - p.d_reformed for p in pairs])
    effect = prediction.total_dem_seat_change
    print(f"{name:<10} {cut:>13.2f} {effect.mean:>+10.2f} "
          f"[{effect.ci95[0]:>+6.2f}, {effect.ci95[1]:>+6.2f}] "
          f"{prediction.responsiveness_slope.mean:>7.2f}")

print()
print("Reform strength tracks how hard the template constrains partisan")
print("nodes: the all-nonpartisan design cuts the most dose and (under the")
print("synthetic positive seat model) shifts the most seats.")
