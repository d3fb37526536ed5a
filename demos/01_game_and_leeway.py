"""Walk through the redistricting game for one state, then score them all.

A state's process is a subset of a two-round prototype: a drawer proposes a
plan bias on the [-4, 4] scale (positive favors Republicans), veto players
react, a veto triggers one redraw, a second failure lands in the stalemate
chain, and any enacted plan can still be challenged in court. Solving the
game backward gives a single number - the equilibrium bias - that summarizes
how much partisan leeway the process leaves.
"""

from leeway import (BatchContext, PriorSpec, leeway_table, load_fixture_codebook,
                    sample_draws, solve, spearman_stability)

codebook = load_fixture_codebook()
prior = PriorSpec.default()

# ---------------------------------------------------------------------------
# 1. One state in detail: a Republican trifecta with no state-court review.
#    The legislature proposes, the governor can veto, a double failure sends
#    the map to a court by default, and VRA exposure is the only real check.
# ---------------------------------------------------------------------------
alabama = codebook.get("AL", 2020)
result = solve(alabama, prior.mean())

print("Trifecta walkthrough (AL 2020, prior-mean parameters)")
print(f"  equilibrium bias ............ {result.value:+.3f}")
print(f"  second-round proposal ....... {result.round2_proposal:+.2f}")
print(f"  governor vetoes below ....... {result.veto_thresholds['round2_veto1']:+.3f}")
print(f"  final-map odds .............. " + ", ".join(
    f"{k}={v:.2f}" for k, v in result.path_probs.items()))
print()
# The governor only vetoes plans so mild that the stalemate-then-court
# fallback looks better for the party; the legislature therefore proposes
# the most favorable plan it can and the governor signs it.

# ---------------------------------------------------------------------------
# 2. Leeway scores for every bundled state-cycle. "Realized" uses the coded
#    party control; "maximum" hands every partisan node to one party and
#    reports the magnitude - the worst case the process permits. A batch
#    holds the prior draws (here 100, seed 0) and solves each distinct game
#    tree once; every table handed the same batch shares its draws.
# ---------------------------------------------------------------------------
print("Leeway scores over 100 prior draws")
print(f"  {'state':<6} {'cycle':<6} {'realized':>9} {'maximum':>9}")
rows = leeway_table(codebook, BatchContext(sample_draws(prior, seed=0, n_draws=100)))
for process, scores in rows:
    print(f"  {process.state_id:<6} {process.cycle:<6} "
          f"{scores.realized:>+9.3f} {scores.maximum:>9.3f}")
print()

# Reform shows up directly: compare the 2010 and 2020 rows for states that
# moved to independent commissions (MI collapses from ~3.9 to exactly 0).
for state in ("MI", "NY", "VA"):
    pair = {s.cycle: sc for s, sc in rows if s.state_id == state}
    if len(pair) == 2:
        print(f"  {state}: realized {pair[2010].realized:+.2f} (2010) -> "
              f"{pair[2020].realized:+.2f} (2020)")
print()

# ---------------------------------------------------------------------------
# 3. The scores barely depend on the exact parameter draw: state rankings
#    are nearly identical across draws from the prior.
# ---------------------------------------------------------------------------
rho = spearman_stability(codebook, BatchContext(sample_draws(prior, seed=0, n_draws=50)))
print(f"Average pairwise rank correlation across 50 draws: {rho:.3f}")
