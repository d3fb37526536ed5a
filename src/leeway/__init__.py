"""Redistricting institutions as a sequential game.

Encode each state's redistricting procedure, solve the resulting zero-sum
game for a one-dimensional "leeway" score, evaluate districting plans under
a swing election model, estimate dose-response effects of reform with a
Bayesian two-period design, and project nationwide reform counterfactuals.
"""

from .codebook import (Codebook, CourtReview, Drawer, FinalDrawer, PartyControl,
                       StateProcess, Stalemate1, Stalemate2, Veto1, Veto2, check,
                       load_fixture_codebook, parse_codebook, serialize_codebook,
                       validate)
from .counterfactual import (Baseline, DosePair, NationalPrediction, ReformTemplate,
                             StateCovariates, apply_template, counterfactual_doses,
                             predict_national)
from .errors import DomainError, NotApplicable
from .inference import (DidRow, PosteriorDraws, PriorConfig, acr, build_design,
                        cate, dose_response_curve, fit_posterior)
from .metrics import (EnsembleSummary, PlanProfile, SwingModel, competitive_share,
                      dilution_asymmetry, efficiency_gap, expected_seats,
                      partisan_bias, responsiveness, simulation_adjust)
from .nature import CourtContext, GameParameters, PriorSpec, sample_parameters
from .solver import (BatchContext, EquilibriumResult, LeewayScores, OptimizationGrid,
                     brute_force_solve, leeway, leeway_table, path_table, sample_draws,
                     solve, spearman_stability, uniform_control)

__version__ = "0.1.0"
