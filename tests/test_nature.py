import dataclasses
import math

import numpy as np
import pytest

from leeway.codebook import CourtReview, PartyControl
from leeway.errors import DomainError
from leeway.nature import (CourtContext, Dist, GameParameters, PriorSpec, cauchy_cdf,
                           cauchy_quantile, court_outcome, exp_court, pr_chal_if_poss,
                           pr_chal_poss, pr_intervene, pr_veto_nonpartisan,
                           quartic_g, round2_nonpartisan_proposal, sample_parameters,
                           stack_parameters, stalemate_default, vra_process)
from leeway.solver import OptimizationGrid

PRIOR = PriorSpec.default()
MEAN = PRIOR.mean()

# exactly mirror-symmetric grid: GRID[i] == -GRID[-1 - i] to the last bit
_POS = np.arange(1, 41) * 0.1
GRID = np.concatenate([-_POS[::-1], [0.0], _POS])


def ctx(review=CourtReview.YES, court=PartyControl.NONPARTISANS,
        preclearance=False) -> CourtContext:
    return CourtContext(court_review=review, court_control=court, preclearance=preclearance)


class TestCauchy:
    def test_cdf_at_zero(self):
        assert cauchy_cdf(0.0) == 0.5

    def test_cdf_at_one(self):
        assert cauchy_cdf(1.0) == pytest.approx(0.75, abs=1e-15)

    def test_quantile_inverts_cdf(self):
        assert cauchy_quantile(cauchy_cdf(2.7)) == pytest.approx(2.7, abs=1e-12)

    def test_quantile_domain(self):
        for p in (0.0, 1.0):
            with pytest.raises(DomainError):
                cauchy_quantile(p)

    def test_cdf_strictly_increasing_onto_unit_interval(self):
        values = cauchy_cdf(GRID)
        assert np.all(np.diff(values) > 0)
        assert np.all((values > 0) & (values < 1))


class TestSampling:
    def test_deterministic(self):
        a = sample_parameters(PRIOR, 99, 3)
        b = sample_parameters(PRIOR, 99, 3)
        assert a == b

    def test_substreams_differ(self):
        assert sample_parameters(PRIOR, 99, 0) != sample_parameters(PRIOR, 99, 1)

    def test_beta_mean_matches_closed_form(self):
        draws = [sample_parameters(PRIOR, 7, i).chal_poss_conf for i in range(10000)]
        assert np.mean(draws) == pytest.approx(19 / 20, abs=0.01)

    def test_folded_normal_mean_matches_closed_form(self):
        draws = [sample_parameters(PRIOR, 7, i).out_nonp_part_adv for i in range(10000)]
        assert np.mean(draws) == pytest.approx(0.4 * math.sqrt(2 / math.pi), abs=0.01)

    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (1.0, 0.5), (-1.0, 0.5), (0.3, 2.0),
                                     (-2.5, 0.4), (4.0, 1.0)])
    def test_folded_normal_mean_with_location(self, a, b):
        # E|X| for X ~ N(a, b^2) by quadrature over +-12 sd.
        x = np.linspace(a - 12 * b, a + 12 * b, 200001)
        density = np.exp(-0.5 * ((x - a) / b) ** 2) / (b * math.sqrt(2 * math.pi))
        expected = np.sum(np.abs(x) * density) * (x[1] - x[0])
        assert Dist("folded_normal", a, b).mean() == pytest.approx(expected, abs=1e-6)

    def test_folded_normal_mean_against_draws(self):
        rng = np.random.default_rng(3)
        dist = Dist("folded_normal", 1.0, 0.5)
        draws = [dist.draw(rng) for _ in range(20000)]
        assert dist.mean() == pytest.approx(np.mean(draws), abs=0.01)

    def test_default_prior_means_unchanged(self):
        # Every default folded normal has location 0, where the mean is b * sqrt(2/pi).
        mean = PRIOR.mean()
        assert mean.out_nonp_bias2 == 0.5 * math.sqrt(2.0 / math.pi)
        assert mean.out_nonp_part_adv == 0.4 * math.sqrt(2.0 / math.pi)

    def test_override_changes_one_prior(self):
        spec = PRIOR.with_overrides({"stale_slope": {"dist": "beta", "params": [1, 1]}})
        assert spec["stale_slope"].a == 1
        assert spec["chal_poss_conf"] == PRIOR["chal_poss_conf"]
        assert spec.mean().stale_slope == pytest.approx(0.5)

    def test_prior_has_19_entries(self):
        assert len(PRIOR.dists) == 19

    def test_override_kinds_within_support_accepted(self):
        spec = PRIOR.with_overrides({
            "out_nonp_bias2": {"dist": "beta", "params": [2, 5]},
            "veto_nonp_shift": {"dist": "folded_normal", "params": [0, 1.5]},
            "vra_out_breakeven": {"dist": "normal", "params": [-1, 2]},
        })
        assert spec["out_nonp_bias2"] == ("beta", 2.0, 5.0)
        assert spec["veto_nonp_shift"].kind == "folded_normal"

    @pytest.mark.parametrize("name,spec,message", [
        ("stale_slope", {"dist": "gamma", "params": [1, 1]}, "unknown distribution kind"),
        ("stale_slope", {"dist": ["beta"], "params": [1, 1]}, "unknown distribution kind"),
        ("stale_slope", {"dist": "beta", "params": [0, 1]}, "shape parameters must be positive"),
        ("stale_slope", {"dist": "beta", "params": [2, -1]}, "shape parameters must be positive"),
        ("veto_nonp_shift", {"dist": "normal", "params": [0.5, 0]}, "scale must be positive"),
        ("out_nonp_bias2", {"dist": "folded_normal", "params": [0, -0.5]},
         "scale must be positive"),
        ("stale_slope", {"dist": "normal", "params": [0.1, 0.05]}, "outside the parameter's"),
        ("chal_poss_conf", {"dist": "folded_normal", "params": [0, 0.1]},
         "outside the parameter's"),
        ("out_nonp_bias2", {"dist": "normal", "params": [0, 0.5]}, "outside the parameter's"),
        ("stale_slope", {"dist": "beta", "params": [1]}, "two finite numbers"),
        ("stale_slope", {"dist": "beta", "params": [1, "2"]}, "two finite numbers"),
        ("stale_slope", {"dist": "beta", "params": [1, float("nan")]}, "two finite numbers"),
        ("stale_slope", {"params": [1, 1]}, "override must be"),
        ("stale_slope", [1, 1], "override must be"),
    ])
    def test_bad_override_rejected_at_load(self, name, spec, message):
        with pytest.raises(DomainError, match=message):
            PRIOR.with_overrides({name: spec})

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(DomainError, match="not valid JSON"):
            PriorSpec.from_json('{"stale_slope": ')
        with pytest.raises(DomainError, match="JSON object"):
            PriorSpec.from_json("[]")


class TestChallengePossible:
    def test_yes(self):
        assert pr_chal_poss(ctx(CourtReview.YES), MEAN) == MEAN.chal_poss_conf

    def test_no_is_complement(self):
        assert pr_chal_poss(ctx(CourtReview.NO), MEAN) == pytest.approx(
            1 - MEAN.chal_poss_conf)

    def test_maybe(self):
        assert pr_chal_poss(ctx(CourtReview.MAYBE), MEAN) == MEAN.chal_poss_maybe

    def test_na_rejected(self):
        with pytest.raises(DomainError):
            pr_chal_poss(ctx(CourtReview.NA), MEAN)


class TestChallengeIfPossible:
    def test_pinned_at_zero(self):
        assert pr_chal_if_poss(0.0, MEAN) == pytest.approx(MEAN.chal_prob_bias0, abs=1e-12)

    def test_pinned_at_two(self):
        assert pr_chal_if_poss(2.0, MEAN) == pytest.approx(MEAN.chal_prob_bias2, abs=1e-12)

    def test_value_at_four_against_direct_formula(self):
        # independent scalar evaluation of F(a + 16 b)
        a = math.tan(math.pi * (MEAN.chal_prob_bias0 - 0.5))
        b = (math.tan(math.pi * (MEAN.chal_prob_bias2 - 0.5)) - a) / 4.0
        expected = math.atan(a + 16.0 * b) / math.pi + 0.5
        assert pr_chal_if_poss(4.0, MEAN) == pytest.approx(expected, abs=1e-14)

    def test_even_and_u_shaped(self):
        values = pr_chal_if_poss(GRID, MEAN)
        assert np.allclose(values, values[::-1], atol=0)
        assert values.min() == values[40]  # minimum at x = 0
        assert values.max() < 1.0


class TestQuarticG:
    def test_zero_at_origin(self):
        assert quartic_g(0.0, 0.5) == 0.0

    def test_symmetric_case_hand_value(self):
        assert quartic_g(1.0, 0.0) == pytest.approx(0.74, abs=1e-12)

    def test_asymmetry_direction(self):
        assert quartic_g(2.0, 0.7) > quartic_g(-2.0, 0.7)

    def test_even_when_symmetric(self):
        assert np.allclose(quartic_g(GRID, 0.0), quartic_g(-GRID, 0.0))


class TestIntervene:
    def test_nonpartisan_at_zero(self):
        expected = MEAN.interv_prob_max * MEAN.interv_prob_bias0
        assert pr_intervene(0.0, ctx(), MEAN) == pytest.approx(expected, abs=1e-12)

    def test_democratic_court_targets_republican_plans(self):
        c = ctx(court=PartyControl.DEMOCRATS)
        assert pr_intervene(2.0, c, MEAN) > pr_intervene(-2.0, c, MEAN)

    def test_mirror_between_courts(self):
        d = ctx(court=PartyControl.DEMOCRATS)
        r = ctx(court=PartyControl.REPUBLICANS)
        assert np.array_equal(pr_intervene(GRID, d, MEAN), pr_intervene(-GRID, r, MEAN))

    def test_bounded_by_max(self):
        values = pr_intervene(GRID, ctx(court=PartyControl.DEMOCRATS), MEAN)
        assert np.all((values > 0) & (values < MEAN.interv_prob_max))

    def test_even_for_nonpartisan_courts(self):
        for court in (PartyControl.NONPARTISANS, PartyControl.SPLIT, PartyControl.NA):
            values = pr_intervene(GRID, ctx(court=court), MEAN)
            assert np.array_equal(values, values[::-1])


class TestCourtOutcome:
    def test_nonpartisan_zero(self):
        assert court_outcome(0.0, ctx(), MEAN) == 0.0

    def test_nonpartisan_at_two_returns_scale(self):
        assert court_outcome(2.0, ctx(), MEAN) == pytest.approx(
            MEAN.out_nonp_bias2, abs=1e-12)

    def test_republican_court_offset(self):
        c = ctx(court=PartyControl.REPUBLICANS)
        assert court_outcome(0.0, c, MEAN) == pytest.approx(
            MEAN.out_nonp_part_adv, abs=1e-15)


class TestVra:
    def test_no_preclearance_no_challenge(self):
        prob, _ = vra_process(1.7, ctx(preclearance=False), MEAN)
        assert prob == 0.0

    def test_remedy_fixed_point(self):
        _, remedy = vra_process(MEAN.vra_out_breakeven, ctx(preclearance=True), MEAN)
        assert remedy == pytest.approx(MEAN.vra_out_breakeven, abs=1e-12)

    def test_challenge_pinned_at_zero(self):
        prob, _ = vra_process(0.0, ctx(preclearance=True), MEAN)
        assert prob == pytest.approx(MEAN.vra_chal_prob_bias0, abs=1e-12)

    def test_challenge_increasing_in_bias(self):
        probs, _ = vra_process(GRID, ctx(preclearance=True), MEAN)
        assert np.all(np.diff(probs) > 0)


class TestExpCourt:
    def test_collapses_without_any_challenge_channel(self):
        theta = dataclasses.replace(MEAN, chal_poss_conf=1.0)
        result = exp_court(1.3, ctx(CourtReview.NO, preclearance=False), theta)
        assert result.value == 1.3
        assert result.pr_survive == 1.0
        assert result.pr_redraw == 0.0

    def test_neutral_plan_nonpartisan_court_zero(self):
        result = exp_court(0.0, ctx(CourtReview.YES, preclearance=False), MEAN)
        assert result.value == 0.0

    def test_against_independent_composition(self):
        c = ctx(CourtReview.YES, PartyControl.REPUBLICANS, preclearance=True)
        theta = sample_parameters(PRIOR, 31, 4)
        x = 2.0
        p_int = (pr_chal_poss(c, theta) * pr_chal_if_poss(x, theta)
                 * pr_intervene(x, c, theta))
        p_vra = vra_process(x, c, theta)[0] * theta.vra_interv_prob
        expected = (p_int * court_outcome(x, c, theta)
                    + (1 - p_int) * p_vra * vra_process(x, c, theta)[1]
                    + (1 - p_int) * (1 - p_vra) * x)
        result = exp_court(x, c, theta)
        assert result.value == pytest.approx(expected, abs=1e-14)

    def test_masses_sum_to_one(self):
        for i in range(50):
            theta = sample_parameters(PRIOR, 17, i)
            for preclearance in (False, True):
                r = exp_court(GRID, ctx(CourtReview.MAYBE, PartyControl.DEMOCRATS,
                                        preclearance), theta)
                assert np.all(np.abs(r.pr_redraw + r.pr_survive - 1.0) < 1e-12)


def _inline_formulas(x, c, theta):
    """exp_court, pr_veto_nonpartisan and stalemate_default written out in full.

    Every term is recomputed on each call, as the primitives did before their
    bias-independent terms became properties of the draw batch. Returns the
    value, redraw and survival masses, the nonpartisan veto probability and
    the stalemate default keyed to the court.
    """
    def quantile(p):
        return np.tan(np.pi * (p - 0.5))

    def cdf(v):
        return np.arctan(v) / np.pi + 0.5

    sign = {PartyControl.DEMOCRATS: -1.0, PartyControl.REPUBLICANS: 1.0}.get(c.court_control, 0.0)
    a = quantile(theta.chal_prob_bias0)
    b = (quantile(theta.chal_prob_bias2) - a) / 4.0
    p_chal = cdf(a + b * np.square(x))
    a = quantile(theta.interv_prob_bias0)
    b = (quantile(theta.interv_prob_bias2) - a) / 4.0
    k = math.sqrt(4.0 * (2.0 * 0.7) * (12.0 * 0.2**2)) / 6.0
    if sign == 0.0:
        h = np.square(x)
    else:
        z = x if sign < 0.0 else np.negative(x)
        h = np.square(z) * (0.7 + theta.interv_asym * k * z + np.square(0.2 * z))
    p_intervene = theta.interv_prob_max * cdf(a + b * h)
    possible = {CourtReview.YES: theta.chal_poss_conf, CourtReview.MAYBE: theta.chal_poss_maybe,
                CourtReview.NO: 1.0 - theta.chal_poss_conf}[c.court_review]
    p_int = possible * p_chal * p_intervene
    outcome = np.clip((theta.out_nonp_bias2 / math.atan(1.0)) * np.arctan(x / 2.0)
                      + sign * theta.out_nonp_part_adv, -4.0, 4.0)
    remedy = np.clip(theta.vra_out_slope * (x - theta.vra_out_breakeven)
                     + theta.vra_out_breakeven, -4.0, 4.0)
    if c.preclearance:
        a = quantile(theta.vra_chal_prob_bias0)
        b = (quantile(theta.vra_chal_prob_bias2) - a) / 2.0
        vra_prob = cdf(a + b * x)
    else:
        vra_prob = np.zeros_like(x, dtype=float)
    p_vra = vra_prob * theta.vra_interv_prob
    value = (p_int * outcome + (1.0 - p_int) * p_vra * remedy
             + (1.0 - p_int) * (1.0 - p_vra) * x)
    stale = np.clip(theta.stale_slope * x + sign * theta.out_nonp_part_adv, -4.0, 4.0)
    return (value, p_int + (1.0 - p_int) * p_vra, (1.0 - p_int) * (1.0 - p_vra),
            theta.veto_nonp_prob_max * p_chal, stale)


def test_primitives_match_inline_formulas_bitwise():
    # A 5-draw batch on the 161-point base grid, through every court review,
    # court control and preclearance branch.
    x = OptimizationGrid().points()[None, :]
    batch = stack_parameters([sample_parameters(PRIOR, 41, i) for i in range(5)])
    for review in (CourtReview.YES, CourtReview.MAYBE, CourtReview.NO):
        for court in PartyControl:
            for preclearance in (False, True):
                c = ctx(review, court, preclearance)
                court_ = exp_court(x, c, batch)
                got = (court_.value, court_.pr_redraw, court_.pr_survive,
                       pr_veto_nonpartisan(x, batch),
                       stalemate_default(x, court, PartyControl.NONPARTISANS, batch))
                for g, want in zip(got, _inline_formulas(x, c, batch)):
                    assert g.shape == want.shape == (5, 161)
                    assert g.tobytes() == want.tobytes(), (review, court, preclearance)


class TestStalemateDefault:
    def test_fully_nonpartisan_zero(self):
        assert stalemate_default(0.0, PartyControl.NONPARTISANS,
                                 PartyControl.NONPARTISANS, MEAN) == 0.0

    def test_republican_court_resolver_offset(self):
        value = stalemate_default(0.0, PartyControl.REPUBLICANS,
                                  PartyControl.NONPARTISANS, MEAN)
        assert value == pytest.approx(MEAN.out_nonp_part_adv, abs=1e-15)

    def test_linear_slope(self):
        lo = stalemate_default(0.0, PartyControl.NA, PartyControl.REPUBLICANS, MEAN)
        hi = stalemate_default(4.0, PartyControl.NA, PartyControl.REPUBLICANS, MEAN)
        assert hi - lo == pytest.approx(4 * MEAN.stale_slope, abs=1e-12)

    def test_drawer_keyed_when_resolver_nonpartisan(self):
        value = stalemate_default(1.0, PartyControl.NONPARTISANS,
                                  PartyControl.DEMOCRATS, MEAN)
        assert value == pytest.approx(MEAN.stale_slope - MEAN.out_nonp_part_adv)


class TestNonpartisanVeto:
    def test_composition_at_zero(self):
        expected = MEAN.veto_nonp_prob_max * MEAN.chal_prob_bias0
        assert pr_veto_nonpartisan(0.0, MEAN) == pytest.approx(expected, abs=1e-12)

    def test_extreme_plans_vetoed_more(self):
        assert pr_veto_nonpartisan(4.0, MEAN) > pr_veto_nonpartisan(1.0, MEAN)

    def test_zero_max_kills_vetoes(self):
        theta = dataclasses.replace(MEAN, veto_nonp_prob_max=0.0)
        assert np.all(pr_veto_nonpartisan(GRID, theta) == 0.0)


class TestRound2Proposal:
    def test_both_republican(self):
        value = round2_nonpartisan_proposal(
            0.5, (PartyControl.REPUBLICANS, PartyControl.REPUBLICANS), MEAN)
        assert value == pytest.approx(0.5 + MEAN.veto_nonp_shift)

    def test_one_democrat_other_absent(self):
        value = round2_nonpartisan_proposal(0.5, (PartyControl.DEMOCRATS, None), MEAN)
        assert value == pytest.approx(0.5 - 0.5 * MEAN.veto_nonp_shift)

    def test_mixed_parties_cancel(self):
        value = round2_nonpartisan_proposal(
            0.5, (PartyControl.DEMOCRATS, PartyControl.REPUBLICANS), MEAN)
        assert value == 0.5

    def test_clamped(self):
        value = round2_nonpartisan_proposal(
            3.9, (PartyControl.REPUBLICANS, PartyControl.REPUBLICANS), MEAN)
        assert value == 4.0


class TestPartyMirror:
    """Relabeling parties and negating the bias mirrors every partisan
    component; probabilities are preserved. The VRA channel is exempt: it is
    asymmetric by construction."""

    def test_mirror_across_draws(self):
        for i in range(10):
            theta = sample_parameters(PRIOR, 23, i)
            d = ctx(court=PartyControl.DEMOCRATS)
            r = ctx(court=PartyControl.REPUBLICANS)
            assert np.array_equal(pr_intervene(GRID, d, theta),
                                  pr_intervene(-GRID, r, theta))
            assert np.array_equal(court_outcome(GRID, d, theta),
                                  -court_outcome(-GRID, r, theta))
            assert np.array_equal(
                stalemate_default(GRID, PartyControl.DEMOCRATS, PartyControl.NA, theta),
                -stalemate_default(-GRID, PartyControl.REPUBLICANS, PartyControl.NA, theta))
            assert np.array_equal(
                round2_nonpartisan_proposal(GRID, (PartyControl.DEMOCRATS, None), theta),
                -round2_nonpartisan_proposal(-GRID, (PartyControl.REPUBLICANS, None), theta))

    def test_probability_outputs_in_unit_interval(self):
        for i in range(10000):
            theta = sample_parameters(PRIOR, 29, i)
            for values in (
                pr_chal_if_poss(GRID, theta),
                pr_intervene(GRID, ctx(court=PartyControl.DEMOCRATS), theta),
                pr_veto_nonpartisan(GRID, theta),
                vra_process(GRID, ctx(preclearance=True), theta)[0],
            ):
                assert np.all((values >= 0.0) & (values <= 1.0))


def _primitive_calls():
    """(name, f(x, theta)) for every primitive of a bias, over contexts reaching each branch."""
    D, R, NP, SPLIT = (PartyControl.DEMOCRATS, PartyControl.REPUBLICANS,
                       PartyControl.NONPARTISANS, PartyControl.SPLIT)
    calls = [
        ("cauchy_quantile", lambda x, t: cauchy_quantile(t.chal_prob_bias2 * cauchy_cdf(x))),
        ("pr_chal_if_poss", pr_chal_if_poss),
        ("quartic_g", lambda x, t: quartic_g(x, t.interv_asym)),
        ("pr_veto_nonpartisan", pr_veto_nonpartisan),
    ]
    for court in (D, R, SPLIT):
        for pre in (False, True):
            c = ctx(CourtReview.MAYBE, court, pre)
            tag = f"{court.name}-preclearance={pre}"
            calls += [
                (f"pr_intervene-{tag}", lambda x, t, c=c: pr_intervene(x, c, t)),
                (f"court_outcome-{tag}", lambda x, t, c=c: court_outcome(x, c, t)),
                (f"vra_process-{tag}", lambda x, t, c=c: vra_process(x, c, t)),
                (f"exp_court-{tag}", lambda x, t, c=c: exp_court(x, c, t)),
            ]
    for resolver, drawer in ((R, D), (NP, D), (SPLIT, NP)):
        calls.append((f"stalemate_default-{resolver.name}-{drawer.name}",
                      lambda x, t, r=resolver, d=drawer: stalemate_default(x, r, d, t)))
    for parties in ((R, R), (D, None), (D, R)):
        tag = "-".join(p.name if p else "absent" for p in parties)
        calls.append((f"round2_nonpartisan_proposal-{tag}",
                      lambda x, t, v=parties: round2_nonpartisan_proposal(x, v, t)))
    return calls


def _stacked(out):
    """One array from a primitive's value or tuple of values, draws on the second-last axis."""
    return np.stack(np.broadcast_arrays(*out)) if isinstance(out, tuple) else out


def test_batch_rows_equal_single_draws_bitwise():
    # The solver's 161-point grid as a (1, G) row against five (D, 1) draws.
    grid = OptimizationGrid().points()
    draws = [sample_parameters(PRIOR, 41, i) for i in range(5)]
    batch = stack_parameters(draws)
    for name, fn in _primitive_calls():
        rows = _stacked(fn(grid[None, :], batch))
        for d, theta in enumerate(draws):
            single = _stacked(fn(grid, theta))
            assert rows[..., d, :].shape == single.shape, name
            assert rows[..., d, :].tobytes() == single.tobytes(), (name, d)
