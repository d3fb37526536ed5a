import numpy as np
import pytest

from leeway.codebook import (Codebook, CourtReview, Drawer, PartyControl,
                             Stalemate1, Stalemate2, Veto1, Veto2,
                             load_fixture_codebook, validate)
from leeway.counterfactual import (TEMPLATES, Baseline, DosePair, ReformTemplate,
                                   StateCovariates, TemplateError, apply_template,
                                   counterfactual_doses, predict_national)
from leeway.errors import DomainError
from leeway.inference import COLUMN_NAMES, Diagnostics, PosteriorDraws
from leeway.nature import PriorSpec
from leeway.solver import leeway

from test_codebook import make_process

PRIOR = PriorSpec.default()
FIXTURE = load_fixture_codebook()


def manual_model(coefficients):
    coefficients = np.asarray(coefficients, dtype=float)[None, :, :]
    diag = Diagnostics(rhat={}, ess={}, accept_coefficients=(), accept_sigma=())
    return PosteriorDraws(coefficients=coefficients,
                          sigma=np.ones(coefficients.shape[:2]),
                          column_names=COLUMN_NAMES, diagnostics=diag)


def slope_only_model(slopes):
    """Model whose only nonzero coefficient is the dose-change main effect."""
    matrix = np.zeros((len(slopes), 16))
    matrix[:, 1] = slopes
    return manual_model(matrix)


COVS = {
    "AA": StateCovariates(0.5, 0.0, 2.0, 0.0, 1.0, 0.0, 8),
    "BB": StateCovariates(0.4, 1.0, 1.5, -1.0, 0.5, 1.0, 4),
}


class TestTemplates:
    def test_identity_returns_unchanged(self):
        row = FIXTURE.get("AL", 2020)
        assert apply_template(row, TEMPLATES["identity"]()) == row

    def test_idempotent(self):
        for key in (("AL", 2020), ("CA", 2020), ("OH", 2020), ("MN", 2020)):
            row = FIXTURE.get(*key)
            for name in ("identity", "mi", "ny", "oh"):
                template = TEMPLATES[name]()
                once = apply_template(row, template)
                assert apply_template(once, template) == once

    def test_results_validate(self):
        for row in FIXTURE:
            for name in ("mi", "ny", "oh"):
                reformed = apply_template(row, TEMPLATES[name]())
                assert validate(reformed) == [], (row.key, name)

    def test_ny_preserves_trifecta_control(self):
        row = FIXTURE.get("AL", 2020)  # Republican legislature and governor
        reformed = apply_template(row, TEMPLATES["ny"]())
        assert reformed.veto1 is Veto1.LEGISLATURE
        assert reformed.veto1_control is PartyControl.REPUBLICANS
        assert reformed.veto2 is Veto2.GOVERNOR
        assert reformed.veto2_control is PartyControl.REPUBLICANS
        assert reformed.court_review is row.court_review

    def test_oh_reform_encodes_supermajority_and_backup(self):
        row = FIXTURE.get("WV", 2020)
        reformed = apply_template(row, TEMPLATES["oh"]())
        assert reformed.drawer is Drawer.LEGISLATURE
        assert reformed.drawer_control is PartyControl.SPLIT
        assert reformed.stalemate1 is Stalemate1.COMMISSION
        assert reformed.stalemate1_control is PartyControl.SPLIT
        assert reformed.stalemate2 is Stalemate2.LEGISLATURE
        assert reformed.stalemate2_control is PartyControl.REPUBLICANS

    def test_oh_template_fixes_ohio_to_itself(self):
        row = FIXTURE.get("OH", 2020)
        assert apply_template(row, TEMPLATES["oh"]()) == row

    def test_mi_template_zeroes_maximum_leeway(self):
        for key in (("WV", 2020), ("KS", 2020)):  # no preclearance exposure
            reformed = apply_template(FIXTURE.get(*key), TEMPLATES["mi"]())
            scores = leeway(reformed, PRIOR, n_draws=15, seed=2)
            assert scores.maximum == 0.0

    def test_mi_template_on_preclearance_state_keeps_small_vra_residue(self):
        reformed = apply_template(FIXTURE.get("AL", 2020), TEMPLATES["mi"]())
        scores = leeway(reformed, PRIOR, n_draws=15, seed=2)
        assert 0.0 < scores.maximum < 0.05

    def test_single_district_rejected(self):
        process = make_process(drawer=Drawer.NA, drawer_control=PartyControl.NA,
                               court_review=CourtReview.NA,
                               court_control=PartyControl.NA,
                               stalemate1=Stalemate1.NA)
        with pytest.raises(DomainError):
            apply_template(process, TEMPLATES["mi"]())

    def test_custom_template_validation_failure(self):
        template = ReformTemplate.custom({"veto1": Veto1.NA})
        row = FIXTURE.get("AL", 2020)  # leaves veto1_control=Republicans behind
        with pytest.raises(TemplateError) as err:
            apply_template(row, template)
        assert err.value.rule == "control-without-body"


class TestDoses:
    def test_identity_doses_equal(self):
        book = Codebook((FIXTURE.get("AL", 2020), FIXTURE.get("MN", 2020)))
        pairs = counterfactual_doses(book, TEMPLATES["identity"](), PRIOR,
                                     n_draws=8, seed=4)
        for pair in pairs:
            assert pair.d_reformed == pair.d_current

    def test_mi_doses_zero_without_preclearance(self):
        book = Codebook((FIXTURE.get("KS", 2020), FIXTURE.get("WI", 2020),
                         FIXTURE.get("OH", 2020)))
        pairs = counterfactual_doses(book, TEMPLATES["mi"](), PRIOR,
                                     n_draws=8, seed=4)
        for pair in pairs:
            assert pair.d_reformed == 0.0

    def test_oh_dose_between_mi_and_current_for_trifectas(self):
        book = Codebook((FIXTURE.get("WV", 2020), FIXTURE.get("IN", 2020),
                         FIXTURE.get("WI", 2010)))
        current = counterfactual_doses(book, TEMPLATES["identity"](), PRIOR,
                                       n_draws=8, seed=4, cycle=2020)
        oh = counterfactual_doses(book, TEMPLATES["oh"](), PRIOR,
                                  n_draws=8, seed=4, cycle=2020)
        mi = counterfactual_doses(book, TEMPLATES["mi"](), PRIOR,
                                  n_draws=8, seed=4, cycle=2020)
        for c, o, m in zip(current, oh, mi):
            assert abs(m.d_reformed) < abs(o.d_reformed) < abs(c.d_current)

    def test_skips_single_district_rows(self):
        single = make_process(state_id="WY", drawer=Drawer.NA,
                              drawer_control=PartyControl.NA,
                              court_review=CourtReview.NA,
                              court_control=PartyControl.NA,
                              stalemate1=Stalemate1.NA)
        book = Codebook((FIXTURE.get("KS", 2020), single))
        pairs = counterfactual_doses(book, TEMPLATES["identity"](), PRIOR,
                                     n_draws=3, seed=1)
        assert [p.state_id for p in pairs] == ["KS"]


class TestPredictNational:
    def test_identity_changes_nothing_per_draw(self):
        pairs = [DosePair("AA", 1.7, 1.7), DosePair("BB", -0.4, -0.4)]
        model = slope_only_model(np.linspace(0.1, 0.5, 40))
        baseline = Baseline(dem_seats=215.0, slope_seats_per_pp=8.0)
        prediction = predict_national(pairs, model, model, COVS, baseline)
        assert np.all(prediction.seat_change_draws == 0.0)
        assert np.all(prediction.slope_draws == 8.0)
        assert prediction.seats_votes_line == (215.0, 8.0)

    def test_national_change_is_sum_of_state_effects(self):
        rng = np.random.default_rng(44)
        model = manual_model(rng.normal(size=(60, 16)))
        pairs = [DosePair("AA", 3.0, 0.5), DosePair("BB", 1.0, -0.5)]
        baseline = Baseline(dem_seats=210.0, slope_seats_per_pp=7.5)
        prediction = predict_national(pairs, model, model, COVS, baseline)
        summed = sum(prediction.state_seat_effects[p.state_id].draws for p in pairs)
        assert np.array_equal(prediction.seat_change_draws, -summed)

    def test_seat_gain_increases_with_dose_reduction(self):
        # positive constant marginal effect on Republican seats: bigger dose
        # cuts mean bigger Democratic gains, draw by draw
        model = slope_only_model(np.linspace(0.05, 0.6, 30))
        baseline = Baseline(dem_seats=210.0, slope_seats_per_pp=7.5)
        reductions = (0.5, 1.5, 3.0)
        gains = []
        for r in reductions:
            pairs = [DosePair("AA", 3.5, 3.5 - r), DosePair("BB", 2.0, 2.0 - r)]
            prediction = predict_national(pairs, model, model, COVS, baseline)
            gains.append(prediction.seat_change_draws)
        assert np.all(gains[0] < gains[1])
        assert np.all(gains[1] < gains[2])

    def test_intervals_nested(self):
        rng = np.random.default_rng(45)
        model = manual_model(rng.normal(size=(200, 16)))
        pairs = [DosePair("AA", 2.0, 0.0)]
        prediction = predict_national(pairs, model, model, COVS,
                                      Baseline(215.0, 8.0))
        effect = prediction.total_dem_seat_change
        assert effect.ci95[0] <= effect.ci80[0] <= effect.ci80[1] <= effect.ci95[1]

    def test_missing_covariates_rejected(self):
        model = slope_only_model([0.3])
        with pytest.raises(DomainError):
            predict_national([DosePair("ZZ", 1.0, 0.0)], model, model, COVS,
                             Baseline(215.0, 8.0))

    def test_template_name_carried(self):
        model = slope_only_model([0.3, 0.4])
        pairs = [DosePair("AA", 1.0, 0.0)]
        assert predict_national(pairs, model, model, COVS, Baseline(215.0, 8.0),
                                template="mi").template == "mi"

    def test_mismatched_models_rejected(self):
        a = slope_only_model([0.3, 0.4])
        b = slope_only_model([0.3])
        with pytest.raises(DomainError):
            predict_national([DosePair("AA", 1.0, 0.0)], a, b, COVS,
                             Baseline(215.0, 8.0))
