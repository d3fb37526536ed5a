import re
import tracemalloc

import numpy as np
import pytest

from leeway.codebook import (Codebook, CourtReview, Drawer, PartyControl,
                             Stalemate1, Stalemate2, Veto1, Veto2,
                             load_fixture_codebook, validate)
from leeway.counterfactual import (TEMPLATES, Baseline, DosePair, ReformTemplate,
                                   StateCovariates, TemplateError, apply_template,
                                   counterfactual_doses, predict_national)
from leeway.errors import DomainError
from leeway.inference import Diagnostics, PosteriorDraws, cate_draws
from leeway.nature import PriorSpec
from leeway.solver import BatchContext, TreeKey, leeway, sample_draws

from test_codebook import make_process

PRIOR = PriorSpec.default()
FIXTURE = load_fixture_codebook()


def manual_model(coefficients):
    coefficients = np.asarray(coefficients, dtype=float)[None, :, :]
    diag = Diagnostics(rhat={}, ess={})
    return PosteriorDraws(coefficients=coefficients,
                          sigma=np.ones(coefficients.shape[:2]), diagnostics=diag)


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
        assert apply_template(row, TEMPLATES["identity"]) == row

    def test_idempotent(self):
        for key in (("AL", 2020), ("CA", 2020), ("OH", 2020), ("MN", 2020)):
            row = FIXTURE.get(*key)
            for name in ("identity", "mi", "ny", "oh"):
                template = TEMPLATES[name]
                once = apply_template(row, template)
                assert apply_template(once, template) == once

    def test_results_validate(self):
        for row in FIXTURE:
            for name in ("mi", "ny", "oh"):
                reformed = apply_template(row, TEMPLATES[name])
                assert validate(reformed) == [], (row.key, name)

    def test_ny_preserves_trifecta_control(self):
        row = FIXTURE.get("AL", 2020)  # Republican legislature and governor
        reformed = apply_template(row, TEMPLATES["ny"])
        assert reformed.veto1 is Veto1.LEGISLATURE
        assert reformed.veto1_control is PartyControl.REPUBLICANS
        assert reformed.veto2 is Veto2.GOVERNOR
        assert reformed.veto2_control is PartyControl.REPUBLICANS
        assert reformed.court_review is row.court_review

    def test_oh_reform_encodes_supermajority_and_backup(self):
        row = FIXTURE.get("WV", 2020)
        reformed = apply_template(row, TEMPLATES["oh"])
        assert reformed.drawer is Drawer.LEGISLATURE
        assert reformed.drawer_control is PartyControl.SPLIT
        assert reformed.stalemate1 is Stalemate1.COMMISSION
        assert reformed.stalemate1_control is PartyControl.SPLIT
        assert reformed.stalemate2 is Stalemate2.LEGISLATURE
        assert reformed.stalemate2_control is PartyControl.REPUBLICANS

    def test_oh_template_fixes_ohio_to_itself(self):
        row = FIXTURE.get("OH", 2020)
        assert apply_template(row, TEMPLATES["oh"]) == row

    def test_mi_template_zeroes_maximum_leeway(self):
        for key in (("WV", 2020), ("KS", 2020)):  # no preclearance exposure
            reformed = apply_template(FIXTURE.get(*key), TEMPLATES["mi"])
            scores = leeway(reformed, BatchContext(sample_draws(PRIOR, 2, 15)))
            assert scores.maximum == 0.0

    def test_mi_template_on_preclearance_state_keeps_small_vra_residue(self):
        reformed = apply_template(FIXTURE.get("AL", 2020), TEMPLATES["mi"])
        scores = leeway(reformed, BatchContext(sample_draws(PRIOR, 2, 15)))
        assert 0.0 < scores.maximum < 0.05

    def test_single_district_rejected(self):
        process = make_process(drawer=Drawer.NA, drawer_control=PartyControl.NA,
                               court_review=CourtReview.NA,
                               court_control=PartyControl.NA,
                               stalemate1=Stalemate1.NA)
        with pytest.raises(DomainError):
            apply_template(process, TEMPLATES["mi"])

    def test_custom_template_validation_failure(self):
        template = ReformTemplate("custom", lambda p: {"veto1": Veto1.NA})
        row = FIXTURE.get("AL", 2020)  # leaves veto1_control=Republicans behind
        with pytest.raises(TemplateError) as err:
            apply_template(row, template)
        assert err.value.rule == "control-without-body"


class TestDoses:
    def test_identity_doses_equal(self):
        book = Codebook((FIXTURE.get("AL", 2020), FIXTURE.get("MN", 2020)))
        pairs = counterfactual_doses(book, TEMPLATES["identity"],
                                     BatchContext(sample_draws(PRIOR, 4, 8)))
        for pair in pairs:
            assert pair.d_reformed == pair.d_current

    def test_mi_doses_zero_without_preclearance(self):
        book = Codebook((FIXTURE.get("KS", 2020), FIXTURE.get("WI", 2020),
                         FIXTURE.get("OH", 2020)))
        pairs = counterfactual_doses(book, TEMPLATES["mi"],
                                     BatchContext(sample_draws(PRIOR, 4, 8)))
        for pair in pairs:
            assert pair.d_reformed == 0.0

    def test_oh_dose_between_mi_and_current_for_trifectas(self):
        book = Codebook((FIXTURE.get("WV", 2020), FIXTURE.get("IN", 2020),
                         FIXTURE.get("WI", 2010)))
        batch = BatchContext(sample_draws(PRIOR, 4, 8))
        current = counterfactual_doses(book, TEMPLATES["identity"], batch)
        oh = counterfactual_doses(book, TEMPLATES["oh"], batch)
        mi = counterfactual_doses(book, TEMPLATES["mi"], batch)
        for c, o, m in zip(current, oh, mi):
            assert abs(m.d_reformed) < abs(o.d_reformed) < abs(c.d_current)

    def test_skips_single_district_rows(self):
        single = make_process(state_id="WY", drawer=Drawer.NA,
                              drawer_control=PartyControl.NA,
                              court_review=CourtReview.NA,
                              court_control=PartyControl.NA,
                              stalemate1=Stalemate1.NA)
        book = Codebook((FIXTURE.get("KS", 2020), single))
        pairs = counterfactual_doses(book, TEMPLATES["identity"],
                                     BatchContext(sample_draws(PRIOR, 1, 3)))
        assert [p.state_id for p in pairs] == ["KS"]


def dose_bytes(pairs) -> tuple:
    return [p.state_id for p in pairs], np.array([(p.d_current, p.d_reformed)
                                                  for p in pairs]).tobytes()


class TestSharedBatch:
    """Templates compared over one batch: the same draws, and each distinct tree solved once."""

    BOOK = FIXTURE.for_cycle(2020)
    NAMES = ("identity", "ny", "oh", "mi")

    def test_shared_batch_equals_one_batch_per_template(self):
        shared = BatchContext(sample_draws(PRIOR, 11, 25))
        for name in self.NAMES:
            alone = counterfactual_doses(self.BOOK, TEMPLATES[name],
                                         BatchContext(sample_draws(PRIOR, 11, 25)))
            together = counterfactual_doses(self.BOOK, TEMPLATES[name], shared)
            assert dose_bytes(together) == dose_bytes(alone), name

        keys = {TreeKey.of(process) for row in self.BOOK if row.drawer is not Drawer.NA
                for process in (row, *(apply_template(row, TEMPLATES[name])
                                       for name in self.NAMES))}
        solved = [key for members in shared.passes for key in members]
        assert len(solved) == len(set(solved)) == len(keys) == 41
        assert set(solved) == keys


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

    def test_no_pairs_rejected(self):
        model = slope_only_model([0.1, 0.2])
        with pytest.raises(DomainError, match="no dose pairs supplied"):
            predict_national([], model, model, COVS, Baseline(210.0, 7.5))

    @staticmethod
    def _many_states(n_states, seed=46):
        rng = np.random.default_rng(seed)
        covariates = {f"S{i:02d}": StateCovariates(*rng.uniform(-1, 3, 6),
                                                   int(rng.integers(1, 53)))
                      for i in range(n_states)}
        pairs = [DosePair(state, *rng.uniform(-2, 4, 2)) for state in covariates]
        return pairs, covariates

    @pytest.mark.parametrize("n_states", [1, 2, 15])
    def test_sums_match_stacked_state_effects_bitwise(self, n_states):
        # The running sums must keep every bit of numpy's axis-0 sum of the
        # stacked per-state effects, which is what the outputs were pinned to.
        rng = np.random.default_rng(n_states)
        seat = manual_model(rng.normal(size=(257, 16)))
        resp = manual_model(rng.normal(size=(257, 16)))
        pairs, covariates = self._many_states(n_states)
        baseline = Baseline(dem_seats=212.25, slope_seats_per_pp=7.3)
        prediction = predict_national(pairs, seat, resp, covariates, baseline)
        args = [(covariates[p.state_id].vector, p.d_current, p.d_reformed) for p in pairs]
        seats = np.stack([cate_draws(seat, *a) for a in args])
        slopes = np.stack([covariates[p.state_id].n_districts * cate_draws(resp, *a) / 100.0
                           for p, a in zip(pairs, args)])
        assert np.array_equal(prediction.slope_draws,
                              baseline.slope_seats_per_pp + slopes.sum(axis=0))
        assert np.array_equal(prediction.seat_change_draws, -seats.sum(axis=0))
        for p, row in zip(pairs, seats):
            assert np.array_equal(prediction.state_seat_effects[p.state_id].draws, row)

    def test_working_memory_is_seat_draws_plus_a_few_draw_vectors(self):
        # The (states x draws) seat draws are returned; anything else held
        # at once must be a few arrays of one value per draw, not a second
        # (states x draws) matrix.
        n_states, n_draws = 20, 20_000
        rng = np.random.default_rng(47)
        seat = manual_model(rng.normal(size=(n_draws, 16)))
        resp = manual_model(rng.normal(size=(n_draws, 16)))
        pairs, covariates = self._many_states(n_states)
        tracemalloc.start()
        try:
            predict_national(pairs, seat, resp, covariates, Baseline(215.0, 8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n_states + 10) * n_draws * 8

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

    @pytest.mark.parametrize("seat_slope,resp_slope,baseline,quantity", [
        (1e308, 0.1, Baseline(215.0, 8.0), "seat effect of AA"),
        (0.1, 1e308, Baseline(215.0, 8.0), "responsiveness effect of AA"),
        (0.8e308, 0.1, Baseline(215.0, 8.0), "national seat change"),
        (1e308 / 4, 0.1, Baseline(1.7e308, 8.0), "seats-votes intercept"),
        (0.1, 1e307, Baseline(215.0, -1.79e308), "responsiveness slope"),
    ], ids=["seat-effect", "responsiveness-effect", "seat-change", "intercept", "slope"])
    def test_overflow_names_the_quantity(self, seat_slope, resp_slope, baseline, quantity):
        # One draw, so each mean is its draw: AA's dose falls by 2 and BB's
        # by 1, and each case overflows first at the quantity it names.
        pairs = [DosePair("AA", 2.0, 0.0), DosePair("BB", 1.0, 0.0)]
        with pytest.raises(DomainError, match=rf"^{quantity} overflows"):
            predict_national(pairs, slope_only_model([seat_slope]),
                             slope_only_model([resp_slope]), COVS, baseline)

    def test_mismatched_models_rejected(self):
        a = slope_only_model([0.3, 0.4])
        b = slope_only_model([0.3])
        with pytest.raises(DomainError):
            predict_national([DosePair("AA", 1.0, 0.0)], a, b, COVS,
                             Baseline(215.0, 8.0))


class TestStateCovariates:
    @pytest.mark.parametrize("changes,message", [
        ({"n_districts": -7}, "n_districts=-7 must be an int of at least 1"),
        ({"n_districts": 0}, "n_districts=0 must be an int of at least 1"),
        ({"n_districts": 2.5}, "n_districts=2.5 must be an int"),
        ({"n_districts": True}, "n_districts=True must be an int"),
        ({"dem08": float("nan")}, "dem08=nan is not a finite number"),
        ({"log_corrupt": float("inf")}, "log_corrupt=inf is not a finite number"),
        ({"south": "1"}, "south='1' is not a finite number"),
    ])
    def test_bad_field_rejected_naming_it(self, changes, message):
        values = {"dem08": 0.5, "south": 0, "log_seats": 2, "delta_seats": 0,
                  "log_corrupt": 1, "initiative": 0, "n_districts": 8, **changes}
        with pytest.raises(DomainError, match=re.escape(message)):
            StateCovariates(**values)

    def test_valid_covariates_construct(self):
        cov = StateCovariates(0.5, 0, 2, 0, 1, 0, n_districts=1)
        assert cov.vector.tolist() == [0.5, 0.0, 2.0, 0.0, 1.0, 0.0]
