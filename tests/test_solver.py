import dataclasses

import numpy as np
import pytest

from leeway import nature
from leeway.codebook import (CourtReview, Drawer, FinalDrawer, PartyControl,
                             Stalemate1, Stalemate2, Veto1, Veto2,
                             load_fixture_codebook)
from leeway.errors import DomainError, NotApplicable
from leeway.nature import (GameParameters, PriorSpec, exp_court, CourtContext,
                           sample_parameters, stack_parameters)
from leeway.solver import (STALEMATE, ControlAssignment, OptimizationGrid, _argopt,
                           _TreeEvaluator, brute_force_solve, equilibrium_matrix, leeway,
                           leeway_table, pairwise_spearman_mean, path_table,
                           sample_draws, solve, solve_batch, spearman_stability)

from test_codebook import make_process

PRIOR = PriorSpec.default()
MEAN = PRIOR.mean()
FIXTURE = load_fixture_codebook()
COARSE = OptimizationGrid(step=2.0, refine=False)


def realized(process):
    return ControlAssignment.realized(process)


class TestGrid:
    def test_default_has_161_points(self):
        points = OptimizationGrid().points()
        assert len(points) == 161
        assert points[0] == -4.0 and points[-1] == 4.0

    def test_points_exactly_symmetric(self):
        points = OptimizationGrid(step=0.05).points()
        assert np.array_equal(points, -points[::-1])

    def test_refine_points_symmetric_and_clipped(self):
        grid = OptimizationGrid()
        fine = grid.refine_points(4.0)
        assert fine.max() == 4.0
        left = grid.refine_points(-1.25)
        right = grid.refine_points(1.25)
        assert np.array_equal(left, -right[::-1])

    def test_bad_step_rejected(self):
        for step in (0.0, -0.05, 4.5, float("nan")):
            with pytest.raises(DomainError, match=f"grid step {step} out of range"):
                OptimizationGrid(step=step)


class TestAssignment:
    def test_uniform_overrides_partisan_nodes_only(self):
        process = FIXTURE.get("AL", 2020)
        uniform = ControlAssignment.uniform(process, PartyControl.DEMOCRATS)
        assert uniform.drawer is PartyControl.DEMOCRATS
        assert uniform.veto1 is PartyControl.DEMOCRATS
        assert uniform.court is process.court_control  # court never reassigned

    def test_uniform_leaves_nonpartisan_and_split(self):
        process = FIXTURE.get("OH", 2020)  # split drawer, split backup commission
        uniform = ControlAssignment.uniform(process, PartyControl.DEMOCRATS)
        assert uniform.drawer is PartyControl.SPLIT
        assert uniform.stalemate1 is PartyControl.SPLIT
        assert uniform.stalemate2 is PartyControl.DEMOCRATS

    def test_uniform_requires_major_party(self):
        with pytest.raises(DomainError):
            ControlAssignment.uniform(FIXTURE.get("AL", 2020), PartyControl.SPLIT)


class TestSolveExamples:
    def test_nonpartisan_commission_fixed_point(self):
        process = FIXTURE.get("MI", 2020)
        for i in range(20):
            theta = sample_parameters(PRIOR, 3, i)
            assert solve(process, realized(process), theta).value == 0.0

    def test_alabama_at_prior_mean(self):
        process = FIXTURE.get("AL", 2020)
        result = solve(process, realized(process), MEAN)
        assert result.round2_proposal == 4.0
        assert 0.0 < result.veto_thresholds["round2_veto1"] < 1.0
        assert 2.0 <= result.value <= 3.5

    def test_full_mirror_negates_exactly(self):
        process = make_process(veto1=Veto1.GOVERNOR,
                               veto1_control=PartyControl.REPUBLICANS,
                               court_review=CourtReview.MAYBE,
                               court_control=PartyControl.REPUBLICANS)
        mirrored = process.mirrored()
        for i in range(10):
            theta = sample_parameters(PRIOR, 11, i)
            v = solve(process, realized(process), theta).value
            w = solve(mirrored, realized(mirrored), theta).value
            assert w == -v

    def test_single_district_not_applicable(self):
        process = make_process(drawer=Drawer.NA, drawer_control=PartyControl.NA,
                               court_review=CourtReview.NA,
                               court_control=PartyControl.NA,
                               stalemate1=Stalemate1.NA,
                               final_drawer=FinalDrawer.NA)
        with pytest.raises(NotApplicable):
            solve(process, ControlAssignment.realized(process), MEAN)

    def test_malformed_assignment_rejected(self):
        process = FIXTURE.get("AL", 2020)
        with pytest.raises(DomainError):
            solve(process, "not-an-assignment", MEAN)

    def test_value_bounds_and_path_mass(self):
        for row in FIXTURE:
            theta = sample_parameters(PRIOR, 5, 1)
            result = solve(row, realized(row), theta)
            assert -4.0 <= result.value <= 4.0
            total = sum(result.path_probs.values())
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= p <= 1.0 for p in result.path_probs.values())


class TestBatch:
    def test_batch_equals_per_draw_solve_on_fixture(self):
        thetas = [sample_parameters(PRIOR, 61, i) for i in range(7)]
        batch = stack_parameters(thetas)
        for row in FIXTURE:
            if row.drawer is Drawer.NA:
                continue
            for assignment in (realized(row),
                               ControlAssignment.uniform(row, PartyControl.DEMOCRATS),
                               ControlAssignment.uniform(row, PartyControl.REPUBLICANS)):
                solved = solve_batch(row, assignment, batch)
                assert solved.values.shape == (len(thetas),)
                for d, theta in enumerate(thetas):
                    got, want = solved.result(d), solve(row, assignment, theta)
                    assert got.value == want.value, row.key
                    assert got.path_probs == want.path_probs, row.key
                    assert got.round2_proposal == want.round2_proposal, row.key
                    assert got.veto_thresholds == want.veto_thresholds, row.key

    def test_veto_thresholds_are_worked_out_when_read(self):
        # IA 2020: a nonpartisan commission draws and the partisan governor
        # and legislature can veto, so the base grid is evaluated only for
        # the thresholds.
        row = FIXTURE.get("IA", 2020)
        batch = stack_parameters([sample_parameters(PRIOR, 63, i) for i in range(4)])
        solved = solve_batch(row, realized(row), batch)
        assert solved.decisions == {}
        thresholds = solved.veto_thresholds
        assert thresholds.shape == (4, 4)
        assert set(solved.decisions) == {"round1_veto1", "round1_veto2",
                                         "round2_veto1", "round2_veto2"}
        for d in range(4):
            want = solve(row, realized(row), sample_parameters(PRIOR, 63, d))
            assert solved.result(d).veto_thresholds == want.veto_thresholds
            assert any(t is not None for t in want.veto_thresholds.values())

    def test_no_veto_subgame_without_a_veto(self, monkeypatch):
        # With every veto node absent or split, a proposal is never vetoed,
        # so the round-2 subgame is never evaluated.
        calls = []
        monkeypatch.setattr(_TreeEvaluator, "round2",
                            lambda self, *args: calls.append(args) or 0.0)
        batch = stack_parameters([sample_parameters(PRIOR, 62, i) for i in range(3)])
        solved = 0
        for row in FIXTURE:
            if row.drawer is Drawer.NA:
                continue
            for assignment in (realized(row),
                               ControlAssignment.uniform(row, PartyControl.DEMOCRATS)):
                if _TreeEvaluator(row, assignment, batch, OptimizationGrid()).can_veto:
                    continue
                solve_batch(row, assignment, batch)
                solved += 1
        assert solved > 0
        assert calls == []

    def test_cauchy_quantiles_once_per_batch(self, monkeypatch):
        # The curve coefficients depend only on the draws: two quantiles for
        # each of the challenge, intervention and VRA curves, shared by
        # every row and assignment solved over the batch.
        calls = []
        real = nature.cauchy_quantile
        monkeypatch.setattr(nature, "cauchy_quantile", lambda p: calls.append(p) or real(p))
        batch = sample_draws(PRIOR, 64, 5)
        row = FIXTURE.get("AL", 2020)  # precleared, so the VRA curve is read
        solve_batch(row, realized(row), batch)
        assert len(calls) == 6
        for row in FIXTURE:
            if row.drawer is not Drawer.NA:
                solve_batch(row, ControlAssignment.uniform(row, PartyControl.DEMOCRATS), batch)
        assert len(calls) == 6

    def test_base_grid_court_evaluated_once_per_tree(self, monkeypatch):
        # IN 2020: a Republican legislature drafts behind a Republican
        # governor's veto and a Republican commission resolves stalemates,
        # so the round-1, round-2 and resolver optimizers all start on the
        # base grid.
        base = OptimizationGrid().points()[None, :]
        calls = []
        real = nature.exp_court

        def counting(x, ctx, theta):
            calls.append(np.shape(x) == base.shape and np.array_equal(x, base))
            return real(x, ctx, theta)

        monkeypatch.setattr(nature, "exp_court", counting)
        batch = sample_draws(PRIOR, 65, 4)
        per_tree = {}
        for row in FIXTURE:
            if row.drawer is Drawer.NA:
                continue
            for assignment in (realized(row),
                               ControlAssignment.uniform(row, PartyControl.DEMOCRATS)):
                calls.clear()
                solve_batch(row, assignment, batch).veto_thresholds
                per_tree[row.key, assignment] = sum(calls)
        assert per_tree[("IN", 2020), realized(FIXTURE.get("IN", 2020))] == 1
        assert max(per_tree.values()) == 1

    def test_vra_curve_read_only_for_precleared_rows(self):
        # A VRA challenge probability of 0 is outside the Cauchy curve's
        # domain. Only a precleared state reads that curve.
        draws = sample_draws(PRIOR, 66, 3)
        batch = dataclasses.replace(draws, vra_chal_prob_bias0=np.zeros((3, 1)))
        precleared, exempt = FIXTURE.get("AL", 2020), FIXTURE.get("WI", 2020)
        with pytest.raises(DomainError, match="cauchy_quantile"):
            solve_batch(precleared, realized(precleared), batch)
        solved = solve_batch(exempt, realized(exempt), batch)
        assert np.array_equal(solved.values, solve_batch(exempt, realized(exempt), draws).values)
        with pytest.raises(DomainError, match="cauchy_quantile"):
            solve_batch(precleared, realized(precleared), batch)

    def test_argopt_breaks_ties_per_row(self):
        # Row 0 ties at its maximum (indices 1 and 3), row 1 at its
        # minimum (indices 0 and 2).
        values = np.array([[0.0, 2.0, 1.0, 2.0, -1.0],
                           [-3.0, 1.0, -3.0, 0.5, 2.0]])
        rep = _argopt(values, PartyControl.REPUBLICANS)
        dem = _argopt(values, PartyControl.DEMOCRATS)
        assert rep.tolist() == [3, 4]  # last among ties at the maximum
        assert dem.tolist() == [4, 0]  # first among ties at the minimum
        assert _argopt(-values, PartyControl.DEMOCRATS).tolist() == [1, 4]
        assert _argopt(-values, PartyControl.REPUBLICANS).tolist() == [4, 2]


class TestBruteForce:
    @staticmethod
    def _unconstrained_theta():
        # chal_poss_conf = 1 kills the partisan channel for no-review states.
        return dataclasses.replace(MEAN, chal_poss_conf=1.0)

    def test_single_node_republican_maximizes(self):
        process = make_process(court_review=CourtReview.NO,
                               court_control=PartyControl.NA)
        value = brute_force_solve(process, realized(process),
                                  self._unconstrained_theta(), COARSE)
        assert value == 4.0

    def test_single_node_democrat_minimizes(self):
        process = make_process(drawer_control=PartyControl.DEMOCRATS,
                               court_review=CourtReview.NO,
                               court_control=PartyControl.NA)
        value = brute_force_solve(process, realized(process),
                                  self._unconstrained_theta(), COARSE)
        assert value == -4.0

    def test_matches_solver_on_coarse_grid(self):
        rng = np.random.default_rng(20)
        rows = list(FIXTURE)
        for _ in range(20):
            row = rows[rng.integers(len(rows))]
            theta = sample_parameters(PRIOR, 2024, int(rng.integers(10**6)))
            fast = solve(row, realized(row), theta, COARSE).value
            slow = brute_force_solve(row, realized(row), theta, COARSE)
            assert fast == pytest.approx(slow, abs=1e-9), row.key

    def test_grid_size_guard(self):
        with pytest.raises(DomainError):
            brute_force_solve(FIXTURE.get("AL", 2020), realized(FIXTURE.get("AL", 2020)),
                              MEAN, OptimizationGrid(step=0.5))


class TestInvariants:
    def test_grid_refinement_stability(self):
        fine = OptimizationGrid(step=0.025)
        for row in FIXTURE:
            for i in range(2):
                theta = sample_parameters(PRIOR, 41, i)
                coarse_value = solve(row, realized(row), theta).value
                fine_value = solve(row, realized(row), theta, fine).value
                assert abs(coarse_value - fine_value) < 0.01, row.key

    def test_zero_sum_mirror_non_preclearance(self):
        for row in FIXTURE:
            if row.preclearance:
                continue
            mirrored = row.mirrored()
            for i in range(3):
                theta = sample_parameters(PRIOR, 43, i)
                v = solve(row, realized(row), theta).value
                w = solve(mirrored, realized(mirrored), theta).value
                assert v == -w, row.key

    def test_monotone_in_control(self):
        for row in FIXTURE:
            for i in range(2):
                theta = sample_parameters(PRIOR, 47, i)
                vr = solve(row, ControlAssignment.uniform(row, PartyControl.REPUBLICANS),
                           theta).value
                vx = solve(row, realized(row), theta).value
                vd = solve(row, ControlAssignment.uniform(row, PartyControl.DEMOCRATS),
                           theta).value
                assert vr >= vx >= vd, row.key

    def test_decisions_invariant_to_positive_scaling(self):
        # Optimal choices depend only on value comparisons: scaling every
        # continuation by a positive constant never flips a comparison.
        from leeway.nature import party_sign
        rng = np.random.default_rng(1)
        for _ in range(200):
            accept, veto = rng.normal(size=2)
            scale = rng.uniform(0.1, 10.0)
            for party in (PartyControl.REPUBLICANS, PartyControl.DEMOCRATS):
                base = party_sign(party) * (veto - accept) > 0
                scaled = party_sign(party) * (scale * veto - scale * accept) > 0
                assert base == scaled


class TestLeeway:
    def test_table_matches_per_row_scores(self):
        table = leeway_table(FIXTURE, PRIOR, n_draws=3, seed=1)
        solvable = [row for row in FIXTURE if row.drawer is not Drawer.NA]
        assert [row for row, _ in table] == solvable
        for row, scores in table:
            assert scores == leeway(row, PRIOR, n_draws=3, seed=1)

    def test_michigan_maximum_zero(self):
        scores = leeway(FIXTURE.get("MI", 2020), PRIOR, n_draws=30, seed=9)
        assert scores.maximum == 0.0
        assert scores.realized == 0.0

    def test_republican_trifecta_nearly_unconstrained(self):
        process = FIXTURE.get("WI", 2010)  # legislature+governor R, no review
        grid = OptimizationGrid(refine=False)
        scores = leeway(process, PRIOR, n_draws=40, seed=13, grid=grid)
        # oracle: per draw, the optimum of the post-enactment expectation
        # over the same grid (no veto or stalemate branch binds)
        ctx = CourtContext(process.court_review, process.court_control, process.preclearance)
        points = grid.points()
        expected = np.mean([exp_court(points, ctx, sample_parameters(PRIOR, 13, i)).value.max()
                            for i in range(40)])
        assert scores.realized == pytest.approx(expected, abs=1e-9)
        assert scores.realized > 3.5

    def test_deterministic(self):
        row = FIXTURE.get("OH", 2020)
        a = leeway(row, PRIOR, n_draws=5, seed=3)
        b = leeway(row, PRIOR, n_draws=5, seed=3)
        assert a == b

    def test_single_district_raises(self):
        process = make_process(drawer=Drawer.NA, drawer_control=PartyControl.NA,
                               court_review=CourtReview.NA,
                               court_control=PartyControl.NA,
                               stalemate1=Stalemate1.NA,
                               final_drawer=FinalDrawer.NA)
        with pytest.raises(NotApplicable):
            leeway(process, PRIOR, n_draws=1)


class TestPathTable:
    def test_fixture_mass_conservation(self):
        table = path_table(FIXTURE, PRIOR, n_draws=10, seed=21)
        for key, probs in table.state_probs.items():
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9), key
        cross = table.cross_tab()
        grand = sum(sum(c.values()) for c in cross.values())
        assert grand == pytest.approx(len(FIXTURE), abs=1e-6)

    def test_no_review_legislature_state_stays_legislative(self):
        # oracle: survival mass of the per-draw optimal proposal, computed
        # directly from the post-enactment mixture
        from leeway.codebook import Codebook
        process = FIXTURE.get("KS", 2020)  # no vetoes, no review, no preclearance
        book = Codebook((process,))
        n_draws = 40
        grid = OptimizationGrid(refine=False)
        table = path_table(book, PRIOR, n_draws=n_draws, seed=33, grid=grid)
        probs = table.state_probs[("KS", 2020)]

        ctx = CourtContext(process.court_review, process.court_control, process.preclearance)
        points = grid.points()
        survive = []
        for i in range(n_draws):
            theta = sample_parameters(PRIOR, 33, i)
            r = exp_court(points, ctx, theta)
            best = np.nonzero(r.value == r.value.max())[0][-1]
            survive.append(r.pr_survive[best])
        assert probs["legislature"] == pytest.approx(np.mean(survive), abs=1e-9)
        assert probs["legislature"] > 0.8

    def test_pooled_in_draw_order(self):
        # 20 draws is past numpy's pairwise-summation block, which the
        # golden digests at 6 draws cannot see: the pooled mass must equal
        # the sequential sum over draws of one-draw solves, bitwise.
        n_draws = 20
        table = path_table(FIXTURE, PRIOR, n_draws=n_draws, seed=23)
        thetas = [sample_parameters(PRIOR, 23, i) for i in range(n_draws)]
        for row in FIXTURE:
            pooled = dict.fromkeys(("legislature", "commission", "court"), 0.0)
            for theta in thetas:
                for bucket, p in solve(row, realized(row), theta).path_probs.items():
                    pooled[bucket] += p
            want = {bucket: total / n_draws for bucket, total in pooled.items()}
            assert table.state_probs[row.key] == want, row.key

    def test_modal_buckets(self):
        table = path_table(FIXTURE, PRIOR, n_draws=10, seed=21)
        assert table.modal(("MI", 2020)) == "commission"
        assert table.modal(("IN", 2020)) == "legislature"
        assert table.actual[("NC", 2020)] == "court"


class TestSpearman:
    def test_identical_rows_correlate_perfectly(self):
        matrix = np.tile(np.array([1.0, 3.0, 2.0, 5.0, 4.0]), (4, 1))
        assert pairwise_spearman_mean(matrix) == pytest.approx(1.0)

    def test_reversed_row_anticorrelates(self):
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        matrix = np.stack([base, base[::-1]])
        assert pairwise_spearman_mean(matrix) == pytest.approx(-1.0)

    def test_fixture_stability(self):
        rho = spearman_stability(FIXTURE, PRIOR, n_draws=25, seed=51)
        assert rho >= 0.95

    def test_requires_enough_draws(self):
        with pytest.raises(DomainError):
            spearman_stability(FIXTURE, PRIOR, n_draws=1)

    def test_codebook_without_solvable_rows(self):
        from leeway.codebook import Codebook
        process = make_process(drawer=Drawer.NA, drawer_control=PartyControl.NA,
                               court_review=CourtReview.NA,
                               court_control=PartyControl.NA,
                               stalemate1=Stalemate1.NA,
                               final_drawer=FinalDrawer.NA)
        book = Codebook((process,))
        assert equilibrium_matrix(book, PRIOR, n_draws=3).shape == (3, 0)
        with pytest.raises(DomainError, match="at least 5 states"):
            spearman_stability(book, PRIOR, n_draws=3)
