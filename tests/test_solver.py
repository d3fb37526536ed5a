import dataclasses
import hashlib
import inspect
import itertools
import json
import re

import numpy as np
import pytest
from scipy import stats

from leeway import cli, nature, solver
from leeway.codebook import (Codebook, CourtReview, Drawer, FinalDrawer, InvariantViolation,
                             PartyControl, Stalemate1, Veto1, Veto2,
                             load_fixture_codebook, validate)
from leeway.counterfactual import TEMPLATES, apply_template, counterfactual_doses
from leeway.errors import DomainError, NotApplicable
from leeway.nature import (GameParameters, PriorSpec, exp_court, CourtContext,
                           sample_parameters, stack_parameters)
from leeway.solver import (STALEMATE, BatchContext, OptimizationGrid, TreeKey, _argopt,
                           _average_ranks, _TreeEvaluator, brute_force_solve,
                           equilibrium_matrix, leeway, leeway_table, pairwise_spearman_mean,
                           path_table, sample_draws, solve, spearman_stability, uniform_control)

from test_codebook import make_process
from test_fuzz import random_process

PRIOR = PriorSpec.default()
MEAN = PRIOR.mean()
FIXTURE = load_fixture_codebook()
SINGLE_DISTRICT = make_process(state_id="WY", drawer=Drawer.NA, drawer_control=PartyControl.NA,
                               court_review=CourtReview.NA, court_control=PartyControl.NA,
                               stalemate1=Stalemate1.NA, final_drawer=FinalDrawer.NA)
COARSE = OptimizationGrid(step=2.0, refine=False)


def emitted_record(head: str, tail: str) -> str:
    """A diagnostics record of state "S", cycle 2020, from one draw's text of the tree."""
    return '{"cycle": 2020, "draw": ' + head + '"S"' + tail


def dumped_record(result, d: int) -> str:
    """The same record as json.dumps writes it from the EquilibriumResult of draw d."""
    return json.dumps({**dataclasses.asdict(result), "state": "S", "cycle": 2020, "draw": d},
                      sort_keys=True)


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
        # Below 0.001 a grid would take more memory than a solve should.
        for step in (0.0, -0.05, 4.5, float("nan"), 1e-9, 0.0009):
            with pytest.raises(DomainError, match=f"grid step {step} out of range"):
                OptimizationGrid(step=step)
        assert len(OptimizationGrid(step=0.001).points()) == 8001


class TestAssignment:
    def test_uniform_overrides_partisan_nodes_only(self):
        process = FIXTURE.get("AL", 2020)
        uniform = uniform_control(process, PartyControl.DEMOCRATS)
        assert uniform.drawer_control is PartyControl.DEMOCRATS
        assert uniform.veto1_control is PartyControl.DEMOCRATS
        assert uniform.court_control is process.court_control  # court never reassigned
        assert uniform.court_control is PartyControl.REPUBLICANS

    def test_uniform_leaves_nonpartisan_and_split(self):
        process = FIXTURE.get("OH", 2020)  # split drawer, split backup commission
        uniform = uniform_control(process, PartyControl.DEMOCRATS)
        assert uniform.drawer_control is PartyControl.SPLIT
        assert uniform.stalemate1_control is PartyControl.SPLIT
        assert uniform.stalemate2_control is PartyControl.DEMOCRATS

    def test_uniform_requires_major_party(self):
        with pytest.raises(DomainError, match="uniform control requires a major party"):
            uniform_control(FIXTURE.get("AL", 2020), PartyControl.SPLIT)


class TestSolveExamples:
    def test_nonpartisan_commission_fixed_point(self):
        process = FIXTURE.get("MI", 2020)
        for i in range(20):
            theta = sample_parameters(PRIOR, 3, i)
            assert solve(process, theta).value == 0.0

    def test_alabama_at_prior_mean(self):
        process = FIXTURE.get("AL", 2020)
        result = solve(process, MEAN)
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
            v = solve(process, theta).value
            w = solve(mirrored, theta).value
            assert w == -v

    def test_single_district_not_applicable(self):
        with pytest.raises(NotApplicable):
            solve(SINGLE_DISTRICT, MEAN)

    def test_value_bounds_and_path_mass(self):
        for row in FIXTURE:
            theta = sample_parameters(PRIOR, 5, 1)
            result = solve(row, theta)
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
            for process in (row, uniform_control(row, PartyControl.DEMOCRATS),
                            uniform_control(row, PartyControl.REPUBLICANS)):
                solved = BatchContext(batch).solve(process)
                assert solved.values.shape == (len(thetas),)
                for d, theta in enumerate(thetas):
                    got, want = solved.result(d), solve(process, theta)
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
        solved = BatchContext(batch).solve(row)
        assert solved.decisions == {}
        thresholds = solved.veto_thresholds
        assert thresholds.shape == (4, 4)
        assert set(solved.decisions) == {"round1_veto1", "round1_veto2",
                                         "round2_veto1", "round2_veto2"}
        for d in range(4):
            want = solve(row, sample_parameters(PRIOR, 63, d))
            assert solved.result(d).veto_thresholds == want.veto_thresholds
            assert any(t is not None for t in want.veto_thresholds.values())

    def test_no_veto_subgame_without_a_veto(self, monkeypatch):
        # With every veto node absent or split, a proposal is never vetoed,
        # so the round-2 subgame is never evaluated.
        calls, drawer = [], _TreeEvaluator.drawer

        def counted(self, round_, *args):
            if round_ == 2:
                calls.append(args)
            return drawer(self, round_, *args)

        monkeypatch.setattr(_TreeEvaluator, "drawer", counted)
        batch = stack_parameters([sample_parameters(PRIOR, 62, i) for i in range(3)])
        solved = 0
        for row in FIXTURE:
            if row.drawer is Drawer.NA:
                continue
            for process in (row, uniform_control(row, PartyControl.DEMOCRATS)):
                key = TreeKey.of(process)
                if _TreeEvaluator([key], batch, OptimizationGrid(), {}).can_veto:
                    continue
                BatchContext(batch).solve(process)
                solved += 1
        assert solved > 0
        assert calls == []

    def test_cauchy_quantiles_once_per_batch(self, monkeypatch):
        # The curve coefficients depend only on the draws: two quantiles for
        # each of the challenge, intervention and VRA curves, shared by
        # every process solved over the batch.
        calls = []
        real = nature.cauchy_quantile
        monkeypatch.setattr(nature, "cauchy_quantile", lambda p: calls.append(p) or real(p))
        batch = sample_draws(PRIOR, 64, 5)
        row = FIXTURE.get("AL", 2020)  # precleared, so the VRA curve is read
        BatchContext(batch).solve(row)
        assert len(calls) == 6
        for row in FIXTURE:
            if row.drawer is not Drawer.NA:
                BatchContext(batch).solve(uniform_control(row, PartyControl.DEMOCRATS))
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
            for process in (row, uniform_control(row, PartyControl.DEMOCRATS)):
                calls.clear()
                BatchContext(batch).solve(process).veto_thresholds
                per_tree[process] = sum(calls)
        assert per_tree[FIXTURE.get("IN", 2020)] == 1
        assert max(per_tree.values()) == 1

    def test_vra_curve_read_only_for_precleared_rows(self):
        # A VRA challenge probability of 0 is outside the Cauchy curve's
        # domain. Only a precleared state reads that curve.
        draws = sample_draws(PRIOR, 66, 3)
        batch = dataclasses.replace(draws, vra_chal_prob_bias0=np.zeros((3, 1)))
        precleared, exempt = FIXTURE.get("AL", 2020), FIXTURE.get("WI", 2020)
        message = r"vra_chal_prob_bias0=0\.0 at draw 0: a curve probability must lie strictly"
        with pytest.raises(DomainError, match=message):
            BatchContext(batch).solve(precleared)
        solved = BatchContext(batch).solve(exempt)
        assert np.array_equal(solved.values, BatchContext(draws).solve(exempt).values)
        with pytest.raises(DomainError, match=message):
            BatchContext(batch).solve(precleared)

    def test_diagnostic_fields_equal_per_draw_results(self):
        # result(d) must equal the arrays read one draw at a time, with NaN as
        # None and a drawer stalemate as STALEMATE, and the text that
        # `leeway --emit-diagnostics` writes from the whole arrays must equal
        # json.dumps of result(d). No fixture row stalemates in round 2; a
        # Democratic drawer facing a Republican governor, with a court
        # breaking stalemates, does.
        batch = sample_draws(PRIOR, 61, 6)
        rows = [row for row in FIXTURE if row.drawer is not Drawer.NA]
        rows.append(make_process(drawer_control=PartyControl.DEMOCRATS, veto1=Veto1.GOVERNOR,
                                 veto1_control=PartyControl.REPUBLICANS,
                                 stalemate1=Stalemate1.COURT, court_review=CourtReview.YES,
                                 court_control=PartyControl.DEMOCRATS))

        def scalar(x):
            return None if np.isnan(x) else float(x)

        seen = set()
        for row in (*rows, *(row.mirrored() for row in rows)):
            for process in (row, uniform_control(row, PartyControl.DEMOCRATS),
                            uniform_control(row, PartyControl.REPUBLICANS)):
                solved = BatchContext(batch).solve(process)
                fields = cli._diagnostic_fields(solved)
                assert len(fields) == 6
                for d, (head, tail) in enumerate(fields):
                    result = solved.result(d)
                    want_round2 = (STALEMATE if solved.stalemates[d]
                                   else scalar(solved.round2_proposal[d]))
                    assert type(result.value) is float and result.value == solved.values[d]
                    assert result.path_probs == dict(zip(("legislature", "commission", "court"),
                                                         map(float, solved.path_probs[d])))
                    assert type(result.round2_proposal) is type(want_round2)
                    assert result.round2_proposal == want_round2
                    assert result.veto_thresholds == {key: scalar(t) for key, t in zip(
                        ("round1_veto1", "round1_veto2", "round2_veto1", "round2_veto2"),
                        solved.veto_thresholds[d])}
                    assert emitted_record(head, tail) == dumped_record(result, d), process.key
                    seen.add("stalemate" if result.round2_proposal == STALEMATE
                             else type(result.round2_proposal))
                    seen.update(type(t) for t in result.veto_thresholds.values())
        assert seen == {"stalemate", float, type(None)}

    def test_argopt_breaks_ties_per_row(self):
        # Row 0 ties at its maximum (indices 1 and 3), row 1 at its
        # minimum (indices 0 and 2). A sign is one float for every row or
        # one per row.
        values = np.array([[0.0, 2.0, 1.0, 2.0, -1.0],
                           [-3.0, 1.0, -3.0, 0.5, 2.0]])
        rep, dem = nature.party_sign(PartyControl.REPUBLICANS), -1.0
        assert _argopt(values, rep).tolist() == [3, 4]  # last among ties at the maximum
        assert _argopt(values, dem).tolist() == [4, 0]  # first among ties at the minimum
        assert _argopt(-values, dem).tolist() == [1, 4]
        assert _argopt(-values, rep).tolist() == [4, 2]
        assert _argopt(values, np.array([[rep], [dem]])).tolist() == [3, 0]
        assert _argopt(-values, np.array([[dem], [rep]])).tolist() == [1, 2]


class TestSampleDraws:
    @pytest.mark.parametrize("prior", [
        PRIOR,
        PRIOR.with_overrides({"stale_slope": {"dist": "beta", "params": [2.0, 2.0]},
                              "veto_nonp_shift": {"dist": "folded_normal",
                                                  "params": [0.5, 0.2]}}),
        PriorSpec(tuple(reversed(PRIOR.dists))),
    ], ids=["default", "override", "reordered"])
    def test_bitwise_equal_to_stacked_single_draws(self, prior):
        batch = sample_draws(prior, 71, 9)
        want = stack_parameters([sample_parameters(prior, 71, i) for i in range(9)])
        for name in nature.PARAM_NAMES:
            got, expected = getattr(batch, name), getattr(want, name)
            assert got.shape == expected.shape == (9, 1) and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), name

    def test_batch_checked_once(self, monkeypatch):
        checks = []
        real = GameParameters.__post_init__
        monkeypatch.setattr(GameParameters, "__post_init__",
                            lambda self: checks.append(1) or real(self))
        sample_draws(PRIOR, 71, 9)
        assert len(checks) == 1

    def test_absurd_draw_count_rejected_before_drawing(self, monkeypatch):
        # 19 columns of 2**61 draws need 2**68 bytes; numpy refuses any size
        # above 2**63 bytes before it touches memory.
        monkeypatch.setattr(nature, "_prior_draw", lambda *args: pytest.fail("drew"))
        with pytest.raises(DomainError, match=r"^2305843009213693952 prior draws \(--draws\): "
                                              r"350,488,137,400,481,480,704 bytes cannot be "
                                              "allocated$"):
            sample_draws(PRIOR, 0, 2**61)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed -1"):
            sample_draws(PRIOR, -1, 3)
        with pytest.raises(DomainError, match="seed -1"):
            sample_parameters(PRIOR, -1, 0)


class TestBruteForce:
    @staticmethod
    def _unconstrained_theta():
        # chal_poss_conf = 1 kills the partisan channel for no-review states.
        return dataclasses.replace(MEAN, chal_poss_conf=1.0)

    def test_single_node_republican_maximizes(self):
        process = make_process(court_review=CourtReview.NO,
                               court_control=PartyControl.NA)
        value = brute_force_solve(process, self._unconstrained_theta(), COARSE)
        assert value == 4.0

    def test_single_node_democrat_minimizes(self):
        process = make_process(drawer_control=PartyControl.DEMOCRATS,
                               court_review=CourtReview.NO,
                               court_control=PartyControl.NA)
        value = brute_force_solve(process, self._unconstrained_theta(), COARSE)
        assert value == -4.0

    def test_matches_solver_on_coarse_grid(self):
        rng = np.random.default_rng(20)
        rows = list(FIXTURE)
        for _ in range(20):
            row = rows[rng.integers(len(rows))]
            theta = sample_parameters(PRIOR, 2024, int(rng.integers(10**6)))
            fast = solve(row, theta, COARSE).value
            slow = brute_force_solve(row, theta, COARSE)
            assert fast == pytest.approx(slow, abs=1e-9), row.key

    @pytest.mark.parametrize("party", [PartyControl.DEMOCRATS, PartyControl.REPUBLICANS])
    def test_matches_solver_with_party_held_voters_veto(self, party):
        # A voters' veto is a probabilistic vote even where the row codes the
        # party behind the measure; the fixture and the fuzz generator code
        # every voters' veto with control NA.
        rows = [dataclasses.replace(row, veto1=Veto1.VOTERS, veto1_control=party)
                for row in FIXTURE if row.veto1 is not Veto1.NA]
        assert len(rows) == 19
        thetas = [sample_parameters(PRIOR, 5, d) for d in range(3)]
        for row in rows:
            assert validate(row) == [], row.key
            fast = BatchContext(sample_draws(PRIOR, 5, 3), COARSE).solve(row)
            for d, theta in enumerate(thetas):
                slow = brute_force_solve(row, theta, COARSE)
                assert fast.result(d).value == pytest.approx(slow, abs=1e-9), (row.key, d)

    def test_oracle_shares_no_node_rules_with_the_tree_key(self):
        source = inspect.getsource(brute_force_solve)
        for name in ("TreeKey", "_TreeEvaluator", "_veto_node", "_LINK_KIND", "_link_kind"):
            assert name not in source, name

    def test_grid_size_guard(self):
        with pytest.raises(DomainError):
            brute_force_solve(FIXTURE.get("AL", 2020), MEAN, OptimizationGrid(step=0.5))


class TestInvariants:
    def test_grid_refinement_stability(self):
        fine = OptimizationGrid(step=0.025)
        for row in FIXTURE:
            for i in range(2):
                theta = sample_parameters(PRIOR, 41, i)
                coarse_value = solve(row, theta).value
                fine_value = solve(row, theta, fine).value
                assert abs(coarse_value - fine_value) < 0.01, row.key

    def test_zero_sum_mirror_non_preclearance(self):
        for row in FIXTURE:
            if row.preclearance:
                continue
            mirrored = row.mirrored()
            for i in range(3):
                theta = sample_parameters(PRIOR, 43, i)
                v = solve(row, theta).value
                w = solve(mirrored, theta).value
                assert v == -w, row.key

    def test_monotone_in_control(self):
        for row in FIXTURE:
            for i in range(2):
                theta = sample_parameters(PRIOR, 47, i)
                vr = solve(uniform_control(row, PartyControl.REPUBLICANS), theta).value
                vx = solve(row, theta).value
                vd = solve(uniform_control(row, PartyControl.DEMOCRATS), theta).value
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
        table = leeway_table(FIXTURE, BatchContext(sample_draws(PRIOR, 1, 3)))
        solvable = [row for row in FIXTURE if row.drawer is not Drawer.NA]
        assert [row for row, _ in table] == solvable
        for row, scores in table:
            assert scores == leeway(row, BatchContext(sample_draws(PRIOR, 1, 3)))

    def test_michigan_maximum_zero(self):
        scores = leeway(FIXTURE.get("MI", 2020), BatchContext(sample_draws(PRIOR, 9, 30)))
        assert scores.maximum == 0.0
        assert scores.realized == 0.0

    def test_republican_trifecta_nearly_unconstrained(self):
        process = FIXTURE.get("WI", 2010)  # legislature+governor R, no review
        grid = OptimizationGrid(refine=False)
        scores = leeway(process, BatchContext(sample_draws(PRIOR, 13, 40), grid))
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
        a = leeway(row, BatchContext(sample_draws(PRIOR, 3, 5)))
        b = leeway(row, BatchContext(sample_draws(PRIOR, 3, 5)))
        assert a == b

    def test_single_district_raises(self):
        with pytest.raises(NotApplicable):
            leeway(SINGLE_DISTRICT, BatchContext(sample_draws(PRIOR, 0, 1)))


class TestPathTable:
    def test_fixture_mass_conservation(self):
        table = path_table(FIXTURE, BatchContext(sample_draws(PRIOR, 21, 10)))
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
        table = path_table(book, BatchContext(sample_draws(PRIOR, 33, n_draws), grid))
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
        table = path_table(FIXTURE, BatchContext(sample_draws(PRIOR, 23, n_draws)))
        thetas = [sample_parameters(PRIOR, 23, i) for i in range(n_draws)]
        for row in FIXTURE:
            pooled = dict.fromkeys(("legislature", "commission", "court"), 0.0)
            for theta in thetas:
                for bucket, p in solve(row, theta).path_probs.items():
                    pooled[bucket] += p
            want = {bucket: total / n_draws for bucket, total in pooled.items()}
            assert table.state_probs[row.key] == want, row.key

    def test_modal_buckets(self):
        table = path_table(FIXTURE, BatchContext(sample_draws(PRIOR, 21, 10)))
        assert table.modal(("MI", 2020)) == "commission"
        assert table.modal(("IN", 2020)) == "legislature"
        assert table.actual[("NC", 2020)] == "court"


class TestRootStalemate:
    # No fixture row stalemates at the root. A drawer whose own party holds
    # the commission that breaks a stalemate, facing a voters veto and an
    # opposing governor, stalemates in 10 of these 50 draws. The digests pin
    # the solved arrays of both mirror images.
    @pytest.mark.parametrize("party,digest", [
        (PartyControl.REPUBLICANS,
         "dc494e17010aaafccc05a53152bebeaeda96f4fb32f688e534e1d6398c0813d6"),
        (PartyControl.DEMOCRATS,
         "d5f6a4f5764b8e9456d453aad3fe76cd05c2d47ebede5c2a7318561b5f1378a7"),
    ])
    def test_solved_arrays_pinned(self, party, digest):
        other = ({PartyControl.REPUBLICANS, PartyControl.DEMOCRATS} - {party}).pop()
        process = make_process(drawer_control=party, veto1=Veto1.VOTERS,
                               veto1_control=PartyControl.SPLIT, veto2=Veto2.GOVERNOR,
                               veto2_control=other, court_review=CourtReview.MAYBE,
                               court_control=other, stalemate1=Stalemate1.COMMISSION,
                               stalemate1_control=party)
        tree = BatchContext(sample_draws(PRIOR, 5, 50)).solve(process)
        evaluator = tree._tree  # the stacked pass, here of this tree alone
        stale = evaluator.stalemate(np.zeros((50, 1)))
        propose = evaluator._optima[("drawer", 1)][1]
        assert np.sum(nature.party_sign(party) * (stale - propose) > 0.0) == 10
        sha = hashlib.sha256()
        for array in (tree.values, tree.path_probs, tree.round2_proposal, tree.stalemates,
                      tree.veto_thresholds):
            sha.update(np.ascontiguousarray(array).tobytes())
        assert sha.hexdigest() == digest


class TestTreeKey:
    def test_drawer_without_control_rejected(self):
        # validate() rejects this row; one built in the library reaches the key.
        row = make_process(drawer_control=PartyControl.NA)
        with pytest.raises(InvariantViolation, match=re.escape(
                "('ZZ', 2020): [drawer-control-missing] drawer present but drawer_control is NA")
                ) as err:
            TreeKey.of(row)
        assert isinstance(err.value, DomainError)  # so the CLI still exits 1

    def test_mirror_negates_the_signs(self):
        # A party enters the key only through its signs: relabeling the
        # parties keeps the shape and negates every sign.
        rng = np.random.default_rng(5)
        rows = [row for row in (*FIXTURE, *(random_process(rng, i) for i in range(400)))
                if row.drawer is not Drawer.NA and validate(row) == []]
        assert len(rows) == 426
        partisan = 0
        for row in rows:
            key, mirror = TreeKey.of(row), TreeKey.of(row.mirrored())
            assert mirror.shape == key.shape, row.key
            assert mirror.signs == tuple(-sign for sign in key.signs), row.key
            partisan += any(key.signs)
        assert partisan == 385  # rows where some step depends on party


# The fixture's first row with a game, broken three ways that validate() rejects.
_GAME_ROW = next(row for row in FIXTURE if row.drawer is not Drawer.NA)
_INVALID_ROWS = {
    "court-control-missing": dataclasses.replace(_GAME_ROW, court_review=CourtReview.YES,
                                                 court_control=PartyControl.NA),
    "veto-ordering": dataclasses.replace(_GAME_ROW, veto1=Veto1.NA, veto1_control=PartyControl.NA,
                                         veto2=Veto2.GOVERNOR,
                                         veto2_control=PartyControl.REPUBLICANS),
    "court-review-missing": dataclasses.replace(_GAME_ROW, court_review=CourtReview.NA),
}


@pytest.mark.parametrize("rule", _INVALID_ROWS)
@pytest.mark.parametrize("call", [
    lambda row: Codebook((row,)),
    lambda row: solve(row, MEAN),
    lambda row: BatchContext(sample_draws(PRIOR, 0, 2)).solve(row),
], ids=["Codebook", "solve", "BatchContext.solve"])
def test_invalid_row_rejected_naming_row_and_rule(call, rule):
    row = _INVALID_ROWS[rule]
    with pytest.raises(InvariantViolation, match=re.escape(f"{row.key}: [{rule}] ")) as err:
        call(row)
    assert (err.value.rule, err.value.row) == (rule, row.key)


class TestBatchContext:
    """One context per table call solves each distinct tree once."""

    # The benchmark's scores codebook: the fixture plus the party mirror of
    # every row without preclearance.
    BOOK = Codebook((*FIXTURE, *(dataclasses.replace(row.mirrored(), state_id=row.state_id + "_M")
                                 for row in FIXTURE if not row.preclearance)))

    @staticmethod
    def batches(monkeypatch) -> list:
        """Every BatchContext made while the test runs, in order."""
        made, init = [], BatchContext.__init__

        def recording(batch, *args, **kwargs):
            init(batch, *args, **kwargs)
            made.append(batch)

        monkeypatch.setattr(BatchContext, "__init__", recording)
        return made

    @staticmethod
    def passes(batch: BatchContext, keys: set) -> int:
        """The batch's passes, after checking that each key is solved in exactly one.

        Every pass stacks keys of one shape, and at 2 draws each shape's
        keys fit in one pass.
        """
        solved = [key for members in batch.passes for key in members]
        assert len(solved) == len(set(solved)) == len(keys)
        assert set(solved) == set(batch.trees) == keys
        shapes = [{key.shape for key in members} for members in batch.passes]
        assert all(len(shape) == 1 for shape in shapes)
        assert len(batch.passes) == len({key.shape for key in keys})
        return len(batch.passes)

    def test_one_solve_per_distinct_tree(self, monkeypatch):
        made = self.batches(monkeypatch)
        leeway_table(self.BOOK, BatchContext(sample_draws(PRIOR, 101, 2)))
        keys = {TreeKey.of(process) for row in self.BOOK
                for process in (row, uniform_control(row, PartyControl.DEMOCRATS))}
        assert len(keys) == 41  # of 88 (row, party control) pairs
        assert self.passes(made.pop(), keys) == 11

        path_table(self.BOOK, BatchContext(sample_draws(PRIOR, 101, 2)))
        keys = {TreeKey.of(row) for row in self.BOOK}
        assert len(keys) == 30  # of 44 rows
        assert self.passes(made.pop(), keys) == 11

        for name, (trees, passes) in {"mi": (16, 11), "ny": (28, 15), "oh": (27, 14),
                                      "identity": (15, 11)}.items():
            counterfactual_doses(FIXTURE, TEMPLATES[name],
                                 BatchContext(sample_draws(PRIOR, 101, 2)))
            keys = {TreeKey.of(process) for row in FIXTURE.for_cycle(2020)
                    for process in (row, apply_template(row, TEMPLATES[name]))}
            assert len(keys) == trees, name
            assert self.passes(made.pop(), keys) == passes, name
        assert made == []

    def test_shared_tree_equals_per_draw_solves(self):
        # In IA 2020 a nonpartisan commission draws behind partisan vetoes and
        # a partisan commission breaks stalemates, so reading its veto
        # thresholds walks the base grid after the solve. Its twin differs
        # only in fields the tree does not read.
        ia = FIXTURE.get("IA", 2020)
        twin = dataclasses.replace(ia, state_id="IA_T", final_drawer=FinalDrawer.COURT_MASTER)
        batch = BatchContext(sample_draws(PRIOR, 67, 4))
        owners = {}
        for row in (*self.BOOK, twin):
            for process in (row, uniform_control(row, PartyControl.DEMOCRATS)):
                owners.setdefault(TreeKey.of(process), []).append(process)
                batch.solve(process)
        ia_key = TreeKey.of(ia)
        assert [process.key for process in owners[ia_key]] == [("IA", 2020), ("IA_T", 2020)]

        thetas = [sample_parameters(PRIOR, 67, d) for d in range(4)]
        shared = [key for key, members in owners.items() if len(members) > 1]
        assert len(shared) >= 10
        for key in shared:
            emitted = [emitted_record(*fields) for fields in cli._diagnostic_fields(
                batch.trees[key])]
            for process in owners[key]:
                want = [dumped_record(solve(process, theta), d) for d, theta in enumerate(thetas)]
                assert emitted == want, process.key

    @staticmethod
    def count_courts(monkeypatch) -> list:
        """(context, shape, bytes) of every nature.exp_court argument the batch keeps.

        That is every argument but a per-draw (D, 161) grid built from the
        default grid's (1, 161) base row.
        """
        calls, real = [], nature.exp_court

        def counting(x, ctx, theta):
            if x.shape != (len(theta.stale_slope), 161):
                calls.append((ctx, x.shape, x.tobytes()))
            return real(x, ctx, theta)

        monkeypatch.setattr(nature, "exp_court", counting)
        return calls

    def test_one_base_grid_court_per_context_per_call(self, monkeypatch):
        # Every tree of a call reads the court machinery of its CourtContext
        # from one copy: on the base grid, veto-threshold passes included, on
        # each refinement grid and at each per-draw optimum. Trees that share
        # a context reach the same optima, such as the corners at +-4.
        calls = self.count_courts(monkeypatch)

        def counts():
            base = [ctx for ctx, shape, _ in calls if shape == (1, 161)]
            assert len(base) == len(set(base))
            assert len(calls) == len(set(calls))
            counted = len(base), len(calls)
            calls.clear()
            return counted

        for _, _, realized in solver._scored_rows(self.BOOK,
                                                  BatchContext(sample_draws(PRIOR, 101, 20))):
            cli._diagnostic_fields(realized)  # as `leeway --emit-diagnostics` does
        assert counts() == (10, 64)  # of 160 evaluations without the cache

        path_table(self.BOOK, BatchContext(sample_draws(PRIOR, 101, 20)))
        assert counts() == (8, 49)  # of 115

        for name, count in {"mi": 28, "ny": 33, "oh": 38, "identity": 27}.items():
            counterfactual_doses(FIXTURE, TEMPLATES[name],
                                 BatchContext(sample_draws(PRIOR, 101, 20)))
            assert counts() == (5, count), name

    def test_kept_courts_read_only_and_small(self):
        # The batch keeps the base row, the (D, 41) refinement grids and the
        # (D, 1) columns, not the per-draw (D, G) grids built from the base
        # row. Mass only reaches a column, so a grid keeps its value alone.
        # Their arrays are shared between trees, so none can be written.
        batch = BatchContext(sample_draws(PRIOR, 101, 100))
        for row in self.BOOK:
            cli._diagnostic_fields(batch.solve(row))
            batch.solve(uniform_control(row, PartyControl.DEMOCRATS))
        shapes = {shape for _, shape, _ in batch.courts}
        assert shapes == {(1, 161), (100, 41), (100, 1)}
        for (_, shape, _), court in batch.courts.items():
            kept = [array for array in court if array is not None]
            assert len(kept) == (3 if shape[1] == 1 else 1)
            for array in kept:
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 0.0
        added = [(key, court) for key, court in batch.courts.items() if key[1] != (1, 161)]
        size = sum(len(key[2]) + sum(array.nbytes for array in court if array is not None)
                   for key, court in added)
        assert len(added) == 54 and size <= 1.1e6

    def test_single_district_rows_rejected_before_any_solve(self, monkeypatch):
        calls = []
        batch = BatchContext(sample_draws(PRIOR, 0, 2))
        monkeypatch.setattr(_TreeEvaluator, "solve", lambda tree: calls.append("solve"))
        with pytest.raises(NotApplicable, match="single-district state has no leeway score"):
            leeway(SINGLE_DISTRICT, batch)
        assert calls == [] and batch.trees == {}

    def test_path_table_skips_single_district_rows(self):
        # As leeway_table does: the row has no game, so no path and no actual bucket.
        with_single = path_table(Codebook((*FIXTURE, SINGLE_DISTRICT)),
                                 BatchContext(sample_draws(PRIOR, 3, 2)))
        without = path_table(FIXTURE, BatchContext(sample_draws(PRIOR, 3, 2)))
        assert SINGLE_DISTRICT.key not in with_single.state_probs
        assert with_single == without

    def test_path_table_rejects_missing_final_drawer_before_any_solve(self, monkeypatch):
        # parse_codebook and Codebook reject the row; a plain tuple of rows reaches
        # the batch, whose TreeKey.of checks every row before the first solve.
        calls = []
        batch = BatchContext(sample_draws(PRIOR, 0, 2))
        monkeypatch.setattr(_TreeEvaluator, "solve", lambda tree: calls.append("solve"))
        with pytest.raises(InvariantViolation, match=re.escape(
                "('ZZ', 2020): [final-drawer-missing] drawer present but final_drawer is NA")):
            path_table((make_process(final_drawer=FinalDrawer.NA),), batch)
        assert calls == [] and batch.trees == {}


class TestPassBudget:
    """No array of a stacked pass holds more than solver._PASS_CELLS cells."""

    # 36 rows of one shape: a partisan legislature behind a partisan
    # governor's veto, under every party control and court context.
    PARTIES = (PartyControl.DEMOCRATS, PartyControl.REPUBLICANS)
    ROWS = Codebook(tuple(
        make_process(state_id=f"S{i:02d}", drawer_control=drawer, veto1=Veto1.GOVERNOR,
                     veto1_control=veto, court_review=review, court_control=court,
                     preclearance=precleared)
        for i, (drawer, veto, review, (court, precleared)) in enumerate(itertools.product(
            PARTIES, PARTIES, (CourtReview.YES, CourtReview.NO, CourtReview.MAYBE),
            ((PartyControl.DEMOCRATS, False), (PartyControl.NONPARTISANS, False),
             (PartyControl.REPUBLICANS, True))))))

    @staticmethod
    def solved(rows, grid: OptimizationGrid, n_draws: int = 100) -> BatchContext:
        batch = BatchContext(sample_draws(PRIOR, 71, n_draws), grid)
        for _, tree in batch.games(rows):
            tree.veto_thresholds
        return batch

    @staticmethod
    def cells(batch: BatchContext) -> list[int]:
        """Cells of one (members, draws, grid points) array of each pass."""
        return [len(members) * len(batch.thetas.stale_slope) * batch.grid.base.size
                for members in batch.passes]

    def test_rows_share_one_shape(self):
        keys = {TreeKey.of(row) for row in self.ROWS}
        assert len(keys) == 36 and len({key.shape for key in keys}) == 1

    def test_member_over_the_budget_runs_alone(self):
        # On the finest grid one tree of 100 draws alone exceeds the budget.
        finest = OptimizationGrid(step=solver.MIN_GRID_STEP)
        batch = self.solved(Codebook(self.ROWS.rows[:4]), finest)
        assert [len(members) for members in batch.passes] == [1, 1, 1, 1]
        assert min(self.cells(batch)) > solver._PASS_CELLS

    @pytest.mark.parametrize("n_draws, per_pass", [(20, 5), (100, 1)])
    def test_split_group_equals_one_pass(self, monkeypatch, n_draws, per_pass):
        split = self.solved(self.ROWS, OptimizationGrid(), n_draws)
        sizes = [len(members) for members in split.passes]
        assert max(sizes) == per_pass and len(sizes) == -(-36 // per_pass)
        assert max(self.cells(split)) <= solver._PASS_CELLS
        monkeypatch.setattr(solver, "_PASS_CELLS", 36 * n_draws * 161)
        whole = self.solved(self.ROWS, OptimizationGrid(), n_draws)
        assert [len(members) for members in whole.passes] == [36]
        assert whole.trees.keys() == split.trees.keys()
        for key, tree in whole.trees.items():
            other = split.trees[key]
            for name in ("values", "path_probs", "round2_proposal", "stalemates",
                         "veto_thresholds"):
                assert getattr(tree, name).tobytes() == getattr(other, name).tobytes(), name


@pytest.mark.parametrize("call, error, message", [
    (lambda: brute_force_solve(SINGLE_DISTRICT, MEAN, COARSE), NotApplicable,
     "single-district state has no game"),
    (lambda: pairwise_spearman_mean(np.ones((1, 5))), DomainError, "need at least 2 draws"),
], ids=["brute-force-single-district", "spearman-one-draw"])
def test_malformed_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestSpearman:
    def test_identical_rows_correlate_perfectly(self):
        matrix = np.tile(np.array([1.0, 3.0, 2.0, 5.0, 4.0]), (4, 1))
        assert pairwise_spearman_mean(matrix) == pytest.approx(1.0)

    def test_reversed_row_anticorrelates(self):
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        matrix = np.stack([base, base[::-1]])
        assert pairwise_spearman_mean(matrix) == pytest.approx(-1.0)

    def test_pairs_with_a_constant_row_skipped(self):
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        matrix = np.stack([base, np.ones(5), base[::-1]])
        assert pairwise_spearman_mean(matrix) == pytest.approx(-1.0)
        for n in (2, 3):
            with pytest.raises(DomainError, match="no draw pair had rankable variation"):
                pairwise_spearman_mean(np.stack([base, *[np.ones(5)] * (n - 1)]))

    @pytest.mark.parametrize("shape", [(2, 5), (3, 7), (25, 41)])
    def test_equals_scipy_spearmanr_bitwise(self, shape):
        # Ties included: the values are small integers.
        matrix = np.random.default_rng(shape).integers(0, 4, shape).astype(float)
        rho = stats.spearmanr(matrix, axis=1).statistic
        upper = np.atleast_2d(rho)[np.triu_indices(shape[0], k=1)] if shape[0] > 2 else rho
        assert pairwise_spearman_mean(matrix) == float(np.mean(upper))

    @pytest.mark.parametrize("seed", range(8))
    def test_ranks_equal_scipy_rankdata_bitwise(self, seed):
        # Tie-heavy: a few distinct values per row, with zeros of both signs.
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 60)))
        matrix = rng.integers(-2, int(rng.integers(1, 6)), shape) * 0.5
        matrix[matrix == 0] = rng.choice([0.0, -0.0], int((matrix == 0).sum()))
        assert _average_ranks(matrix).tobytes() == stats.rankdata(matrix, axis=1).tobytes()

    def test_fixture_stability(self):
        rho = spearman_stability(FIXTURE, BatchContext(sample_draws(PRIOR, 51, 25)))
        assert rho >= 0.95

    def test_requires_enough_draws(self):
        with pytest.raises(DomainError):
            spearman_stability(FIXTURE, BatchContext(sample_draws(PRIOR, 0, 1)))

    def test_codebook_without_solvable_rows(self):
        book = Codebook((SINGLE_DISTRICT,))
        assert equilibrium_matrix(book, BatchContext(sample_draws(PRIOR, 0, 3))).shape == (3, 0)
        with pytest.raises(DomainError, match="at least 5 states"):
            spearman_stability(book, BatchContext(sample_draws(PRIOR, 0, 3)))
