import dis
import math
import sys

import numpy as np
import pytest
from scipy import special

from leeway import metrics
from leeway.errors import DomainError
from leeway.metrics import (CALIBRATED_SIGMA_TOTAL, EnsembleSummary, PlanProfile,
                            SwingModel, competitive_share, dilution_asymmetry,
                            efficiency_gap, expected_seats, ndtr, partisan_bias,
                            responsiveness, seat_share_at_vote, simulation_adjust)

CAL = SwingModel.calibrated()

# Cephes' log(DBL_MAX): past sqrt(2 MAXLOG) erfc underflows to 0.
MAXLOG = 7.09782712893383996843e2
SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, -1e-310)


def branch_neighbours(k=8):
    """The k floats on each side of 1 and of every |a| where ndtr branches."""
    points = []
    for point in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG)):
        for a in (point, -point):
            points.append(a)
            up = down = a
            for _ in range(k):
                up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
                points += [float(up), float(down)]
    return np.array(points)


@pytest.fixture(scope="module")
def oracle_points():
    """At least 10^6 points, a multiple of 64, that cover every branch of ndtr."""
    rng = np.random.default_rng(101)
    edges = np.concatenate([branch_neighbours(), SPECIAL_VALUES])
    dense = np.linspace(-40.0, 40.0, 64 * 15_700 - 800_000 - edges.size)
    return np.concatenate([rng.uniform(-40.0, 40.0, 400_000), rng.normal(0.0, 3.0, 400_000),
                           dense, edges])


def same_bits(a, b):
    """Equal shape, float64 and bit patterns, with any NaN matching any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@pytest.mark.parametrize("call, message", [
    (lambda: expected_seats(PlanProfile((0.4, 0.6)), CAL, method="quadrature",
                            quadrature_points=1), "quadrature needs at least 2 points"),
    (lambda: expected_seats(PlanProfile((0.4, 0.6)), CAL, method="simpson"),
     "unknown method 'simpson'"),
    (lambda: seat_share_at_vote(PlanProfile((0.4, 0.6)), CAL, 1.0),
     r"vote share must lie in \(0, 1\)"),
    # Half of the least positive float rounds to 0: neither party has a vote.
    (lambda: dilution_asymmetry(PlanProfile((0.5,), (5e-324,))), "a party has no votes"),
], ids=["quadrature-points", "method", "vote-share", "no-votes"])
def test_malformed_input_rejected(call, message):
    with pytest.raises(DomainError, match=message):
        call()


class TestNdtr:
    # scipy.special.ndtr is the oracle: the port must reproduce it bit for
    # bit, or the metrics output bytes would move.
    def test_bitwise_equal_to_scipy(self, oracle_points):
        assert oracle_points.size >= 10**6
        grid = oracle_points.reshape(64, -1)
        assert same_bits(ndtr(grid), special.ndtr(grid))

    def test_vector(self, oracle_points):
        vector = oracle_points[-5_000:]
        assert same_bits(ndtr(vector), special.ndtr(vector))
        assert same_bits(ndtr(list(vector)), special.ndtr(vector))

    @pytest.mark.parametrize("a", [*SPECIAL_VALUES, *branch_neighbours(2), 0.3, -37.5, 1e300])
    def test_scalar(self, a):
        value = ndtr(a)
        assert type(value) is type(special.ndtr(a)) is np.float64
        assert same_bits(value, special.ndtr(a))

    def test_empty(self):
        assert ndtr(np.empty((0, 3))).shape == (0, 3)

    def test_oracle_points_run_every_line(self):
        # Each line of _ndtr runs on some branch neighbour or special value,
        # so the bitwise tests above reach every branch, and a branch that
        # ndtr cannot take has no place in it.
        code = metrics._ndtr.__code__
        ran = set()

        def tracer(frame, event, arg):
            if frame.f_code is code and event == "line":
                ran.add(frame.f_lineno)
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            for a in [*branch_neighbours().tolist(), *SPECIAL_VALUES]:
                metrics._ndtr(a)
        finally:
            sys.settrace(previous)
        lines = {line for _, line in dis.findlinestarts(code)} - {code.co_firstlineno, None}
        assert lines - ran == set()


def random_plans(rng, count, max_districts=12):
    plans = []
    for _ in range(count):
        n = int(rng.integers(1, max_districts + 1))
        plans.append(PlanProfile(tuple(rng.uniform(0.2, 0.8, n))))
    return plans


class TestPlanProfile:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            PlanProfile(())

    def test_rejects_degenerate_share(self):
        with pytest.raises(DomainError):
            PlanProfile((0.5, 1.0))

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            PlanProfile((0.5,), (0.0,))
        with pytest.raises(DomainError):
            PlanProfile((0.5,), (1.0, 2.0))
        for weight in (math.nan, math.inf):
            with pytest.raises(DomainError, match="turnout_weights"):
                PlanProfile((0.4, 0.6), (1.0, weight))


class TestExpectedSeats:
    def test_single_even_district(self):
        assert expected_seats(PlanProfile((0.5,)), CAL) == pytest.approx(0.5)

    def test_symmetric_pair(self):
        assert expected_seats(PlanProfile((0.4, 0.6)), CAL) == pytest.approx(1.0)

    def test_monte_carlo_oracle(self):
        plan = PlanProfile((0.55, 0.52, 0.45))
        model = SwingModel(0.03, 0.05)
        analytic = expected_seats(plan, model)
        rng = np.random.default_rng(0)
        n = 10**6
        national = rng.normal(0.0, model.sigma_national, n)
        district = rng.normal(0.0, model.sigma_district, (n, 3))
        seats = (plan.shares[None, :] + national[:, None] + district > 0.5).sum(axis=1)
        se = seats.std() / math.sqrt(n)
        assert abs(analytic - seats.mean()) < 3 * se

    def test_quadrature_matches_analytic(self):
        plan = PlanProfile((0.55, 0.52, 0.45))
        model = SwingModel(0.03, 0.05)
        assert expected_seats(plan, model, method="quadrature") == pytest.approx(
            expected_seats(plan, model), abs=1e-10)

    def test_quadrature_convergence(self):
        rng = np.random.default_rng(4)
        for plan in random_plans(rng, 10):
            q64 = expected_seats(plan, CAL, 0.01, method="quadrature", quadrature_points=64)
            q128 = expected_seats(plan, CAL, 0.01, method="quadrature", quadrature_points=128)
            assert abs(q64 - q128) < 1e-8

    def test_monotone_in_shares_and_shift(self):
        rng = np.random.default_rng(9)
        for plan in random_plans(rng, 20):
            base = expected_seats(plan, CAL)
            bumped = PlanProfile(tuple(min(s + 0.01, 0.99) for s in plan.district_shares))
            assert expected_seats(bumped, CAL) >= base
            assert expected_seats(plan, CAL, 0.01) >= base

    def test_empty_plan_rejected_upstream(self):
        with pytest.raises(DomainError):
            PlanProfile(())


class TestResponsiveness:
    def test_safe_district_nearly_flat(self):
        model = SwingModel(0.06 / math.sqrt(2), 0.06 / math.sqrt(2))
        assert responsiveness(PlanProfile((0.7,)), model) < 0.1

    def test_two_even_districts_calibrated(self):
        assert responsiveness(PlanProfile((0.5, 0.5)), CAL) == pytest.approx(7.91, abs=0.01)

    def test_band_across_model_scales(self):
        # phi(0)/sigma lands in [5, 10] for sigma in [0.04, 0.0798]; the
        # nominal upper scale 0.08 sits a rounding hair below 5 (4.987).
        plan = PlanProfile((0.5, 0.5))
        for total in (0.04, 0.05, 0.06, 0.07):
            model = SwingModel(total / math.sqrt(2), total / math.sqrt(2))
            assert 5.0 <= responsiveness(plan, model) <= 10.0

    def test_matches_finite_difference(self):
        # shares bounded away from the tails so the finite-difference
        # oracle itself carries fewer than 1e-6 relative error
        rng = np.random.default_rng(7)
        h = 4e-6
        for _ in range(100):
            n = int(rng.integers(1, 13))
            plan = PlanProfile(tuple(rng.uniform(0.35, 0.65, n)))
            fd = (expected_seats(plan, CAL, h) - expected_seats(plan, CAL, -h)) / (2 * h * n)
            analytic = responsiveness(plan, CAL)
            assert analytic == pytest.approx(fd, rel=1e-6)


class TestCompetitiveShare:
    def test_even_district_fully_competitive(self):
        assert competitive_share(PlanProfile((0.5,)), CAL) == pytest.approx(1.0)

    def test_sixty_forty_calibration(self):
        assert competitive_share(PlanProfile((0.6,)), CAL) == pytest.approx(0.14, abs=0.01)

    def test_rescaled_responsiveness_identity(self):
        rng = np.random.default_rng(17)
        constant = CAL.sigma_total * math.sqrt(2.0 * math.pi)
        for plan in random_plans(rng, 20):
            assert competitive_share(plan, CAL) == pytest.approx(
                responsiveness(plan, CAL) * constant, rel=1e-12)


class TestEfficiencyGap:
    def test_mirror_symmetric_pair(self):
        assert efficiency_gap(PlanProfile((0.6, 0.4))) == 0.0

    def test_hand_counted_plan(self):
        # 0.75 winner wastes 0.25 R, D wastes 0.25; two 0.45 districts:
        # each wastes 0.45 R (all) and 0.05 D (surplus)
        plan = PlanProfile((0.75, 0.45, 0.45))
        assert efficiency_gap(plan) == pytest.approx((0.35 - 1.15) / 3.0)

    def test_antisymmetry_under_mirroring(self):
        rng = np.random.default_rng(23)
        for plan in random_plans(rng, 20):
            assert efficiency_gap(plan.mirrored()) == pytest.approx(
                -efficiency_gap(plan), abs=1e-12)

    def test_tie_district_neutral(self):
        assert efficiency_gap(PlanProfile((0.5,))) == 0.0


class TestDilutionAsymmetry:
    def test_mirror_symmetric_zero(self):
        assert dilution_asymmetry(PlanProfile((0.3, 0.7))) == pytest.approx(0.0, abs=1e-12)

    def test_hand_counted_plan(self):
        plan = PlanProfile((0.75, 0.45, 0.45))
        assert dilution_asymmetry(plan) == pytest.approx(0.35 / 1.35 - 1.15 / 1.65)

    def test_turnout_scale_invariance(self):
        plan1 = PlanProfile((0.75, 0.45, 0.45), (1.0, 2.0, 3.0))
        plan2 = PlanProfile((0.75, 0.45, 0.45), (10.0, 20.0, 30.0))
        assert dilution_asymmetry(plan1) == pytest.approx(dilution_asymmetry(plan2))

    def test_negates_under_mirroring(self):
        rng = np.random.default_rng(29)
        for plan in random_plans(rng, 20):
            assert dilution_asymmetry(plan.mirrored()) == pytest.approx(
                -dilution_asymmetry(plan), abs=1e-12)


class TestPartisanBias:
    def test_symmetric_plan_zero(self):
        assert partisan_bias(PlanProfile((0.45, 0.55)), CAL, 0.5) == pytest.approx(
            0.0, abs=1e-12)

    def test_packed_plan_favors_republicans(self):
        # direct evaluation through the seat-share curve
        plan = PlanProfile((0.52, 0.52, 0.3))
        s = seat_share_at_vote(plan, CAL, 0.5)
        mirror = seat_share_at_vote(plan, CAL, 0.5)
        assert partisan_bias(plan, CAL, 0.5) == pytest.approx(0.5 * (s - (1 - mirror)))
        assert partisan_bias(plan, CAL, 0.5) > 0.0

    def test_negates_under_mirroring(self):
        rng = np.random.default_rng(31)
        for plan in random_plans(rng, 20):
            assert partisan_bias(plan.mirrored(), CAL, 0.5) == pytest.approx(
                -partisan_bias(plan, CAL, 0.5), abs=1e-12)


class TestSimulationAdjust:
    def test_observed_equals_mean(self):
        adjusted = simulation_adjust(1.5, EnsembleSummary(1.5, 0.5))
        assert (adjusted.difference, adjusted.z_score,
                adjusted.abs_difference, adjusted.abs_z) == (0.0, 0.0, 0.0, 0.0)

    def test_seat_difference_to_z(self):
        adjusted = simulation_adjust(-1.57 + 2.0, EnsembleSummary(2.0, 0.5))
        assert adjusted.difference == pytest.approx(-1.57)
        assert adjusted.z_score == pytest.approx(-3.14)

    def test_magnitudes(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            observed, mean = rng.normal(size=2)
            sd = rng.uniform(0.1, 2.0)
            adjusted = simulation_adjust(observed, EnsembleSummary(mean, sd))
            assert adjusted.abs_z == pytest.approx(abs(adjusted.difference) / sd)

    @pytest.mark.parametrize("mean,sd,field", [
        (math.nan, 0.5, "mean_outcome"), (math.inf, 0.5, "mean_outcome"),
        (-math.inf, 0.5, "mean_outcome"), (1.0, math.nan, "sd_outcome"),
        (1.0, math.inf, "sd_outcome"), (1.0, -0.5, "sd_outcome")])
    def test_rejects_bad_ensemble(self, mean, sd, field):
        with pytest.raises(DomainError, match=field):
            EnsembleSummary(mean, sd)

    def test_degenerate_sd(self):
        adjusted = simulation_adjust(2.0, EnsembleSummary(1.0, 0.0))
        assert adjusted.difference == 1.0
        assert adjusted.z_score is None


def test_calibration_constant_reproduces_both_anchor_values():
    z = 0.1 / CALIBRATED_SIGMA_TOTAL
    assert math.exp(-z * z / 2) == pytest.approx(0.14, abs=1e-12)
    assert (1 / math.sqrt(2 * math.pi)) / CALIBRATED_SIGMA_TOTAL == pytest.approx(
        7.91, abs=0.001)
