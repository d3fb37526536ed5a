"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live) and enforcing its
stated runtime budget."""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np

from leeway.cli import main
from leeway.codebook import Codebook, load_fixture_codebook, serialize_codebook
from leeway.counterfactual import (TEMPLATES, Baseline, DosePair,
                                   counterfactual_doses, predict_national)
from leeway.inference import (Diagnostics, PosteriorDraws, PriorConfig, acr, build_design,
                              design_row, fit_posterior)
from leeway.metrics import (PlanProfile, SwingModel, competitive_share,
                            expected_seats, responsiveness)
from leeway.nature import PriorSpec, sample_parameters
from leeway.solver import (BatchContext, OptimizationGrid, brute_force_solve, path_table,
                           sample_draws, solve, spearman_stability)
from leeway.counterfactual import StateCovariates

PRIOR = PriorSpec.default()
FIXTURE = load_fixture_codebook()


@contextmanager
def criterion(number, description, max_seconds=None):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        if max_seconds is not None and elapsed >= max_seconds:
            raise AssertionError(
                f"criterion {number} runtime {elapsed:.1f}s exceeds {max_seconds}s")
        ok = True
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {number:2d}: {status}  {description}  [{elapsed:.2f}s]")


def test_criterion_1_nonpartisan_fixed_point():
    with criterion(1, "nonpartisan commission process solves to exactly zero",
                   max_seconds=1.0):
        process = FIXTURE.get("MI", 2020)
        for i in range(100):
            theta = sample_parameters(PRIOR, 1001, i)
            value = solve(process, theta).value
            assert abs(value) < 1e-12


def test_criterion_2_party_mirror_symmetry():
    with criterion(2, "mirrored party control negates the equilibrium (1e-9)"):
        rows = [r for r in FIXTURE if not r.preclearance]
        assert len(rows) >= 10
        for row in rows:
            mirrored = row.mirrored()
            for i in range(25):
                theta = sample_parameters(PRIOR, 1002, i)
                v = solve(row, theta).value
                w = solve(mirrored, theta).value
                assert abs(v + w) < 1e-9, row.key


def test_criterion_3_trifecta_narrative():
    with criterion(3, "legislature+governor trifecta: propose +4, veto threshold "
                      "in (0,1), value in [2.0, 3.5]", max_seconds=1.0):
        process = FIXTURE.get("AL", 2020)
        result = solve(process, PRIOR.mean())
        assert result.round2_proposal == 4.0
        threshold = result.veto_thresholds["round2_veto1"]
        assert threshold is not None and 0.0 < threshold < 1.0
        assert 2.0 <= result.value <= 3.5
        assert 2.0 <= 2.84 <= 3.5  # the reference value sits inside the band


def test_criterion_4_brute_force_oracle():
    with criterion(4, "coarse-grid solver matches brute-force enumeration (1e-9)",
                   max_seconds=30.0):
        coarse = OptimizationGrid(step=2.0, refine=False)
        rng = np.random.default_rng(1004)
        rows = list(FIXTURE)
        for _ in range(20):
            row = rows[rng.integers(len(rows))]
            theta = sample_parameters(PRIOR, 1004, int(rng.integers(10**6)))
            fast = solve(row, theta, coarse).value
            slow = brute_force_solve(row, theta, coarse)
            assert abs(fast - slow) < 1e-9, row.key


def test_criterion_5_rank_stability():
    with criterion(5, "equilibrium rankings stable across 100 prior draws (>= 0.95)",
                   max_seconds=120.0):
        assert len(FIXTURE) >= 12
        rho = spearman_stability(FIXTURE, BatchContext(sample_draws(PRIOR, 1005, 100)))
        assert rho >= 0.95


def test_criterion_6_path_table():
    with criterion(6, "path probabilities conserve mass and land on the diagonal"):
        table = path_table(FIXTURE, BatchContext(sample_draws(PRIOR, 1006, 50)))
        for key, probs in table.state_probs.items():
            assert abs(sum(probs.values()) - 1.0) < 1e-9, key
        assert table.modal(("MI", 2020)) == "commission"
        assert table.modal(("CA", 2020)) == "commission"
        assert table.modal(("IN", 2020)) == "legislature"
        assert table.modal(("KS", 2020)) == "legislature"


def test_criterion_7_metrics():
    with criterion(7, "metrics: analytic derivative, calibration point, and "
                      "Monte Carlo agreement", max_seconds=60.0):
        cal = SwingModel.calibrated()
        rng = np.random.default_rng(1007)

        h = 4e-6
        for _ in range(100):
            n = int(rng.integers(1, 13))
            plan = PlanProfile(tuple(rng.uniform(0.35, 0.65, n)))
            fd = (expected_seats(plan, cal, h) - expected_seats(plan, cal, -h)) / (2 * h * n)
            analytic = responsiveness(plan, cal)
            assert abs(analytic - fd) / abs(fd) < 1e-6

        assert abs(competitive_share(PlanProfile((0.6,)), cal) - 0.14) <= 0.01

        model = SwingModel(0.03, 0.05)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            plan = PlanProfile(tuple(rng.uniform(0.3, 0.7, n)))
            analytic = expected_seats(plan, model)
            draws = 10**6
            national = rng.normal(0.0, model.sigma_national, draws)
            district = rng.normal(0.0, model.sigma_district, (draws, n))
            seats = (plan.shares[None, :] + national[:, None] + district > 0.5).sum(axis=1)
            se = seats.std() / math.sqrt(draws)
            assert abs(analytic - seats.mean()) < 3 * se


def test_criterion_8_estimator_recovery():
    with criterion(8, "posterior recovers known coefficients with clean diagnostics",
                   max_seconds=300.0):
        rng = np.random.default_rng(1008)
        beta = np.zeros(16)
        beta[0], beta[1], beta[3], beta[5] = 0.5, 0.3, -0.8, 0.2
        rows = []
        for i in range(87):
            d0, d1 = rng.uniform(0, 4, 2)
            cov = [rng.uniform(0.3, 0.7), float(rng.integers(2)),
                   rng.uniform(0.5, 3.5), float(rng.integers(-2, 3)),
                   rng.uniform(-1, 3), float(rng.integers(2))]
            response = float(design_row(d1 - d0, d0, cov) @ beta + rng.normal(0, 0.01))
            from leeway.inference import DidRow
            rows.append(DidRow(f"S{i:02d}", 0.0, response, d0, d1, *cov))

        design = build_design(rows)
        prior = PriorConfig.from_design(design)
        draws = fit_posterior(design, prior, seed=1008)  # raises unless converged

        diag = draws.diagnostics
        assert max(diag.rhat.values()) < 1.05
        assert min(diag.ess.values()) > 400

        means = draws.flat.mean(axis=0)
        sds = draws.flat.std(axis=0)
        assert np.all(np.abs(means - beta) < 3 * sds)

        estimate = acr(draws, rows)
        assert abs(estimate.effect.mean - 0.3) / 0.3 < 0.10


def test_criterion_9_counterfactual_properties():
    with criterion(9, "identity reform is a per-draw no-op; nonpartisan reform "
                      "zeroes doses; national change sums state effects"):
        book = FIXTURE.for_cycle(2020)
        identity = counterfactual_doses(book, TEMPLATES["identity"],
                                        BatchContext(sample_draws(PRIOR, 1009, 20)))
        for pair in identity:
            assert pair.d_reformed == pair.d_current

        mi = counterfactual_doses(book, TEMPLATES["mi"],
                                  BatchContext(sample_draws(PRIOR, 1009, 20)))
        for pair in mi:
            if not book.get(pair.state_id, 2020).preclearance:
                assert pair.d_reformed == 0.0
            else:
                assert abs(pair.d_reformed) < 0.05  # retained VRA exposure

        # per-draw aggregation exactness and dose-response ordering on a
        # synthetic positive-effect model
        slopes = np.linspace(0.05, 0.6, 30)
        matrix = np.zeros((len(slopes), 16))
        matrix[:, 1] = slopes
        diag = Diagnostics(rhat={}, ess={})
        model = PosteriorDraws(coefficients=matrix[None], sigma=np.ones((1, len(slopes))),
                               diagnostics=diag)
        covariates = {
            "AA": StateCovariates(0.5, 0.0, 2.0, 0.0, 1.0, 0.0, 8),
            "BB": StateCovariates(0.4, 1.0, 1.5, -1.0, 0.5, 1.0, 4),
        }
        baseline = Baseline(dem_seats=212.0, slope_seats_per_pp=7.5)

        pairs = [DosePair("AA", 3.0, 0.5), DosePair("BB", 1.0, -0.5)]
        prediction = predict_national(pairs, model, model, covariates, baseline)
        summed = sum(prediction.state_seat_effects[p.state_id].draws for p in pairs)
        assert np.array_equal(prediction.seat_change_draws, -summed)

        zero = predict_national([DosePair("AA", 2.0, 2.0)], model, model,
                                covariates, baseline)
        assert np.all(zero.seat_change_draws == 0.0)
        assert np.all(zero.slope_draws == baseline.slope_seats_per_pp)

        gains = []
        for reduction in (0.5, 1.5, 3.0):
            pairs = [DosePair("AA", 3.5, 3.5 - reduction),
                     DosePair("BB", 2.0, 2.0 - reduction)]
            gains.append(predict_national(pairs, model, model, covariates,
                                          baseline).seat_change_draws)
        assert np.all(gains[0] < gains[1]) and np.all(gains[1] < gains[2])


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI subcommand is byte-identical across reruns "
                       "and thread counts"):
        keys = {("AL", 2020), ("MI", 2020), ("KS", 2020), ("OH", 2020), ("WV", 2010)}
        book = Codebook(tuple(r for r in FIXTURE if r.key in keys))
        cb_path = tmp_path / "book.csv"
        cb_path.write_text(serialize_codebook(book))

        def run_twice(argv_builder, outputs):
            blobs = []
            for tag in ("one", "two"):
                paths = [str(tmp_path / f"{tag}-{name}") for name in outputs]
                assert main(argv_builder(paths, tag)) == 0, outputs
                blobs.append(b"".join(open(p, "rb").read() for p in paths))
            assert blobs[0] == blobs[1], outputs

        run_twice(lambda paths, tag: ["codebook", "--input", str(cb_path),
                                      "--output", paths[0]], ["norm.csv"])

        for threads in ("1", "8"):
            run_twice(lambda paths, tag, t=threads: [
                "leeway", "--codebook", str(cb_path), "--draws", "10", "--seed", "7",
                "--threads", t, "--output", paths[0],
                "--emit-diagnostics", paths[1]], ["lee.csv", "lee.json"])
            run_twice(lambda paths, tag, t=threads: [
                "paths", "--codebook", str(cb_path), "--draws", "8", "--seed", "3",
                "--threads", t, "--output", paths[0], "--per-state", paths[1]],
                ["paths.csv", "per-state.csv"])

        # thread-count invariance of the threaded subcommands
        for stem in ("lee.csv", "lee.json", "paths.csv", "per-state.csv"):
            assert open(tmp_path / f"one-{stem}", "rb").read() == \
                open(tmp_path / f"two-{stem}", "rb").read()

        plans = tmp_path / "plans.csv"
        plans.write_text("state,cycle,district,rep_share\n"
                         "NH,2020,1,0.5\nNH,2020,2,0.48\nTX,2020,1,0.6\n")
        run_twice(lambda paths, tag: ["metrics", "--plans", str(plans),
                                      "--output", paths[0]], ["met.csv"])

        did_path = tmp_path / "did.csv"
        rng = np.random.default_rng(1010)
        with open(did_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["state", "dY0", "dY1", "d0", "d1", "dem08", "south",
                             "log_seats", "delta_seats", "log_corrupt", "initiative"])
            for i in range(87):
                d0, d1 = rng.uniform(0, 4, 2)
                cov = [rng.uniform(0.3, 0.7), float(rng.integers(2)),
                       rng.uniform(0.5, 3.5), float(rng.integers(-2, 3)),
                       rng.uniform(-1, 3), float(rng.integers(2))]
                response = 0.4 + 0.25 * (d1 - d0) - 0.6 * cov[0] + rng.normal(0, 0.05)
                writer.writerow([f"S{i:02d}", 0.0, response, d0, d1, *cov])
        run_twice(lambda paths, tag: [
            "did", "--input", str(did_path), "--seed", "42", "--draws", "8000",
            "--chains", "4", "--output-draws", paths[0],
            "--output-diagnostics", paths[1]], ["draws.csv", "diag.json"])

        cov_path = tmp_path / "cov.csv"
        cov_path.write_text(
            "state,dem08,south,log_seats,delta_seats,log_corrupt,initiative,n_districts\n"
            "AL,0.39,1,1.95,0,1.2,0,7\nKS,0.42,0,1.39,0,0.5,0,4\n"
            "MI,0.57,0,2.56,-1,1.5,1,13\nOH,0.52,0,2.71,-1,1.8,1,15\n")
        base_path = tmp_path / "base.json"
        base_path.write_text('{"dem_seats": 213.5, "slope_seats_per_pp": 7.8}\n')
        model = str(tmp_path / "one-draws.csv")
        for threads in ("1", "8"):
            run_twice(lambda paths, tag, t=threads: [
                "counterfactual", "--template", "mi", "--codebook", str(cb_path),
                "--seat-model", model, "--resp-model", model,
                "--covariates", str(cov_path), "--baseline", str(base_path),
                "--draws", "5", "--seed", "3", "--threads", t,
                "--output", paths[0], "--doses-csv", paths[1]],
                ["cf.json", "doses.csv"])
