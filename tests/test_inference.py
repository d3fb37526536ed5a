import dataclasses

import numpy as np
import pytest

from leeway import inference
from leeway.counterfactual import NationalPrediction
from leeway.errors import DomainError
from leeway.inference import (COLUMN_NAMES, ConvergenceError, DesignMatrix, Diagnostics,
                              DidRow, PosteriorDraws, PriorConfig, SingularDesign,
                              _fft_length, _rhat_ess, acr, build_design, cate, cate_draws,
                              design_row, dose_response_curve, fit_posterior)


def synth_rows(n, beta, noise_sd, rng):
    rows = []
    for i in range(n):
        d0, d1 = rng.uniform(0, 4, 2)
        cov = [rng.uniform(0.3, 0.7), float(rng.integers(2)),
               rng.uniform(0.5, 3.5), float(rng.integers(-2, 3)),
               rng.uniform(-1.0, 3.0), float(rng.integers(2))]
        response = float(design_row(d1 - d0, d0, cov) @ beta + rng.normal(0, noise_sd))
        rows.append(DidRow(f"S{i:02d}", dy0=0.0, dy1=response, d0=d0, d1=d1,
                           dem08=cov[0], south=cov[1], log_seats=cov[2],
                           delta_seats=cov[3], log_corrupt=cov[4], initiative=cov[5]))
    return rows


def constant_effect_beta(effect=0.3):
    beta = np.zeros(16)
    beta[0] = 0.5
    beta[1] = effect
    beta[3] = -0.8
    beta[5] = 0.2
    return beta


def manual_draws(coefficients):
    """Wrap an explicit coefficient matrix as PosteriorDraws for query tests."""
    coefficients = np.asarray(coefficients, dtype=float)[None, :, :]
    sigma = np.ones(coefficients.shape[:2])
    diag = Diagnostics(rhat={}, ess={})
    return PosteriorDraws(coefficients=coefficients, sigma=sigma, diagnostics=diag)


class TestDesign:
    def test_shape_87_by_16(self):
        rows = synth_rows(87, constant_effect_beta(), 0.01, np.random.default_rng(0))
        design = build_design(rows)
        assert design.X.shape == (87, 16)
        assert len(COLUMN_NAMES) == 16

    def test_column_construction(self):
        cov = [0.5, 1.0, 2.0, -1.0, 0.7, 0.0]
        row = design_row(2.0, 1.5, cov)
        assert row[0] == 1.0               # intercept
        assert row[1] == 2.0               # dose change
        assert row[2] == 1.5               # baseline dose
        assert row[9] == 3.0               # dose change x baseline
        assert row[10] == 1.0              # dose change x dem08
        assert row[15] == 0.0              # dose change x initiative

    def test_build_is_deterministic(self):
        rows = synth_rows(10, constant_effect_beta(), 0.01, np.random.default_rng(1))
        a = build_design(rows)
        b = build_design(rows)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_constant_dose_change_flagged(self):
        rows = synth_rows(10, constant_effect_beta(), 0.01, np.random.default_rng(2))
        frozen = [DidRow(r.state_id, r.dy0, r.dy1, d0=1.0, d1=1.0,
                         dem08=r.dem08, south=r.south, log_seats=r.log_seats,
                         delta_seats=r.delta_seats, log_corrupt=r.log_corrupt,
                         initiative=r.initiative) for r in rows]
        with pytest.warns(SingularDesign):
            design = build_design(frozen)
        assert np.all(design.X[:, 1] == 0.0)

    def test_too_few_rows(self):
        with pytest.raises(DomainError):
            build_design([])


@pytest.mark.parametrize("call, message", [
    (lambda: design_row(1.0, 0.0, [0.5] * 5), "expected 6 covariates"),
    (lambda: DesignMatrix(np.ones((3, 15)), np.ones(3)), "design must have 16 columns"),
    (lambda: DesignMatrix(np.ones((3, 16)), np.ones(2)), "response length must match"),
    (lambda: build_design([dataclasses.replace(row, dy1=np.nan) for row in synth_rows(
        5, constant_effect_beta(), 0.05, np.random.default_rng(29))]), "non-finite values"),
    (lambda: PriorConfig(sigma_y=1.0, coefficient_sds=(1.0,) * 15),
     "need 16 coefficient sds"),
    (lambda: acr(manual_draws(np.ones((3, 16))), []), "acr needs at least one row"),
], ids=["covariate-count", "design-columns", "response-length", "non-finite", "sd-count",
        "acr-no-rows"])
def test_malformed_input_rejected(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_zero_spreads_fall_back_to_one():
    # Every state has the same response and none is southern, so the response
    # sd and the sds of the south columns are 0: each scale falls back to 1.
    rows = [dataclasses.replace(row, dy0=0.0, dy1=1.0, south=0.0) for row in synth_rows(
        10, constant_effect_beta(), 0.05, np.random.default_rng(30))]
    with pytest.warns(SingularDesign, match="response has no variation"):
        design = build_design(rows)
    with pytest.warns(SingularDesign, match="response sd is zero; using 1.0"):
        prior = PriorConfig.from_design(design)
    assert prior.sigma_y == 1.0
    assert prior.coefficient_sds[COLUMN_NAMES.index("south")] == 0.75
    assert prior.coefficient_sds[COLUMN_NAMES.index("dose_change:south")] == 0.25 * 0.75
    estimate = acr(manual_draws(np.random.default_rng(31).normal(size=(20, 16))), rows)
    assert np.array_equal(estimate.standardized.draws, estimate.effect.draws)


class TestPriorConfig:
    def test_scales_follow_the_rules(self):
        rows = synth_rows(50, constant_effect_beta(), 0.05, np.random.default_rng(3))
        design = build_design(rows)
        prior = PriorConfig.from_design(design)
        sigma_y = design.y.std(ddof=1)
        assert prior.sigma_y == pytest.approx(sigma_y)
        assert prior.coefficient_sds[0] == pytest.approx(2.5 * sigma_y)
        for j in range(1, 16):
            sigma_x = design.X[:, j].std(ddof=1)
            scale = 0.25 if j >= 9 else 1.0
            assert prior.coefficient_sds[j] == pytest.approx(
                scale * 0.75 * sigma_y / sigma_x)
        assert prior.residual_rate == pytest.approx(1.0 / sigma_y)

    def test_sigma_y_override(self):
        rows = synth_rows(10, constant_effect_beta(), 0.05, np.random.default_rng(4))
        prior = PriorConfig.from_design(build_design(rows), sigma_y=2.0)
        assert prior.sigma_y == 2.0

    @pytest.mark.parametrize("sigma_y, bad", [
        (0.0, "sigma_y=0.0"), (-1.0, "sigma_y=-1.0"), (float("nan"), "sigma_y=nan"),
        (float("inf"), "sigma_y=inf"), (1e308, "intercept sd=inf")])
    def test_bad_scale_rejected(self, sigma_y, bad):
        # 2.5 x 1e308 overflows to an infinite intercept sd.
        rows = synth_rows(10, constant_effect_beta(), 0.05, np.random.default_rng(4))
        with pytest.raises(DomainError, match=f"prior scale {bad} must be finite"):
            PriorConfig.from_design(build_design(rows), sigma_y=sigma_y)

    @pytest.mark.parametrize("field, bad", [
        ({"sigma_y": float("nan")}, "sigma_y=nan"),
        ({"coefficient_sds": (1.0,) * 15 + (float("inf"),)}, "dose_change:initiative sd=inf")])
    def test_non_finite_field_rejected(self, field, bad):
        # residual_rate is 1 / sigma_y; test_cli reaches its check with a subnormal sigma_y.
        fields = {"sigma_y": 1.0, "coefficient_sds": (1.0,) * 16, **field}
        with pytest.raises(DomainError, match=f"prior scale {bad} must be finite"):
            PriorConfig(**fields)


class TestSampler:
    def test_prior_only_fit_reproduces_prior(self):
        empty = DesignMatrix(X=np.empty((0, 16)), y=np.empty(0))
        sds = tuple([2.5] + [0.75] * 8 + [0.1875] * 7)
        prior = PriorConfig(sigma_y=1.0, coefficient_sds=sds)
        draws = fit_posterior(empty, prior, n_draws=8000, n_chains=4, seed=5)
        means = draws.flat.mean(axis=0)
        spreads = draws.flat.std(axis=0)
        for j in range(16):
            assert abs(means[j]) < 0.1 * sds[j] + 0.05
            assert spreads[j] == pytest.approx(sds[j], rel=0.10)

    def test_generate_and_recover(self):
        rng = np.random.default_rng(6)
        beta = constant_effect_beta()
        rows = synth_rows(87, beta, 0.01, rng)
        design = build_design(rows)
        prior = PriorConfig.from_design(design)
        draws = fit_posterior(design, prior, n_draws=8000, n_chains=4, seed=8)
        means = draws.flat.mean(axis=0)
        sds = draws.flat.std(axis=0)
        assert np.all(np.abs(means - beta) < 3 * sds)

    def test_same_seed_identical(self):
        rows = synth_rows(20, constant_effect_beta(), 0.05, np.random.default_rng(9))
        design = build_design(rows)
        prior = PriorConfig.from_design(design)
        a = fit_posterior(design, prior, n_draws=300, n_chains=2, seed=4)
        b = fit_posterior(design, prior, n_draws=300, n_chains=2, seed=4)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.sigma, b.sigma)

    def test_undersampled_fit_raises(self):
        rows = synth_rows(20, constant_effect_beta(), 0.05, np.random.default_rng(10))
        design = build_design(rows)
        prior = PriorConfig.from_design(design)
        with pytest.raises(ConvergenceError) as err:
            fit_posterior(design, prior, n_draws=100, n_chains=2, seed=0)
        assert min(err.value.diagnostics.ess.values()) <= 400

    @pytest.mark.parametrize("n_draws", [1, 3])
    def test_too_few_draws_rejected(self, n_draws):
        # Split R-hat needs 2 draws in each half of a chain.
        rows = synth_rows(20, constant_effect_beta(), 0.05, np.random.default_rng(11))
        design = build_design(rows)
        prior = PriorConfig.from_design(design)
        with pytest.raises(DomainError, match="at least 4"):
            fit_posterior(design, prior, n_draws=n_draws, n_chains=2, seed=0)

    def test_scales_out_of_float_range_rejected(self):
        # sigma^2 underflows on the whole grid, so sigma's density has no finite point.
        rows = synth_rows(20, constant_effect_beta(), 0.05, np.random.default_rng(11))
        design = build_design(rows)
        with np.errstate(all="ignore"), pytest.raises(DomainError, match="not finite on"):
            fit_posterior(design, PriorConfig.from_design(design, sigma_y=1e-300), n_draws=8,
                          n_chains=2)

    def test_negative_seed_rejected(self):
        rows = synth_rows(20, constant_effect_beta(), 0.05, np.random.default_rng(11))
        design = build_design(rows)
        with pytest.raises(DomainError, match="seed -1"):
            fit_posterior(design, PriorConfig.from_design(design), n_draws=8, n_chains=2,
                          seed=-1)

    def test_posterior_contraction(self):
        beta = constant_effect_beta()
        small = build_design(synth_rows(87, beta, 0.05, np.random.default_rng(11)))
        large = build_design(synth_rows(348, beta, 0.05, np.random.default_rng(12)))
        prior_small = PriorConfig.from_design(small)
        prior_large = PriorConfig.from_design(large)
        sd_small = fit_posterior(small, prior_small, n_draws=4000, n_chains=2,
                                 seed=2).flat[:, 1].std()
        sd_large = fit_posterior(large, prior_large, n_draws=4000, n_chains=2,
                                 seed=2).flat[:, 1].std()
        assert 0.4 <= sd_large / sd_small <= 0.6


def quadrature_posterior(design, prior, n_grid=4000):
    """Posterior means of sigma and beta by the midpoint rule over sigma.

    Integrating beta out, y | sigma ~ N(0, sigma^2 I + X S^2 X'), so
    p(sigma | y) is that density times the Exponential prior; given sigma,
    beta has the conjugate normal mean. The grid ends at 40 prior means.
    """
    X, y = design.X, design.y
    sds = np.asarray(prior.coefficient_sds)
    sigma = (np.arange(n_grid) + 0.5) * (40.0 / prior.residual_rate / n_grid)
    cov = (X * sds**2) @ X.T + sigma[:, None, None] ** 2 * np.eye(len(y))
    _, logdet = np.linalg.slogdet(cov)
    quad = y @ np.linalg.solve(cov, np.broadcast_to(y[:, None], (n_grid, len(y), 1)))[..., 0].T
    log_post = -0.5 * logdet - 0.5 * quad - prior.residual_rate * sigma
    weight = np.exp(log_post - log_post.max())
    weight /= weight.sum()
    prec = X.T @ X / sigma[:, None, None] ** 2 + np.diag(1.0 / sds**2)
    beta_given_sigma = np.linalg.solve(prec, (X.T @ y / sigma[:, None] ** 2)[..., None])[..., 0]
    return weight @ sigma, weight @ beta_given_sigma


class TestOracle:
    @pytest.mark.parametrize("n_rows", [1, 20])
    def test_means_match_quadrature(self, n_rows):
        rows = synth_rows(20, constant_effect_beta(), 0.5, np.random.default_rng(23))
        full = build_design(rows)
        design = DesignMatrix(X=full.X[:n_rows], y=full.y[:n_rows])
        prior = PriorConfig.from_design(full)
        draws = fit_posterior(design, prior, n_draws=5000, n_chains=4, seed=3)
        sigma_mean, beta_mean = quadrature_posterior(design, prior)
        ess = draws.diagnostics.ess
        mcse = draws.sigma.ravel().std() / np.sqrt(ess["sigma"])
        assert abs(draws.sigma.ravel().mean() - sigma_mean) < 4 * mcse
        for j, name in enumerate(COLUMN_NAMES):
            mcse = draws.flat[:, j].std() / np.sqrt(ess[name])
            assert abs(draws.flat[:, j].mean() - beta_mean[j]) < 4 * mcse, name


# Posterior means and sds of the 16 coefficients and sigma on the design of
# TestIndependentDraws, from the exact Gibbs sampler with an independence
# Metropolis-Hastings step for sigma that the independent sampler replaced
# (4 x 100,000 draws, seed 2024, min ESS 271,092).
GIBBS_MEANS = np.array([
    0.51615, 0.29284, 0.0038023, -0.81565, -0.016514, 0.20253, -0.0081992, -0.00059739,
    -0.020824, -0.0037513, -0.020974, 0.0059351, 0.0055155, 0.00016613, 0.00073684,
    0.01408, 0.042825])
GIBBS_SDS = np.array([
    0.029751, 0.016925, 0.0063282, 0.049316, 0.010057, 0.0056924, 0.003608, 0.0041515,
    0.010573, 0.0028671, 0.026914, 0.0055683, 0.0031838, 0.0023038, 0.0024503,
    0.0059401, 0.0036666])


class TestIndependentDraws:
    @pytest.fixture(scope="class")
    def design(self):
        return build_design(synth_rows(87, constant_effect_beta(), 0.05,
                                       np.random.default_rng(25)))

    def test_matches_gibbs_moments(self, design):
        draws = fit_posterior(design, PriorConfig.from_design(design), n_draws=5000,
                              n_chains=4, seed=3)
        flat = np.column_stack([draws.flat, draws.sigma.ravel()])
        assert np.all(np.abs(flat.mean(axis=0) - GIBBS_MEANS) < 0.05 * GIBBS_SDS)
        assert flat.std(axis=0) == pytest.approx(GIBBS_SDS, rel=0.02)

    def test_ess_near_draw_count(self, design):
        draws = fit_posterior(design, PriorConfig.from_design(design), n_draws=2000,
                              n_chains=3, seed=4)
        assert min(draws.diagnostics.ess.values()) >= 0.8 * 3 * 2000

    def test_huge_finite_prior_scale_fits(self, design):
        # From sigma_y = 1e100 on, the draws or S X'X S overflow (see test_cli).
        draws = fit_posterior(design, PriorConfig.from_design(design, sigma_y=1e50),
                              n_draws=1000, n_chains=2, seed=1)
        assert np.isfinite(draws.flat).all() and draws.diagnostics.passes()

    def test_sigma_grid_converged(self, design, monkeypatch):
        # One seed gives the same uniforms on either grid, so the two fits'
        # sigma draws come from one quantile function on two grids.
        prior = PriorConfig.from_design(design)
        q = [0.001, 0.5, 0.999]
        coarse = np.quantile(fit_posterior(design, prior, n_draws=5000, n_chains=2,
                                           seed=6).sigma.ravel(), q)
        monkeypatch.setattr(inference, "_SIGMA_GRID", 2 * inference._SIGMA_GRID - 1)
        fine = np.quantile(fit_posterior(design, prior, n_draws=5000, n_chains=2,
                                         seed=6).sigma.ravel(), q)
        assert np.all(np.abs(fine / coarse - 1.0) < 1e-5)


def scalar_rhat_ess(chains):
    """Split R-hat and ESS with one FFT per split chain and a Python Geyer loop."""
    m, n = chains.shape
    half = n // 2
    splits = chains[:, :2 * half].reshape(2 * m, half)
    n_seq, length = splits.shape
    means = splits.mean(axis=1)
    variances = splits.var(axis=1, ddof=1)
    w = variances.mean()
    b = length * means.var(ddof=1)
    var_plus = (length - 1) / length * w + b / length
    if var_plus == 0.0:
        return 1.0, float(n_seq * length)
    if w == 0.0:
        return float("inf"), 0.0
    rhat = float(np.sqrt(var_plus / w))

    def autocovariance(x):
        size = 1 << (2 * len(x) - 1).bit_length()
        f = np.fft.rfft(x - x.mean(), size)
        return np.fft.irfft(f * np.conjugate(f), size)[:len(x)].real / len(x)

    acov = np.stack([autocovariance(splits[j]) for j in range(n_seq)])
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    tau, prev = 0.0, np.inf
    for k in range(0, length - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev)
        tau += pair
        prev = pair
    tau = max(2.0 * tau - 1.0, 1.0)
    return rhat, float(n_seq * length / tau)


class TestDiagnostics:
    @pytest.mark.parametrize("shape", [(4, 1000), (3, 257), (2, 4), (1, 9), (4, 5003)])
    @pytest.mark.parametrize("phi", [0.0, 0.9, -0.5])
    def test_matches_scalar_formula(self, shape, phi):
        rng = np.random.default_rng([*shape, round(10 * phi) + 10])
        noise = rng.standard_normal(shape)
        chains = np.empty(shape)
        chains[:, 0] = noise[:, 0]
        for t in range(1, shape[1]):
            chains[:, t] = phi * chains[:, t - 1] + noise[:, t]
        chains += rng.normal(0.0, 0.1, (shape[0], 1))
        got = _rhat_ess(chains)
        want = scalar_rhat_ess(chains)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_constant_chains(self):
        chains = np.full((4, 100), 2.5)
        assert _rhat_ess(chains) == scalar_rhat_ess(chains) == (1.0, 400.0)

    def test_frozen_chains(self):
        chains = np.repeat(np.array([[1.0], [2.0], [1.0]]), 50, axis=1)
        assert _rhat_ess(chains) == scalar_rhat_ess(chains) == (float("inf"), 0.0)

    def test_ess_never_exceeds_draws(self):
        # Antithetic chains have an integrated time below 1, which is clamped.
        chains = np.tile([1.0, -1.0], (2, 100)) + np.random.default_rng(0).normal(0, 1e-3, (2, 200))
        assert _rhat_ess(chains)[1] <= 400.0

    @pytest.mark.parametrize("n", [5, 6, 257, 1000, 10000])
    @pytest.mark.parametrize("width", [16, 17], ids=["fit", "loader"])
    @pytest.mark.parametrize("walk", [False, True], ids=["iid", "random-walk"])
    def test_contiguous_columns_bitwise_equal_to_strided(self, n, width, walk):
        # A fit hands _diagnostics a (C, N, 16) array; a loaded draw file the
        # first 16 columns of a (C, N, 17) one, sigma last. Each column's
        # R-hat and ESS must keep every bit of the strided column's.
        rng = np.random.default_rng([n, width, walk])
        draws = rng.standard_normal((4, n, width))
        if walk:
            draws = np.cumsum(draws, axis=1)
        coefficients, sigma = draws[:, :, :16], np.exp(draws[:, :, -1])
        diag = inference._diagnostics(coefficients, sigma)
        got = np.array([[diag.rhat[name], diag.ess[name]] for name in COLUMN_NAMES])
        want = np.array([_rhat_ess(coefficients[:, :, j]) for j in range(16)])
        assert got.tobytes() == want.tobytes()

    def test_fft_length_is_5_smooth_and_minimal(self):
        def smooth(k):
            for q in (2, 3, 5):
                while k % q == 0:
                    k //= q
            return k == 1
        for n in range(1, 3000):
            got = _fft_length(n)
            assert got >= n and smooth(got)
            assert not any(smooth(k) for k in range(n, got))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_worst_fails_on_nan(self, position):
        # A NaN fails the run wherever it sits among the parameters.
        rhat = [1.001, 1.002, 1.003]
        ess = [3000.0, 2000.0, 4000.0]
        rhat[position] = ess[position] = float("nan")
        diag = Diagnostics(rhat=dict(zip("abc", rhat)), ess=dict(zip("abc", ess)))
        worst_rhat, worst_ess = diag.worst()
        assert np.isnan(worst_rhat) and np.isnan(worst_ess)
        assert not diag.passes()


class TestQueries:
    def test_cate_zero_at_equal_doses(self):
        rng = np.random.default_rng(13)
        draws = manual_draws(rng.normal(size=(50, 16)))
        values = cate_draws(draws, [0.5, 0, 1, 0, 0, 0], 2.0, 2.0)
        assert np.all(values == 0.0)

    def test_cate_summary_intervals_nested(self):
        rng = np.random.default_rng(15)
        draws = manual_draws(rng.normal(size=(500, 16)))
        summary = cate(draws, [0.5, 0, 1, 0, 0, 0], 1.0, 3.0)
        assert summary.ci95[0] <= summary.ci80[0] <= summary.ci80[1] <= summary.ci95[1]

    @pytest.mark.parametrize("size", [4, 5, 17, 1000, 40_003])
    def test_summary_intervals_match_two_quantile_calls(self, size):
        # One four-quantile call must give the bits of one call per interval.
        values = np.random.default_rng(size).standard_cauchy(size)
        summary = inference.EffectSummary.from_draws(values)
        assert summary.mean == float(values.mean())
        assert summary.ci80 == tuple(float(q) for q in np.quantile(values, [0.1, 0.9]))
        assert summary.ci95 == tuple(float(q) for q in np.quantile(values, [0.025, 0.975]))

    @pytest.mark.parametrize("make", [
        lambda: inference.EffectSummary.from_draws(np.arange(5.0)),
        lambda: manual_draws(np.ones((3, 16))),
        lambda: DesignMatrix(np.ones((3, 16)), np.ones(3)),
        lambda: NationalPrediction(*[inference.EffectSummary.from_draws(np.arange(5.0))] * 2,
                                   (0.0, 1.0), {}, np.arange(5.0), np.arange(5.0)),
    ], ids=["EffectSummary", "PosteriorDraws", "DesignMatrix", "NationalPrediction"])
    def test_array_holding_results_compare_by_identity(self, make):
        # Value equality would compare arrays elementwise and cannot hash them.
        a, b = make(), make()
        assert a == a and a != b
        assert a in [b, a] and a not in [b]
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_acr_equals_dose_coefficient_without_interactions(self):
        rng = np.random.default_rng(16)
        matrix = rng.normal(size=(100, 16))
        matrix[:, 9:] = 0.0  # no interactions
        draws = manual_draws(matrix)
        rows = synth_rows(30, constant_effect_beta(), 0.05, np.random.default_rng(17))
        estimate = acr(draws, rows)
        assert np.allclose(estimate.effect.draws, matrix[:, 1], atol=1e-12)

    def test_acr_recovery_within_ten_percent(self):
        rng = np.random.default_rng(18)
        rows = synth_rows(87, constant_effect_beta(0.3), 0.01, rng)
        design = build_design(rows)
        prior = PriorConfig.from_design(design)
        draws = fit_posterior(design, prior, n_draws=4000, n_chains=2, seed=44)
        estimate = acr(draws, rows)
        assert estimate.effect.mean == pytest.approx(0.3, rel=0.10)
        sd_y = np.std([r.response for r in rows], ddof=1)
        assert estimate.standardized.mean == pytest.approx(
            estimate.effect.mean / sd_y, rel=1e-12)

    def test_dose_response_curve_is_acr_line(self):
        rng = np.random.default_rng(19)
        draws = manual_draws(rng.normal(size=(80, 16)))
        rows = synth_rows(15, constant_effect_beta(), 0.05, np.random.default_rng(20))
        slope = acr(draws, rows).effect.draws
        curve = dose_response_curve(draws, rows, [-4.0, -1.0, 0.0, 2.0])
        for dose, summary in curve:
            assert np.allclose(summary.draws, dose * slope, atol=1e-12)
        at_zero = dict(curve)[0.0]
        assert at_zero.mean == 0.0

    def test_bands_widen_with_dose_magnitude(self):
        rng = np.random.default_rng(21)
        draws = manual_draws(rng.normal(size=(400, 16)))
        rows = synth_rows(15, constant_effect_beta(), 0.05, np.random.default_rng(22))
        curve = dict(dose_response_curve(draws, rows, [0.5, 1.0, 2.0, 4.0]))
        widths = [curve[d].ci95[1] - curve[d].ci95[0] for d in (0.5, 1.0, 2.0, 4.0)]
        assert widths == sorted(widths)
