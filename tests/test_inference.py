import numpy as np
import pytest

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
    diag = Diagnostics(rhat={}, ess={}, accept_coefficients=(), accept_sigma=())
    return PosteriorDraws(coefficients=coefficients, sigma=sigma,
                          column_names=COLUMN_NAMES, diagnostics=diag)


class TestDesign:
    def test_shape_87_by_16(self):
        rows = synth_rows(87, constant_effect_beta(), 0.01, np.random.default_rng(0))
        design = build_design(rows)
        assert design.X.shape == (87, 16)
        assert design.column_names == COLUMN_NAMES
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


class TestSampler:
    def test_prior_only_fit_reproduces_prior(self):
        empty = DesignMatrix(X=np.empty((0, 16)), y=np.empty(0))
        sds = tuple([2.5] + [0.75] * 8 + [0.1875] * 7)
        prior = PriorConfig(sigma_y=1.0, coefficient_sds=sds, residual_rate=1.0)
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
        a = fit_posterior(design, prior, n_draws=300, n_chains=2, seed=4,
                          enforce_diagnostics=False)
        b = fit_posterior(design, prior, n_draws=300, n_chains=2, seed=4,
                          enforce_diagnostics=False)
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
            fit_posterior(design, prior, n_draws=n_draws, n_chains=2, seed=0,
                          enforce_diagnostics=False)

    def test_posterior_contraction(self):
        beta = constant_effect_beta()
        small = build_design(synth_rows(87, beta, 0.05, np.random.default_rng(11)))
        large = build_design(synth_rows(348, beta, 0.05, np.random.default_rng(12)))
        prior_small = PriorConfig.from_design(small)
        prior_large = PriorConfig.from_design(large)
        sd_small = fit_posterior(small, prior_small, n_draws=4000, n_chains=2, seed=2,
                                 enforce_diagnostics=False).flat[:, 1].std()
        sd_large = fit_posterior(large, prior_large, n_draws=4000, n_chains=2, seed=2,
                                 enforce_diagnostics=False).flat[:, 1].std()
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
        mcse = draws.sigma_flat.std() / np.sqrt(ess["sigma"])
        assert abs(draws.sigma_flat.mean() - sigma_mean) < 4 * mcse
        for j, name in enumerate(COLUMN_NAMES):
            mcse = draws.flat[:, j].std() / np.sqrt(ess[name])
            assert abs(draws.flat[:, j].mean() - beta_mean[j]) < 4 * mcse, name

    def test_acceptance_rates(self):
        rows = synth_rows(30, constant_effect_beta(), 0.05, np.random.default_rng(24))
        design = build_design(rows)
        draws = fit_posterior(design, PriorConfig.from_design(design), n_draws=2000,
                              n_chains=3, seed=1)
        assert draws.diagnostics.accept_coefficients == (1.0, 1.0, 1.0)
        assert all(0.9 < a <= 1.0 for a in draws.diagnostics.accept_sigma)


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
        diag = Diagnostics(rhat=dict(zip("abc", rhat)), ess=dict(zip("abc", ess)),
                           accept_coefficients=(), accept_sigma=())
        worst_rhat, worst_ess = diag.worst()
        assert np.isnan(worst_rhat) and np.isnan(worst_ess)
        assert not diag.passes()


class TestQueries:
    def test_cate_zero_at_equal_doses(self):
        rng = np.random.default_rng(13)
        draws = manual_draws(rng.normal(size=(50, 16)))
        values = cate_draws(draws, [0.5, 0, 1, 0, 0, 0], 2.0, 2.0)
        assert np.all(values == 0.0)

    def test_cate_additivity_per_draw(self):
        # exact chaining requires a common baseline dose, since the change
        # interacts with the baseline in the model
        rng = np.random.default_rng(14)
        draws = manual_draws(rng.normal(size=(50, 16)))
        x = [0.5, 1.0, 2.0, 0.0, 0.7, 1.0]
        ab = cate_draws(draws, x, 0.0, 1.5, baseline_dose=0.0)
        bc = cate_draws(draws, x, 1.5, 3.5, baseline_dose=0.0)
        ac = cate_draws(draws, x, 0.0, 3.5, baseline_dose=0.0)
        assert np.allclose(ab + bc, ac, atol=1e-12)

    def test_cate_summary_intervals_nested(self):
        rng = np.random.default_rng(15)
        draws = manual_draws(rng.normal(size=(500, 16)))
        summary = cate(draws, [0.5, 0, 1, 0, 0, 0], 1.0, 3.0)
        assert summary.ci95[0] <= summary.ci80[0] <= summary.ci80[1] <= summary.ci95[1]

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
        draws = fit_posterior(design, prior, n_draws=4000, n_chains=2, seed=44,
                              enforce_diagnostics=False)
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
