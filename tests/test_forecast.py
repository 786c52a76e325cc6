import importlib
import warnings

import numpy as np
import pytest

from multilogistic import (
    InputDataError,
    LogisticParams,
    NumericsError,
    RateFit,
    ShareSeries,
    closed_form,
    fit_rates,
    forecast,
    growth_exponents,
    sigmoid,
)

forecast_module = importlib.import_module("multilogistic.forecast")

# reference damped-exponential parameters used as generator truth
TRUTH_A, TRUTH_B, TRUTH_C = 0.0579, 0.0097, 0.104


def constant_rate_series(rates=(0.0, 0.1, 0.3), t_lo=-24, t_hi=12):
    times = np.arange(t_lo, t_hi + 1, dtype=float)
    x0 = np.array([50.0, 30.0, 20.0])
    shares = closed_form(x0, np.asarray(rates), 100.0, times)
    return ShareSeries(("alpha", "beta", "gamma"), times, shares)


def damped_share_series(rng, months=240, comps=60):
    """The benchmark's forecast inputs: damped exponents a*exp(-b*t)*t against
    component 0, 0.2 % multiplicative noise, monthly percentage shares. Returns
    the series and the generating a and b."""
    t = np.arange(-(months - 1), 1.0)
    a = rng.uniform(0.5, 2.0, comps) / months * rng.choice([-1.0, 1.0], comps)
    b = rng.uniform(0.3, 1.2, comps) / months
    h = a * np.exp(-b * t[:, None]) * t[:, None]
    h[:, 0] = 0.0
    x = rng.uniform(1.0, 10.0, comps) * np.exp(h + 0.002 * rng.standard_normal(h.shape))
    shares = 100.0 * x / x.sum(axis=1, keepdims=True)
    return ShareSeries([f"c{i:02d}" for i in range(comps)], t, shares), a, b


def residuals(fit, times, h):
    return ((fit.exponents_at(times) - h) ** 2).sum(axis=0)


def grid_then_newton(times, h):
    """Least residual of each column of h by a*t*exp(-b*t) + c, independently of
    fit_rates: a 4001-point grid over b*max|t| in [-20, 20], (a, c) by lstsq,
    then Newton steps in b on central differences of the residual."""
    scale = np.abs(times).max()

    def rss(col, b):
        basis = np.column_stack([times * np.exp(-b * times), np.ones_like(times)])
        return np.sum((col - basis @ np.linalg.lstsq(basis, col, rcond=None)[0]) ** 2, axis=0)

    grid = np.linspace(-20.0, 20.0, 4001) / scale
    start = grid[np.argmin([rss(h, g) for g in grid], axis=0)]
    best = []
    for col, b in zip(h.T, start):
        d = 1e-6 / scale
        for _ in range(30):
            f0, fp, fm = rss(col, b), rss(col, b + d), rss(col, b - d)
            curv = (fp - 2.0 * f0 + fm) / d ** 2
            if curv <= 0.0:
                break
            nb = b - (fp - fm) / (2.0 * d) / curv
            if rss(col, nb) > f0:
                break
            b = nb
        best.append(rss(col, b))
    return np.array(best)


class TestShareSeries:
    def test_row_sum_tolerance(self):
        with pytest.raises(InputDataError):
            ShareSeries(("a", "b"), [0.0, 1.0], [[30.0, 30.0], [30.0, 30.0]])

    def test_needs_epoch_row(self):
        s = ShareSeries(("a", "b"), [1.0, 2.0], [[50.0, 50.0], [50.0, 50.0]])
        with pytest.raises(InputDataError):
            s.epoch_index()

    def test_positive_shares_required(self):
        with pytest.raises(InputDataError):
            ShareSeries(("a", "b"), [0.0, 1.0], [[100.0, 0.0], [50.0, 50.0]])

    def test_times_strictly_increasing(self):
        with pytest.raises(InputDataError):
            ShareSeries(("a", "b"), [0.0, 0.0], [[50.0, 50.0], [50.0, 50.0]])


class TestGrowthExponents:
    def test_constant_rates_give_linear_exponents(self):
        series = constant_rate_series()
        h = growth_exponents(series, ref_index=0)
        np.testing.assert_allclose(h[:, 1], 0.1 * series.times, atol=1e-10)
        np.testing.assert_allclose(h[:, 2], 0.3 * series.times, atol=1e-10)
        assert np.all(h[:, 0] == 0.0)

    def test_constant_shares_give_zero(self):
        times = np.arange(-5.0, 6.0)
        shares = np.tile([50.0, 30.0, 20.0], (11, 1))
        h = growth_exponents(ShareSeries(("a", "b", "c"), times, shares), 0)
        np.testing.assert_allclose(h, 0.0, atol=1e-14)

    def test_reference_swap_shifts_by_new_reference(self):
        series = constant_rate_series()
        h0 = growth_exponents(series, 0)
        h1 = growth_exponents(series, 1)
        np.testing.assert_allclose(h1, h0 - h0[:, 1][:, None], atol=1e-10)


class TestFitRates:
    def test_recovers_reference_parameters_noiseless(self):
        times = np.arange(-48.0, 1.0)
        h = np.zeros((times.size, 2))
        h[:, 1] = TRUTH_A * np.exp(-TRUTH_B * times) * times + TRUTH_C
        fit = fit_rates(times, h, ref_index=0)
        assert fit.a[1] == pytest.approx(TRUTH_A, rel=1e-6)
        assert fit.b[1] == pytest.approx(TRUTH_B, rel=1e-6)
        assert fit.c[1] == pytest.approx(TRUTH_C, rel=1e-6)

    def test_linear_and_exponential_agree_when_undamped(self):
        # exactly linear data is fitted exactly by both forms; the stderr rule
        # scales by the residual, so both report finite errors near 0
        times = np.arange(-30.0, 1.0)
        h = np.zeros((times.size, 2))
        h[:, 1] = 0.05 * times + 0.02
        fe = fit_rates(times, h, 0, form="exponential")
        fl = fit_rates(times, h, 0, form="linear")
        assert fe.a[1] == pytest.approx(fl.a[1], rel=1e-6)
        assert fe.c[1] == pytest.approx(fl.c[1], abs=1e-6)
        assert np.all(np.isfinite(fe.stderr)) and np.all(fe.stderr < 1e-12)
        assert np.all(np.isfinite(fl.stderr)) and np.all(fl.stderr < 1e-12)
        assert fl.stderr[1, 1] == 0.0
        # a linear fit is the damped model with b held at 0, exactly a*t + c
        assert fl.b[1] == 0.0
        assert np.array_equal(fl.exponents_at(times)[:, 1], fl.a[1] * times + fl.c[1])

    def test_noise_coverage_three_stderr(self):
        times = np.arange(-48.0, 1.0)
        clean = TRUTH_A * np.exp(-TRUTH_B * times) * times + TRUTH_C
        scale = 0.01 * np.abs(clean).max()
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            h = np.zeros((times.size, 2))
            h[:, 1] = clean + scale * rng.standard_normal(times.size)
            fit = fit_rates(times, h, 0)
            ok = (
                abs(fit.a[1] - TRUTH_A) <= 3 * fit.stderr[1, 0]
                and abs(fit.b[1] - TRUTH_B) <= 3 * fit.stderr[1, 1]
                and abs(fit.c[1] - TRUTH_C) <= 3 * fit.stderr[1, 2]
            )
            hits += ok
        assert hits >= 45  # >= 90% joint coverage over 50 seeds

    def test_needs_five_samples(self):
        with pytest.raises(InputDataError):
            fit_rates(np.arange(4.0), np.zeros((4, 2)), 0)

    @pytest.mark.parametrize("form", ["exponential", "linear"])
    def test_stderr_from_the_scaled_jacobian(self, form):
        # sqrt(diag((J^T J)^-1) * RSS / (T - p)), J the Jacobian in (a, b, c) at the fit
        times = np.arange(-48.0, 1.0)
        h = np.zeros((times.size, 2))
        h[:, 1] = (TRUTH_A * np.exp(-TRUTH_B * times) * times + TRUTH_C
                   + 0.01 * np.random.default_rng(3).standard_normal(times.size))
        fit = fit_rates(times, h, 0, form=form)
        a, b = fit.a[1], fit.b[1]
        damped = times * np.exp(-b * times)
        jac = np.column_stack([damped, -a * times * damped, np.ones_like(times)])
        free = [0, 1, 2] if form == "exponential" else [0, 2]
        jac = jac[:, free]
        rss = residuals(fit, times, h)[1]
        cov = np.linalg.inv(jac.T @ jac) * rss / (times.size - len(free))
        np.testing.assert_allclose(fit.stderr[1, free], np.sqrt(np.diag(cov)), rtol=1e-8)

    def test_global_minimum_on_the_benchmark_series(self):
        # a fit started from b = 0 took component 57 into the basin at b = -0.0255,
        # with a residual of 33.6; the global fit recovers the generating a and b
        series, a_true, b_true = damped_share_series(np.random.default_rng(5))
        h = growth_exponents(series, 0)
        fit = fit_rates(series.times, h, 0)
        rss = residuals(fit, series.times, h)
        assert rss[57] == pytest.approx(0.00202, rel=0.01)
        assert fit.a[57] == pytest.approx(a_true[57], rel=1e-3)
        assert fit.b[57] == pytest.approx(b_true[57], rel=1e-3)
        np.testing.assert_allclose(rss[1:], grid_then_newton(series.times, h[:, 1:]), rtol=1e-9)

    def test_component_on_the_reference_path(self):
        series, _, _ = damped_share_series(np.random.default_rng(8), months=36, comps=4)
        shares = series.shares.copy()
        shares[:, 2] = shares[:, 0]
        shares *= 100.0 / shares.sum(axis=1, keepdims=True)
        twin = ShareSeries(series.components, series.times, shares)
        h = growth_exponents(twin, 0)
        assert np.all(h[:, 2] == 0.0)
        fit = fit_rates(twin.times, h, 0)
        assert (fit.a[2], fit.b[2], fit.c[2]) == (0.0, 0.0, 0.0)
        assert np.all(np.isinf(fit.stderr[2]))  # b is not identified when a = 0
        linear = fit_rates(twin.times, h, 0, form="linear")
        assert (linear.a[2], linear.b[2], linear.c[2]) == (0.0, 0.0, 0.0)
        assert np.all(linear.stderr[2] == 0.0)

    def test_no_runtime_warnings(self):
        series, _, _ = damped_share_series(np.random.default_rng(5))
        times = series.times
        noise = np.random.default_rng(2).standard_normal((times.size, 40))
        exact = np.zeros((times.size, 3))
        exact[:, 1] = 0.01 * times
        exact[:, 2] = 0.7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in (growth_exponents(series, 0), noise, np.cumsum(0.05 * noise, axis=0), exact):
                for form in ("exponential", "linear"):
                    fit = fit_rates(times, h, 0, form=form)
                    assert np.all(np.isfinite(residuals(fit, times, h)))

    def test_non_settling_fit_names_its_components(self, monkeypatch):
        series, _, _ = damped_share_series(np.random.default_rng(8), months=36, comps=4)
        monkeypatch.setattr(forecast_module, "_STEPS", 1)
        with pytest.raises(NumericsError, match=r"components \[0, 2, 3\]"):
            fit_rates(series.times, growth_exponents(series, 1), 1)

    def test_bad_times_and_exponents_rejected(self):
        times = np.arange(-9.0, 1.0)
        with pytest.raises(InputDataError):
            fit_rates(times[::-1], np.zeros((10, 2)), 0)
        h = np.zeros((10, 2))
        h[3, 1] = np.nan
        with pytest.raises(InputDataError):
            fit_rates(times, h, 0)


class TestForecast:
    def test_round_trip_on_training_times(self):
        series = constant_rate_series()
        h = growth_exponents(series, 0)
        fit = fit_rates(series.times, h, 0)
        out = forecast(series, fit, series.times, n_prime_factor=1.0)
        np.testing.assert_allclose(out.shares, series.shares, rtol=1e-8)

    def test_two_component_reduces_to_sigmoid(self):
        k = 0.2
        times = np.arange(-10.0, 11.0)
        x0 = np.array([70.0, 30.0])
        shares = closed_form(x0, np.array([0.0, k]), 100.0, times)
        series = ShareSeries(("r", "g"), times, shares)
        fit = fit_rates(series.times, growth_exponents(series, 0), 0)
        horizon = np.arange(1.0, 61.0)
        out = forecast(series, fit, horizon)
        expected = sigmoid(LogisticParams(k, 100.0, 30.0), horizon)
        np.testing.assert_allclose(out.shares[:, 1], expected, rtol=1e-7)

    def test_reference_change_invariance_constant_rates(self):
        series = constant_rate_series()
        horizon = np.arange(1.0, 25.0)
        outs = []
        for ref in (0, 1, 2):
            fit = fit_rates(series.times, growth_exponents(series, ref), ref)
            outs.append(forecast(series, fit, horizon).shares)
        np.testing.assert_allclose(outs[1], outs[0], rtol=1e-8)
        np.testing.assert_allclose(outs[2], outs[0], rtol=1e-8)

    def test_total_scale_factor_reported_raw(self):
        series = constant_rate_series()
        fit = fit_rates(series.times, growth_exponents(series, 0), 0)
        out = forecast(series, fit, np.array([6.0, 12.0]), n_prime_factor=1.03)
        np.testing.assert_allclose(out.shares.sum(axis=1), 103.0, rtol=1e-12)

    def test_long_horizon_saturates_below_total(self):
        series = constant_rate_series(rates=(0.0, 0.02, 0.08))
        fit = fit_rates(series.times, growth_exponents(series, 0), 0)
        far = forecast(series, fit, np.array([600.0]))
        assert far.shares[0, 2] == pytest.approx(100.0, rel=1e-3)
        assert far.shares[0, 2] < 100.0

    def test_exponent_overflow_handled(self):
        # exponent spread of 500 overflows a naive exp() but not the
        # shifted evaluation; losing shares stay positive (~e^-500)
        series = constant_rate_series(rates=(0.0, 0.1, 0.5))
        fit = RateFit(
            a=np.array([0.0, 0.0, 5.0]), b=np.zeros(3), c=np.zeros(3),
            stderr=np.zeros((3, 3)), ref_index=0,
        )
        out = forecast(series, fit, np.array([100.0]))
        assert np.all(np.isfinite(out.shares))
        assert out.shares[0, 2] == pytest.approx(100.0)
