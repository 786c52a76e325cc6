import numpy as np
import pytest

from multilogistic import (
    InputDataError,
    LogisticParams,
    RateFit,
    ShareSeries,
    closed_form,
    fit_rates,
    forecast,
    growth_exponents,
    sigmoid,
)

# reference damped-exponential parameters used as generator truth
TRUTH_A, TRUTH_B, TRUTH_C = 0.0579, 0.0097, 0.104


def constant_rate_series(rates=(0.0, 0.1, 0.3), t_lo=-24, t_hi=12):
    times = np.arange(t_lo, t_hi + 1, dtype=float)
    x0 = np.array([50.0, 30.0, 20.0])
    shares = closed_form(x0, np.asarray(rates), 100.0, times)
    return ShareSeries(("alpha", "beta", "gamma"), times, shares)


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

    @pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
    def test_linear_and_exponential_agree_when_undamped(self):
        # exactly linear data leaves b unidentifiable: the covariance is
        # singular and b's stderr is reported infinite, which is correct
        times = np.arange(-30.0, 1.0)
        h = np.zeros((times.size, 2))
        h[:, 1] = 0.05 * times + 0.02
        fe = fit_rates(times, h, 0, form="exponential")
        fl = fit_rates(times, h, 0, form="linear")
        assert fe.a[1] == pytest.approx(fl.a[1], rel=1e-6)
        assert fe.c[1] == pytest.approx(fl.c[1], abs=1e-6)
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
