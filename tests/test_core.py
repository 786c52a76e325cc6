import math

import numpy as np
import pytest

from multilogistic import (
    ConstantRates,
    InputDataError,
    LogisticParams,
    ParametricRates,
    closed_form,
    integrate,
    mcle_rhs,
    share_composition,
    sigmoid,
)

# direct high-accuracy evaluation of the 3-component example, frozen
# (denominator 50 + 30e + 20e^2; cross-checked against mpmath)
THREE_COMP_T1 = np.array(
    [17.9000020574273818, 29.1943501932506251, 52.9056477493219931]
)


def random_system(rng, n):
    x0 = rng.uniform(0.5, 10.0, size=n)
    total = float(x0.sum())
    rates = rng.uniform(-2.0, 2.0, size=n)
    return x0, rates, total


class TestRhs:
    def test_zero_rates(self):
        out = mcle_rhs(np.array([50.0, 50.0]), np.zeros(2), 100.0)
        assert np.all(out == 0.0)

    def test_two_component_reduces_to_single_logistic(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            total = rng.uniform(1.0, 1e4)
            x = rng.uniform(0.01, 0.99) * total
            k1, k2 = rng.uniform(-3, 3, size=2)
            out = mcle_rhs(np.array([x, total - x]), np.array([k1, k2]), total)
            expected = (k1 - k2) * x * (1.0 - x / total)
            assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_rate_shift_leaves_rhs_unchanged(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x0, rates, total = random_system(rng, 5)
            shifted = mcle_rhs(x0, rates + 1.7, total)
            base = mcle_rhs(x0, rates, total)
            scale = np.abs(base).max() + 1e-30
            assert np.abs(shifted - base).max() < 1e-12 * max(scale, total)

    def test_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(2, 12)
            x0, rates, total = random_system(rng, n)
            out = mcle_rhs(x0, rates, total)
            assert abs(out.sum()) <= 1e-12 * total * max(np.abs(rates).max(), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InputDataError):
            mcle_rhs(np.ones(3), np.ones(2), 3.0)

    def test_nonpositive_total(self):
        with pytest.raises(InputDataError):
            mcle_rhs(np.ones(2), np.ones(2), 0.0)


class TestClosedForm:
    def test_identity_at_t0(self):
        x0 = np.array([50.0, 30.0, 20.0])
        out = closed_form(x0, np.array([0.0, 1.0, 2.0]), 100.0, 0.0)
        np.testing.assert_allclose(out, x0, rtol=1e-14)

    def test_three_component_frozen_value(self):
        out = closed_form(
            np.array([50.0, 30.0, 20.0]), np.array([0.0, 1.0, 2.0]), 100.0, 1.0
        )
        np.testing.assert_allclose(out, THREE_COMP_T1, rtol=1e-12)

    def test_rows_sum_to_total(self):
        rng = np.random.default_rng(4)
        x0, rates, total = random_system(rng, 7)
        t = np.linspace(0.0, 40.0, 17)
        states = closed_form(x0, rates, total, t)
        np.testing.assert_allclose(states.sum(axis=1), total, rtol=1e-12)

    def test_sigmoid_reduction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            total = rng.uniform(1.0, 1e3)
            x0 = rng.uniform(0.05, 0.95) * total
            k1, k2 = rng.uniform(-2, 2, size=2)
            t = rng.uniform(-5, 5)
            full = closed_form(np.array([x0, total - x0]), np.array([k1, k2]), total, t)
            single = sigmoid(LogisticParams(k1 - k2, total, x0), t)
            assert full[0] == pytest.approx(single, rel=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            x0, rates, total = random_system(rng, 4)
            c = rng.uniform(0.01, 100.0)
            t = rng.uniform(0.0, 3.0)
            scaled = closed_form(c * x0, rates, c * total, t)
            base = closed_form(x0, rates, total, t)
            np.testing.assert_allclose(scaled, c * base, rtol=1e-12)

    def test_rate_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x0, rates, total = random_system(rng, 4)
            k0 = rng.uniform(-5, 5)
            t = rng.uniform(0.0, 3.0)
            np.testing.assert_allclose(
                closed_form(x0, rates + k0, total, t),
                closed_form(x0, rates, total, t),
                rtol=1e-12,
            )

    def test_overflow_safe_for_huge_exponents(self):
        out = closed_form(np.array([50.0, 50.0]), np.array([0.0, 500.0]), 100.0, 10.0)
        assert np.all(np.isfinite(out))
        assert out[1] == pytest.approx(100.0)

    def test_rejects_inconsistent_total(self):
        with pytest.raises(InputDataError):
            closed_form(np.array([1.0, 1.0]), np.zeros(2), 100.0, 1.0)


class TestIntegrate:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(8)
        x0, rates, total = random_system(rng, 6)
        traj = integrate(x0, ConstantRates(rates), total, 5.0, 1e-3)
        exact = closed_form(x0, rates, total, traj.times)
        rel = np.abs(traj.states - exact) / np.abs(exact)
        assert rel.max() < 1e-6

    def test_equal_rates_is_fixed_point(self):
        x0 = np.array([10.0, 20.0, 30.0])
        traj = integrate(x0, np.full(3, 0.7), 60.0, 2.0, 1e-2)
        np.testing.assert_allclose(
            traj.states, np.broadcast_to(x0, traj.states.shape), rtol=1e-12
        )

    def test_per_step_conservation(self):
        rng = np.random.default_rng(9)
        x0, rates, total = random_system(rng, 5)
        traj = integrate(x0, rates, total, 3.0, 1e-2)
        assert np.abs(traj.states.sum(axis=1) - total).max() <= 1e-12 * total

    def test_parametric_linear_exponent_matches_constant(self):
        x0 = np.array([40.0, 35.0, 25.0])
        rates = np.array([0.3, -0.2, 0.1])
        pr = ParametricRates(exponents=lambda t: rates * t)
        a = integrate(x0, pr, 100.0, 2.0, 1e-2)
        b = integrate(x0, ConstantRates(rates), 100.0, 2.0, 1e-2)
        np.testing.assert_allclose(a.states, b.states, rtol=1e-6)

    def test_parametric_with_analytic_derivative(self):
        x0 = np.array([60.0, 40.0])
        pr = ParametricRates(
            exponents=lambda t: np.array([0.0, 0.5 * t**2]),
            derivative=lambda t: np.array([0.0, t]),
        )
        traj = integrate(x0, pr, 100.0, 1.0, 1e-3)
        # cumulative exponent h(1) = (0, 1/2) plugged into the exact solution
        exact = share_composition(x0, np.array([[0.0, 0.5]]), 100.0)[0]
        np.testing.assert_allclose(traj.states[-1], exact, rtol=1e-8)

    @pytest.mark.parametrize("length", [1, 3])
    def test_parametric_wrong_length_rejected(self, length):
        pr = ParametricRates(exponents=lambda t: np.full(length, t))
        with pytest.raises(InputDataError, match=rf"shape \({length},\), expected \(2,\)"):
            integrate(np.array([60.0, 40.0]), pr, 100.0, 1.0, 1e-2)

    def test_parametric_ragged_rejected(self):
        # a rates_at whose length changes along the run is an input error, not numpy's
        pr = ParametricRates(exponents=lambda t: np.zeros(2),
                             derivative=lambda t: np.zeros(2 if t < 0.5 else 3))
        with pytest.raises(InputDataError, match=r"shape \(3,\), expected \(2,\)"):
            integrate(np.array([60.0, 40.0]), pr, 100.0, 1.0, 1e-2)

    def test_parametric_rates_once_per_half_step(self):
        # the end of a step is the start of the next: 2 steps + 1 evaluations
        times = []
        pr = ParametricRates(exponents=lambda t: np.array([0.0, 0.3 * t]),
                             derivative=lambda t: times.append(t) or np.array([0.0, 0.3]))
        traj = integrate(np.array([60.0, 40.0]), pr, 100.0, 1.0, 1e-2)
        assert len(times) == 2 * 100 + 1
        assert times[::2] == traj.times.tolist()


class TestSigmoid:
    def test_at_origin(self):
        p = LogisticParams(rate=1.3, capacity=50.0, x0=12.0)
        assert sigmoid(p, 0.0) == pytest.approx(12.0, rel=1e-14)

    def test_zero_rate_constant(self):
        p = LogisticParams(rate=0.0, capacity=50.0, x0=12.0)
        t = np.linspace(-20, 20, 7)
        np.testing.assert_allclose(sigmoid(p, t), 12.0, rtol=1e-14)

    def test_hand_value_ln3(self):
        p = LogisticParams(rate=1.0, capacity=1.0, x0=0.5)
        assert sigmoid(p, math.log(3.0)) == pytest.approx(0.75, rel=1e-14)

    def test_monotone_and_limits(self):
        p = LogisticParams(rate=0.8, capacity=10.0, x0=1.0)
        # keep the log-odds away from double saturation so diffs stay strict
        t = np.linspace(-35, 35, 101)
        vals = sigmoid(p, t)
        assert np.all(np.diff(vals) > 0.0)
        assert sigmoid(p, -1e4) == pytest.approx(0.0, abs=1e-12)
        assert sigmoid(p, 1e4) == pytest.approx(10.0, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(InputDataError):
            LogisticParams(rate=1.0, capacity=10.0, x0=10.0)
        with pytest.raises(InputDataError):
            LogisticParams(rate=1.0, capacity=-1.0, x0=0.5)
