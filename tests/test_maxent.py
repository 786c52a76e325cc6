import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from multilogistic import InputDataError, NumericsError, maxent
from multilogistic.maxent import (
    MaxEntModel,
    RankDistribution,
    analytic_rank,
    filter_populations,
    fit_lambda,
    gamma0,
    gamma0_inverse,
    ks_distance,
    mean_population_from,
    population_cdf,
    solve_lambda,
)

# oracle values for the defining integral int_z^inf e^-t/t dt, computed by
# adaptive quadrature / 30-digit arithmetic and frozen
GAMMA0_ORACLE = {
    1e-8: 17.8434650890508326,
    0.01: 4.03792957653811383,
    0.1: 1.82292395841939067,
    0.8: 0.310596578545543035,
    1.0: 0.219383934395520274,
    10.0: 4.15696892968532428e-6,
    700.0: 1.40651876623403292e-307,
}

# reference equilibrium configuration: total 6e6 over 1000 walkers, floor 150
REF_TOTAL, REF_N, REF_X0 = 6e6, 1000, 150.0
# analytic rank at r = n/2 for that model, frozen from the oracle chain
REF_RANK_HALF = 1624.76345702949198


@pytest.fixture(scope="module")
def model():
    return solve_lambda(REF_TOTAL, REF_N, REF_X0)


class TestGamma0:
    def test_oracle_values(self):
        for z, expected in GAMMA0_ORACLE.items():
            assert gamma0(z) == pytest.approx(expected, rel=1e-10)

    def test_against_quadrature(self):
        for z in [3e-8, 0.05, 0.7, 1.3, 4.0, 25.0]:
            ref, err = quad(lambda t: math.exp(-t) / t, z, np.inf, limit=400)
            assert gamma0(z) == pytest.approx(ref, rel=1e-9)

    def test_strictly_decreasing_positive(self):
        zs = np.geomspace(1e-8, 650.0, 300)
        vals = gamma0(zs)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_large_z_upper_bound(self):
        for z in [2.0, 5.0, 20.0, 100.0]:
            assert gamma0(z) < math.exp(-z) / z

    def test_rejects_nonpositive(self):
        with pytest.raises(InputDataError):
            gamma0(0.0)
        with pytest.raises(InputDataError):
            gamma0(-1.0)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(InputDataError):
                gamma0(np.array([0.5, bad, 2.0]))


def _scaled_gamma0_oracle(z):
    # e^z Gamma(0, z) from exp1 up to 700, where both factors are normal doubles;
    # above, 25 terms of the asymptotic series sum_k (-1)^k k! / z^(k+1), whose
    # truncation error is below 25! / 700^26
    from scipy.special import exp1

    z = np.asarray(z, dtype=float)
    low, high = np.minimum(z, 700.0), np.maximum(z, 700.0)
    term, series = np.ones_like(z), np.zeros_like(z)
    for k in range(25):
        series += term
        term = term * -(k + 1) / high
    return np.where(z > 700.0, series / high, np.exp(low) * exp1(low))


class TestGamma0Inverse:
    def test_round_trip(self):
        for z in [0.01, 1.0, 10.0]:
            assert gamma0_inverse(gamma0(z) / gamma0(1e-3), 1e-3) == pytest.approx(z, rel=1e-9)

    def test_round_trip_wide(self):
        for z in np.geomspace(1e-6, 300.0, 40):
            assert gamma0_inverse(gamma0(z) / gamma0(1e-6), 1e-6) == pytest.approx(z, rel=1e-8)

    def test_inverse_of_oracle_value(self):
        fraction = GAMMA0_ORACLE[1.0] / GAMMA0_ORACLE[0.01]
        assert gamma0_inverse(fraction, 0.01) == pytest.approx(1.0, rel=1e-9)

    def test_fraction_one_returns_lam(self):
        for lam in (1e-12, 0.0054, 1.0, 699.9):
            assert gamma0_inverse(1.0, lam) == lam
            np.testing.assert_array_equal(gamma0_inverse(np.ones(3), lam), lam)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputDataError):
            gamma0_inverse(0.0, 1.0)
        for bad in (0.0, -1.0, np.nan, np.nextafter(1.0, 2.0), 2.0):
            with pytest.raises(InputDataError):
                gamma0_inverse(np.array([0.5, bad, 1.0]), 1.0)
        for lam in (0.0, -1.0, np.nan):
            with pytest.raises(InputDataError):
                gamma0_inverse(0.5, lam)

    def test_continued_fraction_above_the_cap(self):
        # the 40-term continued fraction, used above z = 700, against e^z Gamma(0, z)
        # where that is still a product of normal doubles, and against the series above
        for z in (650.0, 700.0):
            cf = maxent._scaled_gamma0_cf(np.array([z]))[0]
            assert abs(cf / (math.exp(z) * gamma0(z)) - 1.0) <= 4e-16
        z = np.array([700.5, 720.0, 760.0])
        assert np.all(np.abs(maxent._scaled_gamma0_cf(z) / _scaled_gamma0_oracle(z) - 1.0)
                      <= 4e-16)

    @pytest.mark.filterwarnings("error")
    def test_newton_settles_over_the_whole_domain(self, monkeypatch):
        # the rank law Gamma(0, z) = (r/n) Gamma(0, lam) at every rank, from lam = 1e-12
        # up to the cap: no warning, z >= lam, and at most 7 exp1 calls per solve,
        # counting the one for lam. The residual is taken in the scaled form
        # F = (z - lam) + log s(lam) - log s(z) + log(r/n), s(z) = e^z Gamma(0, z);
        # it is at most 1e-12 up to the rounding of its four terms
        import scipy.special

        exp1 = scipy.special.exp1
        calls = []

        def counted(z):
            calls.append(np.size(z))
            return exp1(z)

        eps = np.finfo(float).eps
        for n in (10, 100000):
            fractions = np.arange(1, n + 1.0) / n
            for lam in (1e-12, 0.0054, 1.0, 300.0, 650.0, 692.0, 695.0, 699.0, 699.9):
                calls.clear()
                monkeypatch.setattr(scipy.special, "exp1", counted)
                z = gamma0_inverse(fractions, lam)
                monkeypatch.undo()
                assert 0 < len(calls) <= 7, (n, lam, len(calls))
                assert np.all(np.isfinite(z)) and np.all(z >= lam)
                terms = np.stack([z - lam, np.full(n, math.log(_scaled_gamma0_oracle(lam))),
                                  -np.log(_scaled_gamma0_oracle(z)), np.log(fractions)])
                rounding = 4 * eps * np.abs(terms).sum(axis=0)
                assert np.all(np.abs(terms.sum(axis=0)) <= 1e-12 + rounding), (n, lam)

    def test_range_error_messages(self):
        message = r"^gamma0_inverse requires 0 < fraction <= 1 and lam > 0$"
        for fraction, lam in ((-1.0, 1.0), (np.array([0.5, 1.5]), 1.0), (0.5, 0.0)):
            with pytest.raises(InputDataError, match=message):
                gamma0_inverse(fraction, lam)


class TestSolveLambda:
    def test_reference_configuration_value(self):
        model = solve_lambda(REF_TOTAL, REF_N, REF_X0)
        assert model.lam == pytest.approx(0.00533, rel=5e-3)
        # the printed mean-value identity holds for the per-person rate
        lam_person = model.lam / model.x0
        lhs = math.exp(-lam_person * model.x0) / (lam_person * gamma0(lam_person * model.x0))
        assert lhs == pytest.approx(REF_TOTAL / REF_N, rel=1e-10)

    def test_ohio_2000(self):
        # effective counts: 1015 places - 48 below floor - 4 largest
        model = solve_lambda(6019960.0, 963, 150.0)
        assert model.lam == pytest.approx(0.00507, rel=0.02)

    def test_mean_consistency(self):
        model = solve_lambda(5e5, 200, 50.0)
        assert mean_population_from(model.lam, model.x0) == pytest.approx(5e5 / 200, rel=1e-10)

    def test_mean_near_floor_diverges(self):
        with pytest.raises((NumericsError, InputDataError)):
            solve_lambda(1000.0 * 150.0 * (1.0 + 1e-9), 1000, 150.0)

    @pytest.mark.parametrize("lam", [513.0, 600.0, 699.0])
    def test_round_trip_up_to_the_cap(self, lam):
        # roots just below the cap (700) are solved to full precision
        total = 1000 * mean_population_from(lam, 150.0)
        assert solve_lambda(total, 1000, 150.0).lam == pytest.approx(lam, rel=1e-12)

    def test_round_trip_sweep_up_to_the_cap(self, monkeypatch):
        # 3000 roots from the bracket's end up to just below the cap (700):
        # Newton in log lambda from z = 1e-12 lands on each within 1e-12,
        # leaves a residual of at most 1e-14 and evaluates phi at most 20 times
        lams = np.geomspace(1e-11, 699.9, 3000)
        totals = [1000 * mean_population_from(lam, 150.0) for lam in lams]
        calls = []

        def counted(lam, x0):
            calls.append(lam)
            return mean_population_from(lam, x0)

        monkeypatch.setattr(maxent, "mean_population_from", counted)
        solved, evaluations = [], []
        for total in totals:
            calls.clear()
            solved.append(solve_lambda(total, 1000, 150.0).lam)
            evaluations.append(len(calls))
        monkeypatch.undo()
        solved = np.array(solved)
        ratios = np.array(totals) / (1000 * 150.0)
        phis = np.array([mean_population_from(lam, 1.0) for lam in solved])
        assert np.all(np.abs(solved / lams - 1.0) <= 1e-12)
        assert np.all(np.abs(phis / ratios - 1.0) <= 1e-14)
        assert max(evaluations) <= 20

    def test_mean_above_the_cap_names_it(self):
        # beyond 700 exp(-lam) and Gamma(0, lam) leave the normal double range;
        # the Newton's top iterate, exp(log 700), stays inside the cap
        assert mean_population_from(math.exp(math.log(700.0)), 150.0) > 150.0
        for lam in (700.5, 745.0, 800.0):
            with pytest.raises(NumericsError, match=r"^decay constant .* beyond the cap 700$"):
                mean_population_from(lam, 150.0)

    def test_mean_near_floor_reports_cap(self):
        # ratio 1.001 has its root above z = 700
        with pytest.raises(NumericsError, match="beyond the cap"):
            solve_lambda(1000 * 150.0 * 1.001, 1000, 150.0)

    def test_mean_far_above_floor_reports_bracket(self):
        # the root lies below the solver's bracket at z = 1e-12
        with pytest.raises(NumericsError, match="below the bracket"):
            solve_lambda(1e11 * 150.0, 1, 150.0)

    def test_infeasible_mean(self):
        with pytest.raises(InputDataError):
            solve_lambda(100.0, 10, 50.0)

    def test_runtime_under_millisecond(self):
        solve_lambda(REF_TOTAL, REF_N, REF_X0)  # warm-up
        best = min(
            (lambda t0: (solve_lambda(REF_TOTAL, REF_N, REF_X0), time.perf_counter() - t0)[1])(
                time.perf_counter()
            )
            for _ in range(5)
        )
        assert best < 1e-3


class TestAnalyticRank:
    def test_floor_at_last_rank(self, model):
        assert analytic_rank(model, model.n) == pytest.approx(REF_X0, rel=1e-9)

    def test_frozen_midpoint(self, model):
        assert analytic_rank(model, model.n / 2) == pytest.approx(
            REF_RANK_HALF, rel=1e-9
        )

    def test_monotone_decreasing(self, model):
        r = np.linspace(0.5, model.n, 400)
        vals = analytic_rank(model, r)
        assert np.all(np.diff(vals) < 0.0)

    def test_rejects_out_of_range(self, model):
        with pytest.raises(InputDataError):
            analytic_rank(model, 0.0)
        with pytest.raises(InputDataError):
            analytic_rank(model, model.n + 1)

    def test_mean_value_by_quadrature(self):
        model = solve_lambda(100 * 3000.0, 100, 150.0)
        val, err = quad(
            lambda r: analytic_rank(model, r), 0.0, model.n, limit=400,
            points=[1e-6, 0.01, 1.0],
        )
        assert val == pytest.approx(model.n * mean_population_from(model.lam, model.x0),
                                    rel=1e-4)


class TestCdfAndKs:
    def test_cdf_anchors(self):
        model = solve_lambda(REF_TOTAL, REF_N, REF_X0)
        assert population_cdf(model, REF_X0) == pytest.approx(0.0, abs=1e-12)
        assert population_cdf(model, 1e12) == pytest.approx(1.0, rel=1e-9)
        # CDF at the median rank is 1 - r/n by the rank/quantile duality
        x_half = analytic_rank(model, model.n / 2)
        assert population_cdf(model, x_half) == pytest.approx(0.5, abs=1e-9)

    def test_iid_sample_small_distance(self):
        model = solve_lambda(REF_TOTAL, REF_N, REF_X0)
        rng = np.random.default_rng(42)
        xs = model.x0 / model.lam * gamma0_inverse(rng.uniform(size=1000), model.lam)
        assert ks_distance(xs, model) < 0.06

    def test_wrong_model_large_distance(self):
        model = solve_lambda(REF_TOTAL, REF_N, REF_X0)
        other = solve_lambda(REF_TOTAL / 5, REF_N, REF_X0)
        xs = analytic_rank(model, np.arange(1, 1001.0))
        assert ks_distance(xs, other) > 0.15


class TestFitLambda:
    def test_exact_recovery(self):
        model = solve_lambda(REF_TOTAL, REF_N, REF_X0)
        data = RankDistribution(analytic_rank(model, np.arange(1, 1001.0)))
        lam, stderr = fit_lambda(data, REF_X0)
        assert lam == pytest.approx(model.lam, rel=1e-8)
        assert stderr < 1e-8

    def test_noise_recovery_within_three_stderr(self):
        truth = MaxEntModel(0.005, 150.0, 200)
        clean = analytic_rank(truth, np.arange(1, 201.0))
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean * (1.0 + 0.05 * rng.standard_normal(200))
            data = RankDistribution.from_sample(np.maximum(noisy, 150.0))
            lam, stderr = fit_lambda(data, 150.0)
            if abs(lam - truth.lam) <= 3.0 * stderr:
                hits += 1
        assert hits >= 90

    def test_resolves_lambda_to_rounding(self):
        # scaling a noisy 1000-place sample by 1 +- 1e-15 moves the optimum by
        # about 1e-15; the fit must follow it, not stop where the cost flattens
        model = solve_lambda(REF_TOTAL, REF_N, REF_X0)
        clean = analytic_rank(model, np.arange(1, 1001.0))
        noisy = clean * (1.0 + 0.05 * np.random.default_rng(3).standard_normal(1000))
        pops = np.maximum(noisy, REF_X0)
        lams = [fit_lambda(RankDistribution.from_sample(pops * f), REF_X0)[0]
                for f in (1.0 - 1e-15, 1.0, 1.0 + 1e-15)]
        assert max(lams) - min(lams) < 1e-12 * lams[1]

    def test_each_lambda_modelled_once(self, monkeypatch):
        # each Newton iterate's residuals, Jacobian and curvature come from one
        # evaluation of the rank law: it is computed once per distinct lambda
        model = solve_lambda(REF_TOTAL, REF_N, REF_X0)
        clean = analytic_rank(model, np.arange(1, 1001.0))
        noisy = clean * (1.0 + 0.05 * np.random.default_rng(3).standard_normal(1000))
        data = RankDistribution.from_sample(np.maximum(noisy, REF_X0))
        lams = []

        def counted(model, r):
            lams.append(model.lam)
            return analytic_rank(model, r)

        monkeypatch.setattr(maxent, "analytic_rank", counted)
        fit_lambda(data, REF_X0)
        assert len(lams) >= 2
        assert len(lams) == len(set(lams))

    def test_reaches_the_stationary_point_from_a_far_start(self):
        # the rankfit input of CI with its default --drop-top 4: the fit lands
        # 5x above the solved lambda it starts from, and the stationarity
        # condition G = sum_k res_k J_k changes sign across it
        pops = 150.0 * np.exp(np.random.default_rng(1).exponential(2.0, 300))
        kept, _, _ = filter_populations(pops, 150.0, drop_top=4)
        data = RankDistribution(kept)
        n = len(data)
        lam, _ = fit_lambda(data, 150.0)
        assert solve_lambda(float(kept.sum()), n, 150.0).lam == pytest.approx(0.00305, rel=1e-3)
        assert lam == pytest.approx(0.01533, rel=1e-3)

        def stationarity(lam):
            x = analytic_rank(MaxEntModel(lam, 150.0, n), data.ranks)
            jac = data.ranks / n * np.exp(lam * (x / 150.0 - 1.0)) - 1.0
            return float((np.log(x) - np.log(kept)) @ jac)

        assert stationarity(lam * (1.0 - 1e-12)) < 0.0 < stationarity(lam * (1.0 + 1e-12))

    def test_stops_where_rounding_outweighs_the_step(self):
        # 60 places within 0.5 % of the floor put lam near 474, where the
        # rounding noise of G alone gives steps of about 3e-12 in log lam: the
        # fit stops once the bracket in log lam is 1e-15 |log lam| wide
        pops = 150.0 * (1.0 + 0.005 * np.random.default_rng(0).uniform(size=60))
        lam, stderr = fit_lambda(RankDistribution.from_sample(pops), 150.0)
        assert lam == pytest.approx(474.0858678, rel=1e-9)
        assert stderr == pytest.approx(23.287, rel=1e-4)

    def test_requires_enough_entries(self):
        with pytest.raises(InputDataError):
            fit_lambda(RankDistribution(np.full(4, 200.0)), 150.0)

    def test_rejects_below_floor(self):
        data = RankDistribution(np.linspace(500, 100, 20))
        with pytest.raises(InputDataError):
            fit_lambda(data, 150.0)


class TestHelpers:
    def test_filter_populations(self):
        pops = np.array([10.0, 200.0, 5000.0, 90.0, 300.0, 1e6, 2e6, 400.0, 149.9, 600.0])
        kept, below, top = filter_populations(pops, 150.0, drop_top=2)
        assert below == 3
        assert top == 2
        assert kept[0] == 5000.0
        assert np.all(kept >= 150.0)
        assert kept.size == 5
        # the largest entries count as dropped from the top only if the floor kept them
        kept, below, top = filter_populations(
            np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 200.0, 300.0]), 150.0, drop_top=4)
        assert (kept.size, below, top) == (0, 8, 2)

    def test_rank_distribution_validation(self):
        with pytest.raises(InputDataError):
            RankDistribution(np.array([100.0, 200.0]))

    def test_rank_distribution_ranks_from_position(self):
        data = RankDistribution(np.array([300.0, 200.0, 200.0, 150.0]))
        assert np.array_equal(data.ranks, np.arange(1, 5.0))
        with pytest.raises(InputDataError, match="1-d"):
            RankDistribution(np.array([[300.0, 200.0], [200.0, 150.0]]))

    def test_model_validation(self):
        for lam, x0, n in [(0.0, 150.0, 10), (0.005, -1.0, 10), (0.005, 150.0, 0)]:
            with pytest.raises(InputDataError):
                MaxEntModel(lam, x0, n)
