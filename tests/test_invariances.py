"""The paper's invariances as exact checks.

The dynamics are scale invariant and depend only on rate differences. With a
power-of-two factor c every float operation of these paths scales exactly,
so the checks are bit for bit: `array_equal` or `==`. Two are not, and say
why: the rank-law fit takes log(c x), which is not log c + log x to the bit,
and the linear forecast's reference enters through a least-squares solve.
"""

import numpy as np
import pytest

from multilogistic import (
    Network,
    ShareSeries,
    WalkerEnsemble,
    fit_rates,
    forecast,
    generate_sfin,
    grow_cluster,
    growth_exponents,
    integrate,
)
from multilogistic.maxent import (
    RankDistribution,
    analytic_rank,
    fit_lambda,
    gamma0_inverse,
    solve_lambda,
)

SCALES = [2.0**5, 2.0**-7]


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("n, packing", [(200, 40.0), (60, 1.05)])
def test_walkers_scale_exactly(c, n, packing):
    # packing = total / (n * floor); at 1.05 the floor rejects moves
    floor = 150.0
    base = WalkerEnsemble.uniform(n, packing * n * floor, floor, 0.03, sigma=1.0, seed=7)
    scaled = WalkerEnsemble.uniform(n, c * packing * n * floor, c * floor, 0.03, sigma=1.0,
                                    seed=7)
    base.run(300)
    scaled.run(300)
    assert np.array_equal(scaled.populations, c * base.populations)
    assert np.array_equal(scaled.move_counts, base.move_counts)


@pytest.mark.parametrize("c", SCALES)
def test_rank_law_scales_exactly(c):
    model = solve_lambda(6e6, 1000, 150.0)
    scaled = solve_lambda(c * 6e6, 1000, c * 150.0)
    assert scaled.lam == model.lam
    ranks = np.arange(1, 1001.0)
    assert np.array_equal(analytic_rank(scaled, ranks), c * analytic_rank(model, ranks))


@pytest.mark.parametrize("c", SCALES)
def test_integrate_scales_exactly_and_ignores_a_rate_shift(c):
    # dyadic rates: the shift, and the kernel's centring on the mean, are exact
    x0 = np.array([50.0, 30.0, 15.0, 5.0])
    rates = np.array([0.0, 0.125, 0.375, -0.25])
    traj = integrate(x0, rates, 100.0, 10.0, 0.01)
    assert np.array_equal(integrate(c * x0, rates, c * 100.0, 10.0, 0.01).states,
                          c * traj.states)
    assert np.array_equal(integrate(x0, rates + 0.5, 100.0, 10.0, 0.01).states, traj.states)


def test_cluster_growth_ignores_node_labels():
    net = generate_sfin(500, 20, seed=3)
    perm = np.random.default_rng(8).permutation(net.node_count)  # node i becomes perm[i]
    relabelled = Network.from_edges(net.node_count, perm[net.edge_array()], net.c_max)
    starts = np.arange(0, net.node_count, 7)
    assert np.array_equal(grow_cluster(relabelled, perm[starts]), grow_cluster(net, starts))


def test_linear_forecast_independent_of_reference():
    # rate differences are all the data holds: the exact linear solve gives
    # the same forecast from every reference, up to rounding
    rng = np.random.default_rng(1)
    t = np.arange(-47.0, 1.0)
    x = rng.uniform(1.0, 10.0, 4) * np.exp(rng.normal(0.0, 0.02, (48, 4)).cumsum(axis=0))
    series = ShareSeries(("a", "b", "c", "d"), t, 100.0 * x / x.sum(axis=1, keepdims=True))
    horizon = np.arange(1.0, 61.0)
    outs = [forecast(series, fit_rates(t, growth_exponents(series, ref), ref, form="linear"),
                     horizon).shares
            for ref in range(4)]
    for out in outs[1:]:
        np.testing.assert_allclose(out, outs[0], rtol=1e-12)


def test_rank_fit_scale_equivariant():
    # 800 draws of the law at lam = 0.01 by inverse CDF; scaling the data and
    # the floor by 4 scales the model exactly, and the fit's lam and standard
    # error are taken at the same stationary point
    u = np.random.default_rng(26).uniform(size=800)
    pops = 150.0 / 0.01 * gamma0_inverse(u, 0.01)
    lam, stderr = fit_lambda(RankDistribution.from_sample(pops), 150.0)
    lam4, stderr4 = fit_lambda(RankDistribution.from_sample(4.0 * pops), 600.0)
    assert lam4 == pytest.approx(lam, rel=2e-15, abs=0.0)
    assert stderr4 == pytest.approx(stderr, rel=1e-14, abs=0.0)
