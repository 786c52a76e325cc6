import math

import numpy as np
import pytest

from multilogistic import (
    InputDataError,
    NumericsError,
    WalkerEnsemble,
    kernels,
    scale_invariance_corr,
)


class TestStep:
    def test_no_noise_no_drift_is_identity(self):
        ens = WalkerEnsemble.uniform(20, 2e4, 150.0, 0.03, sigma=0.0, seed=1)
        before = ens.populations
        ens.run(10)
        np.testing.assert_allclose(ens.populations, before, rtol=1e-12)

    def test_uniform_drift_cancelled_by_correction(self):
        ens = WalkerEnsemble.uniform(20, 2e4, 150.0, 0.03, sigma=0.0, drift=0.8,
                                     seed=1)
        before = ens.populations
        ens.run(10)
        np.testing.assert_allclose(ens.populations, before, rtol=1e-12)

    def test_kernel_steps_on_the_ensembles_move_factors(self):
        # the ensemble turns its Philox normals into exp(dt*(drift + sigma*xi))
        # per walker; the kernel steps on exactly those factors
        rng = np.random.default_rng(4)
        n, dt = 40, 0.05
        sigma, drift = rng.uniform(0.0, 2.0, n), rng.normal(0.0, 0.5, n)
        ens = WalkerEnsemble(rng.uniform(200.0, 2e3, n), n * 900.0, 150.0, dt,
                             sigma=sigma, drift=drift, seed=21)
        x, counts = ens.populations, np.zeros(5, dtype=np.int64)
        xi = np.random.Generator(np.random.Philox(21)).standard_normal((300, n))
        kicks = np.exp(dt * (drift + sigma * xi))
        assert kernels.advance_walkers_seq(x, kicks, ens.total, ens.floor, counts) == -1
        ens.run(300)
        assert np.array_equal(ens.x, x)
        assert ens.move_counts.tolist() == counts.tolist()

    def test_invariants_hold_every_step(self):
        ens = WalkerEnsemble.uniform(100, 6e5, 150.0, 0.03, sigma=1.0, seed=3)
        for _ in range(300):
            ens.run(1)
            assert abs(ens.populations.sum() - ens.total) <= 1e-9 * ens.total
            assert ens.populations.min() >= ens.floor

    def test_invariants_under_heavy_floor_pressure(self):
        # barely-feasible total with large kicks keeps walkers crowded onto
        # the floor, exercising the clamp/whole-move-rejection machinery
        ens = WalkerEnsemble.uniform(50, 50 * 150.0 * 1.05, 150.0, 0.5,
                                     sigma=1.0, seed=8)
        for _ in range(400):
            ens.run(1)
            assert abs(ens.populations.sum() - ens.total) <= 1e-9 * ens.total
            assert ens.populations.min() >= ens.floor * (1.0 - 1e-12)

    def test_same_seed_bit_identical(self):
        a = WalkerEnsemble.uniform(50, 1e5, 150.0, 0.03, sigma=1.0, seed=11)
        b = WalkerEnsemble.uniform(50, 1e5, 150.0, 0.03, sigma=1.0, seed=11)
        a.run(500)
        b.run(500)
        assert np.array_equal(a.u, b.u)

    def test_chunking_does_not_change_stream(self):
        a = WalkerEnsemble.uniform(30, 1e5, 150.0, 0.03, sigma=1.0, seed=12)
        b = WalkerEnsemble.uniform(30, 1e5, 150.0, 0.03, sigma=1.0, seed=12)
        a.run(137)
        for n in (50, 50, 37):
            b.run(n)
        assert np.array_equal(a.u, b.u)

    def test_noise_drawn_in_bounded_blocks(self):
        # 1000 walkers over 1000 steps: the normals come in blocks of 2 MiB
        # (262 steps), not all 8 MB at once; block edges leave the stream as it is
        import tracemalloc

        a = WalkerEnsemble.uniform(1000, 6e6, 150.0, 0.03, sigma=1.0, seed=5)
        b = WalkerEnsemble.uniform(1000, 6e6, 150.0, 0.03, sigma=1.0, seed=5)
        tracemalloc.start()
        try:
            a.run(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        for _ in range(4):
            b.run(250)
        assert np.array_equal(a.u, b.u)


class TestConstruction:
    def test_floor_infeasible(self):
        with pytest.raises(InputDataError):
            WalkerEnsemble.uniform(100, 100 * 150.0, 150.0, 0.03, sigma=1.0)

    def test_single_walker_rejected(self):
        with pytest.raises(InputDataError):
            WalkerEnsemble.uniform(1, 1e4, 150.0, 0.03, sigma=1.0)

    def test_start_below_floor_rejected(self):
        with pytest.raises(InputDataError):
            WalkerEnsemble(np.array([100.0, 1e4]), 1.01e4, 150.0, 0.03, sigma=1.0)


class TestRunToEquilibrium:
    def test_no_noise_keeps_flat_table(self):
        ens = WalkerEnsemble.uniform(20, 2e4, 150.0, 0.03, sigma=0.0, seed=5)
        stats = ens.run_to_equilibrium(10, 2, 3)
        np.testing.assert_allclose(stats.rank_table.populations, 1e3, rtol=1e-12)
        assert math.isnan(stats.corr_coeff)  # diagnostic undefined at sigma=0

    def test_stats_deterministic(self):
        def stats():
            ens = WalkerEnsemble.uniform(40, 4e4, 150.0, 0.03, sigma=1.0, seed=9)
            return ens.run_to_equilibrium(200, 10, 5)

        a, b = stats(), stats()
        assert np.array_equal(a.rank_table.populations, b.rank_table.populations)
        assert a.corr_coeff == b.corr_coeff
        assert a.step_count == b.step_count

    def test_rank_table_sorted_and_counts_steps(self):
        ens = WalkerEnsemble.uniform(40, 4e4, 150.0, 0.03, sigma=1.0, seed=10)
        stats = ens.run_to_equilibrium(100, 5, 4)
        assert np.all(np.diff(stats.rank_table.populations) <= 0.0)
        assert stats.step_count == 100 + 1 + 3 * 5
        assert -1.0 <= stats.corr_coeff <= 1.0

    def test_move_counts_cover_every_move(self):
        ens = WalkerEnsemble.uniform(40, 4e4, 150.0, 0.03, sigma=1.0, seed=10)
        stats = ens.run_to_equilibrium(100, 5, 4)
        counts = (stats.accepted_moves, stats.mover_rejections, stats.rescale_rejections)
        assert sum(counts) == stats.step_count * ens.n
        assert stats.accepted_moves > 0

    def test_step_counts_cover_every_step(self):
        # packing 1.5: the bound settles some steps, the fixed point the rest
        ens = WalkerEnsemble.uniform(40, 9e3, 150.0, 0.03, sigma=1.0, seed=10)
        stats = ens.run_to_equilibrium(100, 5, 4)
        assert 0 < stats.bound_settled_steps < stats.step_count
        assert stats.fixed_point_rounds >= stats.step_count - stats.bound_settled_steps
        assert ens.move_counts[3:].tolist() == [stats.bound_settled_steps,
                                                stats.fixed_point_rounds]


class TestScaleInvarianceCorr:
    def test_constructed_positive_control(self):
        # velocities whose squares reproduce the levels exactly: corr = 1
        rng = np.random.default_rng(2)
        z = rng.uniform(0.5, 3.0, size=500)
        dt = 0.03
        snaps = np.stack([z**2, z**2 + dt * z])
        assert scale_invariance_corr(snaps, dt) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_velocities_error(self):
        u0 = np.array([1.0, 2.0, 3.0])
        snaps = np.stack([u0, u0 + 0.5])  # identical velocity for all walkers
        with pytest.raises(NumericsError):
            scale_invariance_corr(snaps, 0.1)

    def test_needs_two_snapshots(self):
        with pytest.raises(InputDataError):
            scale_invariance_corr(np.ones((1, 5)), 0.1)

    def test_equilibrium_run_uncorrelated(self):
        ens = WalkerEnsemble.uniform(200, 1.2e6, 150.0, 0.03, sigma=1.0, seed=21)
        stats = ens.run_to_equilibrium(3000, 50, 10)
        assert abs(stats.corr_coeff) < 0.15


@pytest.mark.slow
class TestThermalization:
    def test_rank_table_converges_with_sample_count(self):
        # equal sigmas and drifts (the thermalized case): averaging more
        # snapshots pulls the rank table toward the analytic law
        from multilogistic import ks_distance, solve_lambda

        ens = WalkerEnsemble.uniform(1000, 6e6, 150.0, 0.03, sigma=1.0, seed=77)
        ens.run(100_000)
        model = solve_lambda(6e6, 1000, 150.0)
        tables = []
        for _ in range(30):
            tables.append(np.sort(ens.populations)[::-1])
            ens.run(500)
        tables = np.asarray(tables)
        ks_few = ks_distance(tables[:3].mean(axis=0), model)
        ks_many = ks_distance(tables.mean(axis=0), model)
        assert ks_many < ks_few
        assert ks_many < 0.05
