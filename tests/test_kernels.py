import math
import tracemalloc

import numpy as np
import pytest

from multilogistic import (
    NumericsError,
    closed_form,
    integrate,
    kernels,
)
from multilogistic.maxent import analytic_rank, solve_lambda


def _two_smallest(x):
    n = x.shape[0]
    i1 = 0
    i2 = 0
    v1 = 1e308
    v2 = 1e308
    for i in range(n):
        if x[i] < v1:
            i2 = i1
            v2 = v1
            i1 = i
            v1 = x[i]
        elif x[i] < v2:
            i2 = i
            v2 = x[i]
    return i1, v1, i2, v2


def _reference_walkers_seq(x, kicks, total, floor, counts):
    # The sequential walker written directly on the numpy arrays, one move at
    # a time with a running rescale multiplier: the definition whose
    # decisions kernels.advance_walkers_seq must reproduce move for move.
    # Walker i's move in step s multiplies it by kicks[s, i]. counts gets
    # (accepted, mover rejections, rescale rejections) added.
    steps = kicks.shape[0]
    n = x.shape[0]
    mult = 1.0
    s_true = 0.0
    for i in range(n):
        s_true += x[i]
    i1, v1, i2, v2 = _two_smallest(x)
    for s in range(steps):
        for i in range(n):
            a = x[i]
            b = a * kicks[s, i]
            s_new = s_true + mult * (b - a)
            if not (s_new > 0.0 and math.isfinite(s_new)):
                return s
            rho = total / s_new
            m_new = mult * rho
            if b * m_new < floor:
                counts[1] += 1
                continue
            if rho < 1.0:
                vmin = v2 if i == i1 else v1
                if vmin * m_new < floor:
                    counts[2] += 1
                    continue
            counts[0] += 1
            x[i] = b
            mult = m_new
            s_true = total
            if i == i1:
                if b <= v2:
                    v1 = b
                else:
                    i1, v1, i2, v2 = _two_smallest(x)
            elif i == i2:
                if b < v1:
                    i2 = i1
                    v2 = v1
                    i1 = i
                    v1 = b
                elif b <= v2:
                    v2 = b
                else:
                    i1, v1, i2, v2 = _two_smallest(x)
            else:
                if b < v1:
                    i2 = i1
                    v2 = v1
                    i1 = i
                    v1 = b
                elif b < v2:
                    i2 = i
                    v2 = b
        acc = 0.0
        for q in range(n):
            x[q] *= mult
            acc += x[q]
        mult = 1.0
        s_true = acc
        i1, v1, i2, v2 = _two_smallest(x)
    return -1


def _law_setup(n, packing, steps, seed):
    # populations on the equilibrium rank law of n walkers at the given
    # packing total/(n*floor), in random order, with `steps` rows of the move
    # factors exp(dt*xi) at dt = 0.03, sigma = 1 and no drift
    floor = 150.0
    total = packing * n * floor
    law = analytic_rank(solve_lambda(total, n, floor), np.arange(n) + 0.5)
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.permutation(np.maximum(law * (total / law.sum()), floor))
    x *= total / x.sum()
    kicks = np.exp(0.03 * rng.standard_normal((steps, n)))
    return x, kicks, total, floor


@pytest.fixture
def walker_setup():
    rng = np.random.Generator(np.random.Philox(99))
    n = 60
    x = np.full(n, 2e5)
    kicks = np.exp(0.03 * rng.standard_normal((150, n)))
    return x, kicks, float(n * 2e5), 150.0


@pytest.fixture
def equilibrium_setup():
    # the reference packing: the smallest walker sits near the floor
    return _law_setup(1000, 40.0, 40, seed=5)


@pytest.fixture
def packed_setup():
    # barely feasible: most moves wait for room made by the moves before them
    return _law_setup(1000, 1.05, 40, seed=6)


def _assert_agrees(setup):
    # the same decisions as the oracle (its three counts) and the same state
    # up to summation order; returns the oracle's counts
    x, kicks, total, floor = setup
    a, b = x.copy(), x.copy()
    want = np.zeros(3, dtype=np.int64)
    got = np.zeros(5, dtype=np.int64)
    assert _reference_walkers_seq(a, kicks, total, floor, want) == -1
    assert kernels.advance_walkers_seq(b, kicks, total, floor, got) == -1
    assert got[:3].tolist() == want.tolist()
    assert want.sum() == kicks.size  # every move is counted once
    # a step the bound does not settle takes at least one round
    assert 0 <= got[3] <= kicks.shape[0] and got[4] >= kicks.shape[0] - got[3]
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)
    return want


class TestBackendAgreement:
    def test_sequential_walkers(self, walker_setup):
        _assert_agrees(walker_setup)

    def test_sequential_walkers_at_equilibrium(self, equilibrium_setup):
        accepted, sinks, squeezes = _assert_agrees(equilibrium_setup)
        assert squeezes > 0  # the rule on the smallest other walker binds

    def test_sequential_walkers_packed(self, packed_setup):
        accepted, sinks, squeezes = _assert_agrees(packed_setup)
        assert sinks > 0 and squeezes > 0


class TestDispatch:
    def test_sequential_failure_reports_step_index(self, walker_setup):
        # the failing step is reported and x keeps the state from its start:
        # the oracle's state after the 97 steps before it
        x, kicks, total, floor = walker_setup
        kicks[97, 31] = np.nan
        a, b = x.copy(), x.copy()
        want = np.zeros(3, dtype=np.int64)
        got = np.zeros(5, dtype=np.int64)
        assert _reference_walkers_seq(a, kicks[:97], total, floor, want) == -1
        assert kernels.advance_walkers_seq(b, kicks, total, floor, got) == 97
        assert got[:3].tolist() == want.tolist()
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)

    def test_inf_kick_reports_step_index(self, walker_setup):
        # an overflowing move factor makes the later rescales 0: the bound
        # test fails, and the full path reports the step
        x, kicks, total, floor = walker_setup
        kicks[97, 31] = np.inf
        a, b = x.copy(), x.copy()
        want = np.zeros(3, dtype=np.int64)
        got = np.zeros(5, dtype=np.int64)
        assert _reference_walkers_seq(a, kicks[:97], total, floor, want) == -1
        assert kernels.advance_walkers_seq(b, kicks, total, floor, got) == 97
        assert got[:3].tolist() == want.tolist()
        assert got[3] == 97  # every step before it was settled by the bound
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)


class TestFloorBound:
    # Two walkers, exact in binary: walker 0 grows from 6 to 9 and walker 1
    # (the smallest) keeps 2, so both rescales are 8/11 and the squeeze check
    # on walker 1 multiplies exactly the bound's product 2 * fl(8/11).
    x = np.array([6.0, 2.0])
    kicks = np.array([[1.5, 1.0]])
    total = 8.0
    product = 2.0 * (8.0 / 11.0)

    def _run(self, floor):
        a, b = self.x.copy(), self.x.copy()
        want = np.zeros(3, dtype=np.int64)
        got = np.zeros(5, dtype=np.int64)
        assert _reference_walkers_seq(a, self.kicks, self.total, floor, want) == -1
        assert kernels.advance_walkers_seq(b, self.kicks, self.total, floor, got) == -1
        assert got[:3].tolist() == want.tolist()
        assert np.array_equal(b, a)
        return got

    def test_product_on_the_floor_settles_the_step(self):
        got = self._run(self.product)
        assert got.tolist() == [2, 0, 0, 1, 0]

    def test_product_one_ulp_below_the_floor_takes_the_fixed_point(self):
        got = self._run(np.nextafter(self.product, np.inf))
        # walker 0's growth would squeeze walker 1 below the floor
        assert got[:4].tolist() == [1, 0, 1, 0] and got[4] > 0

    def test_settled_step_is_every_move_accepted(self, walker_setup):
        x, kicks, total, floor = walker_setup
        b = x * kicks[0]
        settled = b * (total / np.cumsum(np.concatenate(([x.sum()], b - x)))[-1])
        got = np.zeros(5, dtype=np.int64)
        assert kernels.advance_walkers_seq(x, kicks[:1], total, floor, got) == -1
        assert got.tolist() == [x.size, 0, 0, 1, 0]
        assert np.array_equal(x, settled)


# ---------------------------------------------------------------------------
# RK4 kernels: the projected linear flow against RK4 of the projected flow
# ---------------------------------------------------------------------------


def _reference_integrate(traj, rates, total, dt):
    # classical RK4 of the nonlinear conserved-total equation itself, one
    # step at a time, rescaled to the total after every step: the definition
    # kernels.integrate_constant must agree with to fourth order
    x = traj[0].copy()

    def rhs(y):
        return y * (rates - np.dot(rates, y) / total)

    for s in range(traj.shape[0] - 1):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc = x.sum()
        if not (acc > 0.0 and np.isfinite(acc)):
            return s
        x *= total / acc
        traj[s + 1] = x
    return -1


def _reference_amplitude(traj, coupling, dt):
    # classical RK4 of the norm-preserving nonlinear amplitude flow,
    # renormalised after every step
    c = traj[0].copy()

    def rhs(v):
        kv = coupling @ v
        q = np.dot(v, kv) / np.dot(v, v)
        return 0.5 * (kv - q * v)

    for s in range(traj.shape[0] - 1):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc = np.dot(c, c)
        if not (acc > 0.0 and np.isfinite(acc)):
            return s
        c /= math.sqrt(acc)
        traj[s + 1] = c
    return -1


def _system(seed, n=6):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.5, 10.0, n)
    return x0, rng.uniform(-2.0, 2.0, n), float(x0.sum())


def _random_symmetric(rng, n):
    m = rng.normal(0.0, 1.0, size=(n, n))
    return 0.5 * (m + m.T)


class TestRk4Agreement:
    dt = 1e-3

    def _run(self, kernel, x0, steps, *args):
        traj = np.empty((steps + 1, x0.size))
        traj[0] = x0
        assert kernel(traj, *args, self.dt) == -1
        return traj

    @staticmethod
    def _assert_unit_rows_agree(got, want):
        # amplitudes may cross zero, so the error is taken relative to the
        # rows' unit norm
        assert np.linalg.norm(got - want, axis=1).max() <= 1e-9

    def test_constant_rates(self):
        x0, rates, total = _system(1)
        got = self._run(kernels.integrate_constant, x0, 3000, rates, total)
        want = self._run(_reference_integrate, x0, 3000, rates, total)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    def test_coupled_symmetric_matrix(self):
        rng = np.random.default_rng(2)
        k = _random_symmetric(rng, 7)
        chi0 = rng.uniform(0.1, 1.0, 7)
        chi0 /= np.linalg.norm(chi0)
        # the kernel steps in K's eigenbasis; the reference steps with K itself
        self._assert_unit_rows_agree(
            self._run(kernels.amplitude_evolve, chi0, 3000, *np.linalg.eigh(k)),
            self._run(_reference_amplitude, chi0, 3000, k))


def _max_rel_error(traj, exact):
    return float(np.max(np.abs(traj.states - exact) / np.abs(exact)))


class TestRk4Accuracy:
    def test_fourth_order_constant_rates(self):
        x0, rates, total = _system(4)
        err = [_max_rel_error(t := integrate(x0, rates, total, 2.0, dt),
                              closed_form(x0, rates, total, t.times))
               for dt in (0.05, 0.025)]
        assert 12.0 <= err[0] / err[1] <= 20.0

    def test_overflowing_rates_fail_at_step_0(self):
        # finite rates whose RK4 stage terms overflow: the multiplier is not
        # finite from the first step on
        rates = np.array([1e200, 0.0, -1e200])
        x0 = np.array([20.0, 30.0, 50.0])
        with pytest.raises(NumericsError, match="at step 0$"):
            integrate(x0, rates, 100.0, 1.0, 1e-2)
        traj = np.empty((101, 3))
        traj[0] = x0
        with np.errstate(over="ignore", invalid="ignore"):
            assert _reference_integrate(traj, rates, 100.0, 1e-2) == 0
        assert kernels.integrate_constant(traj, rates, 100.0, 1e-2) == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coupling_fails_at_step_0(self):
        chi0 = np.array([0.6, 0.0, 0.8])
        traj = np.empty((101, 3))
        traj[0] = chi0
        lam, q = np.array([1e200, 0.0, -1e200]), np.eye(3)  # the eigenbasis of a diagonal K
        assert kernels.amplitude_evolve(traj, lam, q, 1e-2) == 0

    def test_no_steps_leave_the_start(self):
        x0, rates, total = _system(7, n=3)
        chi0 = x0 / np.linalg.norm(x0)
        for kernel, start, args in ((kernels.integrate_constant, x0, (rates, total)),
                                    (kernels.amplitude_evolve, chi0, (rates, np.eye(3)))):
            traj = start[None, :].copy()
            assert kernel(traj, *args, 1e-2) == -1
            assert np.array_equal(traj, start[None, :])

    def test_start_without_dominant_weight_keeps_none(self):
        # the flow cannot reach an eigenvector the start has no weight along
        traj = np.empty((5001, 3))
        traj[0] = [0.0, 0.8, 0.6]
        assert kernels.amplitude_evolve(traj, np.array([2.0, 0.1, -0.3]), np.eye(3), 1e-2) == -1
        assert np.all(traj[:, 0] == 0.0)
        assert np.isfinite(traj).all()
        assert np.abs(np.linalg.norm(traj, axis=1) - 1.0).max() <= 1e-12

    def test_uniform_rate_shift(self):
        x0, rates, total = _system(5)
        a = integrate(x0, rates, total, 5.0, 1e-3).states
        b = integrate(x0, rates + 3.7, total, 5.0, 1e-3).states
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)

    def test_bounded_memory(self):
        # constant rates: the trajectory and its times are the only
        # allocations that grow with the step count
        x0, rates, total = _system(6, n=10)
        integrate(x0, rates, total, 0.1, 1e-3)  # warm up
        tracemalloc.start()
        try:
            traj = integrate(x0, rates, total, 5.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (5001, 10)
        assert peak < 2 * traj.states.nbytes
