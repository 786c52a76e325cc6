import math

import numpy as np
import pytest

from multilogistic import kernels
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


def _reference_walkers_seq(x, normals, drift, sigma, dt, total, floor, counts):
    # The sequential walker written directly on the numpy arrays, one move at
    # a time with a running rescale multiplier: the definition whose
    # decisions kernels.advance_walkers_seq must reproduce move for move.
    # counts gets (accepted, mover rejections, rescale rejections) added.
    steps = normals.shape[0]
    n = x.shape[0]
    mult = 1.0
    s_true = 0.0
    for i in range(n):
        s_true += x[i]
    i1, v1, i2, v2 = _two_smallest(x)
    for s in range(steps):
        for i in range(n):
            f = math.exp(dt * (drift[i] + sigma[i] * normals[s, i]))
            a = x[i]
            b = a * f
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
    # packing total/(n*floor), in random order, with `steps` rows of normals
    floor = 150.0
    total = packing * n * floor
    law = analytic_rank(solve_lambda(total, n, floor), np.arange(n) + 0.5)
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.permutation(np.maximum(law * (total / law.sum()), floor))
    x *= total / x.sum()
    normals = rng.standard_normal((steps, n))
    return x, normals, np.zeros(n), np.ones(n), 0.03, total, floor


@pytest.fixture
def walker_setup():
    rng = np.random.Generator(np.random.Philox(99))
    n = 60
    x = np.full(n, 2e5)
    normals = rng.standard_normal((150, n))
    drift = np.zeros(n)
    sigma = np.ones(n)
    return x, normals, drift, sigma, 0.03, float(n * 2e5), 150.0


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
    x, normals, drift, sigma, dt, total, floor = setup
    a, b = x.copy(), x.copy()
    want = np.zeros(3, dtype=np.int64)
    got = np.zeros(3, dtype=np.int64)
    assert _reference_walkers_seq(a, normals, drift, sigma, dt, total, floor, want) == -1
    assert kernels.advance_walkers_seq(b, normals, drift, sigma, dt, total, floor, got) == -1
    assert got.tolist() == want.tolist()
    assert want.sum() == normals.size  # every move is counted once
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
        x, normals, drift, sigma, dt, total, floor = walker_setup
        normals[97, 31] = np.nan
        a, b = x.copy(), x.copy()
        want = np.zeros(3, dtype=np.int64)
        got = np.zeros(3, dtype=np.int64)
        assert _reference_walkers_seq(a, normals[:97], drift, sigma, dt, total, floor,
                                      want) == -1
        assert kernels.advance_walkers_seq(b, normals, drift, sigma, dt, total, floor,
                                           got) == 97
        assert got.tolist() == want.tolist()
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)
