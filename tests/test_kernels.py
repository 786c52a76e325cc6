import math

import numpy as np
import pytest

from multilogistic import kernels


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


def _reference_walkers_seq(x, normals, drift, sigma, dt, total, floor):
    # The sequential walker written directly on the numpy arrays, one scalar
    # at a time: the definition kernels.advance_walkers_seq must reproduce
    # bit for bit (it performs the same IEEE operations in the same order).
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
                continue
            if rho < 1.0:
                vmin = v2 if i == i1 else v1
                if vmin * m_new < floor:
                    continue
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


@pytest.fixture
def walker_setup():
    rng = np.random.Generator(np.random.Philox(99))
    n = 60
    x = np.full(n, 2e5)
    normals = rng.standard_normal((150, n))
    drift = np.zeros(n)
    sigma = np.ones(n)
    return x, normals, drift, sigma, 0.03, float(n * 2e5), 150.0


class TestBackendAgreement:
    def test_sequential_walkers(self, walker_setup):
        x, normals, drift, sigma, dt, total, floor = walker_setup
        a, b = x.copy(), x.copy()
        assert _reference_walkers_seq(a, normals, drift, sigma, dt, total, floor) == -1
        assert kernels.advance_walkers_seq(b, normals, drift, sigma, dt, total, floor) == -1
        assert np.array_equal(a, b)


class TestDispatch:
    def test_sequential_failure_reports_step_index(self, walker_setup):
        x, normals, drift, sigma, dt, total, floor = walker_setup
        normals[97, 31] = np.nan
        a, b = x.copy(), x.copy()
        assert _reference_walkers_seq(a, normals, drift, sigma, dt, total, floor) == 97
        assert kernels.advance_walkers_seq(b, normals, drift, sigma, dt, total, floor) == 97
        assert np.array_equal(a, b)
