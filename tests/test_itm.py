import math

import numpy as np
import pytest

from multilogistic import (
    InputDataError,
    NumericsError,
    closed_form,
    from_amplitude,
    ground_state,
    itm_evolve,
    itm_rhs,
    kernels,
    to_amplitude,
)
from multilogistic.itm import rayleigh, validate_coupling


def random_symmetric(rng, n, scale=1.0):
    m = rng.normal(0.0, scale, size=(n, n))
    return 0.5 * (m + m.T)


class TestAmplitudes:
    def test_equal_split(self):
        chi = to_amplitude(np.array([50.0, 50.0]), 100.0)
        np.testing.assert_allclose(chi, 1.0 / math.sqrt(2.0), rtol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.uniform(0.1, 10.0, size=rng.integers(2, 9))
            total = float(x.sum())
            np.testing.assert_allclose(
                from_amplitude(to_amplitude(x, total), total), x, rtol=1e-12
            )

    def test_norm_is_one(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 5.0, size=6)
        chi = to_amplitude(x, float(x.sum()))
        assert np.linalg.norm(chi) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_dominant_component(self):
        chi = to_amplitude(np.array([100.0 - 1e-9, 1e-9]), 100.0)
        assert chi[0] == pytest.approx(1.0, rel=1e-10)
        assert chi[1] == pytest.approx(0.0, abs=1e-5)

    def test_negative_population_rejected(self):
        with pytest.raises(InputDataError):
            to_amplitude(np.array([-1.0, 101.0]), 100.0)


class TestRhs:
    def test_eigenvector_is_fixed_point(self):
        rng = np.random.default_rng(2)
        k = random_symmetric(rng, 5)
        w, v = np.linalg.eigh(k)
        for j in range(5):
            r = itm_rhs(v[:, j], k)
            assert np.abs(r).max() < 1e-12

    def test_hand_value_two_level(self):
        chi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        r = itm_rhs(chi, np.diag([0.0, 1.0]))
        expected = 1.0 / (4.0 * math.sqrt(2.0))
        np.testing.assert_allclose(r, [-expected, expected], rtol=1e-14)

    def test_orthogonal_to_state(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = rng.integers(2, 9)
            k = random_symmetric(rng, n)
            chi = rng.normal(size=n)
            chi /= np.linalg.norm(chi)
            assert abs(float(chi @ itm_rhs(chi, k))) < 1e-12

    def test_asymmetric_rejected_with_diagnostic(self):
        k = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(InputDataError, match="asymmetry"):
            itm_rhs(np.array([1.0, 0.0]), k)


class TestEvolve:
    def test_diagonal_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(2, 11))
            x0 = rng.uniform(0.5, 10.0, size=n)
            total = float(x0.sum())
            rates = rng.uniform(-1.5, 1.5, size=n)
            traj = itm_evolve(to_amplitude(x0, total), np.diag(rates), 3.0, 1e-3)
            got = from_amplitude(traj.states, total)
            ref = closed_form(x0, rates, total, traj.times)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-6

    def test_norm_conserved(self):
        rng = np.random.default_rng(5)
        k = random_symmetric(rng, 6)
        chi0 = rng.uniform(0.1, 1.0, size=6)
        chi0 /= np.linalg.norm(chi0)
        traj = itm_evolve(chi0, k, 5.0, 1e-2)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_converges_to_dominant_eigenvector(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            k = random_symmetric(rng, n)
            # the general solver, not the eigh that the kernel diagonalises with
            w, v = np.linalg.eig(k)
            top = int(np.argmax(w.real))
            dominant = v[:, top].real
            chi0 = np.abs(rng.uniform(0.1, 1.0, size=n))
            chi0 /= np.linalg.norm(chi0)
            traj = itm_evolve(chi0, k, 60.0, 1e-2)
            final = traj.states[-1]
            overlap = abs(float(final @ dominant))
            assert overlap == pytest.approx(1.0, abs=1e-6)
            assert rayleigh(final, k) == pytest.approx(w[top].real, abs=1e-8)

    def test_uniform_shift_leaves_trajectory_unchanged(self):
        rng = np.random.default_rng(7)
        k = random_symmetric(rng, 5)
        chi0 = rng.uniform(0.1, 1.0, size=5)
        chi0 /= np.linalg.norm(chi0)
        a = itm_evolve(chi0, k, 2.0, 1e-2)
        b = itm_evolve(chi0, k + 3.7 * np.eye(5), 2.0, 1e-2)
        np.testing.assert_allclose(a.states, b.states, atol=1e-10)

    def test_scalar_coupling_is_constant(self):
        chi0 = to_amplitude(np.array([30.0, 70.0]), 100.0)
        traj = itm_evolve(chi0, 2.5 * np.eye(2), 1.0, 1e-2)
        np.testing.assert_allclose(
            traj.states, np.broadcast_to(chi0, traj.states.shape), atol=1e-12
        )

    def test_rayleigh_quotient_monotone(self):
        rng = np.random.default_rng(8)
        k = random_symmetric(rng, 7)
        chi0 = rng.uniform(0.1, 1.0, size=7)
        chi0 /= np.linalg.norm(chi0)
        traj = itm_evolve(chi0, k, 10.0, 1e-2)
        q = np.einsum("ti,ij,tj->t", traj.states, k, traj.states)
        assert np.all(np.diff(q) >= -1e-12 * (1.0 + np.abs(q[:-1])))


class TestGroundState:
    def test_matches_eigensolve(self):
        rng = np.random.default_rng(9)
        k = random_symmetric(rng, 6)
        w, v = np.linalg.eig(k)  # the general solver, not the kernel's eigh
        top = int(np.argmax(w.real))
        chi0 = np.abs(rng.uniform(0.1, 1.0, size=6))
        chi0 /= np.linalg.norm(chi0)
        chi, q, steps = ground_state(chi0, k, dt=1e-2, tol=1e-10)
        assert q == pytest.approx(w[top].real, abs=1e-9)
        assert abs(float(chi @ v[:, top].real)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(InputDataError, match="tol must be finite and positive"):
            ground_state(np.array([0.6, 0.8]), np.diag([1.0, 0.5]), tol=tol)

    @pytest.mark.parametrize("max_steps", [0, -1, math.nan])
    def test_bad_max_steps_rejected(self, max_steps):
        with pytest.raises(InputDataError, match="max_steps must be at least 1"):
            ground_state(np.array([0.6, 0.8]), np.diag([1.0, 0.5]), max_steps=max_steps)


class TestMaxSteps:
    # this start converges after 2600 steps, checked at the end of a stretch
    @pytest.fixture
    def slow_start(self):
        rng = np.random.default_rng(206)
        a = rng.standard_normal((6, 6))
        chi0 = rng.uniform(0.5, 1.5, 6)
        return chi0 / np.linalg.norm(chi0), 0.5 * (a + a.T)

    def test_converged_at_the_cap_is_returned(self, slow_start):
        assert ground_state(*slow_start)[2] == 2600
        assert ground_state(*slow_start, max_steps=2600)[2] == 2600

    def test_cap_is_never_overstepped(self, slow_start, monkeypatch):
        stepped = []
        evolve = kernels.amplitude_evolve

        def counted(traj, *args):
            stepped.append(traj.shape[0] - 1)
            return evolve(traj, *args)

        monkeypatch.setattr(kernels, "amplitude_evolve", counted)
        with pytest.raises(NumericsError, match="within 2501 steps"):
            ground_state(*slow_start, max_steps=2501)
        assert sum(stepped) == 2501


class TestDiagonalisedOnce:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_itm_evolve(self, eigh_calls):
        rng = np.random.default_rng(12)
        chi0 = rng.uniform(0.1, 1.0, size=5)
        itm_evolve(chi0 / np.linalg.norm(chi0), random_symmetric(rng, 5), 5.0, 1e-2)
        assert eigh_calls == [(5, 5)]

    def test_ground_state_every_stretch_in_one_basis(self, eigh_calls):
        rng = np.random.default_rng(9)
        chi0 = rng.uniform(0.1, 1.0, size=6)
        _, _, steps = ground_state(chi0 / np.linalg.norm(chi0), random_symmetric(rng, 6))
        assert steps > 100  # more than one stretch of 100 steps
        assert eigh_calls == [(6, 6)]


class TestValidation:
    def test_validate_coupling_reports_asymmetry(self):
        k = np.array([[1.0, 2.0], [2.1, 1.0]])
        with pytest.raises(InputDataError, match="max asymmetry 1.000e-01"):
            validate_coupling(k)

    def test_non_square_rejected(self):
        with pytest.raises(InputDataError):
            validate_coupling(np.ones((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(InputDataError, match="square matrix"):
            validate_coupling(np.zeros((0, 0)))

    # the norm of these overflows; the comparison must not
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [[[0.0, 1e200], [-1e200, 0.0]], [[1.0, 1e308], [0.0, 1.0]]],
                             ids=["antisymmetric-1e200", "upper-1e308"])
    def test_huge_asymmetry_rejected(self, k):
        with pytest.raises(InputDataError, match="symmetric"):
            validate_coupling(np.array(k))

    @pytest.mark.filterwarnings("error")
    def test_huge_symmetric_accepted(self):
        k = np.diag([1e308, -1e308])
        assert np.array_equal(validate_coupling(k), k)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coupling_fails_at_step_0(self):
        with pytest.raises(NumericsError, match="at step 0$"):
            itm_evolve(np.array([0.6, 0.0, 0.8]), np.diag([1e200, 0.0, -1e200]), 1.0, 1e-2)
