"""Amplitude (square-root share) representation and its matrix flow.

Writing chi_i = sqrt(x_i / total) turns the conserved total into a unit-norm
constraint, and the growth dynamics into the norm-preserving flow

    dchi/dt = (K chi - <chi|K|chi>/<chi|chi> chi) / 2

for a symmetric rate matrix K. For diagonal K this is the component-wise
system in disguise; off-diagonal entries couple components directly. The
flow increases the Rayleigh quotient monotonically and converges to the
eigenvector of K with the largest eigenvalue, exactly like imaginary-time
propagation onto a ground state (up to the sign of the operator).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputDataError, NumericsError

__all__ = [
    "to_amplitude",
    "from_amplitude",
    "validate_coupling",
    "itm_rhs",
    "itm_evolve",
    "ground_state",
    "rayleigh",
    "AmplitudeTrajectory",
]


def to_amplitude(x, total: float) -> np.ndarray:
    """chi_i = sqrt(x_i / total); unit norm when the populations sum to total."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise InputDataError("populations must be non-negative and finite")
    if not total > 0.0:
        raise InputDataError("total must be positive")
    if not np.isclose(x.sum(), total, rtol=1e-6):
        raise InputDataError("populations must sum to the declared total")
    return np.sqrt(x / total)


def from_amplitude(chi, total: float) -> np.ndarray:
    """Back to populations: x_i = total * chi_i**2."""
    chi = np.asarray(chi, dtype=float)
    if not total > 0.0:
        raise InputDataError("total must be positive")
    return total * chi**2


def validate_coupling(coupling) -> np.ndarray:
    """Check that the rate matrix is square and symmetric; return it as float."""
    k = np.asarray(coupling, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise InputDataError("coupling must be a square matrix")
    if not np.all(np.isfinite(k)):
        raise InputDataError("coupling must be finite")
    norm = np.linalg.norm(k)
    asym = np.abs(k - k.T).max()
    if asym > 1e-12 * max(norm, 1e-300):
        raise InputDataError(
            f"coupling must be symmetric (max asymmetry {asym:.3e}, norm {norm:.3e})"
        )
    return k


def _as_unit_amplitude(chi) -> np.ndarray:
    chi = np.asarray(chi, dtype=float)
    if chi.ndim != 1 or chi.size == 0:
        raise InputDataError("amplitudes must be a non-empty vector")
    norm = float(np.linalg.norm(chi))
    if not np.isfinite(norm) or norm == 0.0:
        raise InputDataError("amplitudes must be finite and non-zero")
    if abs(norm - 1.0) > 1e-6:
        raise InputDataError("amplitudes must be unit-norm (within 1e-6)")
    return chi / norm


def itm_rhs(chi, coupling) -> np.ndarray:
    """Right-hand side of the norm-preserving flow; orthogonal to unit chi."""
    chi = np.asarray(chi, dtype=float)
    k = validate_coupling(coupling)
    if k.shape[0] != chi.shape[0]:
        raise InputDataError("dimension mismatch between amplitudes and coupling")
    kc = k @ chi
    q = float(chi @ kc) / float(chi @ chi)
    return 0.5 * (kc - q * chi)


def rayleigh(chi, coupling) -> float:
    chi = np.asarray(chi, dtype=float)
    k = np.asarray(coupling, dtype=float)
    return float(chi @ k @ chi) / float(chi @ chi)


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Unit-norm amplitude samples along the flow."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]


def itm_evolve(chi0, coupling, t_end: float, dt: float) -> AmplitudeTrajectory:
    """Fixed-step 4th-order integration, renormalized to unit norm every step.

    ``coupling`` is either a symmetric matrix or a callable chi -> matrix
    (a self-consistent rate functional), evaluated once per step and held
    fixed across the step's internal stages.
    """
    chi = _as_unit_amplitude(chi0)
    if not 0.0 < dt < np.inf:
        raise InputDataError(f"dt must be finite and positive, got {dt}")
    if not 0.0 <= t_end < np.inf:
        raise InputDataError(f"t_end must be finite and non-negative, got {t_end}")
    n_steps = int(round(t_end / dt))
    times = dt * np.arange(n_steps + 1)
    traj = np.empty((n_steps + 1, chi.size))
    traj[0] = chi

    if callable(coupling):
        bad = _evolve_callable(traj, coupling, dt)
    else:
        k = validate_coupling(coupling)
        if k.shape[0] != chi.size:
            raise InputDataError("dimension mismatch between amplitudes and coupling")
        bad = kernels.amplitude_evolve(traj, k, dt)
    if bad >= 0:
        raise NumericsError(f"non-finite amplitudes at step {bad}")
    return AmplitudeTrajectory(times, traj)


def _evolve_callable(traj, coupling, dt):
    c = traj[0].copy()
    for s in range(traj.shape[0] - 1):
        k = validate_coupling(coupling(c))

        def rhs(v):
            kv = k @ v
            return 0.5 * (kv - (float(v @ kv) / float(v @ v)) * v)

        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm2 = float(c @ c)
        if not (norm2 > 0.0 and np.isfinite(norm2)):
            return s
        c /= np.sqrt(norm2)
        traj[s + 1] = c
    return -1


def ground_state(chi0, coupling, dt: float = 1e-2, tol: float = 1e-10,
                 max_steps: int = 1_000_000):
    """Run the flow until ||rhs|| < tol; returns (chi, rayleigh quotient, steps).

    Converges to the dominant eigenvector of the coupling matrix reachable
    from the start (components of the start along it must be non-zero).
    """
    chi = _as_unit_amplitude(chi0)
    k = validate_coupling(coupling) if not callable(coupling) else None
    steps_done = 0
    while steps_done < max_steps:
        mat = k if k is not None else validate_coupling(coupling(chi))
        r = itm_rhs(chi, mat)
        if float(np.linalg.norm(r)) < tol:
            return chi, rayleigh(chi, mat), steps_done
        seg = itm_evolve(chi, mat, 100 * dt, dt)
        chi = seg.states[-1]
        steps_done += 100
    raise NumericsError(f"no steady state within {max_steps} steps")
