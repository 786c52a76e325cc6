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

import numpy as np

from . import kernels
from .core import Trajectory, _trajectory
from .errors import InputDataError, NumericsError

__all__ = [
    "to_amplitude",
    "from_amplitude",
    "validate_coupling",
    "itm_rhs",
    "itm_evolve",
    "ground_state",
    "rayleigh",
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


def validate_coupling(coupling, n: int | None = None) -> np.ndarray:
    """The rate matrix as float, checked to be square, non-empty, symmetric and (given n) n x n."""
    k = np.asarray(coupling, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.size == 0:
        raise InputDataError("coupling must be a non-empty square matrix")
    if not np.all(np.isfinite(k)):
        raise InputDataError("coupling must be finite")
    # compared in units of a power of two near max|K|, exact and finite even
    # at the largest doubles, where the norm itself would overflow
    unit = float(np.ldexp(1.0, np.frexp(np.abs(k).max())[1] - 1))
    scaled = k / unit
    norm = float(np.linalg.norm(scaled))
    asym = float(np.abs(scaled - scaled.T).max())
    if asym > 1e-12 * norm:
        raise InputDataError(f"coupling must be symmetric (max asymmetry {asym * unit:.3e}, "
                             f"norm {norm * unit:.3e})")
    if n is not None and k.shape[0] != n:
        raise InputDataError("dimension mismatch between amplitudes and coupling")
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
    return _rhs(chi, validate_coupling(coupling, chi.shape[0]))


def _rhs(chi, k):
    kc = k @ chi
    q = float(chi @ kc) / float(chi @ chi)
    return 0.5 * (kc - q * chi)


def rayleigh(chi, coupling) -> float:
    chi = np.asarray(chi, dtype=float)
    k = np.asarray(coupling, dtype=float)
    return float(chi @ k @ chi) / float(chi @ chi)


def _start(chi0, coupling):
    """The unit start, K checked against it, and (lam, Q) of K's symmetric part.

    K + (K^T - K)/2 is K bit for bit when K is symmetric, and it averages
    both triangles when ``validate_coupling`` let a rounding-level asymmetry
    through (``eigh`` reads one triangle).
    """
    chi = _as_unit_amplitude(chi0)
    k = validate_coupling(coupling, chi.size)
    return chi, k, np.linalg.eigh(k + 0.5 * (k.T - k))


def itm_evolve(chi0, coupling, t_end: float, dt: float) -> Trajectory:
    """Fixed-step 4th-order integration, rescaled to unit norm every step.

    The flow is the linear flow dchi/dt = K chi/2 projected onto the unit
    sphere, the amplitude form of scale-invariant growth under the
    conserved total. ``coupling`` is validated and diagonalised once, and
    each step is RK4 of the linear flow in its eigenbasis followed by the
    projection (``kernels.amplitude_evolve``): the step of
    ``core.integrate``, on the same step grid and with the same checks:
    ``t_end`` must be a whole number of steps, and a coupling whose RK4
    stage terms overflow raises ``NumericsError`` at step 0.
    """
    chi, _, basis = _start(chi0, coupling)
    return _trajectory(kernels.amplitude_evolve, chi, t_end, dt, *basis)


def ground_state(chi0, coupling, dt: float = 1e-2, tol: float = 1e-10,
                 max_steps: int = 1_000_000):
    """Run the flow until ||rhs|| < tol; returns (chi, rayleigh quotient, steps).

    Converges to the dominant eigenvector of the symmetric coupling matrix
    reachable from the start (components of the start along it must be
    non-zero). ``tol`` must be finite and positive and ``max_steps`` at
    least 1. The coupling is validated and diagonalised once; the flow runs
    in stretches of 100 steps, each stepped in that one eigenbasis, the last
    one cut short so that no more than ``max_steps`` steps are taken. The
    state after the last stretch is checked like every other.
    """
    if not 0.0 < tol < np.inf:
        raise InputDataError(f"tol must be finite and positive, got {tol}")
    if not max_steps >= 1:
        raise InputDataError(f"max_steps must be at least 1, got {max_steps}")
    chi, k, basis = _start(chi0, coupling)
    steps_done = 0
    while not float(np.linalg.norm(_rhs(chi, k))) < tol:
        stretch = int(min(100, max_steps - steps_done))
        if stretch < 1:
            raise NumericsError(f"no steady state within {max_steps} steps")
        chi = _trajectory(kernels.amplitude_evolve, chi, stretch * dt, dt, *basis).states[-1]
        steps_done += stretch
    return chi, rayleigh(chi, k), steps_done
