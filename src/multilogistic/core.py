"""Core dynamics of the conserved-total multi-component logistic system.

The state is a vector of positive populations x_i whose total stays fixed at
``total``. Each component grows proportionally at its own rate while a global
correction removes the mean growth, which couples the components:

    dx_i/dt = x_i * (k_i - sum_j k_j x_j / total)

This is the paper's derivation: scale-invariant growth dy_i/dt = k_i y_i,
whose solutions are unchanged by rescaling y, projected onto the mean-value
constraint sum(x) = total, x = total * y / sum(y). For rates that are
constant (or given through cumulative exponents h_i(t)) the flow therefore
has an exact solution: exponential reweighting of the initial populations,
rescaled to the total. ``closed_form`` provides it; ``integrate`` is the
numerical companion, classical RK4 on the linear flow followed by the same
projection after every step.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputDataError, NumericsError

__all__ = [
    "LogisticParams",
    "Trajectory",
    "mcle_rhs",
    "closed_form",
    "share_composition",
    "integrate",
    "sigmoid",
    "step_count",
]


@dataclass(frozen=True)
class LogisticParams:
    """Single-component logistic curve: growth rate, capacity, initial value."""

    rate: float
    capacity: float
    x0: float

    def __post_init__(self):
        if not self.capacity > 0.0:
            raise InputDataError("capacity must be positive")
        if not 0.0 < self.x0 < self.capacity:
            raise InputDataError("initial value must lie strictly inside (0, capacity)")


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step samples: times[j] paired with states[j] (populations or amplitudes)."""

    times: np.ndarray
    states: np.ndarray


def _as_population_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputDataError("expected a non-empty 1-d population vector")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise InputDataError("populations must be finite and positive")
    return x


def _as_rate_vector(rates, n: int) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (n,):
        raise InputDataError(f"rates of shape {rates.shape} do not match {n} populations")
    if not np.all(np.isfinite(rates)):
        raise InputDataError("rates must be finite")
    return rates


def mcle_rhs(x, rates, total: float) -> np.ndarray:
    """Time derivative of every component for the given populations and rates.

    The mean-growth term makes the derivatives sum to zero whenever the
    populations sum to ``total``, so the constraint is preserved by the flow.
    """
    x = _as_population_vector(x)
    rates = _as_rate_vector(rates, x.shape[0])
    if not total > 0.0:
        raise InputDataError("total must be positive")
    return x * (rates - np.dot(rates, x) / total)


def share_composition(x0, exponents, total: float) -> np.ndarray:
    """Reweight initial populations by exp(exponents) and rescale to ``total``.

    ``exponents`` may carry leading axes (e.g. one row per time); the
    component axis is the last one. The largest exponent is subtracted before
    exponentiation, so arbitrarily large products k_i*t are safe.
    """
    x0 = _as_population_vector(x0)
    h = np.asarray(exponents, dtype=float)
    if h.shape[-1] != x0.shape[0]:
        raise InputDataError("exponent vector length does not match populations")
    if not total > 0.0:
        raise InputDataError("total must be positive")
    shift = h.max(axis=-1, keepdims=True)
    w = x0 * np.exp(h - shift)
    return total * w / w.sum(axis=-1, keepdims=True)


def closed_form(x0, rates, total: float, t) -> np.ndarray:
    """Exact solution at time(s) ``t`` for constant rates.

    Returns a vector for scalar ``t`` and a (len(t), n) array for a vector of
    times. Rows sum to ``total`` exactly up to rounding.
    """
    x0 = _as_population_vector(x0)
    rates = _as_rate_vector(rates, x0.shape[0])
    if not np.isclose(x0.sum(), total, rtol=1e-6):
        raise InputDataError("initial populations must sum to the declared total")
    t_arr = np.asarray(t, dtype=float)
    h = t_arr[..., None] * rates
    return share_composition(x0, h, total)


def step_count(t_end: float, dt: float, width: int) -> int:
    """Number of ``dt`` steps from 0 to ``t_end``, checked before anything is allocated.

    ``width`` is the length of a trajectory row. Raises ``InputDataError``
    unless ``dt`` is finite and positive, ``t_end`` finite and non-negative,
    ``t_end`` a whole number of steps (within 1e-9 relative), and the
    (steps + 1, width) float trajectory smaller than numpy can index.
    """
    if not 0.0 < dt < math.inf:
        raise InputDataError(f"dt must be finite and positive, got {dt}")
    if not 0.0 <= t_end < math.inf:
        raise InputDataError(f"t_end must be finite and non-negative, got {t_end}")
    count = t_end / dt
    if not (count + 1.0) * width * 8.0 < np.iinfo(np.intp).max:
        raise InputDataError(f"t_end={t_end!r} over dt={dt!r} is {count:.6g} steps, "
                             f"more than a trajectory of {width} columns can hold")
    steps = round(count)
    if abs(count - steps) > 1e-9 * count:
        raise InputDataError(f"t_end={t_end!r} is not a whole number of steps of "
                             f"dt={dt!r} ({count:.6g} steps)")
    return steps


def integrate(x0, rates, total: float, t_end: float, dt: float) -> Trajectory:
    """Classical 4th-order fixed-step integration of the rate equation.

    Steps from the initial state to ``t_end`` in increments of ``dt``;
    ``t_end`` must be a whole number of steps (``step_count``). ``rates``
    is a constant rate vector of shape (n,), and the initial populations
    must sum to ``total`` (within 1e-6 relative), as for ``closed_form``.
    Rates given through cumulative exponents h(t) need no integrator: their
    exact solution is ``share_composition(x0, h(t), total)``.

    RK4 is applied to the scale-invariant linear flow dy/dt = k*y, and
    each step's state is projected back onto sum(x) = total
    (``kernels.integrate_constant``): the same two ingredients as the
    closed form, so every row after the first sums to ``total`` exactly up
    to rounding, and a uniform shift of the rates leaves the trajectory
    unchanged up to rounding.
    """
    x_init = _as_population_vector(x0)
    k = _as_rate_vector(rates, x_init.shape[0])
    if not total > 0.0:
        raise InputDataError("total must be positive")
    if not np.isclose(x_init.sum(), total, rtol=1e-6):
        raise InputDataError("initial populations must sum to the declared total")

    n_steps = step_count(t_end, dt, x_init.shape[0])
    times = dt * np.arange(n_steps + 1)
    traj = np.empty((n_steps + 1, x_init.shape[0]))
    traj[0] = x_init
    bad = kernels.integrate_constant(traj, k, total, dt)
    if bad >= 0:
        raise NumericsError(f"non-finite state encountered at step {bad}")
    return Trajectory(times, traj)


def sigmoid(params: LogisticParams, t) -> np.ndarray | float:
    """Logistic growth curve through ``x0`` at t=0 with the given rate and capacity.

    Evaluated through the log-odds form, which is stable for arbitrarily
    large |rate * t|.
    """
    from scipy.special import expit

    t_arr = np.asarray(t, dtype=float)
    z = params.rate * t_arr + np.log(params.x0 / (params.capacity - params.x0))
    out = params.capacity * expit(z)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out
