"""Core dynamics of the conserved-total multi-component logistic system.

The state is a vector of positive populations x_i whose total stays fixed at
``total``. Each component grows proportionally at its own rate while a global
correction removes the mean growth, which couples the components:

    dx_i/dt = x_i * (k_i - sum_j k_j x_j / total)

For rates that are constant (or given through cumulative exponents h_i(t))
the flow has an exact solution: exponential reweighting of the initial
populations, rescaled to the total. ``integrate`` provides the numerical
companion, ``closed_form`` the exact one.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import InputDataError, NumericsError

__all__ = [
    "PopulationState",
    "LogisticParams",
    "ConstantRates",
    "ParametricRates",
    "StochasticRates",
    "Trajectory",
    "mcle_rhs",
    "closed_form",
    "share_composition",
    "integrate",
    "sigmoid",
]


@dataclass(frozen=True)
class PopulationState:
    """Populations of the n components at one instant."""

    x: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.x.ndim != 1 or self.x.size == 0:
            raise InputDataError("state must be a non-empty 1-d vector")
        if not np.all(np.isfinite(self.x)) or np.any(self.x <= 0.0):
            raise InputDataError("populations must be finite and positive")

    @property
    def total(self) -> float:
        return float(self.x.sum())


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
class ConstantRates:
    """Time-independent per-component growth rates."""

    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=float))
        if self.rates.ndim != 1:
            raise InputDataError("rates must be a 1-d vector")


@dataclass(frozen=True)
class ParametricRates:
    """Rates given through cumulative exponents h_i(t) (so h_i(t) = k_i*t when constant).

    ``exponents(t)`` returns the n-vector h(t). The instantaneous rates the
    integrator needs are dh/dt, supplied analytically via ``derivative`` or
    estimated by central differences.
    """

    exponents: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray] | None = None

    def rates_at(self, t: float) -> np.ndarray:
        if self.derivative is not None:
            return np.asarray(self.derivative(t), dtype=float)
        eps = 1e-6 * max(1.0, abs(t))
        hi = np.asarray(self.exponents(t + eps), dtype=float)
        lo = np.asarray(self.exponents(t - eps), dtype=float)
        return (hi - lo) / (2.0 * eps)


@dataclass(frozen=True)
class StochasticRates:
    """Noisy rates k_i = mean_i + sigma_i * xi sampled once per interval dt."""

    mean: np.ndarray
    sigma: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.mean.shape != self.sigma.shape or self.mean.ndim != 1:
            raise InputDataError("mean and sigma must be 1-d vectors of equal length")
        if not self.dt > 0.0:
            raise InputDataError("dt must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step solution samples: times[j] paired with states[j]."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]

    def state(self, j: int) -> PopulationState:
        return PopulationState(self.states[j], float(self.times[j]))


def _as_population_vector(x) -> np.ndarray:
    if isinstance(x, PopulationState):
        return x.x
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputDataError("expected a non-empty 1-d population vector")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise InputDataError("populations must be finite and positive")
    return x


def mcle_rhs(x, rates, total: float) -> np.ndarray:
    """Time derivative of every component for the given populations and rates.

    The mean-growth term makes the derivatives sum to zero whenever the
    populations sum to ``total``, so the constraint is preserved by the flow.
    """
    x = _as_population_vector(x)
    rates = np.asarray(rates, dtype=float)
    if rates.shape != x.shape:
        raise InputDataError(
            f"rates length {rates.shape} does not match state length {x.shape}"
        )
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
    rates = np.asarray(rates, dtype=float)
    if rates.shape != x0.shape:
        raise InputDataError("rates length does not match initial populations")
    if not np.isclose(x0.sum(), total, rtol=1e-6):
        raise InputDataError("initial populations must sum to the declared total")
    t_arr = np.asarray(t, dtype=float)
    h = t_arr[..., None] * rates
    return share_composition(x0, h, total)


def integrate(x0, rates, total: float, t_end: float, dt: float) -> Trajectory:
    """Classical 4th-order fixed-step integration of the rate equation.

    Steps from the initial state to ``t_end`` in increments of ``dt`` and
    rescales the state by total/sum(x) after every step, so each trajectory
    row sums to ``total`` exactly up to rounding. Accepts ``ConstantRates``,
    a bare rate vector, or ``ParametricRates``.
    """
    t0 = x0.t if isinstance(x0, PopulationState) else 0.0
    x_init = _as_population_vector(x0)
    if not dt > 0.0:
        raise InputDataError("dt must be positive")
    if not total > 0.0:
        raise InputDataError("total must be positive")
    if isinstance(rates, StochasticRates):
        raise InputDataError("stochastic rates are handled by the walker ensemble")

    n_steps = int(round(t_end / dt))
    times = t0 + dt * np.arange(n_steps + 1)
    traj = np.empty((n_steps + 1, x_init.shape[0]))
    traj[0] = x_init

    if isinstance(rates, ParametricRates):
        # rates at the start, middle and end of every step
        k = np.empty((n_steps, 3, x_init.size))
        for s, t in enumerate(times[:-1].tolist()):
            step = rates.rates_at(t), rates.rates_at(t + 0.5 * dt), rates.rates_at(t + dt)
            for r in step:
                if r.shape != x_init.shape:
                    raise InputDataError(f"rates_at returned shape {r.shape}, expected "
                                         f"{x_init.shape} (one rate per population)")
            k[s] = step
    else:
        k = rates.rates if isinstance(rates, ConstantRates) else np.asarray(rates, float)
        if k.shape != x_init.shape:
            raise InputDataError("rates length does not match initial populations")
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
