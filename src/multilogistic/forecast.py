"""Deterministic regime: rate extraction and forecasting of compositional shares.

Because only rate *differences* matter in a conserved-total system, the
cumulative growth exponent of every component can be read off observed data
relative to a reference component (whose rate is pinned to zero). Those
exponent tables are fitted to a damped form a*exp(-b*t)*t + c and pushed
back through the exact solution to extrapolate the composition.
"""

from dataclasses import dataclass

import numpy as np

from .core import share_composition
from .errors import InputDataError, NumericsError

__all__ = ["ShareSeries", "RateFit", "growth_exponents", "fit_rates", "forecast"]

_FORMS = ("exponential", "linear")
_SUM_RTOL = 0.05  # how far a row sum may sit from the total, relative


@dataclass(frozen=True)
class ShareSeries:
    """Timestamped composition: shares[j, i] of component i at times[j].

    Times are in months with 0 at the reference epoch; rows must sum to
    ``total`` within 5%.
    """

    components: tuple
    times: np.ndarray
    shares: np.ndarray
    total: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "shares", np.asarray(self.shares, dtype=float))
        if self.shares.ndim != 2 or self.shares.shape != (
            self.times.size,
            len(self.components),
        ):
            raise InputDataError("shares must be a (times, components) matrix")
        if len(self.components) < 2:
            raise InputDataError("need at least two components")
        if np.any(np.diff(self.times) <= 0.0):
            raise InputDataError("times must be strictly increasing")
        if np.any(self.shares <= 0.0) or not np.all(np.isfinite(self.shares)):
            raise InputDataError("shares must be positive and finite")
        sums = self.shares.sum(axis=1)
        off = np.abs(sums - self.total) / self.total
        if np.any(off > _SUM_RTOL):
            j = int(np.argmax(off))
            raise InputDataError(
                f"row at t={self.times[j]:g} sums to {sums[j]:g}, "
                f"outside {_SUM_RTOL:.0%} of total {self.total:g} "
                "(renormalize the input)"
            )

    @property
    def n(self) -> int:
        return len(self.components)

    def epoch_index(self) -> int:
        hits = np.nonzero(np.isclose(self.times, 0.0, atol=1e-9))[0]
        if hits.size != 1:
            raise InputDataError("series must contain exactly one row at t = 0")
        return int(hits[0])


def growth_exponents(series: ShareSeries, ref_index: int = 0) -> np.ndarray:
    """Cumulative growth exponent of every component relative to the reference.

    Returns a (times, components) matrix h with h[:, ref_index] identically
    zero. The sign convention makes constant-rate data come out as
    h_i(t) = (k_i - k_ref) * t, which is the convention under which
    substituting h back into the exact solution reproduces the data.
    """
    if not 0 <= ref_index < series.n:
        raise InputDataError("reference index out of range")
    i0 = series.epoch_index()
    logx = np.log(series.shares)
    d = logx - logx[i0]
    h = d - d[:, ref_index][:, None]
    h[:, ref_index] = 0.0
    return h


@dataclass(frozen=True)
class RateFit:
    """Fitted exponent curves h_i(t) = a*exp(-b*t)*t + c per component.

    The reference component carries zeros. ``stderr`` columns mirror the
    parameter columns (a, b, c).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    stderr: np.ndarray
    ref_index: int

    def exponents_at(self, times) -> np.ndarray:
        h = _exp_form(np.asarray(times, dtype=float)[:, None], self.a, self.b, self.c)
        h[:, self.ref_index] = 0.0
        return h


def _exp_form(t, a, b, c):
    return a * np.exp(-b * t) * t + c


def fit_rates(times, exponents, ref_index: int = 0, form: str = "exponential") -> RateFit:
    """Least-squares fit of each non-reference exponent table.

    Initialization: the slope over the last three samples for a, zero for b
    and c. Parameters are reported with standard errors from the scaled
    covariance of the fit. The ``"linear"`` form is the same model with b
    held at 0, so its b and b stderr are 0 and its curves are a*t + c.
    """
    from scipy.optimize import curve_fit

    if form not in _FORMS:
        raise InputDataError(f"form must be one of {_FORMS}")
    t = np.asarray(times, dtype=float)
    h = np.asarray(exponents, dtype=float)
    if h.ndim != 2 or h.shape[0] != t.size:
        raise InputDataError("exponents must be a (times, components) matrix")
    n = h.shape[1]
    if not 0 <= ref_index < n:
        raise InputDataError("reference index out of range")
    if t.size < 5:
        raise InputDataError("need at least 5 samples per component")

    # which of (a, b, c) are fitted: a linear fit is the same model with b held at 0
    free = [0, 1, 2] if form == "exponential" else [0, 2]
    model = _exp_form if form == "exponential" else lambda t, a, c: _exp_form(t, a, 0.0, c)
    abc = np.zeros((3, n))
    err = np.zeros((n, 3))
    for i in range(n):
        if i == ref_index:
            continue
        a0 = float(np.polyfit(t[-3:], h[-3:, i], 1)[0])
        try:
            popt, pcov = curve_fit(model, t, h[:, i], p0=np.array([a0, 0.0, 0.0])[free],
                                   maxfev=20000)
            abc[free, i] = popt
            err[i, free] = np.sqrt(np.clip(np.diag(pcov), 0.0, np.inf))
        except RuntimeError as exc:
            res = h[:, i] - _exp_form(t, a0, 0.0, 0.0)
            raise NumericsError(
                f"rate fit for component {i} did not converge "
                f"(best starting residual {float(np.sum(res ** 2)):.3e}): {exc}"
            ) from exc
    return RateFit(*abc, err, ref_index)


def forecast(series: ShareSeries, fit: RateFit, horizon_times,
             n_prime_factor: float = 1.0) -> ShareSeries:
    """Evaluate the exact solution with fitted exponents over ``horizon_times``.

    The total is scaled by ``n_prime_factor`` and the resulting component
    values are reported raw (not rescaled back), so sums over components
    equal the scaled total. At t = 0 the output matches the observations up
    to the fit residual (the intercept c folds into an effective initial
    value).
    """
    if not n_prime_factor > 0.0:
        raise InputDataError("n_prime_factor must be positive")
    t_out = np.asarray(horizon_times, dtype=float)
    if t_out.ndim != 1 or t_out.size == 0:
        raise InputDataError("horizon must be a non-empty vector of times")
    x0 = series.shares[series.epoch_index()]
    h = fit.exponents_at(t_out)
    if not np.all(np.isfinite(h)):
        raise NumericsError("fitted exponents are not finite on the horizon")
    total = n_prime_factor * series.total
    states = share_composition(x0, h, total)
    return ShareSeries(series.components, t_out, states, total=total)
