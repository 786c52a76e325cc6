"""Deterministic regime: rate extraction and forecasting of compositional shares.

Because only rate *differences* matter in a conserved-total system, the
cumulative growth exponent of every component can be read off observed data
relative to a reference component (whose rate is pinned to zero). Those
exponent tables are fitted to a damped form a*exp(-b*t)*t + c, all
components at once by variable projection (exact in a and c, a grid and
Newton steps in b), and pushed back through the exact solution to
extrapolate the composition.
"""

from dataclasses import dataclass
from typing import NamedTuple

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


# b is searched as v = b * max|t|, so e^(-b*t) stays within e^(+-20) over the data
_V_GRID = np.linspace(-20.0, 20.0, 81)
_V_TOL = 1e-12  # a fit has settled when its next step in v is this small
_STEPS = 30  # no column of 12000 noise columns (T = 30 and 240) took more than 6


class _Projection(NamedTuple):
    a: np.ndarray          # slope on phi = s*e^(-v*s), s = t / max|t|
    rss: np.ndarray        # sum of squared residuals
    step: np.ndarray       # Newton step in v
    pp: np.ndarray         # |phi_c|^2, phi_c the centred phi
    g: np.ndarray          # dphi_c . phi_c / pp, dphi_c the centred dphi/dv
    curv: np.ndarray       # a^2 |dphi_c - g phi_c|^2, the Gauss-Newton curvature in v
    phi_mean: np.ndarray
    dphi_mean: np.ndarray


def _project(s, v, hc) -> _Projection:
    """Exact fit of each centred column of ``hc`` by a*phi + c at its own v.

    Kaufman's projected Jacobian of the residual in v is a times dphi/dv
    projected off span(phi, 1); it gives the Gauss-Newton curvature. ``step``
    is Newton's step on the projected residual: that curvature plus the
    residual terms Kaufman's form drops (Golub and Pereyra), which matter
    where the residual is large. Where that sum is not positive the step
    is Gauss-Newton's, and it is 0 where both curvatures are 0.
    """
    phi = s[:, None] * np.exp(-s[:, None] * v)
    dphi = -s[:, None] * phi
    d2phi = -s[:, None] * dphi
    phi_mean = phi.mean(axis=0)
    dphi_mean = dphi.mean(axis=0)
    phi -= phi_mean
    dphi -= dphi_mean
    pp = np.einsum("ij,ij->j", phi, phi)
    a = np.einsum("ij,ij->j", phi, hc) / pp
    res = hc - a * phi
    g = np.einsum("ij,ij->j", phi, dphi) / pp
    perp = dphi - g * phi
    curv = a * a * np.einsum("ij,ij->j", perp, perp)
    slope = np.einsum("ij,ij->j", dphi, res)  # -1/(2a) times the gradient in v
    newton = (curv - a * np.einsum("ij,ij->j", d2phi, res)
              + 2.0 * a * g * slope - slope * slope / pp)
    newton = np.where(newton > 0.0, newton, curv)
    step = np.divide(a * slope, newton, out=np.zeros_like(curv), where=newton > 0.0)
    return _Projection(a, np.einsum("ij,ij->j", res, res), step, pp, g, curv, phi_mean, dphi_mean)


def _search_v(s, hc):
    """The v of least residual per column: a grid over v, then Newton steps.

    The grid's best point and its two neighbours bracket the search; a step
    that raises the residual is halved back towards the best point so far.
    A column settles when its next step is below ``_V_TOL`` or when its
    residuals differ only by rounding. A constant column fits exactly at
    every v and keeps v = 0. Returns the v per column and the indices of the
    columns that have not settled after ``_STEPS`` steps.
    """
    q = s * np.exp(-np.outer(_V_GRID, s))
    q -= q.mean(axis=1, keepdims=True)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    # the projected residual at grid point k is |hc|^2 - (q_k . hc)^2
    k = np.argmax(np.abs(q @ hc), axis=0)
    lo = _V_GRID[np.maximum(k - 1, 0)]
    hi = _V_GRID[np.minimum(k + 1, _V_GRID.size - 1)]
    hh = np.einsum("ij,ij->j", hc, hc)
    rounding = 16.0 * np.finfo(float).eps * hh
    best = np.where(hh > 0.0, _V_GRID[k], 0.0)
    best_rss = np.full(best.size, np.inf)
    trial = best.copy()
    todo = np.nonzero(hh > 0.0)[0]
    for _ in range(_STEPS):
        if todo.size == 0:
            break
        v = trial[todo]
        p = _project(s, v, hc[:, todo])
        settled = np.abs(p.rss - best_rss[todo]) <= rounding[todo]
        better = p.rss < best_rss[todo]
        best[todo] = v_best = np.where(better, v, best[todo])
        best_rss[todo] = np.minimum(p.rss, best_rss[todo])
        nxt = np.where(better, np.clip(v + p.step, lo[todo], hi[todo]), 0.5 * (v_best + v))
        settled |= np.abs(nxt - v_best) <= _V_TOL
        trial[todo] = nxt
        todo = todo[~settled]
    return best, todo


def fit_rates(times, exponents, ref_index: int = 0, form: str = "exponential") -> RateFit:
    """Least-squares fit of every non-reference exponent column at once.

    For a fixed b the model is linear in (a, c), so (a, c) follow exactly
    from the normal equations and only b is searched (variable projection;
    Golub and Pereyra 1973). The projected residual is evaluated for every
    component on one grid over b, and each least grid point is polished by
    Newton steps: the Gauss-Newton curvature of Kaufman's projected Jacobian
    plus the residual terms it drops. The search keeps
    e^(-b*t) within e^(+-20) over the data. Standard errors come from the
    (a, b, c) Jacobian at the optimum, scaled by RSS/(T - p) for p fitted
    parameters; a component whose b is not identified (a = 0) gets an
    infinite row. The ``"linear"`` form is the same model with b held at 0:
    it is solved with no search, its b and b stderr are 0 and its curves are
    a*t + c. Raises NumericsError, naming the components, if a fit does not
    settle.
    """
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
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(h))):
        raise InputDataError("times and exponents must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise InputDataError("times must be strictly increasing")

    scale = float(np.abs(t).max())
    s = t / scale
    cols = np.arange(n) != ref_index
    h_mean = h[:, cols].mean(axis=0)
    hc = h[:, cols] - h_mean
    exponential = form == "exponential"
    v = np.zeros(hc.shape[1])
    if exponential:
        v, unsettled = _search_v(s, hc)
        if unsettled.size:
            raise NumericsError(
                f"rate fit did not settle in {_STEPS} Newton steps for components "
                f"{np.nonzero(cols)[0][unsettled].tolist()} (counted from 0 in input order)")
    p = _project(s, v, hc)
    sigma2 = p.rss / (t.size - (3 if exponential else 2))
    # the inverse Gram matrix of the Jacobian columns phi, a*dphi/dv and 1, through
    # the centred (phi, a*dphi/dv) block: each variance is a sum of squares
    var = np.empty((v.size, 3))
    var[:, 0] = 1.0 / p.pp
    var[:, 1] = 0.0
    var[:, 2] = 1.0 / t.size + p.phi_mean ** 2 / p.pp
    if exponential:
        inv = np.divide(1.0, p.curv, out=np.zeros_like(p.curv), where=p.curv > 0.0)
        var[:, 0] += (p.a * p.g) ** 2 * inv
        var[:, 1] = inv
        var[:, 2] += (p.a * (p.dphi_mean - p.g * p.phi_mean)) ** 2 * inv
    se = np.sqrt(sigma2[:, None] * var) / np.array([scale, scale, 1.0])
    if exponential:
        se[p.curv == 0.0] = np.inf
    abc = np.zeros((3, n))
    abc[:, cols] = p.a / scale, v / scale, h_mean - p.a * p.phi_mean
    err = np.zeros((n, 3))
    err[cols] = se
    return RateFit(*abc, err, ref_index)


def forecast(series: ShareSeries, fit: RateFit, horizon_times,
             n_prime_factor: float = 1.0) -> ShareSeries:
    """Evaluate the exact solution with fitted exponents over ``horizon_times``.

    The total is scaled by ``n_prime_factor`` and the resulting component
    values are reported raw (not rescaled back), so sums over components
    equal the scaled total. At t = 0 the output matches the observations up
    to the fit residual (the intercept c folds into an effective initial
    value). The scaled total must be a finite, positive, normal number.
    """
    total = n_prime_factor * series.total
    if not np.finfo(float).tiny <= total < np.inf:
        raise InputDataError(f"n_prime_factor must give a finite positive normal total, got {total!r}")
    t_out = np.asarray(horizon_times, dtype=float)
    if t_out.ndim != 1 or t_out.size == 0:
        raise InputDataError("horizon must be a non-empty vector of times")
    x0 = series.shares[series.epoch_index()]
    h = fit.exponents_at(t_out)
    if not np.all(np.isfinite(h)):
        raise NumericsError("fitted exponents are not finite on the horizon")
    states = share_composition(x0, h, total)
    return ShareSeries(series.components, t_out, states, total=total)
