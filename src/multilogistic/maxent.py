"""Analytic equilibrium of the high-noise regime: rank-size laws from MaxEnt.

An ensemble of components undergoing noisy proportional growth with a fixed
total and a hard population floor equilibrates to the scale-free density

    p(x) dx = exp(-lam * x / x0) / (x/x0 * Gamma(0, lam)) d(x/x0),   x >= x0,

where Gamma(0, z) is the order-zero upper incomplete gamma function (the
exponential integral E1) and the floor x0 sets the natural population unit.

Units: ``lam`` throughout this module is expressed per floor unit, i.e. the
population variable is measured in multiples of x0. The per-person decay
rate is ``lam / x0``. With this convention the mean-value constraint reads

    x0 * exp(-lam) / (lam * Gamma(0, lam)) = total / n,

and the solved values for city-population data land in the 5e-3 range.

Gamma(0, z) is scipy's compiled exponential integral ``scipy.special.exp1``;
its inverse is a plain Newton iteration in w = log z that runs on whole
arrays and needs no bracket. F(w) = Gamma(0, e^w) - g has F' = -exp(-z) < 0
and F'' = z exp(-z) > 0, so every tangent of F lies below F: from a start
left of the root each step stays left of it and rises towards it, and from
a start right of it one step lands left of it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError, NumericsError

__all__ = [
    "gamma0",
    "gamma0_inverse",
    "MaxEntModel",
    "RankDistribution",
    "solve_lambda",
    "analytic_rank",
    "mean_population_from",
    "population_cdf",
    "ks_distance",
    "fit_lambda",
    "filter_populations",
]

_EULER_GAMMA = 0.5772156649015328606065120900824024
_Z_CAP = 700.0  # beyond this exp(-z) leaves the normal double range


_Z_MIN = 1e-300  # floor of the inverse's domain: smaller roots are not solved
_G_MAX = 690.1983122333121  # Gamma(0, _Z_MIN): larger g has its root below _Z_MIN


def gamma0(z):
    """Order-zero upper incomplete gamma Gamma(0, z) = integral_z^inf e^-t / t dt.

    Accepts a scalar (returns a float) or an array; every z must be > 0.
    """
    from scipy.special import exp1

    arr = np.asarray(z, dtype=float)
    if not np.all(arr > 0.0):
        raise InputDataError("gamma0 requires z > 0")
    out = exp1(arr)
    return float(out) if arr.ndim == 0 else out


def gamma0_inverse(g):
    """Solve Gamma(0, z) = g for z > 0 (Newton in log z).

    Gamma(0, .) decreases monotonically from +inf to 0, so the inverse is
    unique. Residual is driven below 1e-12 relative to ``g``. Accepts a
    scalar (returns a float) or an array; every element is solved at once.
    Newton needs no bracket: Gamma(0, e^w) is decreasing and convex in
    w = log z, so one step from any start lands left of the root and the
    steps after it rise to the root without passing it. An element whose
    step moves z by at most 1e-15 relative (rounding) ends after that step.
    """
    from scipy.special import exp1

    arr = np.asarray(g, dtype=float)
    if not np.all(arr > 0.0):
        raise InputDataError("gamma0_inverse requires g > 0")
    if np.any(arr < 1e-305):
        raise NumericsError("gamma0_inverse argument underflows double precision")
    if np.any(arr > _G_MAX):
        raise NumericsError(
            f"gamma0_inverse argument above {_G_MAX:.6g}: its root underflows "
            "double precision"
        )
    gv = arr.ravel()
    neglog = -np.log(gv)
    # initial guess from the two asymptotic branches; for g <= 0.6 it is above 0.1
    z = np.where(gv > 0.6, np.exp(-_EULER_GAMMA - gv),
                 neglog - np.log(np.maximum(neglog, 1.5)))

    out = np.empty(gv.shape)
    todo = np.arange(gv.size)
    for _ in range(200):
        f = exp1(z) - gv
        # Newton step in w = log z: dE1/dw = -exp(-z)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            z_new = np.exp(np.log(z) + f / np.exp(-z))
        converged = np.abs(f) <= 1e-12 * gv
        stalled = ~converged & (np.abs(z_new - z) <= 1e-15 * z)
        out[todo[converged]] = z[converged]
        out[todo[stalled]] = z_new[stalled]
        keep = ~(converged | stalled)
        todo, gv, z = todo[keep], gv[keep], z_new[keep]
        if not todo.size:
            break
    else:
        raise NumericsError(
            f"gamma0_inverse failed to converge for {gv.size} value(s), "
            f"g={gv[:5].tolist()!r}"
        )
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@dataclass(frozen=True)
class MaxEntModel:
    """Equilibrium rank-size model fixed by its decay constant, floor and size.

    ``lam`` is the decay constant per floor unit x0 (divide by x0 for a
    per-person value). The total follows from the mean-value constraint,
    ``n * mean_population_from(lam, x0)``.
    """

    lam: float
    x0: float
    n: int

    def __post_init__(self):
        if not (self.lam > 0.0 and self.x0 > 0.0 and self.n >= 1):
            raise InputDataError("MaxEntModel requires lam > 0, x0 > 0, n >= 1")


def mean_population_from(lam: float, x0: float) -> float:
    """Mean of the equilibrium density for a given decay constant and floor."""
    from scipy.special import exp1

    if not lam > 0.0:
        raise InputDataError("the decay constant must be positive")
    return x0 * math.exp(-lam) / (lam * float(exp1(lam)))


def solve_lambda(total: float, n: int, x0: float) -> MaxEntModel:
    """Determine the decay constant from the mean-value constraint.

    Solves exp(-z)/(z * Gamma(0, z)) = total/(n*x0) with Brent's method on
    the logarithm of both sides; the residual is below 1e-10 relative. The
    ratio total/(n*x0) must exceed 1; as it approaches 1 the constant
    diverges and the solver reports the cap.
    """
    from scipy.optimize import brentq

    if not (total > 0.0 and x0 > 0.0 and n >= 1):
        raise InputDataError("need total > 0, x0 > 0, n >= 1")
    ratio = total / (n * x0)
    if not ratio > 1.0:
        raise InputDataError(
            f"mean population {total / n:.6g} must exceed the floor {x0:.6g}"
        )

    def phi(z: float) -> float:
        return mean_population_from(z, 1.0)

    lo, hi = 1e-12, 1.0
    if not phi(lo) > ratio:
        raise NumericsError(
            "mean too far above the floor: decay constant below the bracket"
        )
    while phi(hi) > ratio:
        hi *= 2.0
        if hi > _Z_CAP:
            raise NumericsError(
                "mean too close to the floor: decay constant beyond the cap"
            )
    log_ratio = math.log(ratio)
    z = brentq(lambda z: math.log(phi(z)) - log_ratio, lo, hi,
               xtol=1e-300, rtol=4.0 * np.finfo(float).eps, disp=False)
    residual = abs(phi(z) - ratio)
    if residual > 1e-10 * ratio:
        raise NumericsError(f"mean-value solve stalled at residual {residual:.3e}")
    return MaxEntModel(z, x0, n)


def analytic_rank(model: MaxEntModel, r):
    """Population of the component at (continuous) rank ``r`` in [0, n].

    r = n lands exactly on the floor; small ranks give the large-population
    head, which diverges logarithmically as r -> 0 (r <= 0 is rejected).
    """
    from scipy.special import exp1

    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr > model.n):
        raise InputDataError("rank must lie in (0, n]")
    g0 = float(exp1(model.lam))
    scale = model.x0 / model.lam
    return scale * gamma0_inverse(g0 * r_arr / model.n)


def population_cdf(model: MaxEntModel, x):
    """Equilibrium CDF F(x) = 1 - Gamma(0, lam*x/x0) / Gamma(0, lam) for x >= x0."""
    from scipy.special import exp1

    x_arr = np.asarray(x, dtype=float)
    g0 = float(exp1(model.lam))
    z = model.lam * np.maximum(x_arr, model.x0) / model.x0
    out = 1.0 - gamma0(z) / g0
    return np.where(x_arr < model.x0, 0.0, out)


def ks_distance(populations, model: MaxEntModel) -> float:
    """One-sample Kolmogorov-Smirnov distance of a sample to the equilibrium CDF."""
    xs = np.sort(np.asarray(populations, dtype=float))
    if xs.size == 0:
        raise InputDataError("empty sample")
    cdf = population_cdf(model, xs)
    grid = np.arange(1, xs.size + 1) / xs.size
    return float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / xs.size - cdf))))


@dataclass(frozen=True)
class RankDistribution:
    """Populations in descending order; the rank of each is its position (rank 1 = largest)."""

    populations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "populations", np.asarray(self.populations, dtype=float))
        if self.populations.ndim != 1:
            raise InputDataError("populations must be a 1-d vector")
        if np.any(np.diff(self.populations) > 0.0):
            raise InputDataError("populations must be sorted non-increasing")

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, len(self) + 1, dtype=float)

    @classmethod
    def from_sample(cls, populations) -> "RankDistribution":
        return cls(np.sort(np.asarray(populations, dtype=float))[::-1])

    def __len__(self):
        return self.populations.shape[0]


def fit_lambda(data: RankDistribution, x0: float) -> tuple[float, float]:
    """Least-squares fit of the rank law to data, in log space.

    n is fixed to the number of entries and the floor to ``x0``; only the
    decay constant is free. Returns (lam, standard error). Log space keeps
    the decades-spanning head and the flat tail on equal footing. The fit is
    a bracketed Newton iteration in theta = log lam on the stationarity
    condition G = sum_k res_k J_k = 0, started at the solved lam; the
    standard error is taken at the returned lam.
    """
    pops = data.populations
    if len(data) < 10:
        raise InputDataError("need at least 10 rank entries to fit")
    if np.any(pops < x0 * (1.0 - 1e-9)):
        raise InputDataError("all populations must be at or above the floor x0")
    n = len(data)
    ranks = data.ranks
    log_data = np.log(pops)
    theta = math.log(solve_lambda(float(pops.sum()), n, x0).lam)
    # G > 0 puts the minimum below theta, G < 0 above; lam stays below _Z_CAP
    lo, hi = -math.inf, math.log(_Z_CAP)
    for _ in range(100):
        lam = math.exp(theta)
        x = analytic_rank(MaxEntModel(lam, x0, n), ranks)
        res = np.log(x) - log_data
        # x_k = x0 z_k / lam with Gamma(0, z_k) = Gamma(0, lam) r_k / n, so
        # J_k = d log x_k / d log lam = e_k - 1 with e_k = (r_k / n) exp(z_k - lam),
        # and dJ_k / d log lam = e_k (e_k z_k - lam)
        ratio = x / x0
        e = (ranks / n) * np.exp(lam * (ratio - 1.0))
        jac = e - 1.0
        grad, jtj = float(res @ jac), float(jac @ jac)
        curvature = jtj + float(res @ (e * (e * (lam * ratio) - lam)))
        step = -grad / (curvature if curvature > 0.0 else jtj)
        tol = 1e-15 * max(abs(theta), 1.0)
        if abs(step) <= tol:
            break
        lo, hi = (lo, theta) if grad > 0.0 else (theta, hi)
        if hi - lo <= tol:  # G's rounding noise outweighs the step where lam is large
            break
        # until a lam below the minimum is known, a step down is at most 1 in log lam
        theta_new = theta + (max(step, -1.0) if lo == -math.inf else step)
        theta = theta_new if lo < theta_new < hi else 0.5 * (lo + hi)
    else:
        raise NumericsError("rank-law fit did not converge in 100 Newton steps; "
                            f"last lam {lam!r}, G {grad:.3g}")
    if not curvature > 0.0:
        raise NumericsError(f"rank-law fit ended off a minimum (curvature {curvature:.3g})")
    s2 = float(res @ res) / max(n - 1, 1)
    stderr_theta = math.sqrt(s2 / jtj) if jtj > 0.0 else float("inf")
    return lam, lam * stderr_theta


def filter_populations(populations, x0: float, drop_top: int = 0):
    """Apply the canonical data filters: drop entries below the floor and the
    ``drop_top`` largest. Returns (kept descending, n_below, n_top).

    The floor comparison carries a 1e-9 relative slack so values sitting on
    the floor up to rounding are kept.
    """
    if drop_top < 0:
        raise InputDataError(f"drop_top must be non-negative, got {drop_top}")
    if not 0.0 < x0 < math.inf:
        raise InputDataError(f"x0 must be positive and finite, got {x0!r}")
    xs = np.sort(np.asarray(populations, dtype=float))[::-1]
    cut = x0 * (1.0 - 1e-9)
    below = int(np.sum(xs < cut))
    kept = xs[xs >= cut]
    if drop_top > 0:
        kept = kept[drop_top:]
    return kept, below, min(drop_top, xs.size)
