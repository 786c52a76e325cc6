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

Gamma(0, z) is scipy's compiled exponential integral ``scipy.special.exp1``.
The one equation inverted is the rank law Gamma(0, z) = (r/n) Gamma(0, lam),
solved for the excess u = z - lam over the floor by a plain Newton iteration
that runs on whole arrays and needs no bracket. In the scaled integral
s(z) = e^z Gamma(0, z) it reads F(u) = u + log s(lam) - log s(lam + u) +
log(r/n) = 0, which forms no Gamma value that could underflow, however
large lam is. F is increasing and concave, so every tangent of F lies above
F: one step from any start lands left of the root (clipped at u = 0), and
the steps after it rise to the root without passing it.
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


def _scaled_gamma0(z):
    """s(z) = e^z Gamma(0, z) for an array of z > 0.

    Up to z = 700 both factors are normal doubles; above, s is the continued
    fraction of A&S 5.1.22.
    """
    from scipy.special import exp1

    low = np.minimum(z, _Z_CAP)
    s = np.exp(low) * exp1(low)
    high = z > _Z_CAP
    if high.any():
        s[high] = _scaled_gamma0_cf(z[high])
    return s


def _scaled_gamma0_cf(z):
    """s(z) = 1/(z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...))), 40 terms from the back."""
    t = z + 79.0
    for k in range(39, 0, -1):
        t = z + (2 * k - 1) - k * k / t
    return 1.0 / t


def gamma0_inverse(fraction, lam):
    """Solve the rank law Gamma(0, z) = fraction * Gamma(0, lam) for z >= lam.

    ``fraction`` is a scalar (returns a float) or an array, each in (0, 1];
    every element is solved at once, and a fraction of 1 gives lam. Newton
    steps run on the excess u = z - lam, on
    F(u) = u + log s(lam) - log s(lam + u) + log(fraction) with
    s(z) = e^z Gamma(0, z), so no Gamma value is formed that could underflow.
    F rises and is concave: F' = 1/(z s(z)), and s(z)(1 + z) > 1 (A&S
    5.1.19). So every tangent lies above F, and after the first step, clipped
    at u = 0, the steps rise to the root without passing it. The iterate is
    kept as z = lam + u, so F is taken at the z returned. A point ends at
    |F| <= 1e-12 or at the first step that does not move it; a solve still
    open after 100 passes raises ``NumericsError``.
    """
    arr = np.asarray(fraction, dtype=float)
    if not (np.all((arr > 0.0) & (arr <= 1.0)) and lam > 0.0):
        raise InputDataError("gamma0_inverse requires 0 < fraction <= 1 and lam > 0")
    # F(u) = u - log s(lam + u) + c, with c = log(fraction) + log s(lam)
    c = np.log(arr.ravel()) + math.log(_scaled_gamma0(np.array([lam]))[0])
    # start from the two asymptotic branches of Gamma(0, z) = g, -log g = lam - c
    neglog = lam - c
    z = np.maximum(np.where(neglog < -math.log(0.6), np.exp(-_EULER_GAMMA - np.exp(-neglog)),
                            neglog - np.log(np.maximum(neglog, 1.5))), lam)
    out = np.empty(c.shape)
    todo = np.arange(c.size)
    for _ in range(100):
        s = _scaled_gamma0(z)
        f = z - lam - np.log(s) + c
        z_new = np.maximum(z - f * z * s, lam)  # the Newton step -F/F', clipped at u = 0
        done = (np.abs(f) <= 1e-12) | (z_new == z)
        out[todo[done]] = z[done]
        todo, c, z = todo[~done], c[~done], z_new[~done]
        if not todo.size:
            break
    else:
        raise NumericsError(f"gamma0_inverse did not converge for {c.size} value(s) at lam {lam!r}")
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
    """Mean of the equilibrium density for a given decay constant and floor.

    ``lam`` must be positive and at most 700; beyond that exp(-lam) and
    Gamma(0, lam) leave the normal double range (``NumericsError``).
    """
    from scipy.special import exp1

    if not lam > 0.0:
        raise InputDataError("the decay constant must be positive")
    if lam > _Z_CAP:
        raise NumericsError(f"decay constant {lam:.6g} beyond the cap {_Z_CAP:g}")
    return x0 * math.exp(-lam) / (lam * float(exp1(lam)))


def solve_lambda(total: float, n: int, x0: float) -> MaxEntModel:
    """Determine the decay constant from the mean-value constraint.

    Solves phi(z) = exp(-z)/(z * Gamma(0, z)) = total/(n*x0) by Newton steps
    on h(w) = log phi(e^w) - log(total/(n*x0)) in w = log z, started at the
    left end z = 1e-12; the residual is below 1e-10 relative. There h is
    positive, falling and convex, with slope z(phi - 1) - 1, so each step
    rises towards the root without passing it. The steps stop at the first
    one that rises by at most 1e-16 max(|w|, 1). The ratio total/(n*x0)
    must exceed 1; as it approaches 1 the constant diverges. The domain is
    z in [1e-12, 700]: a root outside it is reported as below the bracket or
    beyond the cap.
    """
    if not (total > 0.0 and x0 > 0.0 and n >= 1):
        raise InputDataError("need total > 0, x0 > 0, n >= 1")
    ratio = total / (n * x0)
    if not ratio > 1.0:
        raise InputDataError(
            f"mean population {total / n:.6g} must exceed the floor {x0:.6g}"
        )
    z = 1e-12
    phi = mean_population_from(z, 1.0)
    if not phi > ratio:
        raise NumericsError(
            "mean too far above the floor: decay constant below the bracket"
        )
    if mean_population_from(_Z_CAP, 1.0) > ratio:
        raise NumericsError(
            "mean too close to the floor: decay constant beyond the cap"
        )
    log_ratio, w, w_cap = math.log(ratio), math.log(z), math.log(_Z_CAP)
    for _ in range(100):
        # the Newton step -h/h', with h' = z(phi - 1) - 1 < 0
        w_new = min(w + (math.log(phi) - log_ratio) / (1.0 - z * (phi - 1.0)), w_cap)
        if not w_new - w > 1e-16 * max(abs(w), 1.0):
            break
        w, z = w_new, math.exp(w_new)
        phi = mean_population_from(z, 1.0)
    else:
        raise NumericsError(f"mean-value solve did not converge in 100 steps; last lam {z!r}")
    residual = abs(phi - ratio)
    if residual > 1e-10 * ratio:
        raise NumericsError(f"mean-value solve stalled at residual {residual:.3e}")
    return MaxEntModel(z, x0, n)


def analytic_rank(model: MaxEntModel, r):
    """Population of the component at (continuous) rank ``r`` in [0, n].

    r = n lands exactly on the floor; small ranks give the large-population
    head, which diverges logarithmically as r -> 0 (r <= 0 is rejected).
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr > model.n):
        raise InputDataError("rank must lie in (0, n]")
    scale = model.x0 / model.lam
    return scale * gamma0_inverse(r_arr / model.n, model.lam)


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
    standard error is taken at the returned lam. A fit that ends at the cap
    (700) with G < 0 has its minimum beyond it (``NumericsError``).
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
    if grad < 0.0 and math.log(_Z_CAP) - theta <= tol:  # stopped at the top of its bracket
        raise NumericsError(f"rank-law fit: minimum beyond the cap {_Z_CAP:g} (G {grad:.3g} there)")
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
    top = min(drop_top, kept.size)
    return kept[top:], below, top
