"""Random-walker ensemble for the high-noise (thermodynamic) regime.

Each walker is a population under proportional growth: a move multiplies
x_i by exp(dt*(drift_i + sigma_i*xi)), one walker at a time, and the whole
ensemble is rescaled at once so the total population stays pinned. A move
that would leave any population below the floor is rejected outright. Long
runs equilibrate to the rank-size law solved in :mod:`.maxent`. The kernel
keeps that sequential rule but solves each step's accept/reject decisions
together in numpy, as the fixed point described in
:func:`.kernels.advance_walkers_seq`.

A single ensemble mutates its own state and is not thread-safe; independent
ensembles (distinct seeds) can run in parallel freely. The noise stream
comes from a counter-based Philox generator, so a run is fully determined
by (seed, parameters) regardless of how steps are chunked.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputDataError, NumericsError
from .maxent import RankDistribution

__all__ = [
    "WalkerEnsemble",
    "EnsembleStats",
    "scale_invariance_corr",
]

_CHUNK_VALUES = 1 << 18  # normals drawn at once: 2 MiB of doubles, whatever n is


@dataclass(frozen=True)
class EnsembleStats:
    """Summary of an equilibrated run; the move counts cover every step."""

    rank_table: RankDistribution
    corr_coeff: float
    step_count: int
    accepted_moves: int
    mover_rejections: int    # the mover would have sunk below the floor
    rescale_rejections: int  # the rescale would have sunk the smallest other walker


class WalkerEnsemble:
    """n walkers with conserved total and a hard floor.

    Walkers move one at a time (one normal per walker per step), the
    restoring rescale is applied after every move, and a move is rejected
    outright if it would leave any population below the floor. This samples
    the flat measure on the constraint surface and equilibrates to the
    analytic rank law.
    """

    def __init__(self, x0, total, floor, dt, sigma, drift=0.0, seed=0):
        x = np.asarray(x0, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise InputDataError("need at least two walkers")
        n = x.size
        if not all(0.0 < v < np.inf for v in (total, floor, dt)):
            raise InputDataError("total, floor and dt must be positive and finite")
        if total <= n * floor:
            raise InputDataError(
                f"floor infeasible: total {total:.6g} <= n*floor {n * floor:.6g}"
            )
        if np.any(x < floor):
            raise InputDataError("every initial population must be at the floor or above")
        self.total = float(total)
        self.floor = float(floor)
        self.dt = float(dt)
        self.sigma = np.broadcast_to(np.asarray(sigma, float), (n,)).copy()
        self.drift = np.broadcast_to(np.asarray(drift, float), (n,)).copy()
        if not np.all((self.sigma >= 0.0) & (self.sigma < np.inf)):
            raise InputDataError("sigma must be finite and non-negative")
        if not np.all(np.isfinite(self.drift)):
            raise InputDataError("drift must be finite")
        self.seed = int(seed)
        if self.seed < 0:
            raise InputDataError(f"seed must be non-negative, got {self.seed}")
        self._rng = np.random.Generator(np.random.Philox(self.seed))
        self.x = x * (self.total / x.sum())
        if np.any(self.x < self.floor * (1.0 - 1e-12)):
            raise InputDataError("initial populations infeasible after normalization")
        self.step_count = 0
        # accepted moves, mover rejections, rescale rejections
        self.move_counts = np.zeros(3, dtype=np.int64)

    @classmethod
    def uniform(cls, n, total, floor, dt, sigma, drift=0.0, seed=0):
        """All walkers starting at the mean population total/n."""
        if n < 2:
            raise InputDataError("need at least two walkers")
        return cls(np.full(n, total / n), total, floor, dt, sigma, drift, seed)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def u(self) -> np.ndarray:
        """Log-populations (the walkers' natural coordinates)."""
        return np.log(self.x)

    @property
    def populations(self) -> np.ndarray:
        return self.x.copy()

    def run(self, steps: int):
        """Advance the ensemble by ``steps`` steps."""
        if steps < 0:
            raise InputDataError("steps must be non-negative")
        # one buffer, refilled in place: a fresh draw would hold two blocks at once
        buffer = np.empty((min(steps, max(1, _CHUNK_VALUES // self.n)), self.n))
        done = 0
        while done < steps:
            normals = buffer[:steps - done]
            chunk = normals.shape[0]
            self._rng.standard_normal(out=normals)
            bad = kernels.advance_walkers_seq(
                self.x, normals, self.drift, self.sigma,
                self.dt, self.total, self.floor, self.move_counts,
            )
            if bad >= 0:
                raise NumericsError(
                    f"walker update failed at step {self.step_count + done + bad}"
                )
            done += chunk
        self.step_count += steps

    def run_to_equilibrium(self, burn_in: int, sample_every: int, samples: int) -> EnsembleStats:
        """Burn in, then collect a rank table and the scale-invariance diagnostic.

        The rank table is the mean over ``samples`` snapshots of the sorted
        populations, snapshots spaced ``sample_every`` steps apart. The
        diagnostic pairs each snapshot with the very next step, so the
        velocity estimate uses consecutive states. A degenerate run (e.g.
        sigma = 0) leaves the correlation undefined; it is reported as NaN
        here, while :func:`scale_invariance_corr` itself raises.
        """
        if burn_in < 1 or samples < 1 or sample_every < 1:
            raise InputDataError("burn_in, sample_every and samples must be >= 1")
        self.run(burn_in)
        rank_acc = np.zeros(self.n)
        before = np.empty((samples, self.n))
        after = np.empty((samples, self.n))
        for s in range(samples):
            before[s] = self.u
            self.run(1)
            after[s] = self.u
            rank_acc += np.sort(self.x)[::-1]
            if s < samples - 1:
                self.run(sample_every - 1)
        rank_table = RankDistribution(rank_acc / samples)
        try:
            corr = scale_invariance_corr(
                np.stack([before.ravel(), after.ravel()]), self.dt
            )
        except NumericsError:
            corr = float("nan")
        return EnsembleStats(rank_table, corr, self.step_count,
                             *(int(c) for c in self.move_counts))


def scale_invariance_corr(u_snapshots, dt: float) -> float:
    """Pearson correlation between log-size and squared relative growth.

    ``u_snapshots`` is a sequence of consecutive log-population vectors
    spaced ``dt`` apart. Velocities are estimated by forward differences,
    paired with the left snapshot, and pooled over walkers and pairs. A
    value near zero means growth fluctuations are size-independent, the
    fingerprint of scale invariance.
    """
    snaps = np.asarray(u_snapshots, dtype=float)
    if snaps.ndim != 2 or snaps.shape[0] < 2:
        raise InputDataError("need at least two snapshots")
    if not dt > 0.0:
        raise InputDataError("dt must be positive")
    udot = np.diff(snaps, axis=0) / dt
    u = snaps[:-1].ravel()
    v = (udot**2).ravel()
    if np.std(u) == 0.0 or np.std(v) == 0.0:
        raise NumericsError("correlation undefined: zero variance in inputs")
    return float(np.corrcoef(u, v)[0, 1])
