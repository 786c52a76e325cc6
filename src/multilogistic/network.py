"""Intermediate regime: cluster growth on scale-free networks as diffusion.

The single-component logistic curve linearizes under y = -log(total/x - 1);
noisy growth then becomes a plain drift-diffusion in y. This module provides
the graph side (degree law p(c) ~ 1/c up to a cutoff, breadth-first cluster
growth) and the analytic side (the transform, the propagated density in
x-space, and parameter extraction from an ensemble of growth processes).
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _sparse_components
from scipy.special import expit

from . import kernels
from .errors import InputDataError, NumericsError

_MIN_PROCESSES = 30  # the fewest growth processes a kernel fit accepts

__all__ = [
    "Network",
    "GrowthProcess",
    "DiffusionKernelParams",
    "generate_sfin",
    "grow_cluster",
    "y_transform",
    "y_inverse",
    "kernel_density",
    "fit_kernel",
    "growth_statistics",
    "degree_histogram",
    "degree_loglog_slope",
    "connected_component_sizes",
    "largest_component_nodes",
]


@dataclass(frozen=True)
class Network:
    """Simple undirected graph in CSR form (neighbor lists sorted per node)."""

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    c_max: int

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """(E, 2) array with u < v, sorted lexicographically."""
        src = np.repeat(np.arange(self.node_count), self.degrees)
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    @classmethod
    def from_edges(cls, node_count: int, edges, c_max: int = 0) -> "Network":
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise InputDataError("edges must be an (E, 2) array")
        if edges.size and (edges.min() < 0 or edges.max() >= node_count):
            raise InputDataError("edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise InputDataError("self-loops are not allowed")
        # COO to CSR yields canonical form: sorted neighbors, duplicates summed
        u, v = edges.T
        graph = csr_matrix(
            (np.ones(2 * u.size, dtype=np.int8), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(node_count, node_count),
        )
        if graph.nnz < 2 * u.size:
            raise InputDataError("duplicate edges are not allowed")
        cm = int(c_max) if c_max else int(np.diff(graph.indptr).max(initial=0))
        return cls(node_count, graph.indptr, graph.indices, cm)


@dataclass(frozen=True)
class GrowthProcess:
    """One cluster-growth run: cumulative nodes reached per BFS iteration."""

    sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=np.int64))
        if self.sizes.size == 0 or self.sizes[0] != 1:
            raise InputDataError("growth starts from a single seed node")
        if np.any(np.diff(self.sizes) <= 0):
            raise InputDataError("cluster sizes must be strictly increasing")


def generate_sfin(node_count: int, c_max: int, seed: int, c_min: int = 1) -> Network:
    """Random simple graph with degree law p(c) proportional to 1/c on [c_min, c_max].

    Draws a degree sequence (total made even), wires stubs uniformly at
    random, then repairs self-loops and duplicate edges by randomized edge
    swaps that preserve every degree. Repair is capped at 100 * edge_count
    attempts; an unrealizable sequence raises.
    """
    if not (node_count >= c_max >= 2):
        raise InputDataError("need node_count >= c_max >= 2")
    if not 1 <= c_min <= c_max:
        raise InputDataError("need 1 <= c_min <= c_max")
    if seed < 0:
        raise InputDataError(f"seed must be non-negative, got {seed}")
    rng = np.random.Generator(np.random.Philox(seed))
    support = np.arange(c_min, c_max + 1)
    weights = 1.0 / support
    weights /= weights.sum()
    deg = rng.choice(support, size=node_count, p=weights)
    if deg.sum() % 2 == 1:
        idx = int(rng.integers(node_count))
        if deg[idx] < c_max:
            deg[idx] += 1
        elif deg[idx] > c_min:
            deg[idx] -= 1
        else:
            raise InputDataError("cannot even out the degree total with c_min == c_max")

    stubs = np.repeat(np.arange(node_count, dtype=np.int64), deg)
    rng.shuffle(stubs)
    edges = stubs.reshape(-1, 2)
    edges = _repair_simple(edges, rng)
    return Network.from_edges(node_count, edges, c_max=c_max)


def _repair_simple(edges: np.ndarray, rng) -> np.ndarray:
    """Remove self-loops/duplicates by degree-preserving random swaps."""
    edges = np.array(edges, dtype=np.int64)
    n_edges = edges.shape[0]
    span = int(edges.max()) + 1

    def key(u, v):
        return min(u, v) * span + max(u, v)

    def scan():
        # keys of the non-loop edges, and the bad edges: self-loops and repeated keys
        lo, hi = np.sort(edges, axis=1).T
        keys = lo * span + hi
        repeat = np.ones(n_edges, dtype=bool)
        repeat[np.unique(keys, return_index=True)[1]] = False
        return keys[lo != hi], np.flatnonzero((lo == hi) | repeat).tolist()

    simple_keys, bad = scan()
    uniq, mult = np.unique(simple_keys, return_counts=True)
    # a Counter: a self-loop partner's absent key is decremented below
    counts = Counter(dict(zip(uniq.tolist(), mult.tolist())))
    cap = 100 * n_edges
    attempts = 0
    while bad:
        for i in bad:
            attempts += 1
            if attempts > cap:
                raise NumericsError(
                    "degree sequence not realizable as a simple graph "
                    f"within {cap} repair attempts"
                )
            j = int(rng.integers(n_edges))
            if j == i:
                continue
            a, b = edges[i].tolist()
            c, d = edges[j].tolist()
            # swap to (a, d), (c, b)
            if a == d or c == b:
                continue
            k1 = key(a, d)
            k2 = key(c, b)
            if k1 == k2:
                continue
            old_i = key(a, b) if a != b else None
            old_j = key(c, d)
            if old_i is not None:
                counts[old_i] -= 1
            counts[old_j] -= 1
            if counts[k1] == 0 and counts[k2] == 0:
                counts[k1] += 1
                counts[k2] += 1
                edges[i] = a, d
                edges[j] = c, b
            else:  # roll back
                if old_i is not None:
                    counts[old_i] += 1
                counts[old_j] += 1
        bad = scan()[1]
    return edges


def grow_cluster(net: Network, start: int) -> GrowthProcess:
    """Breadth-first cluster growth: sizes[i] counts nodes within distance i of ``start``.

    Terminates when the reachable set is exhausted; on a connected graph the
    final entry is the full node count.
    """
    if not 0 <= start < net.node_count:
        raise InputDataError(f"seed node {start} out of range")
    sizes = kernels.bfs_layer_sizes(net.indptr, net.indices, np.int64(start))
    return GrowthProcess(sizes)


def degree_histogram(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(degree values, counts) for degrees present in the graph."""
    counts = np.bincount(net.degrees)
    vals = np.nonzero(counts)[0]
    return vals, counts[vals]


def degree_loglog_slope(net: Network) -> float:
    """Log-log regression slope of the degree histogram over [2, c_max // 2]."""
    vals, counts = degree_histogram(net)
    mask = (vals >= 2) & (vals <= net.c_max // 2)
    if mask.sum() < 3:
        raise NumericsError("too few populated degree bins for a slope estimate")
    return float(np.polyfit(np.log(vals[mask]), np.log(counts[mask]), 1)[0])


def _component_labels(net: Network) -> tuple[np.ndarray, np.ndarray]:
    # component label of every node, and the size of every component
    graph = csr_matrix(
        (np.ones(net.indices.size, dtype=np.int8), net.indices, net.indptr),
        shape=(net.node_count, net.node_count),
    )
    n_comp, labels = _sparse_components(graph, directed=False)
    return labels, np.bincount(labels, minlength=n_comp)


def connected_component_sizes(net: Network) -> np.ndarray:
    """Component sizes, largest first."""
    return np.sort(_component_labels(net)[1])[::-1]


def largest_component_nodes(net: Network) -> np.ndarray:
    labels, sizes = _component_labels(net)
    return np.nonzero(labels == np.argmax(sizes))[0]


# ---------------------------------------------------------------------------
# The linearizing transform and the diffusion picture
# ---------------------------------------------------------------------------


def y_transform(x, total: float):
    """y = -log(total/x - 1), mapping (0, total) onto the real line."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(x_arr >= total):
        raise InputDataError("x must lie strictly inside (0, total)")
    out = np.log(x_arr) - np.log(total - x_arr)
    return float(out) if np.ndim(x) == 0 else out


def y_inverse(y, total: float):
    """Inverse transform x = total / (1 + e^-y)."""
    out = total * expit(np.asarray(y, dtype=float))
    return float(out) if np.ndim(y) == 0 else out


@dataclass(frozen=True)
class DiffusionKernelParams:
    """Drift-diffusion parameters in y-space.

    ``sigma`` follows from the diffusion coefficient as sqrt(2 D / dt). A fit
    to noiseless trajectories may legitimately return diff_coeff == 0
    (evaluation requires > 0).
    """

    drift: float
    diff_coeff: float
    y0: float
    total: float
    dt: float = 1.0

    def __post_init__(self):
        if self.diff_coeff < 0.0 or self.dt <= 0.0 or self.total <= 0.0:
            raise InputDataError("need diff_coeff >= 0, dt > 0, total > 0")

    @property
    def sigma(self) -> float:
        return math.sqrt(2.0 * self.diff_coeff / self.dt)


def kernel_density(params: DiffusionKernelParams, x, t: float):
    """Density over x at time t for walkers released at y0.

    The Gaussian y-kernel centered on y0 + drift*t is pushed through the
    transform; the Jacobian contributes the 1/(x (1 - x/total)) prefactor.
    The median therefore advances along the deterministic logistic path.
    Normalizes to one over (0, total).
    """
    if not 0.0 < t < np.inf:
        raise InputDataError(f"t must be finite and positive, got {t}")
    if not params.diff_coeff > 0.0:
        raise InputDataError("density evaluation requires diff_coeff > 0")
    x_arr = np.asarray(x, dtype=float)
    y = y_transform(x_arr, params.total)
    spread = 4.0 * params.diff_coeff * t
    gauss = np.exp(-((y - params.y0 - params.drift * t) ** 2) / spread)
    dens = gauss / (math.sqrt(math.pi * spread) * x_arr * (1.0 - x_arr / params.total))
    return float(dens) if np.ndim(x) == 0 else dens


def growth_statistics(processes, total: float, dt: float = 1.0) -> dict:
    """Per-iteration ensemble statistics of growth processes in y-space.

    A point counts as interior while its process is still growing: strictly
    before the final recorded iteration (the arrival point, where the
    exhausted cluster stops moving, is censored like any first-passage
    sample) and below saturation (x < total, where y is defined). Returns
    arrays keyed by ``t``, ``count`` (interior processes), ``median_x``,
    ``median_y`` and ``var_y``.
    """
    processes = list(processes)
    if not processes:
        raise InputDataError("no growth processes given")
    n_proc = len(processes)
    length = max(p.sizes.size for p in processes)
    x = np.empty((n_proc, length))
    live = np.zeros((n_proc, length), dtype=bool)
    for i, p in enumerate(processes):
        m = p.sizes.size
        x[i, :m] = p.sizes
        x[i, m:] = p.sizes[-1]
        live[i, :m - 1] = True
    live &= x < total  # y undefined at and beyond saturation

    count = live.sum(axis=0)
    med_x = np.full(length, np.nan)
    med_y = np.full(length, np.nan)
    var_y = np.full(length, np.nan)
    for it in range(length):
        if count[it] == 0:
            continue
        vals = x[live[:, it], it]
        ys = y_transform(vals, total)
        med_x[it] = np.median(vals)
        med_y[it] = np.median(ys)
        var_y[it] = np.var(ys)
    return {
        "t": np.arange(length, dtype=float) * dt,
        "count": count,
        "median_x": med_x,
        "median_y": med_y,
        "var_y": var_y,
    }


def fit_kernel(processes, total: float, dt: float = 1.0) -> DiffusionKernelParams:
    """Extract (drift, diffusion) from an ensemble of growth processes.

    The per-iteration median of y gives the drift by least squares; the
    across-process variance of y grows as 2*D*t and gives the diffusion
    coefficient by a through-origin fit. Only iterations where at least
    half of the processes, and at least 30, are interior (see
    :func:`growth_statistics`) enter either fit.
    """
    processes = list(processes)
    if len(processes) < _MIN_PROCESSES:
        raise InputDataError(f"kernel fit needs at least {_MIN_PROCESSES} processes")
    stats = growth_statistics(processes, total, dt)
    need = max(_MIN_PROCESSES, int(math.ceil(0.5 * len(processes))))
    usable = stats["count"] >= need
    if usable.sum() < 2:
        raise NumericsError("too few usable interior points for a kernel fit")

    t_grid = stats["t"][usable]
    med = stats["median_y"][usable]
    var = stats["var_y"][usable]

    drift = float(np.polyfit(t_grid, med, 1)[0])
    denom = float(np.dot(t_grid, t_grid))
    diff_coeff = float(np.dot(t_grid, var) / (2.0 * denom)) if denom > 0.0 else 0.0
    diff_coeff = max(diff_coeff, 0.0)

    y0 = float(med[0] - drift * t_grid[0])
    return DiffusionKernelParams(drift, diff_coeff, y0, total, dt)
