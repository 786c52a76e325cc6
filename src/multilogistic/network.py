"""Intermediate regime: cluster growth on scale-free networks as diffusion.

The single-component logistic curve linearizes under y = -log(total/x - 1);
noisy growth then becomes a plain drift-diffusion in y. This module provides
the graph side (degree law p(c) ~ 1/c up to a cutoff, breadth-first cluster
growth) and the analytic side (the transform, the propagated density in
x-space, and parameter extraction from an ensemble of growth processes).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InputDataError, NumericsError

_MIN_PROCESSES = 30  # the fewest growth processes a kernel fit accepts

__all__ = [
    "Network",
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

    def edge_array(self) -> np.ndarray:
        """(E, 2) int64 array with u < v, sorted lexicographically."""
        # rows in the index dtype, columns filled one at a time: no int64 array
        # over all 2E entries and no stacked copy
        src = np.repeat(np.arange(self.node_count, dtype=self.indices.dtype), self.degrees)
        mask = src < self.indices
        edges = np.empty((np.count_nonzero(mask), 2), dtype=np.int64)
        edges[:, 0] = src[mask]
        edges[:, 1] = self.indices[mask]
        return edges

    @classmethod
    def from_edges(cls, node_count: int, edges, c_max: int = 0) -> "Network":
        from scipy.sparse import csr_matrix

        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise InputDataError("edges must be an (E, 2) array")
        if edges.size and (edges.min() < 0 or edges.max() >= node_count):
            raise InputDataError("edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise InputDataError("self-loops are not allowed")
        # COO to CSR yields canonical form: sorted neighbors, duplicates summed.
        # The COO indices are built in the index dtype that scipy keeps, which
        # spares scipy a downcast copy of each.
        u, v = edges.T
        nnz = 2 * u.size
        index = np.int32 if max(node_count, nnz) <= np.iinfo(np.int32).max else np.int64
        graph = csr_matrix(
            (np.ones(nnz, dtype=np.int8),
             (np.concatenate([u, v], dtype=index), np.concatenate([v, u], dtype=index))),
            shape=(node_count, node_count),
        )
        if graph.nnz < nnz:
            raise InputDataError("duplicate edges are not allowed")
        cm = int(c_max) if c_max else int(np.diff(graph.indptr).max(initial=0))
        return cls(node_count, graph.indptr, graph.indices, cm)


def generate_sfin(node_count: int, c_max: int, seed: int, c_min: int = 1) -> Network:
    """Random simple graph with degree law p(c) proportional to 1/c on [c_min, c_max].

    Draws a degree sequence (total made even), wires stubs uniformly at
    random, then repairs self-loops and duplicate edges by randomized edge
    swaps that preserve every degree. A sequence that no simple graph
    realizes (the Erdos-Gallai test) raises before the repair; the repair
    raises when it is still left with bad edges after 100 * edge_count
    attempts.
    """
    if not (node_count >= c_max >= 2):
        raise InputDataError("need node_count >= c_max >= 2")
    if not 1 <= c_min <= c_max:
        raise InputDataError("need 1 <= c_min <= c_max")
    if seed < 0:
        raise InputDataError(f"seed must be non-negative, got {seed}")
    deg, edges, rng = _draw_stubs(node_count, c_max, seed, c_min)
    _check_graphical(deg)
    return Network.from_edges(node_count, _repair_simple(edges, rng), c_max=c_max)


def _draw_stubs(node_count: int, c_max: int, seed: int, c_min: int):
    """The degree sequence, its stubs wired at random as (E, 2) edges, and the generator.

    The generator is left where the repair of those edges starts drawing.
    """
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
    return deg, stubs.reshape(-1, 2), rng


def _check_graphical(deg: np.ndarray):
    """Raise unless a simple graph has the degrees ``deg`` (their total is even).

    Erdos-Gallai: with d_1 >= ... >= d_n, every k must satisfy
    sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k). The degrees from
    position split = max(k, #{d_i >= k}) on are below k, so the right side is
    k(k-1) + k(split - k) + (total - sum_{i<=split} d_i): one sort, prefix
    sums and one searchsorted for every k at once.
    """
    d = np.sort(np.asarray(deg, dtype=np.int64))
    n = d.size
    k = np.arange(1, n + 1, dtype=np.int64)
    prefix = np.cumsum(d[::-1])  # prefix[k - 1]: the k largest degrees' sum
    split = np.maximum(n - np.searchsorted(d, k), k)
    room = k * (split - 1) + prefix[-1] - prefix[split - 1]
    fails = np.flatnonzero(prefix > room)
    if fails.size:
        i = int(fails[0])
        raise NumericsError(
            f"degree sequence is not graphical (Erdos-Gallai fails at k={i + 1}: the "
            f"{i + 1} largest degrees sum to {prefix[i]}, above the {room[i]} that "
            "a simple graph allows); lower the degree cutoff (--max-degree) relative "
            "to the node count (--nodes), or draw another seed"
        )


def _repair_simple(edges: np.ndarray, rng) -> np.ndarray:
    """Remove self-loops/duplicates from the (E, 2) int64 ``edges``, in place,
    by degree-preserving random swaps; returns ``edges``.

    Each bad edge i (a self-loop, or a repeat of an earlier edge's key) draws
    a partner j and swaps (a, b), (c, d) to (a, d), (c, b) when that makes no
    loop and both new keys are unused; a pass over the bad list is followed
    by a rescan. An edge's key is min * span + max of its endpoints. A scan
    is one argsort of the keys: the kept edge of each key group is its
    smallest index, and the first scan's groups give the sorted distinct keys
    and their multiplicities, kept as arrays. The swap loop looks a count up
    there with searchsorted, unless the loop has changed it (then in a dict
    of its own changes): it looks up a few thousand of the 190k keys of a
    20000-node graph, too few to turn them all into Python ints.
    """
    n_edges = edges.shape[0]
    span = int(edges.max()) + 1

    def key(u, v):
        return min(u, v) * span + max(u, v)

    def scan():
        # the sorted keys, where each distinct key starts among them, and the
        # bad edges (self-loops and repeats); temporaries go as soon as they are used
        keys = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        loops = keys == hi
        keys *= span
        keys += hi
        del hi
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        repeat = np.ones(n_edges, dtype=bool)
        repeat[np.minimum.reduceat(order, starts)] = False
        return keys, starts, np.flatnonzero(loops | repeat).tolist()

    keys, starts, bad = scan()
    uniq, mult = keys[starts], np.diff(starts, append=n_edges)
    del keys, starts
    changed = {}

    def count(k):
        # self-loops' keys are counted too; no swap tests them, as k1 and k2 join two nodes
        if k in changed:
            return changed[k]
        pos = int(uniq.searchsorted(k))
        return int(mult[pos]) if pos < uniq.size and uniq[pos] == k else 0

    def add(k, delta):
        changed[k] = count(k) + delta

    cap = 100 * n_edges
    attempts = 0
    while bad:
        for i in bad:
            attempts += 1
            if attempts > cap:
                raise NumericsError(
                    f"random edge swaps left self-loops or repeated edges after "
                    f"{cap} repair attempts; draw another seed"
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
                add(old_i, -1)
            add(old_j, -1)
            if count(k1) == 0 and count(k2) == 0:
                add(k1, 1)
                add(k2, 1)
                edges[i] = a, d
                edges[j] = c, b
            else:  # roll back
                if old_i is not None:
                    add(old_i, 1)
                add(old_j, 1)
        bad = scan()[2]
    return edges


def grow_cluster(net: Network, starts) -> np.ndarray:
    """Breadth-first cluster growth from each node of the 1-D ``starts``.

    Returns a (k, L) int64 array: sizes[i, j] counts the nodes within
    distance j of ``starts[i]``. A row repeats its final size once the
    reachable set is exhausted; on a connected graph that is the node count.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1 or not starts.size or np.any((starts < 0) | (starts >= net.node_count)):
        raise InputDataError(f"need a 1-D array of seed nodes in [0, {net.node_count})")
    sizes = [kernels.bfs_layer_sizes(net.indptr, net.indices, s) for s in starts]
    return _pad_processes(np.concatenate(sizes), np.array([z.size for z in sizes]))


def _pad_processes(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The (k, L) sizes array of k processes stored back to back in ``values``.

    Process i, the ``lengths[i]`` values after those of processes 0 .. i-1,
    must start at 1 and grow strictly; its row repeats its final size.
    """
    firsts = np.cumsum(lengths) - lengths
    sizes = values[firsts[:, None] + np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)]
    if np.any(_growing(sizes).sum(axis=1) != lengths - 1):
        raise InputDataError("cluster sizes must be strictly increasing")
    return sizes


def _growing(sizes: np.ndarray) -> np.ndarray:
    """The (k, L-1) mask of the points of a (k, L) sizes array whose next size is larger.

    Every row must start at 1 and grow strictly until it stops growing.
    """
    if sizes.ndim != 2 or sizes.size == 0 or np.any(sizes[:, 0] != 1):
        raise InputDataError("need a (k, L) sizes array whose rows start at 1 (one seed node)")
    grows = sizes[:, 1:] > sizes[:, :-1]
    if np.any(sizes[:, 1:] < sizes[:, :-1]) or np.any(grows[:, 1:] > grows[:, :-1]):
        raise InputDataError("cluster sizes must grow strictly until they stop")
    return grows


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
    # component label of every node, and the size of every component; csgraph
    # reads float64 data, and a stride-0 view of 1.0 (as in the BFS kernel)
    # spares a per-edge array and its float64 copy
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    graph = csr_matrix(
        (np.broadcast_to(1.0, net.indices.shape), net.indices, net.indptr),
        shape=(net.node_count, net.node_count),
    )
    n_comp, labels = connected_components(graph, directed=False)
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
    from scipy.special import expit

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
    Normalizes to one over (0, total). Raises InputDataError for a t at
    which the spread 4 D t rounds to 0 or overflows.
    """
    if not 0.0 < t < np.inf:
        raise InputDataError(f"t must be finite and positive, got {t}")
    if not params.diff_coeff > 0.0:
        raise InputDataError("density evaluation requires diff_coeff > 0")
    x_arr = np.asarray(x, dtype=float)
    y = y_transform(x_arr, params.total)
    spread = 4.0 * params.diff_coeff * t
    if not 0.0 < spread < math.inf:
        raise InputDataError(f"t={t!r} is out of range: the spread 4*D*t is {spread!r} "
                             f"(D={params.diff_coeff!r})")
    # a squared offset that overflows has the Gaussian's limit, 0
    with np.errstate(over="ignore"):
        gauss = np.exp(-((y - params.y0 - params.drift * t) ** 2) / spread)
    dens = gauss / (math.sqrt(math.pi * spread) * x_arr * (1.0 - x_arr / params.total))
    return float(dens) if np.ndim(x) == 0 else dens


def growth_statistics(sizes, total: float, dt: float = 1.0) -> dict:
    """Per-iteration ensemble statistics of growth processes in y-space.

    ``sizes`` is a (k, L) array of cumulative cluster sizes, as returned by
    :func:`grow_cluster`: every row starts at 1, grows strictly and then
    repeats its final size. A point counts as interior while its process is
    still growing: where the next size is larger (the arrival point, where
    the exhausted cluster stops moving, is censored like any first-passage
    sample) and below saturation (x < total, where y is defined). Returns
    arrays keyed by ``t``, ``count`` (interior processes), ``median_x``,
    ``median_y`` and ``var_y``.
    """
    sizes = np.asarray(sizes)
    x = sizes.astype(float)
    live = np.pad(_growing(sizes), ((0, 0), (0, 1))) & (x < total)  # y undefined from total on
    length = x.shape[1]

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


def fit_kernel(sizes, total: float, dt: float = 1.0) -> DiffusionKernelParams:
    """Extract (drift, diffusion) from a (k, L) array of growth processes.

    The per-iteration median of y gives the drift by least squares; the
    across-process variance of y grows as 2*D*t and gives the diffusion
    coefficient by a through-origin fit. Only iterations where at least
    half of the processes, and at least 30, are interior (see
    :func:`growth_statistics`) enter either fit.
    """
    stats = growth_statistics(sizes, total, dt)
    if len(sizes) < _MIN_PROCESSES:
        raise InputDataError(f"kernel fit needs at least {_MIN_PROCESSES} processes")
    need = max(_MIN_PROCESSES, int(math.ceil(0.5 * len(sizes))))
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
