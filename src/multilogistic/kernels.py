"""Hot inner loops, one implementation each, in numpy, plain Python or scipy.

The cluster BFS is scipy's compiled breadth-first order, not a numpy loop.

The callers (``walkers``, ``network``, ``core``, ``itm``) look the kernels up
as ``kernels.<name>`` at call time, so a profiler can wrap them from outside.
``perfbench/`` times every kernel inside the CLI jobs that use it.
"""

import math

import numpy as np

# read by perfbench/run.py; there is no numba backend
USING_NUMBA = False


# ---------------------------------------------------------------------------
# Walker ensemble stepping (multiplicative growth with a restoring rescale)
# ---------------------------------------------------------------------------


def advance_walkers_seq(x, normals, drift, sigma, dt, total, floor, counts):
    """Advance walkers one at a time, restoring the total after every move.

    Walker i proposes the multiplicative kick exp(dt*(drift_i + sigma_i*xi));
    the global rescale that keeps sum(x) = total is applied immediately, and
    the whole move is rejected if it would leave the mover or any other
    walker below the floor. Sequential moves with whole-move rejection
    sample the flat measure on the constraint surface, so the ensemble
    equilibrates to the analytic rank law.

    The moves stay sequential, but each step is solved in whole-array numpy
    passes. With the stored values a, the proposals b and d = b - a, the
    rescale after move k is m_k = total / S_k, where S_k is the stored sum
    before move k plus d_k: a ``cumsum`` of the accepted d_j, j < k. Move k
    is rejected if b_k*m_k < floor, or if d_k > 0 and the smallest other
    stored value times m_k is below the floor. Decision k depends only on
    the decisions before it, so the step's decision vector is the unique
    fixed point of that map. Iterating it from a guess that checks only the
    movers settles at least one more leading decision per round and stops
    within n + 1 rounds (the Jacobi iteration of Song et al., "Accelerating
    Feedforward Computation via Parallel Nonlinear Equation Solving", ICML
    2021). The ``cumsum`` rounds differently from a running product, so the
    states differ from a one-move-at-a-time loop in the last bits only.
    Rounds grow as the ensemble packs against the floor (total/(n*floor)
    near 1), where upward moves wait for room made by the moves before them.

    ``counts`` is a caller-owned int64 array of three; each call adds the
    moves accepted, the moves rejected because the mover would sink below
    the floor, and those rejected because the rescale would sink the
    smallest other walker.

    ``x`` is updated in place. Returns -1 on success, else the index of the
    first step whose stored sum S_k is not positive and finite; ``x`` is then
    left at the state from the start of that step.
    """
    n = x.shape[0]
    kick = np.empty(n + 1)   # the stored sum, then each accepted d_k
    prior = np.empty(n + 1)  # stored sum before move k; prior[n] after the step
    low = np.empty(n)        # smallest stored value among the walkers before k
    low[0] = np.inf
    after = np.empty(n)      # smallest value among the walkers after k
    after[-1] = np.inf
    accepted = sinks = squeezes = 0
    try:
        # a step that overflows passes inf and nan on to the failure it returns
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(normals.shape[0]):
                b = x * np.exp(dt * (drift + sigma * normals[s]))
                d = b - x
                # a growing move shrinks every other walker, so its check covers
                # the smallest of them too; a shrinking move only risks the mover
                cap = np.where(d > 0.0, -np.inf, np.inf)
                np.minimum.accumulate(x[:0:-1], out=after[-2::-1])
                bound = np.minimum(b, np.maximum(after, cap))
                kick[0] = x.sum()
                # first guess: accept every move whose mover stays above the floor
                # when all moves are accepted
                kick[1:] = d
                np.cumsum(kick, out=prior)
                acc = b * (total / (prior[:n] + d)) >= floor
                while True:
                    np.multiply(d, acc, out=kick[1:])
                    np.cumsum(kick, out=prior)
                    m = total / (prior[:n] + d)
                    stored = np.where(acc, b, x)
                    np.minimum.accumulate(stored[:-1], out=low[1:])
                    guess, acc = acc, np.minimum(bound, np.maximum(low, cap)) * m >= floor
                    if not (acc ^ guess).any():
                        break
                if not (m.min() > 0.0 and m.max() < np.inf):
                    return s
                x[:] = stored * (total / prior[n])
                kept = int(np.count_nonzero(acc))
                sunk = int(np.count_nonzero(b * m < floor))
                accepted += kept
                sinks += sunk
                squeezes += n - kept - sunk
        return -1
    finally:
        counts += (accepted, sinks, squeezes)


# ---------------------------------------------------------------------------
# Fixed-step 4th-order integration of the conserved-total growth equation
# ---------------------------------------------------------------------------


def integrate_constant(traj, rates, total, dt):
    """Fill ``traj[1:]`` by classical RK4 from ``traj[0]``.

    ``rates`` is an (n,) vector for constant rates, or a (steps, 3, n) array
    holding the rates at the start, middle and end of every step. After
    every step the state is rescaled by total/sum(x), removing the
    integrator's drift off the conservation constraint exactly.

    Returns -1 on success, else the first step index with a non-finite state.
    """
    steps = traj.shape[0] - 1
    x = traj[0].copy()
    # (steps, n) rows of the rates at the start, middle and end of each step
    start, mid, end = np.broadcast_to(rates, (steps, 3, x.shape[0])).transpose(1, 0, 2)

    def rhs(y, r):
        return y * (r - np.dot(r, y) / total)

    for s, (r0, rm, r1) in enumerate(zip(start, mid, end)):
        k1 = rhs(x, r0)
        k2 = rhs(x + 0.5 * dt * k1, rm)
        k3 = rhs(x + 0.5 * dt * k2, rm)
        k4 = rhs(x + dt * k3, r1)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc = x.sum()
        if not (acc > 0.0 and np.isfinite(acc)):
            return s
        x *= total / acc
        traj[s + 1] = x
    return -1


# ---------------------------------------------------------------------------
# Breadth-first cluster growth on a CSR graph
# ---------------------------------------------------------------------------


def bfs_layer_sizes(indptr, indices, seed):
    """Cumulative node counts within distance 0, 1, 2, ... of ``seed``.

    Stops when the reachable set is exhausted; the returned vector is
    strictly increasing and starts at 1. ``perfbench/`` wraps this kernel by
    name and reads ``(indptr, indices, seed)`` positionally, with ``seed`` a
    scalar node index.

    The traversal is scipy's compiled FIFO breadth-first order. In that order
    each layer follows the one before, and the children of a node follow the
    children of every node dequeued before it, so the parents' positions
    along ``order[1:]`` never decrease: the layer after the one ending at
    position ``end`` ends after the last node whose parent sits before
    ``end``. Unreachable nodes never enter ``order``.

    The traversal reads only ``indptr`` and ``indices``, so the CSR it is
    handed carries a read-only stride-0 view of one 1.0 as its data: a call
    allocates no per-edge data array.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    n = indptr.shape[0] - 1
    graph = csr_matrix((np.broadcast_to(1.0, indices.shape), indices, indptr), shape=(n, n))
    # the graph is symmetric; directed=False would build the transpose union
    order, parent = breadth_first_order(graph, int(seed), directed=True,
                                        return_predecessors=True)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(order.size)
    parent_position = position[parent[order[1:]]]
    sizes = [1]
    while sizes[-1] < order.size:
        sizes.append(1 + int(np.searchsorted(parent_position, sizes[-1])))
    return np.array(sizes, dtype=np.int64)


# ---------------------------------------------------------------------------
# Norm-preserving amplitude flow (fixed-step RK4 + renormalization)
# ---------------------------------------------------------------------------


def amplitude_evolve(traj, coupling, dt):
    """Fill ``traj[1:]`` from ``traj[0]`` under dc/dt = (K c - <c,Kc>/<c,c> c)/2.

    The state is rescaled to unit norm after every step. Returns -1 on
    success, else the first failing step index.
    """
    steps = traj.shape[0] - 1
    c = traj[0].copy()

    def rhs(v):
        kv = coupling @ v
        q = np.dot(v, kv) / np.dot(v, v)
        return 0.5 * (kv - q * v)

    for s in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc = np.dot(c, c)
        if not (acc > 0.0 and np.isfinite(acc)):
            return s
        c /= math.sqrt(acc)
        traj[s + 1] = c
    return -1
