"""Hot inner loops, one implementation each, in numpy, plain Python or scipy.

The cluster BFS is scipy's compiled breadth-first order, not a numpy loop.

The two RK4 kernels follow the paper's derivation of the logistic equation:
scale-invariant growth dy/dt = r*y, then the mean-value constraint
sum(x) = total. Both the conserved-total equation and the amplitude flow are
a linear flow projected onto a constraint (the total; the unit sphere), so
each kernel takes classical RK4 of the linear flow, which on a linear flow is
one multiplier per step (the degree-4 Taylor polynomial of exp(dt A)), and
projects back onto the constraint after every step.

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

# steps of per-step rates turned into multipliers at a time
_BLOCK_STEPS = 1024


def _log_multiplier(r0, rm, r1, dt):
    """log g of the RK4 step y -> g*y of dy/dt = r(t)*y, per component.

    ``r0``, ``rm`` and ``r1`` are the rates at the start, middle and end of
    the step, (n,) or one row per step. Each is centred on its mean first.
    """
    r0, rm, r1 = (r - r.mean(axis=-1, keepdims=True) for r in (r0, rm, r1))
    a2 = rm * (1.0 + 0.5 * dt * r0)
    a3 = rm * (1.0 + 0.5 * dt * a2)
    a4 = r1 * (1.0 + dt * a3)
    return np.log1p(dt / 6.0 * (r0 + 2.0 * (a2 + a3) + a4))


def integrate_constant(traj, rates, total, dt):
    """Fill ``traj[1:]`` by classical RK4 from ``traj[0]``.

    ``rates`` is an (n,) vector for constant rates, or a (2 steps + 1, n)
    array of the rates on the half-step grid t = 0, dt/2, dt, ...: step s
    starts at row 2s, has its middle at row 2s + 1 and ends at row 2s + 2,
    the row the next step starts at.

    The conserved-total equation is the scale-invariant growth dy/dt = r*y
    projected onto the constraint sum(x) = total: x is y rescaled to the
    total, whatever the rescale was at earlier times. So RK4 is applied to
    the linear flow and the state is projected after every step. For
    dy/dt = r(t)*y one RK4 step multiplies each component by

        a1 = r0, a2 = rm(1 + dt a1/2), a3 = rm(1 + dt a2/2), a4 = r1(1 + dt a3)
        g  = 1 + dt/6 (a1 + 2 a2 + 2 a3 + a4),

    the degree-4 Taylor polynomial of exp(dt r) for constant rates. Each
    stage's rates are centred on their mean (a uniform shift leaves the
    projected flow unchanged), which keeps g near 1. Row s of ``traj`` is
    then ``traj[0]`` reweighted by the product of the multipliers of the
    steps before it and rescaled to ``total``: a ``cumsum`` of log g, the
    largest entry of each row subtracted before ``exp``. Constant rates
    broadcast one (n,) multiplier over the steps; per-step rates are turned
    into multipliers a block of steps at a time. Apart from that block, the
    kernel allocates only per-row scalars besides ``traj``.

    Returns -1 on success, else the first step whose multiplier is not
    finite and positive. For real constant rates it always is: an
    even-degree Taylor polynomial of exp has no real root.
    """
    h = traj[1:]
    # a non-finite or non-positive multiplier makes log g, and every
    # cumulative sum from its step on, non-finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if rates.ndim == 1:
            np.cumsum(np.broadcast_to(_log_multiplier(rates, rates, rates, dt), h.shape),
                      axis=0, out=h)
        else:
            for lo in range(0, h.shape[0], _BLOCK_STEPS):
                r = rates[2 * lo:2 * (lo + _BLOCK_STEPS) + 1]
                h[lo:lo + _BLOCK_STEPS] = _log_multiplier(r[:-1:2], r[1::2], r[2::2], dt)
            np.cumsum(h, axis=0, out=h)
    if not np.isfinite(traj[-1]).all():
        return int(np.argmin(np.isfinite(h).all(axis=1)))
    h -= h.max(axis=1, keepdims=True)
    np.exp(h, out=h)
    h *= traj[0]
    h *= total / h.sum(axis=1, keepdims=True)
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

    The flow is the linear flow dc/dt = K c/2 projected onto the unit
    sphere, so RK4 is applied to the linear flow and the state is
    renormalised after every step. RK4 on a linear flow is one matrix, the
    degree-4 Taylor polynomial of exp(a) with a = (dt/2)(K - tr K/n I),

        M = I + a(I + a/2(I + a/3(I + a/4))),

    built once; each step is ``c = M @ c`` and a rescale to unit norm.
    Removing the mean diagonal shifts K uniformly, which leaves the
    projected flow unchanged and keeps M near I. M is kept as E = M - I and
    applied as ``c + E @ c``: a rounding of M itself would repeat in every
    step, while one of E is smaller by the size of E.

    Returns -1 on success, else the first step index whose squared norm is
    not finite and positive.
    """
    n = coupling.shape[0]
    eye = np.eye(n)
    a = (0.5 * dt) * (coupling - np.trace(coupling) / n * eye)
    e = a / 4.0
    for j in (3.0, 2.0, 1.0):
        e = (a / j) @ (eye + e)
    c = traj[0]
    for s in range(traj.shape[0] - 1):
        nxt = traj[s + 1]
        e.dot(c, out=nxt)
        nxt += c
        acc = float(nxt.dot(nxt))
        if not (acc > 0.0 and math.isfinite(acc)):
            return s
        nxt /= math.sqrt(acc)
        c = nxt
    return -1
