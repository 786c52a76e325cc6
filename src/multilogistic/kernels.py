"""Hot inner loops, one implementation each, in numpy, plain Python or scipy.

The cluster BFS is scipy's compiled breadth-first order, not a numpy loop.

The walker kernel is handed each step's move factors and only steps: the
noise model that draws them (drift, sigma, dt) belongs to ``walkers``, which
turns each block of normals into factors in place.

The two RK4 kernels follow the paper's derivation of the logistic equation:
scale-invariant growth dy/dt = r*y, then the mean-value constraint
sum(x) = total. Both the conserved-total equation and the amplitude flow are
a linear flow projected onto a constraint (the total; the unit sphere), so
each kernel takes classical RK4 of the linear flow, which on a linear flow is
one multiplier per step (the degree-4 Taylor polynomial of exp(dt A)), and
projects back onto the constraint after every step. In the eigenbasis of
the amplitude flow's matrix the linear flow is component-wise growth too, so
both kernels take one step rule (``_log_multiplier``) and the exponents
(s+1)*log g of step s from one helper (``_step_exponents``). The amplitude
kernel is handed that eigenbasis: ``itm`` validates and diagonalises the
matrix once per run, however many stretches it steps.

The callers (``walkers``, ``network``, ``core``, ``itm``) look the kernels up
as ``kernels.<name>`` at call time, so a profiler can wrap them from outside.
``perfbench/`` times every kernel inside the CLI jobs that use it.
"""

import numpy as np

# read by perfbench/run.py; there is no numba backend
USING_NUMBA = False


# ---------------------------------------------------------------------------
# Walker ensemble stepping (multiplicative growth with a restoring rescale)
# ---------------------------------------------------------------------------


def advance_walkers_seq(x, kicks, total, floor, counts):
    """Advance walkers one at a time, restoring the total after every move.

    Row s of ``kicks`` holds step s's move factors: walker i proposes to
    multiply its population by ``kicks[s, i]``. The caller owns the noise
    model that draws them (``walkers`` uses exp(dt*(drift_i + sigma_i*xi))).
    The global rescale that keeps sum(x) = total is applied immediately, and
    the whole move is rejected if it would leave the mover or any other
    walker below the (positive) floor. Sequential moves with whole-move
    rejection sample the flat measure on the constraint surface, so the
    ensemble equilibrates to the analytic rank law.

    The moves stay sequential, but each step is solved in whole-array numpy
    passes. With the stored values a, the proposals b and d = b - a, the
    rescale after move k is m_k = total / S_k, where S_k is the stored sum
    before move k plus d_k: a ``cumsum`` of the accepted d_j, j < k. Move k
    is rejected if b_k*m_k < floor, or if d_k > 0 and the smallest other
    stored value times m_k is below the floor. Decision k depends only on
    the decisions before it, so the step's decision vector is the unique
    fixed point of that map.

    A step first takes the sums of accepting every move: one ``cumsum`` of
    the stored sum and every d_k, whose entry k + 1 is that step's S_k. Every
    value a floor check multiplies by m_k is an a_j or a b_j, IEEE
    multiplication and division of positive values are monotone, and the
    smallest rescale is total / max S. So when min a and min b, each times
    total / max S, reach the floor (and every S_k is positive with a finite
    rescale), every check passes: accepting every move is the fixed point,
    and the step ends with the new state b * total / S_{n-1}, the arithmetic
    of an all-accepted fixed-point step, in eight numpy calls. The next min a
    is then min b times the same factor, with no pass. A nan or inf fails
    that test and takes the full path. Otherwise the iteration starts from
    the guess that accepts every move whose mover stays above the floor at
    the rescales of those sums; when that guess accepts every move, the
    first round reuses them instead of taking them again. Each round settles
    at least one more leading decision and the iteration stops within n + 1
    rounds (the Jacobi iteration of Song et al., "Accelerating Feedforward
    Computation via Parallel Nonlinear Equation Solving", ICML 2021). The
    ``cumsum`` rounds differently from a running product, so the states
    differ from a one-move-at-a-time loop in the last bits only. Rounds grow
    as the ensemble packs against the floor (total/(n*floor) near 1), where
    upward moves wait for room made by the moves before them.

    ``counts`` is a caller-owned int64 array of five; each call adds the
    moves accepted, the moves rejected because the mover would sink below
    the floor, those rejected because the rescale would sink the smallest
    other walker, the steps settled by the bound, and the fixed-point rounds
    of the other steps.

    ``x`` is updated in place. Returns -1 on success, else the index of the
    first step whose stored sum S_k is not positive and finite; ``x`` is then
    left at the state from the start of that step.
    """
    n = x.shape[0]
    proposed = np.empty(n + 1)  # the stored sum, then every d_k
    taken = np.empty(n + 1)     # the stored sum, then each accepted d_k
    prior = np.empty(n + 1)     # stored sum before move k; prior[n] after the step
    low = np.empty(n)           # smallest stored value among the walkers before k
    low[0] = np.inf
    after = np.empty(n)         # smallest value among the walkers after k
    after[-1] = np.inf
    b = np.empty(n)             # the proposals
    m = np.empty(n)             # the rescale after move k
    check = np.empty(n)         # the smallest value move k leaves, times m_k
    # S_k of accepting every move, prior[k] + d_k, is the accumulated prior[k + 1]
    d, before_k, sums, later = proposed[1:], prior[:n], prior[1:], x[:0:-1]
    minimum, maximum = np.minimum.reduce, np.maximum.reduce
    x_min = minimum(x)
    accepted = sinks = squeezes = settled = rounds = 0
    try:
        # a step that overflows passes inf and nan on to the failure it returns
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(kicks.shape[0]):
                np.multiply(x, kicks[s], out=b)
                np.subtract(b, x, out=d)
                proposed[0] = taken[0] = np.add.reduce(x)
                np.add.accumulate(proposed, out=prior)
                s_lo, s_hi = minimum(sums), maximum(sums)
                # every rescale total/S_k is at least m_min; a nan fails every
                # comparison, so each minimum is compared on its own
                if (s_lo > 0.0 and total / s_lo < np.inf
                        and x_min * (m_min := total / s_hi) >= floor
                        and (b_min := minimum(b)) * m_min >= floor):
                    scale = total / prior[n]
                    np.multiply(b, scale, out=x)
                    x_min = b_min * scale  # the same bits as minimum(x)
                    accepted += n
                    settled += 1
                    continue
                np.divide(total, sums, out=m)
                # a growing move shrinks every other walker, so its check covers
                # the smallest of them too; a shrinking move only risks the mover
                cap = np.where(d > 0.0, -np.inf, np.inf)
                np.minimum.accumulate(later, out=after[-2::-1])
                bound = np.minimum(b, np.maximum(after, cap))
                # first guess: accept every move whose mover stays above the floor
                # when all moves are accepted
                np.multiply(b, m, out=check)
                acc = check >= floor
                # a guess that accepts every move has taken round one's sums already
                stored = b if np.count_nonzero(acc) == n else None
                while True:
                    rounds += 1
                    if stored is None:
                        np.multiply(d, acc, out=taken[1:])
                        np.add.accumulate(taken, out=prior)
                        np.add(before_k, d, out=m)
                        np.divide(total, m, out=m)
                        stored = np.where(acc, b, x)
                    np.minimum.accumulate(stored[:-1], out=low[1:])
                    np.maximum(low, cap, out=check)
                    np.minimum(bound, check, out=check)
                    check *= m
                    guess, acc = acc, check >= floor
                    if not np.count_nonzero(acc ^ guess):
                        break
                    stored = None
                if not (minimum(m) > 0.0 and maximum(m) < np.inf):
                    return s
                np.multiply(stored, total / prior[n], out=x)
                x_min = minimum(x)
                kept = int(np.count_nonzero(acc))
                # an accepted mover stays above the floor, so sinks need a rejection
                sunk = int(np.count_nonzero(b * m < floor)) if kept < n else 0
                accepted += kept
                sinks += sunk
                squeezes += n - kept - sunk
        return -1
    finally:
        counts += (accepted, sinks, squeezes, settled, rounds)


# ---------------------------------------------------------------------------
# Fixed-step RK4 of the two projected linear flows
# ---------------------------------------------------------------------------

def _log_multiplier(r, dt):
    """log g of the RK4 step y -> g*y of dy/dt = r*y, per component, ``r`` centred first."""
    r = r - r.mean()
    a2 = r * (1.0 + 0.5 * dt * r)
    a3 = r * (1.0 + 0.5 * dt * a2)
    a4 = r * (1.0 + dt * a3)
    return np.log1p(dt / 6.0 * (r + 2.0 * (a2 + a3) + a4))


def _step_exponents(h, r, dt):
    """Fill row s of ``h`` with (s+1)*log g at the rates ``r``; False if it is not finite.

    log g is the same at every step, so every step fails or none does. The
    product rounds once per entry; a running sum would round at every step.
    """
    # stage terms that overflow make log g inf or nan, and so every row
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(np.arange(1.0, h.shape[0] + 1.0)[:, None], _log_multiplier(r, dt), out=h)
    return bool(np.isfinite(h[:1]).all())


def integrate_constant(traj, rates, total, dt):
    """Fill ``traj[1:]`` by classical RK4 from ``traj[0]`` at the (n,) ``rates``.

    The conserved-total equation is the scale-invariant growth dy/dt = r*y
    projected onto the constraint sum(x) = total: x is y rescaled to the
    total, whatever the rescale was at earlier times. So RK4 is applied to
    the linear flow and the state is projected after every step. For
    dy/dt = r*y one RK4 step multiplies each component by

        a1 = r, a2 = r(1 + dt a1/2), a3 = r(1 + dt a2/2), a4 = r(1 + dt a3)
        g  = 1 + dt/6 (a1 + 2 a2 + 2 a3 + a4),

    the degree-4 Taylor polynomial of exp(dt r). The rates are centred on
    their mean (a uniform shift leaves the projected flow unchanged), which
    keeps g near 1. Row s of ``traj[1:]`` is ``traj[0]`` reweighted by
    exp((s+1) log g), the largest exponent of the row subtracted first, and
    rescaled to ``total``. Only per-row scalars are allocated besides ``traj``.

    Returns -1 on success, else 0 (every step fails). An even-degree Taylor
    polynomial of exp has no real root, so with finite rates that happens
    only when the stage terms overflow: for dt from 1 to 1e-3, centred rates
    of about 1e78 to 1e80 and above.
    """
    h = traj[1:]
    if not _step_exponents(h, rates, dt):
        return 0
    h -= h.max(axis=1, keepdims=True)
    np.exp(h, out=h)
    h *= traj[0]
    h *= total / h.sum(axis=1, keepdims=True)
    return -1


def amplitude_evolve(traj, lam, q, dt):
    """Fill ``traj[1:]`` from ``traj[0]`` under dc/dt = (K c - <c,Kc>/<c,c> c)/2.

    K = Q diag(lam) Q^T is given by its eigenbasis: ``lam`` (n,) and the
    orthogonal ``q`` (n, n), eigenvectors in its columns. The flow is the
    linear flow dc/dt = K c/2 projected onto the unit sphere, and the linear
    flow is dw/dt = (lam/2) w for w = Q^T c, so one RK4 step multiplies w by
    the g of ``integrate_constant`` at the rates lam/2. Row s of
    ``traj[1:]`` is Q times sign(w0) exp((s+1) log g + log|w0|), the largest
    exponent of the row subtracted first, scaled to unit norm. A start with
    no weight along an eigenvector keeps none. The kernel only steps; the
    caller (``itm``) validates and diagonalises K.

    Returns -1 on success, else 0 (every step fails).
    """
    h = traj[1:]
    if not _step_exponents(h, 0.5 * lam, dt):
        return 0
    w0 = q.T @ traj[0]
    with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(-inf) = 0
        h += np.log(np.abs(w0))
    h -= h.max(axis=1, keepdims=True)
    w = np.exp(h) * np.sign(w0)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    np.matmul(w, q.T, out=h)
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
