"""Hot inner loops, one implementation each, in numpy or plain Python.

The callers (``walkers``, ``network``, ``core``, ``itm``) look the kernels up
as ``kernels.<name>`` at call time, so a profiler can wrap them from outside.
``perfbench/`` times every kernel inside the CLI jobs that use it.
"""

import math

import numpy as np

# read by perfbench/run.py; there is no compiled backend
USING_NUMBA = False


# ---------------------------------------------------------------------------
# Walker ensemble stepping (multiplicative growth with a restoring rescale)
# ---------------------------------------------------------------------------


def _two_smallest(x):
    # indices and values of the two smallest entries of a list (first wins ties)
    i1 = 0
    i2 = 0
    v1 = 1e308
    v2 = 1e308
    for i, v in enumerate(x):
        if v < v1:
            i2 = i1
            v2 = v1
            i1 = i
            v1 = v
        elif v < v2:
            i2 = i
            v2 = v
    return i1, v1, i2, v2


def advance_walkers_seq(x, normals, drift, sigma, dt, total, floor):
    """Advance walkers one at a time, restoring the total after every move.

    Walker i proposes the multiplicative kick exp(dt*(drift_i + sigma_i*xi));
    the global rescale that keeps sum(x) = total is applied immediately, and
    the whole move is rejected if it would leave the mover or any other
    walker below the floor. Sequential moves with whole-move rejection
    sample the flat measure on the constraint surface, so the ensemble
    equilibrates to the analytic rank law.

    ``x`` is updated in place, also on failure. Returns -1 on success, else
    the index of the first bad step.
    """
    # The interleaved rescale rules out vectorizing the moves, so the loop
    # runs on Python floats: reading numpy scalars one at a time costs
    # several times more. The rescale is carried as a global multiplier
    # (true population = mult * xs[i]) and folded back in once per step;
    # the two smallest walkers are tracked because rescales preserve ranking.
    xs = x.tolist()
    n = len(xs)
    mult = 1.0
    s_true = 0.0
    for a in xs:
        s_true += a
    i1, v1, i2, v2 = _two_smallest(xs)
    exp = math.exp
    isfinite = math.isfinite
    for s in range(normals.shape[0]):
        args = (dt * (drift + sigma * normals[s])).tolist()
        for i in range(n):
            a = xs[i]
            b = a * exp(args[i])
            s_new = s_true + mult * (b - a)
            if not (s_new > 0.0 and isfinite(s_new)):
                x[:] = xs
                return s
            rho = total / s_new
            m_new = mult * rho
            if b * m_new < floor:
                continue  # mover would sink below the floor
            if rho < 1.0:
                vmin = v2 if i == i1 else v1
                if vmin * m_new < floor:
                    continue  # rescale would sink the smallest walker
            xs[i] = b
            mult = m_new
            s_true = total
            if i == i1:
                if b <= v2:
                    v1 = b
                else:
                    i1, v1, i2, v2 = _two_smallest(xs)
            elif i == i2:
                if b < v1:
                    i2, v2, i1, v1 = i1, v1, i, b
                elif b <= v2:
                    v2 = b
                else:
                    i1, v1, i2, v2 = _two_smallest(xs)
            else:
                if b < v1:
                    i2, v2, i1, v1 = i1, v1, i, b
                elif b < v2:
                    i2, v2 = i, b
        # fold the multiplier back in and re-sync the running sum
        acc = 0.0
        for q in range(n):
            v = xs[q] * mult
            xs[q] = v
            acc += v
        mult = 1.0
        s_true = acc
        i1, v1, i2, v2 = _two_smallest(xs)
    x[:] = xs
    return -1


# ---------------------------------------------------------------------------
# Fixed-step 4th-order integration of the conserved-total growth equation
# ---------------------------------------------------------------------------


def integrate_constant(traj, rates, total, dt):
    """Fill ``traj[1:]`` by classical RK4 from ``traj[0]`` with constant rates.

    After every step the state is rescaled by total/sum(x), removing the
    integrator's drift off the conservation constraint exactly.

    Returns -1 on success, else the first step index with a non-finite state.
    """
    steps = traj.shape[0] - 1
    x = traj[0].copy()

    def rhs(y):
        return y * (rates - np.dot(rates, y) / total)

    for s in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
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
    strictly increasing and starts at 1.
    """
    n = indptr.shape[0] - 1
    visited = np.zeros(n, dtype=bool)
    visited[seed] = True
    frontier = np.array([seed], dtype=np.int64)
    sizes = [1]
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        width = int(counts.sum())
        if width == 0:
            break
        # gather indices[start:start+count] for every frontier node at once
        offsets = np.concatenate((np.zeros(1, np.int64), np.cumsum(counts)[:-1]))
        flat = np.repeat(indptr[frontier] - offsets, counts) + np.arange(width)
        nbrs = indices[flat]
        new = np.unique(nbrs[~visited[nbrs]])
        if new.size == 0:
            break
        visited[new] = True
        frontier = new
        sizes.append(sizes[-1] + int(new.size))
    return np.asarray(sizes, dtype=np.int64)


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
