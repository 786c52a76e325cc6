"""Which program functions the traced run wraps, and the per-layer metrics.

Each function is wrapped under the name its caller looks up when it calls:
``cli`` binds ``closed_form``, ``fit_rates`` and ``forecast`` at import,
so those are wrapped in ``cli``; ``walkers``, ``network``, ``core`` and
``itm`` look up ``kernels.*`` at call time, so the kernels are wrapped in
``kernels``. ``cli`` also binds the class ``WalkerEnsemble``, whose method
is wrapped on the class.

Work counts come from the inputs and outputs of the wrapped calls and from
the files the jobs wrote, never from counters inside the program.
"""

import os
from collections import defaultdict

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from multilogistic import cli, core, io, itm, kernels, maxent, network, walkers


def _keep(**picks):
    def note(span, args, result):
        for key, pick in picks.items():
            span.attrs[key] = pick(args, result)
    return note


_path = _keep(path=lambda args, result: args[0])
_points = _keep(points=lambda args, result: int(np.size(args[0])))
_steps = _keep(steps=lambda args, result: args[0].shape[0] - 1)  # rows of traj after the first


def instrument(tracer):
    """Wrap every layer function with a span; ``tracer.restore()`` undoes it."""
    w = tracer.wrap
    w(kernels, "advance_walkers_seq", "kernels.advance_walkers_seq")
    w(kernels, "bfs_layer_sizes", "kernels.bfs_layer_sizes",
      _keep(graph=lambda args, result: (args[0], args[1]),
            seed=lambda args, result: int(args[2])))
    w(kernels, "integrate_constant", "kernels.integrate_constant", _steps)
    w(kernels, "amplitude_evolve", "kernels.amplitude_evolve", _steps)

    w(walkers.WalkerEnsemble, "run_to_equilibrium", "walkers.run_to_equilibrium")

    w(network, "generate_sfin", "network.generate_sfin",
      _keep(edges=lambda args, result: result.edge_count))
    w(network, "grow_cluster", "network.grow_cluster")
    w(network, "connected_component_sizes", "network.components")
    w(network, "largest_component_nodes", "network.components")
    w(network, "fit_kernel", "network.fit_kernel")
    # called from the density.csv row generator, inside io.write_table
    w(network, "kernel_density", "network.kernel_density")

    for name in ("solve_lambda", "analytic_rank", "ks_distance", "fit_lambda"):
        w(maxent, name, f"maxent.{name}")
    w(maxent, "gamma0", "maxent.gamma0", _points)
    w(maxent, "gamma0_inverse", "maxent.gamma0_inverse", _points)

    w(cli, "fit_rates", "forecast.fit_rates")
    w(cli, "forecast", "forecast.forecast")
    w(cli, "closed_form", "core.closed_form")
    w(core, "closed_form", "core.closed_form")
    w(core, "integrate", "core.integrate")

    w(itm, "itm_evolve", "itm.itm_evolve")
    # also called from the trajectory.csv row generator, inside io.write_table
    w(itm, "from_amplitude", "itm.from_amplitude")

    # write_table is what every table writer ends in; the readers are wrapped
    # whole because they parse numbers after read_table returns
    w(io, "write_table", "io.write", _path)
    w(io, "write_manifest", "io.write", _path)
    for name in ("read_populations", "read_edges", "read_share_csv", "read_matrix"):
        w(io, name, "io.read", _path)


def bfs_edges_scanned(spans):
    """Adjacency entries the BFS kernel visits: the degree sum of each seed's component.

    The kernel expands every node it reaches exactly once, and it reaches the
    whole connected component of its seed.
    """
    components = {}
    scanned = 0
    for s in spans:
        if s.name != "kernels.bfs_layer_sizes" or "graph" not in s.attrs:
            continue
        indptr, indices = s.attrs["graph"]
        if id(indptr) not in components:
            n = indptr.size - 1
            graph = csr_matrix((np.ones(indices.size, np.int8), indices, indptr), shape=(n, n))
            _, labels = connected_components(graph, directed=False)
            components[id(indptr)] = (labels, np.bincount(labels, weights=np.diff(indptr)))
        labels, degree_sums = components[id(indptr)]
        scanned += int(degree_sums[labels[s.attrs["seed"]]])
    return scanned


def layer_metrics(tracer, walker_steps, walker_moves):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    written = set()
    read = set()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name = span.name
        total[name] += span.duration
        own[name] += self_s
        calls[name] += 1
        counts[name, "points"] += span.attrs.get("points", 0)
        counts[name, "steps"] += span.attrs.get("steps", 0)
        counts[name, "edges"] += span.attrs.get("edges", 0)
        if name == "io.write":
            written.add(span.attrs.get("path"))
        elif name == "io.read":
            read.add(span.attrs.get("path"))
        elif name == "maxent.analytic_rank" and span.parent is not None \
                and tracer.spans[span.parent].name == "maxent.fit_lambda":
            counts["fit_lambda", "nfev"] += 1
    written_bytes = sum(os.path.getsize(p) for p in written if p is not None)
    read_bytes = sum(os.path.getsize(p) for p in read if p is not None)
    bfs_edges = bfs_edges_scanned(tracer.spans)

    def per(amount, base, scale=1.0):
        return scale * amount / base if base else 0.0

    walker_s = total["kernels.advance_walkers_seq"]
    bfs_s = total["kernels.bfs_layer_sizes"]
    return {
        "kernels.advance_walkers_seq.s": (walker_s, "s"),
        "kernels.advance_walkers_seq.calls": (calls["kernels.advance_walkers_seq"], "count"),
        "kernels.walker_moves": (walker_moves, "count"),
        "kernels.ns_per_walker_move": (per(walker_s, walker_moves, 1e9), "ns"),
        "kernels.bfs_layer_sizes.s": (bfs_s, "s"),
        "kernels.bfs_layer_sizes.calls": (calls["kernels.bfs_layer_sizes"], "count"),
        "kernels.bfs_edges_scanned": (bfs_edges, "count"),
        "kernels.ns_per_bfs_edge": (per(bfs_s, bfs_edges, 1e9), "ns"),
        "kernels.integrate_constant.s": (total["kernels.integrate_constant"], "s"),
        "kernels.rk4_steps": (counts["kernels.integrate_constant", "steps"], "count"),
        "kernels.amplitude_evolve.s": (total["kernels.amplitude_evolve"], "s"),
        "kernels.amplitude_steps": (counts["kernels.amplitude_evolve", "steps"], "count"),
        "walkers.run_to_equilibrium.self_s": (own["walkers.run_to_equilibrium"], "s"),
        "walkers.steps": (walker_steps, "count"),
        "network.generate_sfin.self_s": (own["network.generate_sfin"], "s"),
        "network.edges_generated": (counts["network.generate_sfin", "edges"], "count"),
        "network.grow_cluster.self_s": (own["network.grow_cluster"], "s"),
        "network.components.s": (total["network.components"], "s"),
        "network.fit_kernel.s": (total["network.fit_kernel"], "s"),
        "maxent.solve_lambda.s": (total["maxent.solve_lambda"], "s"),
        "maxent.solve_lambda.calls": (calls["maxent.solve_lambda"], "count"),
        "maxent.analytic_rank.s": (total["maxent.analytic_rank"], "s"),
        "maxent.gamma0_inverse.points": (counts["maxent.gamma0_inverse", "points"], "count"),
        "maxent.ks_distance.s": (total["maxent.ks_distance"], "s"),
        "maxent.gamma0.points": (counts["maxent.gamma0", "points"], "count"),
        "maxent.fit_lambda.s": (total["maxent.fit_lambda"], "s"),
        "maxent.fit_lambda.nfev": (counts["fit_lambda", "nfev"], "count"),
        "forecast.fit_rates.s": (total["forecast.fit_rates"], "s"),
        "forecast.forecast.s": (total["forecast.forecast"], "s"),
        "itm.itm_evolve.self_s": (own["itm.itm_evolve"], "s"),
        "core.integrate.self_s": (own["core.integrate"], "s"),
        "core.closed_form.s": (total["core.closed_form"], "s"),
        "io.write.s": (own["io.write"], "s"),
        "io.write.bytes": (written_bytes, "B"),
        "io.write.mb_per_s": (per(written_bytes, own["io.write"], 1e-6), "MB/s"),
        "io.read.s": (own["io.read"], "s"),
        "io.read.bytes": (read_bytes, "B"),
        "io.read.mb_per_s": (per(read_bytes, own["io.read"], 1e-6), "MB/s"),
        "cli.self_s": (sum(v for k, v in own.items() if k.startswith("cli.")), "s"),
        "bench.self_s": (own["bench.pass"], "s"),
        "spans.errors": (tracer.errors, "count"),
    }
