"""Batch CLI: one subcommand per regime, CSV in, CSV out.

Defaults mirror the reference experiments (1000 walkers sharing 6e6 with a
floor of 150; a 20000-node network with degree cutoff 100), so bare
invocations reproduce them. Every run writes a manifest.json capturing the
configuration, seed, and library versions next to its outputs. Stochastic
subcommands require --seed and are byte-reproducible given it.

``main`` owns the run: it makes --out, calls the subcommand with it, writes
the manifest and maps errors to exit codes. Each subcommand computes all of
its results before it writes its first file.

Exit codes: 0 success, 2 bad input (a path that cannot be read or written
included), 3 numerical failure. A run that exits 2 or 3 writes no file into
--out, though it may leave an empty --out directory.

Environment: MULTILOGISTIC_OUT sets the default output directory.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io, itm, maxent, network
from .core import closed_form
from .errors import InputDataError, NumericsError
from .forecast import fit_rates, forecast, growth_exponents
from .walkers import WalkerEnsemble


def _write_report(path: Path, metrics: dict):
    io.write_table(path, ["metric", "value"], [list(metrics), list(metrics.values())])


# ---------------------------------------------------------------------------
# walkers
# ---------------------------------------------------------------------------


def cmd_walkers(args, out: Path):
    ens = WalkerEnsemble.uniform(
        args.n, args.total, args.floor, args.dt, args.sigma, args.drift, args.seed
    )
    # the law first: a total it cannot solve exits before the ensemble runs
    model = maxent.solve_lambda(args.total, args.n, args.floor)
    analytic = maxent.analytic_rank(model, np.arange(1, args.n + 1.0))
    stats = ens.run_to_equilibrium(args.burn_in, args.sample_every, args.samples)
    ks = maxent.ks_distance(stats.rank_table.populations, model)

    io.write_rank_table(out / "rank.csv", stats.rank_table, analytic)
    io.write_snapshot(out / "snapshot.csv", ens.populations)
    _write_report(out / "diagnostics.csv", {
        "n": args.n,
        "total": args.total,
        "floor": args.floor,
        "dt": args.dt,
        "sigma": args.sigma,
        "drift": args.drift,
        "burn_in": args.burn_in,
        "sample_every": args.sample_every,
        "samples": args.samples,
        "steps": stats.step_count,
        "accepted_moves": stats.accepted_moves,
        "mover_rejections": stats.mover_rejections,
        "rescale_rejections": stats.rescale_rejections,
        "bound_settled_steps": stats.bound_settled_steps,
        "fixed_point_rounds": stats.fixed_point_rounds,
        "lambda_analytic": model.lam,
        "corr_coeff": stats.corr_coeff,
        "ks_distance": ks,
    })
    print(f"walkers: lambda_analytic={model.lam:.6g} ks={ks:.4f} "
          f"corr={stats.corr_coeff:.4g} -> {out}")


# ---------------------------------------------------------------------------
# rankfit
# ---------------------------------------------------------------------------


def cmd_rankfit(args, out: Path):
    pops = io.read_populations(args.input)
    kept, below, top = maxent.filter_populations(pops, args.x0, args.drop_top)
    if kept.size < 10:
        raise InputDataError(f"only {kept.size} usable entries after filtering")
    n_eff = int(kept.size)
    total_eff = float(kept.sum())
    model = maxent.solve_lambda(total_eff, n_eff, args.x0)
    data = maxent.RankDistribution(kept)
    lam_fit, stderr = maxent.fit_lambda(data, args.x0)
    fitted_model = maxent.MaxEntModel(lam_fit, args.x0, n_eff)

    io.write_table(out / "ranks.csv",
                   ["rank", "population", "analytic_solved", "analytic_fit"],
                   [data.ranks, data.populations,
                    maxent.analytic_rank(model, data.ranks),
                    maxent.analytic_rank(fitted_model, data.ranks)])
    _write_report(out / "report.csv", {
        "n_raw": pops.size,
        "dropped_below_floor": below,
        "dropped_top": top,
        "n_effective": n_eff,
        "total_effective": total_eff,
        "x0": args.x0,
        "lambda_analytic": model.lam,
        "lambda_fit": lam_fit,
        "lambda_fit_stderr": stderr,
        "ks_distance_solved": maxent.ks_distance(kept, model),
    })
    print(f"rankfit: n={n_eff} lambda_analytic={model.lam:.6g} "
          f"lambda_fit={lam_fit:.6g}({stderr:.2g}) -> {out}")


# ---------------------------------------------------------------------------
# sfin / diffuse
# ---------------------------------------------------------------------------


def cmd_sfin(args, out: Path):
    net = network.generate_sfin(args.nodes, args.max_degree, args.seed, args.min_degree)
    slope = network.degree_loglog_slope(net)
    comps = network.connected_component_sizes(net)
    io.write_edges(out / "edges.csv", net)
    io.write_table(out / "degrees.csv", ["degree", "count"], network.degree_histogram(net))
    _write_report(out / "report.csv", {
        "nodes": net.node_count,
        "edges": net.edge_count,
        "max_degree": args.max_degree,
        "min_degree": args.min_degree,
        "degree_loglog_slope": slope,
        "n_components": comps.size,
        "largest_component": int(comps[0]),
    })
    print(f"sfin: {net.node_count} nodes, {net.edge_count} edges, "
          f"degree slope {slope:.3f} -> {out}")


def cmd_diffuse(args, out: Path):
    if args.seed < 0:
        raise InputDataError(f"seed must be non-negative, got {args.seed}")
    if args.processes < 1:
        raise InputDataError(f"processes must be at least 1, got {args.processes}")
    for t in args.density_times:
        if not 0.0 < t < np.inf:
            raise InputDataError(f"density_times must be finite and positive, got {t}")
    if args.edges:
        net = io.read_edges(args.edges)
    else:
        net = network.generate_sfin(args.nodes, args.max_degree, args.seed,
                                    args.min_degree)
    pool = network.largest_component_nodes(net)
    if pool.size < net.node_count:
        print("warning: graph is not connected; seeds restricted to its largest component "
              f"({pool.size} of {net.node_count} nodes)", file=sys.stderr)
    rng = np.random.Generator(np.random.Philox([args.seed, 1]))
    seeds = rng.choice(pool, size=args.processes, replace=True)
    sizes = network.grow_cluster(net, seeds)

    total = float(net.node_count)
    stats = network.growth_statistics(sizes, total)
    params = network.fit_kernel(sizes, total, stats)
    times = args.density_times
    x_grid = np.geomspace(1.0, total - 1.0, 400)
    density = np.concatenate([network.kernel_density(params, x_grid, t) for t in times])
    slope = network.degree_loglog_slope(net)

    io.write_table(out / "degrees.csv", ["degree", "count"], network.degree_histogram(net))
    io.write_processes(out / "processes.csv", sizes)
    io.write_table(out / "median.csv",
                   ["iteration", "count", "median_size", "median_y", "variance_y"],
                   [stats["t"].astype(np.int64), stats["count"], stats["median_x"],
                    stats["median_y"], stats["var_y"]])
    _write_report(out / "kernel_report.csv", {
        "nodes": net.node_count,
        "processes": args.processes,
        "drift": params.drift,
        "diff_coeff": params.diff_coeff,
        "sigma": params.sigma,
        "y0": params.y0,
        "dt": params.dt,
        "degree_loglog_slope": slope,
    })
    io.write_table(out / "density.csv", ["t", "x", "density"],
                   [np.repeat(times, x_grid.size), np.tile(x_grid, len(times)), density])
    print(f"diffuse: drift={params.drift:.4g} D={params.diff_coeff:.4g} "
          f"sigma={params.sigma:.4g} slope={slope:.3f} -> {out}")


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def cmd_forecast(args, out: Path):
    if args.horizon < 0:
        raise InputDataError(f"--horizon must be 0 or more months, got {args.horizon}")
    series = io.read_share_csv(args.input, args.epoch, renormalize=args.renormalize)
    if args.reference not in series.components:
        raise InputDataError(
            f"reference {args.reference!r} not among columns {series.components}"
        )
    ref = series.components.index(args.reference)
    h = growth_exponents(series, ref)
    fit = fit_rates(series.times, h, ref, args.form)
    future = np.arange(1, args.horizon + 1, dtype=float)
    t_out = np.unique(np.concatenate([series.times, future]))
    result = forecast(series, fit, t_out, args.n_prime_factor)

    rss = ((fit.exponents_at(series.times) - h) ** 2).sum(axis=0)

    io.write_share_series(out / "forecast.csv", result, epoch=args.epoch)
    io.write_table(out / "fit_report.csv",
                   ["component", "is_reference", "a", "a_stderr", "b", "b_stderr",
                    "c", "c_stderr", "form", "rss"],
                   [series.components, (np.arange(len(series.components)) == ref).astype(int),
                    fit.a, fit.stderr[:, 0], fit.b, fit.stderr[:, 1], fit.c, fit.stderr[:, 2],
                    [args.form] * len(series.components), rss])
    print(f"forecast: {len(series.components)} components, "
          f"{args.horizon} months ahead -> {out}")


# ---------------------------------------------------------------------------
# itm
# ---------------------------------------------------------------------------


def cmd_itm(args, out: Path):
    coupling = io.read_matrix(args.matrix)
    x0 = np.asarray(args.initial)
    # closed_form's cross-check of a diagonal K needs positive populations: checked
    # here, before any work, so a zero entry is rejected whatever K is
    if not np.all((x0 > 0.0) & (x0 < np.inf)):
        raise InputDataError(f"--initial entries must be finite and positive: {args.initial!r}")
    total = float(x0.sum())
    chi0 = itm.to_amplitude(x0, total)
    traj = itm.itm_evolve(chi0, coupling, args.t_end, args.dt)

    norms = np.linalg.norm(traj.states, axis=1)
    rayleighs = np.einsum("ti,ij,tj->t", traj.states, coupling, traj.states)
    populations = itm.from_amplitude(traj.states, total)
    diagonal = bool(np.abs(coupling - np.diag(np.diag(coupling))).max() == 0.0)
    if diagonal:
        ref = closed_form(x0, np.diag(coupling), total, traj.times)
        max_rel = float(np.max(np.abs(populations - ref) / np.maximum(np.abs(ref), 1e-300)))
        equivalence_pass = max_rel < 1e-6
    else:
        max_rel = float("nan")
        equivalence_pass = False

    header = (["t"] + [f"chi_{i}" for i in range(x0.size)]
              + [f"x_{i}" for i in range(x0.size)])
    io.write_table(out / "trajectory.csv", header,
                   [traj.times, *traj.states.T, *populations.T])
    _write_report(out / "report.csv", {
        "diagonal": int(diagonal),
        "equivalence_max_rel_error": max_rel,
        "equivalence_pass": int(equivalence_pass),
        "norm_max_error": float(np.abs(norms - 1.0).max()),
        "rayleigh_initial": float(rayleighs[0]),
        "rayleigh_final": float(rayleighs[-1]),
    })
    check = "PASS" if equivalence_pass else ("n/a" if not diagonal else "FAIL")
    print(f"itm: diagonal={diagonal} equivalence={check} -> {out}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _number_list(text: str) -> list:
    """Parse ``--initial`` and ``--density-times``: numbers separated by commas."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multilogistic",
        description="Conserved-total multi-component logistic dynamics toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get("MULTILOGISTIC_OUT", ".")

    p = sub.add_parser("walkers", help="equilibrate a stochastic walker ensemble")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--total", type=float, default=6e6)
    p.add_argument("--floor", type=float, default=150.0)
    p.add_argument("--dt", type=float, default=0.03)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--burn-in", type=int, default=100_000)
    p.add_argument("--sample-every", type=int, default=500)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_walkers)

    p = sub.add_parser("rankfit", help="fit the rank-size law to a population CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--x0", type=float, default=150.0)
    p.add_argument("--drop-top", type=int, default=4)
    p.set_defaults(func=cmd_rankfit)

    graph = argparse.ArgumentParser(add_help=False)  # the options of generate_sfin
    graph.add_argument("--seed", type=int, required=True)
    graph.add_argument("--nodes", type=int, default=20000)
    graph.add_argument("--max-degree", type=int, default=100)
    graph.add_argument("--min-degree", type=int, default=1)

    p = sub.add_parser("sfin", parents=[graph], help="generate a scale-free network (p(c) ~ 1/c)")
    p.set_defaults(func=cmd_sfin)

    p = sub.add_parser("diffuse", parents=[graph], help="cluster-growth ensemble and kernel fit")
    p.add_argument("--processes", type=int, default=500)
    p.add_argument("--edges", default=None, help="load this edge CSV instead of generating")
    p.add_argument("--density-times", type=_number_list, default=[1.0, 3.0, 6.0])
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("forecast", help="fit growth exponents and extrapolate shares")
    p.add_argument("--input", required=True)
    p.add_argument("--reference", required=True, help="reference component name")
    p.add_argument("--epoch", required=True, help="t=0 month, e.g. 2012-03")
    p.add_argument("--horizon", type=int, default=60,
                   help="months past the epoch; 0 writes only the fitted months")
    p.add_argument("--form", choices=("exponential", "linear"), default="exponential")
    p.add_argument("--n-prime-factor", type=float, default=1.0)
    p.add_argument("--renormalize", action="store_true",
                   help="rescale rows to sum to the total before fitting")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("itm", help="evolve the amplitude flow for a rate matrix")
    p.add_argument("--matrix", required=True, help="dense CSV rate matrix")
    p.add_argument("--initial", type=_number_list, required=True,
                   help="comma-separated populations; their sum is the total")
    p.add_argument("--t-end", type=float, default=5.0,
                   help="end time; must be a whole number of --dt steps")
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_itm)

    for p in sub.choices.values():
        p.add_argument("--out", default=default_out)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, out)
        # the output path carries no provenance (it is where the manifest lives)
        config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out")}
        io.write_manifest(out / "manifest.json", args.command, config)
    except (InputDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
