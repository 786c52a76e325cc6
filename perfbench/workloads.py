"""The two workloads: inputs made from a seed, the job list, output checks.

Every job is one call into the program: a CLI invocation through
``multilogistic.cli.main(argv)`` or, for ``integrate``, the library RK4
integrator against the exact solution. The program receives only the files
written here and its argv. Checks read the files a job wrote and raise
``CheckFailed``; the bounds are the acceptance criteria's own.

Sizes: ``ref`` is what the benchmark measures. ``tiny`` keeps every job and
file but shrinks the work so the benchmark's own tests run in seconds; at
that size the statistical windows (KS, drift, slope, fitted lambda) cannot
hold, so only the invariants are checked there.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import exp1

from multilogistic import cli, core

WORKLOADS = ("reference", "small_batch")

FLOOR = 150.0  # the reference population floor, also rankfit's x0
EPOCH = "2012-03"


class CheckFailed(Exception):
    """A job's outputs do not meet their check."""


@dataclass
class Job:
    name: str                       # unique within the workload
    label: str                      # subcommand, or "integrate" for the library job
    call: Callable[[], object]      # the timed call into the program
    check: Callable[[object], None]  # raises CheckFailed
    out: Path | None = None         # directory the job writes, for CLI jobs


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def cli_job(name, argv, out, check):
    """``multilogistic <argv> --out <out>``; exit code 0, a manifest, then ``check(out)``."""
    argv = [*argv, "--out", str(out)]

    def verify(code):
        expect(code == 0, f"exit code {code}")
        json.loads((out / "manifest.json").read_text())
        check(out)

    return Job(name, argv[0], lambda: cli.main(argv), verify, out)


def build(workload, seed, size, work):
    """The job list of ``workload``; its input files are written under ``work``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in ("ref", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return globals()[workload](rng, size == "tiny", work)


def _seed(rng):
    return str(int(rng.integers(1, 2**31)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def reference(rng, tiny, work):
    # One workload for both reference sizes, so each run can measure long
    # enough to ride out this host's slow phases (see README.md).
    # The walkers job is the reference population with burn-in cut to 5000
    # steps (the full 100k take about 240 s): the average rank table is
    # within the KS and correlation bounds from about 5000 steps on.
    p = dict(n=100, total=6e5, burn_in=300, sample_every=10, samples=3) if tiny else \
        dict(n=1000, total=6e6, burn_in=5000, sample_every=100, samples=20)
    jobs = [walkers_job("walkers", p, _seed(rng), work, equilibrium=not tiny)]

    nodes, c_max, procs = (1000, 30, 40) if tiny else (20000, 100, 500)
    graph = work / "sfin"
    size = ["--nodes", str(nodes), "--max-degree", str(c_max)]
    # fit_kernel's drift and D are bimodal across graphs: on about a quarter
    # of seeds iteration 6 still has half the clusters growing, enters the
    # fit, and gives drift 2.9, D 0.12. So criterion 6's drift and D windows
    # are checked where criterion 6 defines them, on its reference seed 31;
    # the random graphs get the degree-slope window and the invariants.
    return jobs + [
        cli_job("sfin", ["sfin", "--seed", _seed(rng), *size], graph,
                lambda out: check_graph(out, nodes, c_max, windows=not tiny)),
        diffuse_job("diffuse_edges", ["--seed", _seed(rng), "--edges",
                                      str(graph / "edges.csv")],
                    procs, work, slope_window=not tiny),
        diffuse_job("diffuse_generated", ["--seed", "31", *size],
                    procs, work, slope_window=not tiny, kernel_windows=not tiny),
    ]


def small_batch(rng, tiny, work):
    jobs = []
    walk = dict(n=200, total=1.2e6, burn_in=200 if tiny else 2000,
                sample_every=50, samples=5)
    for k in range(2):
        # not equilibrated at this length (KS about 0.18): invariants only
        jobs.append(walkers_job(f"walkers_{k}", walk, _seed(rng), work, equilibrium=False))

    nodes, c_max, procs = (300, 20, 30) if tiny else (2000, 50, 60)
    size = ["--nodes", str(nodes), "--max-degree", str(c_max)]
    for k in range(2):
        graph = work / f"sfin_{k}"
        jobs.append(cli_job(f"sfin_{k}", ["sfin", "--seed", _seed(rng), *size], graph,
                            lambda out: check_graph(out, nodes, c_max, windows=False)))
    jobs.append(diffuse_job("diffuse_edges", ["--seed", _seed(rng), "--edges",
                                              str(work / "sfin_0" / "edges.csv")],
                            procs, work))
    jobs.append(diffuse_job("diffuse_generated", ["--seed", _seed(rng), *size], procs, work))

    sizes = (100, 150, 200) if tiny else (1000, 2000, 4000)
    for k, (n, lam) in enumerate(zip(sizes, (0.006, 0.012, 0.018))):
        jobs.append(rankfit_job(f"rankfit_{k}", rng, n, lam, work, check_lambda=not tiny))

    months, comps = (24, 4) if tiny else (240, 60)
    for k in range(2):
        jobs.append(forecast_job(f"forecast_{k}", rng, months, comps, work))

    t_end = 0.5 if tiny else 5.0
    jobs.append(itm_job("itm_coupled", rng, 10, t_end, work, diagonal=False))
    jobs.append(itm_job("itm_diagonal", rng, 10, t_end, work, diagonal=True))

    for k in range(3 if tiny else 8):
        jobs.append(integrate_job(f"integrate_{k}", rng, t_end))
    return jobs


# ---------------------------------------------------------------------------
# jobs and their checks
# ---------------------------------------------------------------------------


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_report(path):
    return {k: float(v) for k, v in read_table(path)[1]}


def read_numbers(path, dtype=float):
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype, ndmin=2)


def walkers_job(name, p, seed, work, equilibrium):
    argv = ["walkers", "--seed", seed, "--n", str(p["n"]), "--total", repr(p["total"]),
            "--floor", repr(FLOOR), "--burn-in", str(p["burn_in"]),
            "--sample-every", str(p["sample_every"]), "--samples", str(p["samples"])]
    return cli_job(name, argv, work / name, lambda out: check_walkers(out, p, equilibrium))


def check_walkers(out, p, equilibrium):
    n, total = p["n"], p["total"]
    diag = read_report(out / "diagnostics.csv")
    steps = p["burn_in"] + p["samples"] + (p["samples"] - 1) * (p["sample_every"] - 1)
    expect(diag["steps"] == steps, f"steps {diag['steps']} != {steps}")
    snap = read_numbers(out / "snapshot.csv")[:, 1]
    expect(snap.size == n, f"snapshot has {snap.size} walkers, not {n}")
    expect(abs(snap.sum() - total) <= 1e-9 * total, f"snapshot sums to {snap.sum()!r}")
    expect(snap.min() >= FLOOR * (1.0 - 1e-12), f"population {snap.min()!r} below the floor")
    rank = read_numbers(out / "rank.csv")
    expect(np.array_equal(rank[:, 0], np.arange(1, n + 1)), "ranks are not 1..n")
    expect(np.all(np.diff(rank[:, 1]) <= 0.0), "rank table is not sorted")
    if equilibrium:  # criteria 2 and 3, against an independent solve of the law
        ks = ks_to_rank_law(rank[:, 1], total, n, FLOOR)
        expect(ks < 0.05, f"KS distance {ks:.4f} to the rank law (bound 0.05)")
        expect(abs(diag["corr_coeff"]) < 0.05,
               f"scale-invariance corr {diag['corr_coeff']:.4f} (bound 0.05)")


def ks_to_rank_law(populations, total, n, x0):
    """KS distance to the law exp(-lam*x/x0)/x whose mean is total/n."""
    ratio = total / (n * x0)
    lam = brentq(lambda z: -z - math.log(z * exp1(z)) - math.log(ratio),
                 1e-12, 300.0, xtol=1e-300, rtol=1e-14)
    xs = np.sort(populations)
    cdf = 1.0 - exp1(lam * xs / x0) / exp1(lam)
    grid = np.arange(1, xs.size + 1) / xs.size
    return float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / xs.size - cdf))))


def check_graph(out, nodes, c_max, windows):
    edges = read_numbers(out / "edges.csv", np.int64)
    u, v = edges[:, 0], edges[:, 1]
    expect(np.all(u < v), "edge list has a self-loop or an unordered pair")
    expect(np.unique(u * nodes + v).size == u.size, "edge list has a duplicate edge")
    deg = np.bincount(np.concatenate([u, v]), minlength=nodes)
    expect(deg.size == nodes and 1 <= deg.min() and deg.max() <= c_max,
           f"degrees outside [1, {c_max}] or nodes outside [0, {nodes})")
    hist = read_numbers(out / "degrees.csv", np.int64)
    counts = np.bincount(deg)
    expect(np.array_equal(hist[:, 0], np.nonzero(counts)[0])
           and np.array_equal(hist[:, 1], counts[hist[:, 0]]),
           "degrees.csv does not match the edge list")
    report = read_report(out / "report.csv")
    expect(report["nodes"] == nodes and report["edges"] == u.size,
           "report.csv node or edge count does not match the edge list")
    if windows:  # criterion 6: degree law p(c) ~ 1/c
        slope = report["degree_loglog_slope"]
        expect(abs(slope + 1.0) <= 0.1, f"degree slope {slope:.3f} (-1 +- 0.1)")


def diffuse_job(name, argv, procs, work, slope_window=False, kernel_windows=False):
    argv = ["diffuse", *argv, "--processes", str(procs)]
    return cli_job(name, argv, work / name,
                   lambda out: check_diffusion(out, procs, slope_window, kernel_windows))


def check_diffusion(out, procs, slope_window, kernel_windows):
    rows = read_numbers(out / "processes.csv", np.int64)
    pid, it, size = rows[:, 0], rows[:, 1], rows[:, 2]
    first = it == 0
    expect(np.array_equal(pid[first], np.arange(procs)), f"not {procs} processes")
    expect(np.all(size[first] == 1), "a process does not start from one node")
    cont = ~first[1:]
    expect(np.all((pid[1:] == pid[:-1])[cont] & (np.diff(it)[cont] == 1)
                  & (np.diff(size)[cont] > 0)), "cluster sizes are not strictly increasing")
    last = np.append(first[1:], True)
    # every seed lies in the largest component, so every cluster ends at its size
    expect(np.all(size[last] == size[last][0]), "clusters end at different sizes")
    dens = read_numbers(out / "density.csv")
    expect(np.all(np.isfinite(dens)) and np.all(dens[:, 2] >= 0.0), "bad density row")
    k = read_report(out / "kernel_report.csv")
    expect(k["processes"] == procs and k["diff_coeff"] >= 0.0, "bad kernel report")
    expect(abs(k["sigma"] - math.sqrt(2.0 * k["diff_coeff"] / k["dt"])) <= 1e-12,
           "sigma != sqrt(2 D / dt)")
    if slope_window:  # criterion 6
        expect(abs(k["degree_loglog_slope"] + 1.0) <= 0.1,
               f"degree slope {k['degree_loglog_slope']:.3f} (-1 +- 0.1)")
    if kernel_windows:  # criterion 6
        expect(abs(k["drift"] - 3.09) <= 0.2 * 3.09, f"drift {k['drift']:.3f} (3.09 +- 20%)")
        expect(abs(k["diff_coeff"] - 0.245) <= 0.2 * 0.245,
               f"D {k['diff_coeff']:.3f} (0.245 +- 20%)")


def sample_rank_law(rng, lam, x0, size):
    """Populations drawn from the density exp(-lam*x/x0)/x on [x0, inf)."""
    target = (1.0 - rng.random(size)) * exp1(lam)  # solve E1(lam*x/x0) = target
    lo = np.full(size, math.log(lam))
    hi = np.full(size, math.log(lam + 60.0))
    for _ in range(80):  # bisection in log z; E1 decreases
        mid = 0.5 * (lo + hi)
        low = exp1(np.exp(mid)) > target
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    return x0 * np.exp(hi) / lam


def rankfit_job(name, rng, n, lam, work, check_lambda):
    pops = sample_rank_law(rng, lam, FLOOR, n)
    src = work / f"{name}.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["place_name", "population"])
        w.writerows((f"place{i}", repr(float(x))) for i, x in enumerate(pops))
    argv = ["rankfit", "--input", str(src), "--x0", repr(FLOOR), "--drop-top", "4"]
    return cli_job(name, argv, work / name,
                   lambda out: check_rankfit(out, n - 4, lam, check_lambda))


def check_rankfit(out, n_kept, lam, check_lambda):
    report = read_report(out / "report.csv")
    expect(report["n_effective"] == n_kept, f"kept {report['n_effective']} of {n_kept}")
    ranks = read_numbers(out / "ranks.csv")
    expect(np.array_equal(ranks[:, 0], np.arange(1, n_kept + 1)), "ranks are not 1..n")
    expect(np.all(np.diff(ranks[:, 1]) <= 0.0), "rank table is not sorted")
    expect(np.all(np.isfinite(ranks)) and np.all(ranks[:, 2:] > 0.0), "bad analytic column")
    if check_lambda:
        # relative error of the fit from 80 draws of each size: at most
        # 0.33, 0.17, 0.10 at 1000, 2000, 4000 entries; allow 15/sqrt(n)
        fit = report["lambda_fit"]
        tol = 15.0 / math.sqrt(n_kept)
        expect(abs(fit - lam) <= tol * lam,
               f"lambda_fit {fit:.5g} more than {tol:.0%} from the law's {lam:.5g}")


def forecast_job(name, rng, months, comps, work):
    # damped-exponential exponents h_i(t) = a*exp(-b*t)*t against component 0,
    # |h| at most 2*e^1.2 over the series, with 0.2 % multiplicative noise,
    # as monthly percentage shares
    t = np.arange(-(months - 1), 1.0)
    a = rng.uniform(0.5, 2.0, comps) / months * rng.choice([-1.0, 1.0], comps)
    b = rng.uniform(0.3, 1.2, comps) / months
    h = a * np.exp(-b * t[:, None]) * t[:, None]
    h[:, 0] = 0.0
    x = rng.uniform(1.0, 10.0, comps) * np.exp(h + 0.002 * rng.standard_normal(h.shape))
    shares = 100.0 * x / x.sum(axis=1, keepdims=True)
    src = work / f"{name}.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date"] + [f"c{i:02d}" for i in range(comps)])
        for j, tj in enumerate(t):
            total = 12 * 2012 + 2 + int(tj)  # months since year 0, epoch 2012-03
            w.writerow([f"{total // 12:04d}-{total % 12 + 1:02d}"]
                       + [repr(float(s)) for s in shares[j]])
    horizon = 60
    argv = ["forecast", "--input", str(src), "--reference", "c00", "--epoch", EPOCH,
            "--horizon", str(horizon)]
    return cli_job(name, argv, work / name,
                   lambda out: check_forecast(out, months + horizon, comps))


def check_forecast(out, rows, comps):
    header, body = read_table(out / "forecast.csv")
    expect(len(header) == comps + 2 and len(body) == rows, "forecast.csv has the wrong shape")
    shares = np.asarray([[float(v) for v in r[2:]] for r in body])
    sums = shares.sum(axis=1)
    expect(np.all(shares > 0.0) and np.all(np.abs(sums - 100.0) <= 1e-9 * 100.0),
           "a forecast row does not sum to its total")
    expect(len(read_table(out / "fit_report.csv")[1]) == comps, "fit_report.csv rows")


def itm_job(name, rng, n, t_end, work, diagonal):
    if diagonal:
        coupling = np.diag(rng.uniform(-1.5, 1.5, n))
    else:
        a = rng.uniform(-1.0, 1.0, (n, n))
        coupling = 0.5 * (a + a.T)
    src = work / f"{name}.csv"
    with open(src, "w", newline="") as fh:
        csv.writer(fh).writerows([repr(float(v)) for v in row] for row in coupling)
    x0 = rng.uniform(0.5, 10.0, n)
    dt = 1e-3
    argv = ["itm", "--matrix", str(src), "--initial", ",".join(repr(float(v)) for v in x0),
            "--t-end", repr(t_end), "--dt", repr(dt)]
    steps = int(round(t_end / dt))
    return cli_job(name, argv, work / name, lambda out: check_itm(out, n, steps, diagonal))


def check_itm(out, n, steps, diagonal):
    report = read_report(out / "report.csv")
    expect(report["diagonal"] == int(diagonal), "diagonal flag")
    expect(report["norm_max_error"] <= 1e-10, f"norm error {report['norm_max_error']:.2e}")
    traj = read_numbers(out / "trajectory.csv")
    expect(traj.shape == (steps + 1, 1 + 2 * n), "trajectory.csv has the wrong shape")
    norms = np.linalg.norm(traj[:, 1:1 + n], axis=1)
    expect(np.abs(norms - 1.0).max() <= 1e-10, "trajectory amplitudes leave the unit sphere")
    if diagonal:  # criterion 9: the flow reproduces the exact solution
        expect(report["equivalence_pass"] == 1, "equivalence with closed_form failed")
    else:
        expect(report["rayleigh_final"] >= report["rayleigh_initial"],
               "Rayleigh quotient decreased")


def integrate_job(name, rng, t_end):
    n = int(rng.integers(2, 11))  # criterion 4's random systems
    x0 = rng.uniform(0.5, 10.0, n)
    rates = rng.uniform(-2.0, 2.0, n)
    total = float(x0.sum())

    def call():
        traj = core.integrate(x0, rates, total, t_end, 1e-3)
        return traj, core.closed_form(x0, rates, total, traj.times)

    def check(result):
        traj, exact = result
        err = float(np.max(np.abs(traj.states - exact) / np.abs(exact)))
        expect(err < 1e-6, f"RK4 vs closed form: {err:.2e} (bound 1e-6)")

    return Job(name, "integrate", call, check)


def walker_work(jobs):
    """(steps, walker moves) of the walkers jobs, read from their diagnostics.csv."""
    steps = moves = 0
    for job in jobs:
        if job.label == "walkers":
            diag = read_report(job.out / "diagnostics.csv")
            steps += int(diag["steps"])
            moves += int(diag["steps"]) * int(diag["n"])
    return steps, moves
