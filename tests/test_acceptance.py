"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``
to see them) and asserts the stated tolerance. Criteria 2 and 3 share one
equilibrium run via a session fixture.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

import multilogistic as ml
from multilogistic.cli import main
from multilogistic.network import degree_loglog_slope, largest_component_nodes

REF = dict(n=1000, total=6e6, floor=150.0, dt=0.03, sigma=1.0)


def report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def equilibrium_run():
    t0 = time.perf_counter()
    ens = ml.WalkerEnsemble.uniform(
        REF["n"], REF["total"], REF["floor"], REF["dt"], REF["sigma"],
        drift=0.0, seed=20120301,
    )
    stats = ens.run_to_equilibrium(burn_in=100_000, sample_every=500, samples=20)
    elapsed = time.perf_counter() - t0
    return stats, elapsed


def test_criterion_1_lambda_solver():
    model = ml.solve_lambda(REF["total"], REF["n"], REF["floor"])
    ml.solve_lambda(REF["total"], REF["n"], REF["floor"])  # warm
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        ml.solve_lambda(REF["total"], REF["n"], REF["floor"])
        times.append(time.perf_counter() - t0)
    runtime = min(times)
    ok = abs(model.lam - 0.00533) <= 0.005 * 0.00533 and runtime < 1e-3
    report(1, ok, f"lambda={model.lam:.6f} (target 0.00533 +-0.5%), "
                  f"runtime={runtime * 1e6:.0f}us (<1ms)")


def test_criterion_2_thermodynamic_equilibrium(equilibrium_run):
    stats, elapsed = equilibrium_run
    model = ml.solve_lambda(REF["total"], REF["n"], REF["floor"])
    ks = ml.ks_distance(stats.rank_table.populations, model)
    ok = ks < 0.05 and elapsed < 120.0
    report(2, ok, f"KS={ks:.4f} (<0.05), runtime={elapsed:.1f}s (<120s)")


def test_criterion_3_scale_invariance_diagnostic(equilibrium_run):
    stats, _ = equilibrium_run
    ok = abs(stats.corr_coeff) < 0.05
    report(3, ok, f"|corr|={abs(stats.corr_coeff):.5f} (<0.05; reference 0.0027)")


def test_criterion_4_integrator_against_closed_form():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        x0 = rng.uniform(0.5, 10.0, size=n)
        total = float(x0.sum())
        rates = rng.uniform(-2.0, 2.0, size=n)
        traj = ml.integrate(x0, rates, total, 5.0, 1e-3)
        exact = ml.closed_form(x0, rates, total, traj.times)
        worst = max(worst, float(np.max(np.abs(traj.states - exact) / np.abs(exact))))
    ok = worst < 1e-6
    report(4, ok, f"max rel error {worst:.2e} over 100 systems (<1e-6)")


def test_criterion_5_symmetry_suite():
    rng = np.random.default_rng(55)
    worst_shift = worst_scale = worst_sigmoid = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x0 = rng.uniform(0.5, 10.0, size=n)
        total = float(x0.sum())
        rates = rng.uniform(-2.0, 2.0, size=n)
        t = float(rng.uniform(0.0, 5.0))
        base = ml.closed_form(x0, rates, total, t)

        shift = ml.closed_form(x0, rates + rng.uniform(-3, 3), total, t)
        worst_shift = max(worst_shift, float(np.max(np.abs(shift - base) / base)))

        c = float(rng.uniform(0.01, 100.0))
        scaled = ml.closed_form(c * x0, rates, c * total, t)
        worst_scale = max(worst_scale, float(np.max(np.abs(scaled - c * base) / (c * base))))

        share = float(rng.uniform(0.05, 0.95))
        k1, k2 = rng.uniform(-2, 2, size=2)
        two = ml.closed_form(np.array([share, 1 - share]) * total,
                             np.array([k1, k2]), total, t)
        sig = ml.sigmoid(ml.LogisticParams(k1 - k2, total, share * total), t)
        worst_sigmoid = max(worst_sigmoid, abs(two[0] - sig) / sig)
    ok = worst_shift < 1e-12 and worst_scale < 1e-12 and worst_sigmoid < 1e-12
    report(5, ok, f"rate-shift {worst_shift:.2e}, scale {worst_scale:.2e}, "
                  f"sigmoid {worst_sigmoid:.2e} (all <1e-12)")


def test_criterion_6_network_regime():
    t0 = time.perf_counter()
    net = ml.generate_sfin(20000, 100, seed=31)
    slope = degree_loglog_slope(net)
    pool = largest_component_nodes(net)
    rng = np.random.Generator(np.random.Philox([31, 1]))
    seeds = rng.choice(pool, size=500, replace=True)
    procs = [ml.grow_cluster(net, int(s)) for s in seeds]
    fit = ml.fit_kernel(procs, 20000.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(slope + 1.0) <= 0.1
        and abs(fit.drift - 3.09) <= 0.2 * 3.09
        and abs(fit.diff_coeff - 0.245) <= 0.2 * 0.245
        and abs(fit.sigma - np.sqrt(2 * fit.diff_coeff)) < 1e-12
        and elapsed < 60.0
    )
    report(6, ok, f"slope={slope:.3f} (-1+-0.1), drift={fit.drift:.3f} (3.09+-20%), "
                  f"D={fit.diff_coeff:.3f} (0.245+-20%), runtime={elapsed:.1f}s (<60s)")


def test_criterion_7_kernel_normalization():
    params = ml.DiffusionKernelParams(
        3.09, 0.245, ml.y_transform(1.0, 20000.0), 20000.0, dt=1.0
    )
    worst = 0.0
    for t in (1.0, 3.0, 6.0):
        val, _ = quad(lambda x: ml.kernel_density(params, x, t),
                      1e-12, params.total - 1e-9, limit=400)
        worst = max(worst, abs(val - 1.0))
    ok = worst < 1e-6
    report(7, ok, f"max |integral - 1| = {worst:.2e} at t in {{1,3,6}} (<1e-6)")


def test_criterion_8_forecast_round_trip_and_fit():
    # noiseless constant-rate round trip
    times = np.arange(-36.0, 1.0)
    x0 = np.array([50.0, 30.0, 20.0])
    shares = ml.closed_form(x0, np.array([0.0, 0.1, 0.3]), 100.0, times)
    series = ml.ShareSeries(("e", "f", "c"), times, shares)
    fit = ml.fit_rates(times, ml.growth_exponents(series, 0), 0)
    out = ml.forecast(series, fit, times, n_prime_factor=1.0)
    round_trip = float(np.max(np.abs(out.shares - shares)))

    # reference damped-exponential parameters, noiseless recovery
    a_t, b_t, c_t = 0.0579, 0.0097, 0.104
    t48 = np.arange(-48.0, 1.0)
    clean = a_t * np.exp(-b_t * t48) * t48 + c_t
    h = np.zeros((t48.size, 2))
    h[:, 1] = clean
    f0 = ml.fit_rates(t48, h, 0)
    rec = max(abs(f0.a[1] - a_t) / a_t, abs(f0.b[1] - b_t) / b_t,
              abs(f0.c[1] - c_t) / c_t)

    # 1% noise, 50 seeds, 3-stderr coverage
    scale = 0.01 * np.abs(clean).max()
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        hn = np.zeros((t48.size, 2))
        hn[:, 1] = clean + scale * rng.standard_normal(t48.size)
        fn = ml.fit_rates(t48, hn, 0)
        hits += (
            abs(fn.a[1] - a_t) <= 3 * fn.stderr[1, 0]
            and abs(fn.b[1] - b_t) <= 3 * fn.stderr[1, 1]
            and abs(fn.c[1] - c_t) <= 3 * fn.stderr[1, 2]
        )
    ok = round_trip < 1e-8 and rec < 1e-6 and hits >= 45
    report(8, ok, f"round-trip {round_trip:.2e} (<1e-8), noiseless recovery "
                  f"{rec:.2e} (<1e-6), coverage {hits}/50 (>=45)")


def test_criterion_9_amplitude_flow_equivalence():
    rng = np.random.default_rng(99)
    worst_match = worst_norm = 0.0
    rayleigh_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 11))
        x0 = rng.uniform(0.5, 10.0, size=n)
        total = float(x0.sum())
        rates = rng.uniform(-1.5, 1.5, size=n)
        k = np.diag(rates)
        traj = ml.itm_evolve(ml.to_amplitude(x0, total), k, 2.0, 1e-3)
        got = ml.from_amplitude(traj.states, total)
        ref = ml.closed_form(x0, rates, total, traj.times)
        worst_match = max(worst_match, float(np.max(np.abs(got - ref) / np.abs(ref))))
        norms = np.linalg.norm(traj.states, axis=1)
        worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))
        q = np.einsum("ti,ij,tj->t", traj.states, k, traj.states)
        rayleigh_ok &= bool(np.all(np.diff(q) >= -1e-12 * (1.0 + np.abs(q[:-1]))))
    ok = worst_match < 1e-6 and worst_norm <= 1e-10 and rayleigh_ok
    report(9, ok, f"trajectory match {worst_match:.2e} (<1e-6), norm drift "
                  f"{worst_norm:.2e} (<=1e-10), Rayleigh monotone={rayleigh_ok}")


def test_criterion_10_reproducibility(tmp_path):
    def run_twice(name, args):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / f"{name}_{sub}"
            assert main(args + ["--out", str(out)]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        return outs[0] == outs[1]

    same_w = run_twice("walkers", [
        "walkers", "--seed", "13", "--n", "200", "--total", "1200000",
        "--burn-in", "2000", "--sample-every", "50", "--samples", "5",
    ])
    same_s = run_twice("sfin", [
        "sfin", "--seed", "13", "--nodes", "2000", "--max-degree", "50",
    ])
    same_d = run_twice("diffuse", [
        "diffuse", "--seed", "13", "--nodes", "2000", "--max-degree", "50",
        "--processes", "60",
    ])
    ok = same_w and same_s and same_d
    report(10, ok, f"byte-identical reruns: walkers={same_w}, sfin={same_s}, "
                   f"diffuse={same_d}")
