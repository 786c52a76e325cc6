#!/usr/bin/env python3
"""End-to-end benchmark of the multilogistic CLI and library, with a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

One client sends one job at a time and waits for it (a closed loop), in this
single process with BLAS/OpenMP held to one thread. The workload's jobs run
in turn, over and over, until ``--seconds`` have passed (the job running
then finishes); every job's outputs are checked. The program is imported
from the checkout's ``src/``; without it the benchmark exits with an error
and prints no result.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the sum over the
job list of each job's median time in the program, outputs written; the
checks are not timed), ``setup_s`` (median cold start of ``import
multilogistic.cli`` plus building the parser, in fresh interpreters), both
at a reference host speed measured alongside them (``host.py``), and
``peak_rss_mb`` (after the first pass over the job list). ``--trace 1`` runs
the same untraced jobs, then one pass over the job list with every layer
function wrapped in a span, and reports the per-layer metrics, the untraced
time of each subcommand and the tracing overhead.

The last line of standard output is the result as JSON; the line before it
records the kernel backend actually in use, the machine and the number of
job runs. Both also go to ``.perfbench/results/``, with the spans of a
traced run.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from host import COLD_START_IMPORTS, COLD_START_REF_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("reference", "small_batch")
LABELS = ("walkers", "sfin", "diffuse", "rankfit", "forecast", "itm", "integrate")
SETUP_SAMPLES = 7
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def load_program():
    """Import multilogistic from this checkout's src/, or exit non-zero."""
    package = SRC / "multilogistic" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} is missing; run from a checkout with src/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import multilogistic

    if Path(multilogistic.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported {multilogistic.__file__}, not {package}")


def environment():
    import numpy
    import scipy

    from multilogistic import kernels

    return {
        "kernel_backend": "numba" if kernels.USING_NUMBA else "numpy",
        "using_numba": kernels.USING_NUMBA,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup():
    """Median wall time of a fresh interpreter importing the CLI and building its parser.

    One unrecorded start first, so byte-compilation is not counted. Each
    start is followed by a calibration start, and the median is reported at
    the reference host speed for cold starts.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    program = "import multilogistic.cli as c; c.build_parser()"
    times, calibrations = [], []
    for _ in range(SETUP_SAMPLES + 1):
        for code, out in ((program, times), (COLD_START_IMPORTS, calibrations)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            out.append(time.perf_counter() - t0)
    return statistics.median(times[1:]) * COLD_START_REF_S / statistics.median(calibrations[1:])


def run_job(job, tracer=None, clock=time.perf_counter):
    """Run one job and check it: (seconds in the call, whether it passed)."""
    captured = StringIO()
    span = tracer.span(f"cli.{job.label}") if tracer and job.out else nullcontext()
    start = clock()
    try:
        with redirect_stdout(captured), redirect_stderr(captured):
            with span:
                result = job.call()
            seconds = clock() - start
        job.check(result)
        return seconds, True
    except (Exception, SystemExit) as exc:  # a failed job is counted; the run goes on
        print(f"perfbench: job {job.name} failed: {exc!r}\n{captured.getvalue()}",
              file=sys.stderr)
        return clock() - start, False


def run_untraced(jobs, seconds, host):
    """Run the jobs in turn, over and over, until ``seconds`` have passed.

    Every job runs at least once, and no job starts after the deadline, so a
    run overshoots by less than its longest job. Returns each job's times,
    by ``host.clock``, the number of failed runs and the peak resident memory
    in MB at the end of the first pass over the jobs; later passes can add
    heap fragmentation, and how many of them fit depends on the host.
    """
    times = [[] for _ in jobs]
    failed = 0
    peak_rss_mb = None
    started = time.perf_counter()
    for i in itertools.count():
        if i >= len(jobs) and time.perf_counter() - started >= seconds:
            break
        took, ok = run_job(jobs[i % len(jobs)], clock=host.clock)
        times[i % len(jobs)].append(took)
        failed += not ok
        if i == len(jobs) - 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return times, failed, peak_rss_mb


def run_workload(workload, seed, seconds, trace, size="ref"):
    """Run one workload in this process: (result object, tracer or None, job runs)."""
    load_program()
    import layers
    import workloads
    from spans import Tracer

    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = None if trace else measure_setup()
        jobs = workloads.build(workload, seed, size, work)
        with HostSpeed() as host:
            times, failed, peak_rss_mb = run_untraced(jobs, seconds, host)
        attempted = sum(map(len, times))
        medians = [statistics.median(t) for t in times]
        raw_wall_s = sum(medians)

        if not trace:
            metrics = {"wall_s": (host.at_reference_speed(raw_wall_s), "s"),
                       "setup_s": (setup_s, "s"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}
            spans = None
        else:
            tracer = Tracer()
            layers.instrument(tracer)
            try:
                with tracer.span("bench.pass"):
                    for job in jobs:
                        failed += not run_job(job, tracer)[1]
            finally:
                tracer.restore()
            attempted += len(jobs)
            steps, moves = workloads.walker_work(jobs)
            metrics = layers.layer_metrics(tracer, steps, moves)
            root = tracer.spans[0].duration
            metrics["trace.wall_s"] = (root, "s")
            # wall_s leaves out the checks, which are bench.pass's own time
            traced = root - metrics["bench.self_s"][0]
            metrics["trace.overhead_ratio"] = (traced / raw_wall_s - 1.0, "ratio")
            metrics["raw.wall_s"] = (raw_wall_s, "s")
            metrics["host.calibration_s"] = (statistics.fmean(host.samples), "s")
            for label in LABELS:
                label_s = sum(m for m, job in zip(medians, jobs) if job.label == label)
                metrics[f"{label}_s"] = (host.at_reference_speed(label_s), "s")
            spans = tracer
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, spans, attempted


def run_one(args):
    os.environ.update(SINGLE_THREAD)  # before numpy is first imported
    load_program()
    env = environment()
    result, tracer, job_runs = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                            args.size)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.json").write_text(
        json.dumps({"environment": env, "job_runs": job_runs, **result}, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(out / f"{stem}-spans.json")
    print(json.dumps({"environment": env, "job_runs": job_runs}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own fresh process; a table by metric name and unit."""
    code = 0
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        summary[workload] = result
        error_rate = result["failed"] / result["attempted"]
        print(f"{workload}: {result['attempted']} jobs, error_rate {error_rate:g}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
        code = code or int(not result["correct"])
    print(json.dumps(summary))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="start jobs until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("ref", "tiny"), default="ref",
                        help="tiny: the same jobs at toy sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
