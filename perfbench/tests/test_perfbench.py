"""Tests of the benchmark itself, at toy sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from host import CALIBRATION_REF_S, HostSpeed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the layer each workload exists for must show work in its traced run
EXERCISED = {
    "reference": ("kernels.walker_moves", "walkers.steps", "kernels.bfs_edges_scanned",
                  "network.edges_generated", "io.read.bytes"),
    "small_batch": ("kernels.rk4_steps", "kernels.amplitude_steps", "maxent.fit_lambda.nfev",
                    "maxent.gamma0.points", "io.write.bytes"),
}


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    proc = run_cli("--workload", "small_batch", "--seed", "5", "--seconds", "0",
                   "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_accounts_for_wall_time(workload):
    result, tracer, _ = run.run_workload(workload, seed=7, seconds=0, trace=1, size="tiny")
    assert result["correct"], result
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["spans.errors"]["value"] == 0
    # self times of all spans add up to the traced pass
    assert sum(tracer.self_times()) == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    # wrappers are gone after the traced pass
    from multilogistic import kernels
    assert not hasattr(kernels.advance_walkers_seq, "__wrapped__")


def test_a_corrupt_output_file_counts_as_a_failed_job(monkeypatch):
    from multilogistic import io

    write_rank_table = io.write_rank_table

    def unsorted_rank_table(path, *args, **kwargs):
        write_rank_table(path, *args, **kwargs)
        header, *rows = Path(path).read_text().splitlines()
        pops = [r.split(",")[1] for r in rows][::-1]
        rows = [",".join([r.split(",")[0], p, *r.split(",")[2:]]) for r, p in zip(rows, pops)]
        Path(path).write_text("\n".join([header, *rows]) + "\n")

    monkeypatch.setattr(io, "write_rank_table", unsorted_rank_table)
    result, _, _ = run.run_workload("small_batch", seed=7, seconds=0, trace=0, size="tiny")
    # the two walkers jobs write rank.csv; every other job still passes
    assert result["failed"] == 2 and not result["correct"]
    assert result["attempted"] > result["failed"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_cli("--workload", "reference", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_samples_while_active_and_its_clock_leaves_the_samples_out():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        t0, c0 = time.perf_counter(), host.clock()
        while time.perf_counter() - t0 < 1.0:
            pass
        wall, clocked = time.perf_counter() - t0, host.clock() - c0
    assert signal.getsignal(signal.SIGALRM) is before
    inside = host.samples[1:-1]  # the first and last are taken on entry and exit
    assert len(inside) >= 3
    assert sum(inside) <= wall - clocked <= sum(inside) + 0.01
    assert host.at_reference_speed(2.0) == pytest.approx(
        2.0 * CALIBRATION_REF_S / statistics.fmean(host.samples))
