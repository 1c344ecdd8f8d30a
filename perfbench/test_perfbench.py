"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import spans  # noqa: E402  (needs entrain on the path)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(id, start, end, parent=None, pid=1, name="x", **extra):
    return spans.Span(id, name, start, end, parent, 1, pid, **extra)


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(2, 5), (0, 3), (1, 2)]) == 5.0
    assert spans.union_length([(0, 4), (4, 6)]) == 6.0


def test_self_time_on_synthetic_tree():
    # root [0, 10] in pid 1 holds a child A [1, 4] (itself holding C [2, 3]
    # and 1.5 s of RHS and input time) and two overlapping children in
    # worker processes, D [5, 9] and E [6, 10].
    tree = [
        span("r", 0.0, 10.0),
        span("a", 1.0, 4.0, "r", rhs_s=1.0, input_s=0.5),
        span("c", 2.0, 3.0, "a"),
        span("d", 5.0, 9.0, "r", pid=2),
        span("e", 6.0, 10.0, "r", pid=3),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({"r": 2.0, "a": 0.5, "c": 1.0, "d": 4.0, "e": 4.0})
    # pid 1 self times (2 + 0.5 + 1.5 + 1) plus worker cover [5, 10] = wall.
    row = spans.pass_metrics(tree, wall=10.0, jobs=2, main_pid=1)
    assert row["trace.self_sum_frac"] == pytest.approx(1.0)


def test_pass_metrics_on_synthetic_sweep():
    tree = [
        span("mc", 0.0, 10.0, name="diagnostics.monte_carlo"),
        span("l1", 0.5, 5.0, "mc", pid=2, name="diagnostics.classify"),
        span("l2", 0.5, 9.0, "mc", pid=3, name="diagnostics.classify"),
        span("ly", 1.0, 4.0, "l1", pid=2, name="diagnostics.lyapunov"),
        span("i1", 1.0, 2.0, "ly", pid=2, name="solver.integrate",
             rhs_n=10, rhs_s=0.4, input_n=10, input_s=0.1, rows=1),
        span("i2", 2.0, 3.5, "ly", pid=2, name="solver.integrate",
             rhs_n=10, rhs_s=0.5, rows=1),
    ]
    row = spans.pass_metrics(tree, wall=10.0, jobs=2, main_pid=1)
    assert row["diagnostics.mc_legs"] == 2
    assert row["diagnostics.mc_busy_frac"] == pytest.approx((4.5 + 8.5) / 20.0)
    assert row["diagnostics.lyapunov_windows"] == 2
    assert row["diagnostics.lyapunov_self_s"] == pytest.approx(0.5)
    assert row["solver.integrate_calls"] == 2
    assert row["solver.self_s"] == pytest.approx(0.5 + 1.0)
    assert row["solver.us_per_stage"] == pytest.approx(1.5 / 20 * 1e6)
    assert row["blocks.rhs_calls"] == 20
    assert row["solver.grid_rows"] == 2
    # Dispatch self time [0, 0.5] and [9, 10] plus worker cover [0.5, 9].
    assert row["trace.self_sum_frac"] == pytest.approx(1.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "dichotomy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
