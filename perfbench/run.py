"""Benchmark of the entrain package: three workloads, timed end to end, and a
traced run that times each module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dichotomy --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``perfbench/README.md`` says what each means and which should move
which. The package is imported from ``src/`` of the same checkout. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance. A readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5


def import_package():
    """Import ``entrain`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "entrain" / "__init__.py").is_file():
        sys.exit(f"error: no entrain package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import entrain

    if Path(entrain.__file__).resolve().parent != (SRC / "entrain").resolve():
        sys.exit(f"error: entrain imported from {entrain.__file__}, not {SRC}")


def declared_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, as
    BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_seconds(names) -> float:
    """Median time for a fresh interpreter to import entrain and build the
    workload's systems."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "from entrain import scenarios; "
            + "; ".join(f"scenarios.build_system({n!r})" for n in names))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return median(times)


class Tally:
    """Operations attempted and failed over the run, with the messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []


def timed_pass(workload, tally: Tally) -> tuple[float, float]:
    """Run one pass; return its wall and CPU seconds. The output check runs
    after the clock stops."""
    c0 = cpu_seconds()
    t0 = perf_counter()
    try:
        out = workload.run_pass()
    except Exception:  # a failing pass is counted, and the run goes on
        out, error = None, traceback.format_exc()
    else:
        error = None
    wall = perf_counter() - t0
    cpu = cpu_seconds() - c0
    tally.attempted += workload.ops
    if error is not None:
        tally.failures += [f"pass raised:\n{error}"] * workload.ops
    else:
        tally.failures += workload.check(out)
    return wall, cpu


def end_to_end(workload, seconds: float, tally: Tally) -> dict[str, float]:
    """Passes until the next one would overrun ``seconds``; medians."""
    workload.prepare()
    walls, cpus = [], []
    start = perf_counter()
    while True:
        wall, cpu = timed_pass(workload, tally)
        walls.append(wall)
        cpus.append(cpu)
        if perf_counter() - start + median(walls) > seconds:
            break
    rss = peak_rss_mb()  # before the set-up interpreters become children
    print(f"{len(walls)} passes, wall s: " + " ".join(f"{w:.3f}" for w in walls),
          file=sys.stderr)
    return {
        "wall_s": median(walls),
        "cpu_s": median(cpus),
        "setup_s": setup_seconds(workload.scenarios),
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - len(tally.failures) / tally.attempted,
    }


def per_layer(workload, seconds: float, tally: Tally, work_dir: Path,
              smoke: bool) -> tuple[dict[str, float], list[str]]:
    """Untraced and traced passes in turn, then per-layer medians over the
    traced passes. Also returns the tracer's own accounting failures."""
    import layers
    import spans

    metrics = layers.measure(workload.scenarios, 0.05 if smoke else 1.0)
    trace_dir = work_dir / "spans"
    trace_dir.mkdir()
    tracer = spans.Tracer(trace_dir)
    plain, traced, extras = [], {}, {}
    start = perf_counter()
    op = 0
    while True:
        workload.prepare()
        plain.append(timed_pass(workload, tally)[0])
        op += 1
        tracer.install()
        try:
            workload.prepare()
            tracer.op = op
            traced[op] = timed_pass(workload, tally)[0]
        finally:
            tracer.op = 0
            tracer.uninstall()
        extras[op] = workload.trace_extras()
        if perf_counter() - start + plain[-1] + traced[op] > seconds:
            break
    tracer.flush()

    by_op = {op: [] for op in traced}
    for span in spans.load_spans(trace_dir):
        if span.op in by_op:
            by_op[span.op].append(span)
    passes = []
    for op, wall in traced.items():
        row = spans.pass_metrics(by_op[op], wall, workload.jobs, tracer.main_pid)
        row.update(extras[op])
        row["cli.csv_mb_per_s"] = (row["cli.csv_bytes"] / 1e6 / row["cli.write_s"]
                                   if row["cli.write_s"] > 0 else 0.0)
        passes.append(row)
    for name in passes[0]:
        metrics[name] = median(row[name] for row in passes)
    overhead = median(traced.values()) / median(plain) - 1.0
    metrics["trace.overhead_frac"] = overhead

    problems = []
    slack = max(abs(overhead), 0.01)
    if not abs(metrics["trace.self_sum_frac"] - 1.0) <= slack:
        problems.append(f"layer self times add up to {metrics['trace.self_sum_frac']:.4f} "
                        f"of the traced wall time, off by more than {slack:.4f}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    prov = provenance(args.seed)
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke,
                                            work_dir=work_dir)
        tally = Tally()
        problems = []
        if args.trace:
            values, problems = per_layer(workload, args.seconds, tally,
                                         work_dir, args.smoke)
        else:
            values = end_to_end(workload, args.seconds, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    failed = len(tally.failures)
    for message in tally.failures + problems:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{'fail_frac':32s} {failed / tally.attempted:.6g} fraction", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
