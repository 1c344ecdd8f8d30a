"""The benchmark's workloads: inputs drawn from the seed, one closed-loop
pass through the package's public functions, and the check of its output.

Each workload is one client that starts an operation only when the previous
one has returned. A pass attempts ``ops`` operations; ``check`` returns a
message for each one whose output was wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from pathlib import Path

import numpy as np

from entrain import cli, diagnostics, scenarios
from entrain.signals import Constant, Sinusoid
from entrain.solver import IntegratorConfig

STEADY = "steady_state"
CHAOTIC = "chaotic_like"
# Largest exponent tolerance: the repo's acceptance tolerance for Lorenz.
LAMBDA_TOL = 0.1
# Largest steady-tail variation a constant leg may show.
VARIATION_MAX = 1e-5


def _sin_failures(label, verdict, lam, reference):
    if verdict != CHAOTIC:
        return [f"{label}: verdict {verdict}, expected {CHAOTIC}"]
    if reference is not None and not abs(lam - reference) <= LAMBDA_TOL:
        return [f"{label}: lambda_max {lam:.4f} not within {LAMBDA_TOL} of {reference}"]
    return []


class Workload:
    """Defaults shared by the workloads."""

    jobs = 1

    def prepare(self) -> None:
        """Build what every pass reuses; runs again when tracing starts."""

    def trace_extras(self) -> dict[str, float]:
        return {"cli.csv_bytes": 0.0}


class Dichotomy(Workload):
    """``classify_response`` on example1 from the reference x0, under a
    seeded constant input and then under ``sin t``."""

    name = "dichotomy"
    scenarios = ("example1",)
    ops = 2
    # lambda_max of the sin t leg at the commit that defined the benchmark.
    LAMBDA_SIN = 0.5478

    def __init__(self, seed: int, smoke: bool = False, work_dir: Path | None = None):
        self.level = float(np.random.default_rng(seed).uniform(-10.0, 10.0))
        self.x0 = np.array(scenarios.default_spec("example1").x0, dtype=float)
        if smoke:
            self.const_opts = {"ss_horizon": 30.0}
            self.sin_opts = {"ss_horizon": 20.0,
                             "lyapunov_opts": {"transient": 10.0, "horizon": 60.0}}
            self.lambda_ref = None  # a short run does not reach the long-run value
        else:
            self.const_opts = {"ss_horizon": 100.0}
            self.sin_opts = {}
            self.lambda_ref = self.LAMBDA_SIN
        self.sys = None

    def prepare(self) -> None:
        self.sys = scenarios.build_system("example1")

    def run_pass(self):
        const = diagnostics.classify_response(
            self.sys, Constant(self.level), self.x0, **self.const_opts)
        sin = diagnostics.classify_response(
            self.sys, Sinusoid(), self.x0, **self.sin_opts)
        return const, sin

    def check(self, out) -> list[str]:
        const, sin = out
        failures = []
        variation = const.steady.max_component_variation if const.steady else math.inf
        if const.verdict != STEADY or not variation < VARIATION_MAX:
            failures.append(f"const {self.level:g}: verdict {const.verdict}, "
                            f"variation {variation:.3g}")
        lam = sin.lyapunov.lambda_max if sin.lyapunov else math.nan
        failures += _sin_failures("sin", sin.verdict, lam, self.lambda_ref)
        return failures


class Sweep(Workload):
    """``monte_carlo`` on example2 across one worker process per core."""

    name = "sweep"
    scenarios = ("example2",)
    # lambda_max of example2 under sin t; over random x0 it read 0.870-0.915
    # at the commit that defined the benchmark.
    LAMBDA_SIN = 0.89

    def __init__(self, seed: int, smoke: bool = False, work_dir: Path | None = None):
        self.seed = seed
        self.jobs = len(os.sched_getaffinity(0))
        self.n = 1 if smoke else 2
        self.ops = 2 * self.n
        self.cfg = (IntegratorConfig(rel_tol=1e-5, abs_tol=1e-7) if smoke
                    else IntegratorConfig())

    def run_pass(self):
        return diagnostics.monte_carlo("example2", self.n, self.seed,
                                       cfg=self.cfg, jobs=self.jobs)

    def check(self, rows) -> list[str]:
        failures = []
        for row in rows:
            # A row carries the constant leg's verdict but not its tail
            # variation; the verdict's rule bounds the relative variation.
            final = row.final_state_const
            if row.verdict_const != STEADY or final is None or not np.all(np.isfinite(final)):
                failures.append(f"sample {row.sample} const {row.u0:g}: "
                                f"verdict {row.verdict_const}")
            failures += _sin_failures(f"sample {row.sample} sin", row.verdict_sin,
                                      row.lambda_sin, self.LAMBDA_SIN)
        return failures


class SimulateCsv(Workload):
    """``entrain simulate`` in-process: a seeded constant input on example1,
    integrated to t=1000 and written on a 0.01 grid."""

    name = "simulate-csv"
    scenarios = ("example1",)
    ops = 1
    GRID_STEP = 0.01

    def __init__(self, seed: int, smoke: bool = False, work_dir: Path | None = None):
        level = float(np.random.default_rng(seed).uniform(-10.0, 10.0))
        self.t_end = 20.0 if smoke else 1000.0
        out_dir = Path(work_dir) / "simulate"
        self.csv_path = out_dir / "trajectory.csv"
        self.argv = ["simulate", "--scenario", "example1",
                     "--input", f"const:{level:.6f}",
                     "--t-end", f"{self.t_end:g}",
                     "--grid-step", f"{self.GRID_STEP:g}",
                     "--out-dir", str(out_dir)]
        self.digest = None

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, code) -> list[str]:
        if code != 0:
            return [f"entrain simulate exited with {code}"]
        # Streamed, so that the check adds little to the peak RSS.
        digest = hashlib.sha256()
        with open(self.csv_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        if self.digest is None:
            failure = self._check_rows()
            if failure:
                return [failure]
            self.digest = digest.digest()
        elif digest.digest() != self.digest:
            return ["trajectory.csv differs from the first pass"]
        return []

    def _check_rows(self) -> str | None:
        rows = 0
        with open(self.csv_path) as fh:
            fh.readline()  # header
            for line in fh:
                values = [float(v) for v in line.split(",")]
                if len(values) != 6 or not all(map(math.isfinite, values)):
                    return f"trajectory.csv row {rows + 1} is not 6 finite values"
                rows += 1
        expected = round(self.t_end / self.GRID_STEP) + 1
        if rows != expected:
            return f"trajectory.csv has {rows} rows, expected {expected}"
        return None

    def trace_extras(self) -> dict[str, float]:
        return {"cli.csv_bytes": float(self.csv_path.stat().st_size)}


WORKLOADS = {w.name: w for w in (Dichotomy, Sweep, SimulateCsv)}
