"""End-to-end acceptance checks.

Each test pins one headline guarantee of the package at its stated
tolerance: the settle-vs-chaos dichotomy on both bundled demo systems, the
Monte Carlo sweep statistics, the Lorenz Lyapunov benchmark, the front-end
transfer-function values, the structural property suite, and byte-level
reproducibility of CLI artifacts.
"""

import time

import numpy as np
import pytest

from entrain.blocks import (
    Saturation,
    VectorField,
    compose_autonomous,
    compose_cascade,
    compose_example1,
    compose_example2,
    filter_one,
    lorenz_field,
)
from entrain import run_from_manifest
from entrain.cli import main
from entrain.diagnostics import classify_response, lyapunov_max, monte_carlo, tail_stats
from entrain.lti import transfer_eval
from entrain.scenarios import build_reference_system, build_system
from entrain.signals import Constant, Sinusoid
from entrain.solver import IntegratorConfig, integrate

U_NONE = Constant(0.0)


def test_dichotomy_example1_constant_vs_periodic():
    # same system, same start: a constant input settles while u = sin t
    # keeps a positive largest Lyapunov exponent
    sys1 = build_system("example1")
    x0 = np.array([5.0, 0.0, 1.0, 0.0, 0.0])

    t0 = time.perf_counter()
    rec_const = classify_response(sys1, Constant(10.0), x0, ss_horizon=100.0)
    t_const = time.perf_counter() - t0
    assert rec_const.steady.converged
    assert rec_const.steady.max_component_variation < 1e-5
    assert rec_const.verdict == "steady_state"
    assert t_const < 10.0

    t0 = time.perf_counter()
    rec_sin = classify_response(sys1, Sinusoid(), x0)
    t_sin = time.perf_counter() - t0
    assert not rec_sin.steady.converged
    assert rec_sin.lyapunov.lambda_max > 0.05
    assert t_sin < 10.0


def test_dichotomy_example2_constant_vs_periodic():
    sys2 = build_system("example2")  # K = 1e-4
    x0 = np.array([2.95, -0.98, 0.94, -4.07, 4.89])
    zi = list(sys2.z)

    rec_const = classify_response(sys2, Constant(5.13), x0)
    assert rec_const.steady.converged
    assert np.linalg.norm(rec_const.steady.final_state[zi]) < 1e-3
    assert tail_stats(rec_const.trajectory, "p").mean < 0.05

    rec_sin = classify_response(sys2, Sinusoid(), x0)
    assert tail_stats(rec_sin.trajectory, "p").mean > 0.9
    assert rec_sin.verdict != "steady_state"


def test_monte_carlo_sweep_verdict_distribution():
    t0 = time.perf_counter()
    rows = monte_carlo("example2", 20, seed=42, jobs=4)
    elapsed = time.perf_counter() - t0

    assert len(rows) == 20
    zi = list(build_system("example2").z)
    assert all(r.verdict_const == "steady_state" for r in rows)
    assert all(np.linalg.norm(r.final_state_const[zi]) < 1e-3 for r in rows)
    assert sum(r.verdict_sin != "steady_state" for r in rows) >= 18
    assert elapsed < 300.0


def test_lorenz_lyapunov_benchmark():
    sys_l, x0 = build_reference_system("lorenz")
    estimates = [
        lyapunov_max(sys_l, U_NONE, np.array(x0), renorm_dt=dt)
        for dt in (0.25, 0.5)
    ]
    for est in estimates:
        assert est.lambda_max == pytest.approx(0.906, abs=0.1)
    assert len({np.sign(e.lambda_max) for e in estimates}) == 1
    assert abs(estimates[0].lambda_max - estimates[1].lambda_max) < 0.15


def test_front_end_transfer_function_values():
    f = filter_one()
    assert abs(transfer_eval(f, 0.0)) < 1e-12
    gain = abs(transfer_eval(f, 1j))
    assert gain == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    assert round(gain, 5) == 0.70711


def test_structural_property_suite():
    rng = np.random.default_rng(90210)

    # saturation: in [0, 1), even, monotone in |y| -- 1e4 samples per K
    for K in (1e-4, 0.1, 1.0):
        sat = Saturation(K)
        y = rng.uniform(-100.0, 100.0, size=10_000)
        vals = np.array([sat(v) for v in y])
        assert np.all((vals >= 0.0) & (vals < 1.0))
        mirrored = np.array([sat(-v) for v in y])
        np.testing.assert_array_equal(vals, mirrored)
        ordered = np.array([sat(v) for v in np.sort(np.abs(y))])
        assert np.all(np.diff(ordered) >= 0.0)

    # scaling a field by a constant reparameterizes time: endpoints of
    # z' = c f(z) over [0, T] and z' = f(z) over [0, cT] agree within
    # 10x the integrator tolerance
    cfg = IntegratorConfig()
    f = lorenz_field()
    c = 0.5
    z0 = np.array([1.0, 1.0, 1.0])
    scaled = compose_autonomous(VectorField(3, lambda z: [c * v for v in f.rhs(z)]))
    plain = compose_autonomous(f)
    for T in (2.0, 5.0, 10.0):
        a = integrate(scaled, U_NONE, z0, (0.0, T), cfg,
                      output_grid=np.array([T])).final_state
        b = integrate(plain, U_NONE, z0, (0.0, c * T), cfg,
                      output_grid=np.array([c * T])).final_state
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(a), np.abs(b))
        assert np.max(np.abs(a - b) / scale) < 10.0

    # the general composition with the bundled blocks IS example1, bit for bit
    g = compose_cascade(filter_one(), Saturation(0.1), lorenz_field())
    e1 = compose_example1()
    for _ in range(100):
        state = rng.uniform(-10.0, 10.0, size=5)
        u = float(rng.uniform(-10.0, 10.0))
        np.testing.assert_array_equal(g.rhs(0.0, state, u), e1.rhs(0.0, state, u))

    # the interpolated demo system's rest point at the origin is exact
    e2 = compose_example2()
    np.testing.assert_array_equal(e2.rhs(0.0, np.zeros(5), 0.0), np.zeros(5))


def test_manifest_reproducibility(tmp_path):
    args = ["simulate", "--scenario", "example2", "--input", "sin:1:1",
            "--t-end", "10", "--grid-step", "0.05"]
    d1, d2, d3, d4 = (tmp_path / n for n in ("a", "b", "c", "d"))
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    csv1 = (d1 / "trajectory.csv").read_bytes()
    assert csv1 == (d2 / "trajectory.csv").read_bytes()

    run_from_manifest(d1 / "manifest.json", out_dir=d3)
    run_from_manifest(d1 / "manifest.json", out_dir=d4)
    assert (d3 / "trajectory.csv").read_bytes() == csv1
    assert (d4 / "trajectory.csv").read_bytes() == csv1
