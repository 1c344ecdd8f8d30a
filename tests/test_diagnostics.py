import json

import numpy as np
import pytest

from entrain.blocks import (
    ComposedSystem,
    VectorField,
    compose_autonomous,
    compose_example1,
    compose_example2,
)
from entrain.diagnostics import (
    classify_response,
    detect_steady_state,
    lyapunov_max,
    monte_carlo,
    tail_stats,
)
from entrain.signals import Constant, Sinusoid
from entrain.solver import IntegratorConfig, Trajectory, integrate

DECAY = compose_autonomous(VectorField(1, lambda z: -z), "decay")
U0 = Constant(0.0)


def make_traj(times, states, names=("a", "b")):
    states = np.asarray(states, dtype=float)
    return Trajectory(np.asarray(times, dtype=float), states,
                      tuple(names[: states.shape[1]]))


# ---------------------------------------------------------------- steady state

def test_constant_trajectory_converged_with_zero_variation():
    times = np.linspace(0.0, 50.0, 501)
    states = np.tile([2.0, -3.0], (501, 1))
    rep = detect_steady_state(make_traj(times, states))
    assert rep.converged
    assert rep.max_component_variation == 0.0
    assert rep.velocity_norm_at_end == 0.0
    assert rep.tail_window == (40.0, 50.0)


def test_oscillating_trajectory_not_converged():
    times = np.linspace(0.0, 50.0, 2001)
    states = np.stack([np.sin(times), np.cos(times)], axis=1)
    rep = detect_steady_state(make_traj(times, states))
    assert not rep.converged
    assert rep.max_component_variation > 1.0


def test_relative_epsilon_tolerates_large_equilibria():
    # variation 5e-5 around a level of 10 is within eps*(1+|mean|) for
    # eps=1e-5, but the same wiggle around 0 is not
    times = np.linspace(0.0, 50.0, 501)
    wiggle = 2.5e-5 * np.sin(times)
    rep_big = detect_steady_state(make_traj(times, (10.0 + wiggle)[:, None], ("a",)))
    rep_small = detect_steady_state(make_traj(times, wiggle[:, None], ("a",)))
    assert rep_big.converged
    assert not rep_small.converged


def test_short_trajectory_rejected():
    times = np.linspace(0.0, 5.0, 100)
    with pytest.raises(ValueError):
        detect_steady_state(make_traj(times, np.zeros((100, 1)), ("a",)))


def test_tail_fraction_validated():
    times = np.linspace(0.0, 50.0, 100)
    traj = make_traj(times, np.zeros((100, 1)), ("a",))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            detect_steady_state(traj, tail_fraction=bad)


def test_shrinking_tail_window_never_increases_variation():
    sys = compose_example1()
    grid = np.arange(0.0, 100.0 + 0.005, 0.05)
    traj = integrate(sys, Constant(10.0), np.array([5.0, 0.0, 1.0, 0.0, 0.0]),
                     (0.0, 100.0), output_grid=grid)
    wide = detect_steady_state(traj, tail_fraction=0.2)
    narrow = detect_steady_state(traj, tail_fraction=0.1)
    assert wide.converged
    assert narrow.max_component_variation <= wide.max_component_variation


# ------------------------------------------------------------------ tail stats

def test_tail_stats_of_known_signal():
    times = np.linspace(0.0, 100.0, 10001)
    states = np.stack([np.sin(times), np.full_like(times, 4.0)], axis=1)
    ts = tail_stats(make_traj(times, states, ("s", "c")), "c")
    assert ts.mean == 4.0 and ts.min == 4.0 and ts.max == 4.0
    assert ts.window == (80.0, 100.0)
    ts2 = tail_stats(make_traj(times, states, ("s", "c")), "s")
    assert ts2.min <= ts2.mean <= ts2.max
    assert ts2.min == pytest.approx(-1.0, abs=1e-3)
    assert ts2.max == pytest.approx(1.0, abs=1e-3)


def test_tail_stats_unknown_variable():
    times = np.linspace(0.0, 50.0, 100)
    traj = make_traj(times, np.zeros((100, 1)), ("a",))
    with pytest.raises(KeyError):
        tail_stats(traj, "q")
    with pytest.raises(ValueError):
        tail_stats(traj, "a", window_fraction=0.0)


def test_constant_input_drives_p_to_zero():
    # the front-end zero at s=0 starves the lag, so p's tail collapses
    for sys, x0 in ((compose_example1(), [5.0, 0.0, 1.0, 0.0, 0.0]),
                    (compose_example2(), [2.95, -0.98, 0.94, -4.07, 4.89])):
        grid = np.arange(0.0, 100.0 + 0.005, 0.05)
        traj = integrate(sys, Constant(3.7), np.array(x0), (0.0, 100.0),
                         output_grid=grid)
        assert tail_stats(traj, "p").max < 1e-3


# -------------------------------------------------------------------- lyapunov

def test_lyapunov_of_linear_decay_is_minus_one():
    est = lyapunov_max(DECAY, U0, np.array([1.0]))
    assert est.lambda_max == pytest.approx(-1.0, abs=0.05)
    assert est.renorm_count >= 50
    assert est.renorm_interval == 0.5
    assert est.perturbation_size == 1e-8


def test_lyapunov_preconditions():
    with pytest.raises(ValueError):
        lyapunov_max(DECAY, U0, np.array([1.0]), horizon=30.0)  # < 100 intervals
    with pytest.raises(ValueError):
        lyapunov_max(DECAY, U0, np.array([1.0]), d0=0.0)
    with pytest.raises(ValueError):
        lyapunov_max(DECAY, U0, np.array([1.0]), renorm_dt=-0.5)
    with pytest.raises(ValueError):
        lyapunov_max(DECAY, U0, np.array([1.0]), transient=500.0)


def test_lyapunov_needs_a_z_block():
    calls = []

    def rhs(t, state, u):
        calls.append(t)
        return -state

    no_z = ComposedSystem(rhs, {"x": (0,)}, ("x",), "no-z")
    with pytest.raises(ValueError, match="no 'z' block"):
        lyapunov_max(no_z, U0, np.array([1.0]))
    assert calls == []  # rejected before integrating
    with pytest.raises(ValueError, match="no 'z' block"):
        classify_response(no_z, U0, np.array([1.0]), always_lyapunov=True)


def test_lyapunov_insufficient_events():
    # horizon admits 100 renormalizations but the transient eats all but 10
    with pytest.raises(ValueError, match="renormalization events"):
        lyapunov_max(DECAY, U0, np.array([1.0]), transient=395.0)


# -------------------------------------------------------------------- verdicts

def test_verdict_steady_for_settling_system():
    assert classify_response(DECAY, U0, np.array([5.0])).verdict == "steady_state"


def test_verdict_oscillation_for_harmonic_oscillator():
    # a neutral center: never settles, exponent indistinguishable from 0
    osc = compose_autonomous(VectorField(2, lambda z: np.array([z[1], -z[0]])),
                             "osc")
    rec = classify_response(osc, U0, np.array([1.0, 0.0]))
    assert rec.verdict == "sustained_oscillation"
    assert abs(rec.lyapunov.lambda_max) <= 0.05
    assert not rec.steady.converged


def test_verdict_inconclusive_when_tail_moves_but_exponent_negative():
    # slow decay: still visibly moving at the detection horizon while the
    # exponent reads clearly negative
    slow = compose_autonomous(VectorField(1, lambda z: -0.2 * z), "slow")
    rec = classify_response(slow, U0, np.array([10.0]), ss_horizon=20.0)
    assert not rec.steady.converged
    assert rec.lyapunov.lambda_max < -0.05
    assert rec.verdict == "inconclusive"


def test_verdict_divergence_instead_of_crash():
    blow = compose_autonomous(VectorField(1, lambda z: z * z), "blowup")
    rec = classify_response(blow, U0, np.array([1.0]), ss_horizon=20.0)
    assert rec.verdict == "divergence"
    assert rec.lyapunov is None


def test_classify_skips_lyapunov_when_converged():
    rec = classify_response(DECAY, U0, np.array([5.0]))
    assert rec.verdict == "steady_state"
    assert rec.lyapunov is None
    assert rec.steady.converged


def test_collapsed_perturbation_leaves_verdict_to_steady_state_test():
    # -100 (z - 1) snaps both copies onto z = 1 bitwise, so the separation
    # becomes exactly zero and no exponent can be measured
    snap = compose_autonomous(VectorField(1, lambda z: -100.0 * (z - 1.0)), "snap")
    with pytest.raises(ValueError, match="collapsed"):
        lyapunov_max(snap, U0, np.array([5.0]))
    rec = classify_response(snap, U0, np.array([5.0]), always_lyapunov=True)
    assert rec.verdict == "steady_state"
    assert rec.lyapunov is None
    assert rec.steady.converged
    # same collapse, but a second component drifts forever: no verdict
    drift = compose_autonomous(
        VectorField(2, lambda z: np.array([-100.0 * (z[0] - 1.0), 1.0])), "drift")
    rec = classify_response(drift, U0, np.array([5.0, 0.0]))
    assert rec.verdict == "inconclusive"
    assert rec.lyapunov is None
    assert not rec.steady.converged
    # argument errors are still the caller's to see
    with pytest.raises(ValueError, match="d0"):
        classify_response(snap, U0, np.array([5.0]), always_lyapunov=True,
                          lyapunov_opts={"d0": -1})


# ----------------------------------------------------------------- monte carlo

def test_monte_carlo_rejects_empty_sweep():
    with pytest.raises(ValueError):
        monte_carlo("example2", 0)
    with pytest.raises(ValueError):
        monte_carlo("example2", 2, sample_range=(3.0, 3.0))
    with pytest.raises(KeyError):
        monte_carlo("no-such-scenario", 1)


def test_monte_carlo_row_shape_and_reproducibility():
    a = monte_carlo("example2", 1, seed=7)
    b = monte_carlo("example2", 1, seed=7)
    assert len(a) == 1
    row, again = a[0], b[0]
    assert row.u0 == again.u0
    assert np.array_equal(row.x0, again.x0)
    assert row.verdict_const == again.verdict_const
    assert row.verdict_sin == again.verdict_sin
    d = row.to_json_dict()
    assert sorted(d) == ["lambda_const", "lambda_sin", "p_tail_mean_const",
                         "p_tail_mean_sin", "sample", "u0", "verdict_const",
                         "verdict_sin", "x0"]
    json.dumps(d)  # must be serializable as-is
    assert -10.0 <= row.u0 <= 10.0
    assert np.all((row.x0 >= -10.0) & (row.x0 <= 10.0))


def test_monte_carlo_parallel_matches_serial():
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    serial = monte_carlo("example2", 2, seed=3, cfg=cfg, jobs=1)
    parallel = monte_carlo("example2", 2, seed=3, cfg=cfg, jobs=2)
    for r1, r2 in zip(serial, parallel):
        assert r1.sample == r2.sample
        assert r1.u0 == r2.u0
        assert np.array_equal(r1.x0, r2.x0)
        assert r1.verdict_const == r2.verdict_const
        assert r1.verdict_sin == r2.verdict_sin
        assert r1.lambda_sin == r2.lambda_sin


def test_monte_carlo_draws_stable_under_growing_n():
    # sample i's draw must not depend on how many samples follow it
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8)
    one = monte_carlo("example2", 1, seed=11, cfg=cfg)
    two = monte_carlo("example2", 2, seed=11, cfg=cfg)
    assert one[0].u0 == two[0].u0
    assert np.array_equal(one[0].x0, two[0].x0)
