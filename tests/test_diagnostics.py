import json
import math
import time

import numpy as np
import pytest

from entrain import diagnostics, scenarios
from entrain.blocks import (
    ComposedSystem,
    Saturation,
    VectorField,
    compose_autonomous,
    compose_cascade,
    compose_example1,
    compose_example2,
    filter_one,
)
from entrain.diagnostics import (
    VERDICT_CHAOTIC,
    VERDICT_DIVERGENCE,
    VERDICT_INCONCLUSIVE,
    VERDICT_OSCILLATION,
    VERDICT_STEADY_STATE,
    classify_response,
    detect_steady_state,
    lyapunov_max,
    monte_carlo,
    tail_stats,
)
from entrain.scenarios import SCENARIO_IDS, build_system, default_spec
from entrain.signals import Constant, Sinusoid
from entrain.solver import IntegratorConfig, Trajectory, integrate, uniform_grid

DECAY = compose_autonomous(VectorField(1, lambda z: [-v for v in z]))
EXAMPLE_X0 = {"example1": [5.0, 0.0, 1.0, 0.0, 0.0],
              "example2": [2.95, -0.98, 0.94, -4.07, 4.89]}
U0 = Constant(0.0)
VERDICTS = {VERDICT_STEADY_STATE, VERDICT_OSCILLATION, VERDICT_CHAOTIC,
            VERDICT_INCONCLUSIVE, VERDICT_DIVERGENCE}


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


def test_constant_input_drives_p_to_zero():
    # the front-end zero at s=0 starves the lag, so p's tail collapses
    for sys, x0 in ((compose_example1(), [5.0, 0.0, 1.0, 0.0, 0.0]),
                    (compose_example2(), [2.95, -0.98, 0.94, -4.07, 4.89])):
        grid = np.arange(0.0, 100.0 + 0.005, 0.05)
        traj = integrate(sys, Constant(3.7), np.array(x0), (0.0, 100.0),
                         output_grid=grid)
        assert tail_stats(traj, "p").max < 1e-3


# -------------------------------------------------------------------- lyapunov

def test_lyapunov_max_bits_are_pinned():
    # The step, the error norm and the pair's separation sum in index order
    # on Python floats, so lambda rests only on IEEE arithmetic and libm's
    # sin, log and pow (the step controller's err ** -0.2 is a C pow() call):
    # no numpy blocking or BLAS kernel choice can move a bit.
    est = lyapunov_max(build_system("example1"), Sinusoid(), [5.0, 0.0, 1.0, 0.0, 0.0],
                       transient=10.0, horizon=60.0)
    assert est.lambda_max.hex() == "0x1.53a982f24ef40p-2"  # 0.33170132259305163


def test_lorenz_reference_lyapunov_bits_are_pinned():
    # the bare Lorenz field's own exponent, against which the paper's
    # "chaotic" reads; compose_autonomous writes its row out in the loop
    sys, x0 = scenarios.build_reference_system("lorenz")
    est = lyapunov_max(sys, Constant(0.0), x0, transient=10.0, horizon=60.0)
    assert est.lambda_max.hex() == "0x1.b15865a8d969ap-1"


def test_lyapunov_of_linear_decay_is_minus_one():
    est = lyapunov_max(DECAY, U0, np.array([1.0]))
    assert est.lambda_max == pytest.approx(-1.0, abs=0.05)
    assert est.renorm_count >= 50
    assert est.renorm_interval == 0.5
    assert est.perturbation_size == 1e-8


def test_lyapunov_of_constant_legs_is_exact():
    # example1's lag p decays to 0 and freezes z, so lambda -> 0; example2 at
    # p = 0 leaves a linear z block with eigenvalues -10, -1, -8/3
    est = lyapunov_max(compose_example1(), Constant(10.0),
                       np.array([5.0, 0.0, 1.0, 0.0, 0.0]))
    assert abs(est.lambda_max) < 1e-3
    est = lyapunov_max(compose_example2(), Constant(5.13),
                       np.array([2.95, -0.98, 0.94, -4.07, 4.89]))
    assert est.lambda_max == pytest.approx(-1.0, abs=1e-3)


def test_lyapunov_preconditions():
    with pytest.raises(ValueError):
        lyapunov_max(DECAY, U0, np.array([1.0]), horizon=30.0)  # < 100 intervals
    with pytest.raises(ValueError):
        lyapunov_max(DECAY, U0, np.array([1.0]), renorm_dt=-0.5)
    with pytest.raises(ValueError):
        lyapunov_max(DECAY, U0, np.array([1.0]), transient=500.0)


def test_lyapunov_needs_a_z_block():
    calls = []

    def rhs(t, state, u):
        calls.append(t)
        return [-v for v in state]

    no_z = ComposedSystem(rhs, ("x",))
    with pytest.raises(ValueError, match="no 'z' block"):
        lyapunov_max(no_z, U0, np.array([1.0]))
    assert calls == []  # rejected before integrating
    with pytest.raises(ValueError, match="no 'z' block"):
        classify_response(no_z, U0, np.array([1.0]), always_lyapunov=True)
    # a leg that would settle is rejected too, before its first step
    with pytest.raises(ValueError, match="no 'z' block"):
        classify_response(no_z, U0, np.array([1.0]))
    assert calls == []


def test_lyapunov_checks_x0_against_the_system():
    # the message names the system's size, not the size of the stacked pair
    sys = compose_example1()
    for x0 in ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError, match=r"x0 must have shape \(5,\)"):
            lyapunov_max(sys, U0, x0)
    with pytest.raises(ValueError, match="must be finite"):
        lyapunov_max(sys, U0, [np.nan, 0.0, 1.0, 0.0, 0.0])


def test_lyapunov_insufficient_events():
    # horizon admits 100 renormalizations but the transient eats all but 10
    with pytest.raises(ValueError, match="renormalization events"):
        lyapunov_max(DECAY, U0, np.array([1.0]), transient=395.0)


# -------------------------------------------------------------------- verdicts

def test_verdict_steady_for_settling_system():
    assert classify_response(DECAY, U0, np.array([5.0])).verdict == "steady_state"


def test_verdict_oscillation_for_harmonic_oscillator():
    # a neutral center: never settles, exponent indistinguishable from 0
    osc = compose_autonomous(VectorField(2, lambda z: [z[1], -z[0]]))
    rec = classify_response(osc, U0, np.array([1.0, 0.0]))
    assert rec.verdict == "sustained_oscillation"
    assert abs(rec.lyapunov.lambda_max) <= 0.05
    assert not rec.steady.converged
    # round-off on the center is far inside both boundaries
    assert rec.lyapunov.renorm_count < 600


def test_verdict_inconclusive_when_tail_moves_but_exponent_negative():
    # slow decay: still visibly moving at the detection horizon while the
    # exponent reads clearly negative
    slow = compose_autonomous(VectorField(1, lambda z: [-0.2 * v for v in z]))
    rec = classify_response(slow, U0, np.array([10.0]), ss_horizon=20.0)
    assert not rec.steady.converged
    assert rec.lyapunov.lambda_max < -0.05
    assert rec.verdict == "inconclusive"


def test_verdict_divergence_instead_of_crash():
    blow = compose_autonomous(VectorField(1, lambda z: [v * v for v in z]))
    rec = classify_response(blow, U0, np.array([1.0]), ss_horizon=20.0)
    assert rec.verdict == "divergence"
    assert rec.lyapunov is None


@pytest.mark.parametrize("signal", [Constant(3.0), Sinusoid()])
def test_negative_p0_crawl_reads_divergence_quickly(signal):
    # p < 0 runs example1's Lorenz block backward in time: the steps shrink
    # until the step budget ends the run, in well under a second
    x0 = np.array([5.0, -6.72, 1.0, 0.0, 0.0])
    start = time.perf_counter()
    rec = classify_response(compose_example1(), signal, x0)
    assert rec.verdict == "divergence"
    assert time.perf_counter() - start < 5.0


def test_classify_skips_lyapunov_when_converged():
    rec = classify_response(DECAY, U0, np.array([5.0]))
    assert rec.verdict == "steady_state"
    assert rec.lyapunov is None
    assert rec.steady.converged


def test_collapsed_perturbation_leaves_verdict_to_steady_state_test():
    # -100 (z - 1) snaps both copies onto z = 1 bitwise, so the separation
    # becomes exactly zero and no exponent can be measured
    snap = compose_autonomous(VectorField(1, lambda z: [-100.0 * (v - 1.0) for v in z]))
    with pytest.raises(ValueError, match="collapsed"):
        lyapunov_max(snap, U0, np.array([5.0]))
    rec = classify_response(snap, U0, np.array([5.0]), always_lyapunov=True)
    assert rec.verdict == "steady_state"
    assert rec.lyapunov is None
    assert rec.steady.converged
    # same collapse, but a second component drifts forever: no verdict
    drift = compose_autonomous(
        VectorField(2, lambda z: [-100.0 * (z[0] - 1.0), 1.0]))
    rec = classify_response(drift, U0, np.array([5.0, 0.0]))
    assert rec.verdict == "inconclusive"
    assert rec.lyapunov is None
    assert not rec.steady.converged
    # argument errors are still the caller's to see
    with pytest.raises(ValueError, match="renorm_dt"):
        classify_response(snap, U0, np.array([5.0]), always_lyapunov=True,
                          lyapunov_opts={"renorm_dt": -1.0})


@pytest.mark.parametrize("ss_horizon", [12.34, 30.03, 30.01])
def test_steady_state_grid_ends_at_the_horizon(ss_horizon):
    # 0.05 does not divide these horizons; the grid still ends exactly there
    x0 = np.array([5.0, 0.0, 1.0, 0.0, 0.0])
    rec = classify_response(build_system("example1"), Constant(1.0), x0,
                            ss_horizon=ss_horizon,
                            lyapunov_opts={"transient": 0.0, "horizon": 50.0})
    assert rec.verdict in VERDICTS
    times = rec.trajectory.times
    assert times[0] == 0.0 and times[-1] == ss_horizon
    assert np.all(np.diff(times) > 0)
    assert ss_horizon - times[-2] < 0.075


def test_field_that_raises_on_a_trial_step_gets_a_verdict():
    # -v ** 3 from 1e3 raises OverflowError on its first trial steps, which
    # the integrator rejects; the run itself decays smoothly
    cube = compose_autonomous(VectorField(1, lambda z: [-v ** 3 for v in z]))
    rec = classify_response(cube, U0, np.array([1e3]))
    assert rec.verdict in VERDICTS
    assert rec.verdict != "divergence"


@pytest.mark.parametrize("opts, error", [
    ({"ss_horizon": 5.0}, ValueError),
    ({"ss_horizon": float("nan")}, ValueError),
    ({"lyapunov_opts": {"renorm_dt": -1.0}}, ValueError),
    ({"lyapunov_opts": {"transient": 395.0}}, ValueError),
    ({"lyapunov_opts": {"bogus_key": 1}}, TypeError),
])
def test_classify_checks_its_arguments_before_any_step(opts, error):
    # DECAY settles, so before these checks ran up front a settling leg
    # never read lyapunov_opts and returned steady_state
    calls = []

    def rhs(t, state, u):
        calls.append(t)
        return [-v for v in state]

    decay = ComposedSystem(rhs, ("z",), z=(0,))
    with pytest.raises(error):
        classify_response(decay, U0, np.array([5.0]), **opts)
    assert calls == []


# ------------------------------------------------------- one pair run per verdict

@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("signal", [Sinusoid(), Constant(3.7)])
def test_classify_exponent_has_the_bits_of_lyapunov_max(name, signal):
    # the steady-state grid rides on the pair's windows without steering them
    sys, x0 = build_system(name), np.array(EXAMPLE_X0[name])
    rec = classify_response(sys, signal, x0, always_lyapunov=True)
    assert rec.lyapunov == lyapunov_max(sys, signal, x0)


def test_classify_exponent_when_the_steady_grid_outruns_the_horizon():
    # ss_horizon past the estimator's horizon: the windows go on to 60.5,
    # and the exponent still averages only those up to 50
    sys, x0 = build_system("example1"), np.array(EXAMPLE_X0["example1"])
    opts = {"transient": 10.0, "horizon": 50.0}
    rec = classify_response(sys, Sinusoid(), x0, ss_horizon=60.3,
                            always_lyapunov=True, lyapunov_opts=opts)
    assert rec.trajectory.times[-1] == 60.3
    assert rec.lyapunov == lyapunov_max(sys, Sinusoid(), x0, **opts)


def _record_pair_calls(monkeypatch):
    """Record the state size and span of each call the pair makes to the
    solver's step-loop entry."""
    calls = []
    advance = diagnostics._advance

    def counting(rhs, u, y0, n, t0, t_end, *args):
        calls.append((len(y0), (t0, t_end)))
        return advance(rhs, u, y0, n, t0, t_end, *args)

    monkeypatch.setattr(diagnostics, "_advance", counting)
    return calls


def test_sin_leg_makes_one_pair_call_per_window(monkeypatch):
    calls = _record_pair_calls(monkeypatch)
    sys = build_system("example1")
    rec = classify_response(sys, Sinusoid(), np.array(EXAMPLE_X0["example1"]),
                            ss_horizon=20.0,
                            lyapunov_opts={"transient": 10.0, "horizon": 60.0})
    assert not rec.steady.converged
    assert rec.lyapunov.renorm_count == 100
    assert [size for size, _ in calls] == [2 * sys.dim] * 120
    assert [span for _, span in calls] == [(0.5 * (k - 1), 0.5 * k)
                                           for k in range(1, 121)]


@pytest.mark.parametrize("name, ss_horizon, last_window_end",
                         [("example1", 100.0, 100.0), ("fast decay", 12.34, 12.5)])
def test_converged_leg_stops_after_the_window_holding_ss_horizon(
        monkeypatch, name, ss_horizon, last_window_end):
    if name == "fast decay":
        sys, x0 = compose_autonomous(VectorField(1, lambda z: [-5.0 * v for v in z])), [5.0]
    else:
        sys, x0 = build_system(name), EXAMPLE_X0[name]
    calls = _record_pair_calls(monkeypatch)
    rec = classify_response(sys, Constant(3.7), np.array(x0), ss_horizon=ss_horizon)
    assert rec.verdict == VERDICT_STEADY_STATE
    assert rec.lyapunov is None
    assert calls[-1][1] == (last_window_end - 0.5, last_window_end)
    assert len(calls) == round(last_window_end / 0.5)


# ------------------------------------------------------------ sequential stop

def test_sequential_verdict_bits_are_pinned():
    # the sin t leg stops at t = 200, its first check: lambda averages
    # windows 201-400 and lies 6.7 standard errors above 0.05
    rec = classify_response(build_system("example1"), Sinusoid(),
                            np.array(EXAMPLE_X0["example1"]))
    assert rec.verdict == VERDICT_CHAOTIC
    assert rec.lyapunov.lambda_max.hex() == "0x1.0f5ac51ef91acp-1"  # 0.5299893951710621
    assert rec.lyapunov.renorm_count == 200
    assert rec.lyapunov.stderr == pytest.approx(0.0719, abs=1e-4)


@pytest.mark.parametrize("name", SCENARIO_IDS)
def test_sequential_verdict_is_the_full_horizon_verdict(monkeypatch, name):
    sys, x0 = build_system(name), np.array(default_spec(name).x0)
    calls = _record_pair_calls(monkeypatch)
    full = classify_response(sys, Sinusoid(), x0, always_lyapunov=True)
    assert full.lyapunov.renorm_count == 600
    assert len(calls) == 800  # always_lyapunov runs every window
    calls.clear()
    rec = classify_response(sys, Sinusoid(), x0)
    assert rec.verdict == full.verdict
    est = rec.lyapunov
    assert est.renorm_count < 600
    assert len(calls) < 800
    # the counted windows start after the transient and end at the stop
    assert calls[-1][1][1] == 100.0 + 0.5 * est.renorm_count
    margin = 5.0 * est.stderr
    assert abs(est.lambda_max - 0.05) > margin and abs(est.lambda_max + 0.05) > margin


def _rossler(z):
    return [-z[1] - z[2], z[0] + 0.2 * z[1], 0.2 + z[2] * (z[0] - 5.7)]


def test_leg_near_a_boundary_runs_to_the_horizon(monkeypatch):
    # the gate scales Rossler's exponent to about 0.04, within 5 standard
    # errors of 0.05, so no window end settles the verdict
    sys = compose_cascade(filter_one(), Saturation(0.1), VectorField(3, _rossler))
    calls = _record_pair_calls(monkeypatch)
    rec = classify_response(sys, Sinusoid(), np.array([5.0, 0.0, 1.0, 1.0, 0.0]))
    est = rec.lyapunov
    assert est.lambda_max == pytest.approx(0.0397, abs=5e-4)
    assert est.stderr == pytest.approx(0.0063, abs=5e-4)
    assert abs(est.lambda_max - 0.05) < 5.0 * est.stderr
    assert est.renorm_count == 600
    assert len(calls) == 800
    assert rec.verdict == VERDICT_OSCILLATION


def test_stderr_is_the_spread_of_ten_batch_means():
    # 99 windows split into batches of 9, 10, ..., 10; windows 0-48 grow by
    # 1 and 49-98 by 3, so the batch means are five 1s and five 3s
    growths = [1.0] * 49 + [3.0] * 50
    sums = [0.0]
    for g in growths:
        sums.append(sums[-1] + g)
    lam, stderr = diagnostics._lambda_stderr(sums, 1.0)
    means = [np.mean(growths[j * 99 // 10:(j + 1) * 99 // 10]) for j in range(10)]
    assert lam == sum(growths) / 99
    assert stderr == pytest.approx(math.sqrt(sum((m - lam) ** 2 for m in means) / 90),
                                   rel=1e-12)


def _turning_rhs(turn_at, turned):
    """A 2-state decay whose RHS, from its ``turn_at``-th call on, returns
    ``turned`` or raises it; the calls it got are in ``rhs.calls``."""
    def rhs(t, state, u):
        rhs.calls += 1
        if rhs.calls < turn_at:
            return [-v for v in state]
        if isinstance(turned, Exception):
            raise turned
        return turned

    rhs.calls = 0
    return rhs


@pytest.mark.parametrize("at", ["second copy, first call", "first copy, first stage",
                                "second copy, first stage", "second window, first stage"])
def test_rhs_of_the_wrong_length_in_the_pair_names_one_copys_length(monkeypatch, at):
    # The pair calls the RHS once per copy, so a result of the wrong length
    # is reported against one copy's 2 states, not the pair's 4; an RHS's
    # own ValueError passes through, at the prologue's calls and in the loop
    # alike. A window's first two calls are its prologue's.
    if at == "second window, first stage":
        calls = []
        advance = diagnostics._advance
        rhs = _turning_rhs(math.inf, None)

        def counting(*args):
            calls.append(rhs.calls)
            return advance(*args)

        with monkeypatch.context() as m:
            m.setattr(diagnostics, "_advance", counting)
            lyapunov_max(ComposedSystem(rhs, ("a", "b"), (0, 1)), U0, [1.0, 1.0])
        turn_at = calls[1] + 3
    else:
        turn_at = {"second copy, first call": 2, "first copy, first stage": 3,
                   "second copy, first stage": 4}[at]
    for turned, match in (([1.0, 2.0, 3.0], "length 3 for a state of length 2$"),
                          ([1.0], "length 1 for a state of length 2$"),
                          (ValueError("its own"), "^its own$")):
        rhs = _turning_rhs(turn_at, turned)
        with pytest.raises(ValueError, match=match):
            lyapunov_max(ComposedSystem(rhs, ("a", "b"), (0, 1)), U0, [1.0, 1.0])
        assert rhs.calls == turn_at


# At the default rel_tol of 1e-8, example1's early Lorenz transient leaves
# either run about 3e-5 from a tight reference, so the two agree only that
# far. At 1e-11 both are accurate to about 1e-7.
TIGHT = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)


@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("signal, span", [(Constant(3.7), 200.0), (Constant(-8.0), 200.0),
                                          (Sinusoid(), 10.0)])
def test_steady_trajectory_is_the_solo_run_to_tolerance(name, signal, span):
    # under sin t chaos separates the two runs after a while, so only the
    # first 10 time units are compared there
    sys, x0 = build_system(name), np.array(EXAMPLE_X0[name])
    rec = classify_response(sys, signal, x0, TIGHT, ss_horizon=span,
                            lyapunov_opts={"transient": 0.0, "horizon": 50.0})
    grid = uniform_grid(0.0, span, 0.05)
    solo = integrate(sys, signal, x0, (0.0, span), TIGHT, output_grid=grid)
    assert np.array_equal(rec.trajectory.times, grid)
    assert rec.trajectory.state_names == sys.state_names
    assert np.max(np.abs(rec.trajectory.states - solo.states)) < 1e-6


def _switch_at(t_switch, before):
    """A 2-state system that follows ``before`` until t_switch, then blows up
    in finite time (each component runs like tan)."""
    def rhs(t, state, u):
        return before(state) if t < t_switch else [v * v + 1.0 for v in state]
    return ComposedSystem(rhs, ("a", "b"), z=(0, 1))


def test_pair_divergence_after_ss_horizon_keeps_the_steady_verdict():
    settles = _switch_at(30.0, lambda s: [-5.0 * v for v in s])
    rec = classify_response(settles, U0, np.array([1.0, 2.0]), ss_horizon=20.0,
                            always_lyapunov=True)
    assert rec.verdict == VERDICT_STEADY_STATE
    assert rec.steady.converged
    assert rec.lyapunov is None
    assert rec.trajectory.times[-1] == 20.0


def test_pair_divergence_after_ss_horizon_of_a_moving_tail():
    swings = _switch_at(30.0, lambda s: [s[1], -s[0]])
    rec = classify_response(swings, U0, np.array([1.0, 0.0]), ss_horizon=20.0)
    assert rec.verdict == VERDICT_DIVERGENCE
    assert not rec.steady.converged
    assert rec.lyapunov is None
    assert rec.trajectory.times[-1] == 20.0


def test_pair_divergence_before_ss_horizon_leaves_no_steady_report():
    settles = _switch_at(5.0, lambda s: [-5.0 * v for v in s])
    rec = classify_response(settles, U0, np.array([1.0, 2.0]), ss_horizon=20.0)
    assert rec.verdict == VERDICT_DIVERGENCE
    assert rec.steady is None and rec.trajectory is None and rec.lyapunov is None


# ----------------------------------------------------------------- monte carlo

def test_monte_carlo_rejects_empty_sweep():
    with pytest.raises(ValueError):
        monte_carlo("example2", 0)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            monte_carlo("example2", 1, jobs=jobs)
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
    # the verdicts.jsonl fields, in this order; final_state_const stays out
    assert d == {"sample": 0, "u0": row.u0, "x0": row.x0.tolist(),
                 "verdict_const": row.verdict_const, "verdict_sin": row.verdict_sin,
                 "lambda_const": row.lambda_const, "lambda_sin": row.lambda_sin,
                 "p_tail_mean_const": row.p_tail_mean_const,
                 "p_tail_mean_sin": row.p_tail_mean_sin}
    assert list(d) == ["sample", "u0", "x0", "verdict_const", "verdict_sin", "lambda_const",
                       "lambda_sin", "p_tail_mean_const", "p_tail_mean_sin"]
    assert all(type(v) is float for v in d["x0"])
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


def test_monte_carlo_starts_no_more_workers_than_samples(monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(diagnostics.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(diagnostics, "_mc_sample", lambda task: task[0])
    assert monte_carlo("example2", 2, jobs=64) == [0, 1]
    assert pools == [2]
    assert monte_carlo("example2", 1, jobs=64) == [0]  # serial: no pool
    assert monte_carlo("example2", 3, jobs=1) == [0, 1, 2]
    assert pools == [2]


def test_monte_carlo_builds_every_system_through_scenarios(monkeypatch):
    # a patched scenarios.build_system (as a tracer installs) is what the
    # sweep uses, for the state names and for each sample's legs
    built, legs = [], []

    def build(name, **kwargs):
        built.append(build_system(name, **kwargs))
        return built[-1]

    def classify(sys, input_signal, x0, cfg, **kwargs):
        legs.append(sys)
        return diagnostics.VerdictRecord(VERDICT_INCONCLUSIVE, None, None, None)

    monkeypatch.setattr(scenarios, "build_system", build)
    monkeypatch.setattr(diagnostics, "classify_response", classify)
    rows = monte_carlo("example2", 3, jobs=1)
    assert [r.verdict_sin for r in rows] == [VERDICT_INCONCLUSIVE] * 3
    assert len(built) == 4  # the state names, then one per sample
    assert legs == [sys for sys in built[1:] for _ in range(2)]


def test_monte_carlo_maps_p0_into_the_unit_interval(monkeypatch):
    # A negative p runs example1's Lorenz block backward in time: with seed 0,
    # samples 4 and 6 drew p0 = -6.72 and -4.93, and sample 4's constant leg
    # ran for minutes. p0 is now mapped affinely into [0, 1]; u0 and the other
    # components keep the raw draw's bits.
    tasks = []
    monkeypatch.setattr(diagnostics, "_mc_sample", tasks.append)
    monte_carlo("example1", 8, seed=0)
    p = build_system("example1").state_names.index("p")
    for task, child in zip(tasks, np.random.SeedSequence(0).spawn(8)):
        rng = np.random.default_rng(child)
        assert task[2] == rng.uniform(-10.0, 10.0)
        raw = rng.uniform(-10.0, 10.0, size=5)
        x0 = task[3]
        assert 0.0 <= x0[p] <= 1.0
        assert x0[p] == (raw[p] + 10.0) / 20.0
        assert np.array_equal(np.delete(x0, p), np.delete(raw, p))
    assert tasks[4][3][p] == pytest.approx((-6.72 + 10.0) / 20.0, abs=1e-3)

    _, scenario, u0, x0, cfg = tasks[4]
    record = classify_response(build_system(scenario), Constant(u0), x0, cfg,
                               always_lyapunov=True)
    assert record.verdict == VERDICT_STEADY_STATE
