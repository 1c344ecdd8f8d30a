"""Integrator contract: accuracy, grid handling, determinism, failure modes."""

import dataclasses
import functools
import hashlib
import itertools
import math
import sys
import time
import tracemalloc
from functools import reduce
from operator import add, mul

import numpy as np
import pytest

from entrain import solver
from entrain.blocks import (
    _NAME,
    ComposedSystem,
    Row,
    Saturation,
    VectorField,
    _row_rhs,
    _RowRhs,
    compose_autonomous,
    compose_cascade,
    compose_example1,
    compose_example2,
    filter_one,
    lorenz_field,
    stable_linear_field,
)
from entrain.lti import LtiSystem
from entrain.signals import Constant, InputSignal, Sampled, Sinusoid
from entrain.solver import (
    _DP_A,
    _DP_B5,
    _DP_C,
    _DP_ERR,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _SAFETY,
    DivergenceError,
    IntegratorConfig,
    StepBudgetError,
    StiffnessError,
    integrate,
    uniform_grid,
)

LAG = compose_autonomous(VectorField(1, lambda z: [-v + 1.0 for v in z]))
DECAY = compose_autonomous(VectorField(1, lambda z: [-v for v in z]))
LORENZ = compose_autonomous(
    VectorField(3, lambda z: [10.0 * (z[1] - z[0]),
                              28.0 * z[0] - z[1] - z[0] * z[2],
                              z[0] * z[1] - 8.0 / 3.0 * z[2]]))
# The cube as a product: an overflowing trial step comes out inf, as it does
# in the numpy reference kernel below (Python's ** would raise OverflowError,
# which test_trial_step_that_raises_is_rejected covers)
CUBIC = compose_autonomous(VectorField(1, lambda z: [-(v * v * v) for v in z]))
BLOWUP = compose_autonomous(VectorField(1, lambda z: [v * v for v in z]))
U0 = Constant(0.0)
# W(s) = s / ((s + 1)(s + 2)), as in test_blocks
TWO_STATE_FILTER = LtiSystem(A=[[0.0, 1.0], [-2.0, -3.0]], B=[0.0, 1.0], C=[0.0, 1.0], D=0.0)
# Hurwitz with W(0) = 0, and every entry but A's 0.0 and -2.0 exactly 1 or
# -1, which the cascade's row writes as a bare name
FOLDED_FILTER = LtiSystem(A=[[-1, 1], [0, -2]], B=[1, -1], C=[1, -1], D=-1)


def test_config_validation():
    IntegratorConfig()  # defaults are valid
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1e-10)


@pytest.mark.parametrize("tol", [{"rel_tol": math.inf}, {"rel_tol": math.nan},
                                 {"abs_tol": math.inf}])
def test_nonfinite_tolerances_are_rejected(tol):
    # an infinite tolerance accepts every trial step: no error control at all
    with pytest.raises(ValueError, match="finite"):
        IntegratorConfig(**tol)


def test_lag_block_closed_form():
    # dp = -p + 1, p(0) = 0  =>  p(1) = 1 - e^-1
    traj = integrate(LAG, U0, np.array([0.0]), (0.0, 1.0),
                     output_grid=np.array([1.0]))
    assert traj.final_state[0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-8)


def test_example1_constant_input_settles():
    sys = compose_example1()
    grid = np.arange(0.0, 50.0 + 0.005, 0.01)
    traj = integrate(sys, Constant(10.0), np.array([5.0, 0.0, 1.0, 0.0, 0.0]),
                     (0.0, 50.0), output_grid=grid)
    xi = traj.column("xi")
    tail = xi[traj.times >= 40.0]
    assert tail.max() - tail.min() < 1e-6


def _assert_constant_leg_ends_on_lorenz_flow(sys, x0, u, tau):
    # z's field is p times Lorenz's, so under a constant u z ends where the
    # bare Lorenz flow from z0 is after tau, the integral of p over [0, inf);
    # past t = 60 less than 1e-24 of it remains.
    for cfg, bound in ((IntegratorConfig(), 5e-8),
                       (IntegratorConfig(rel_tol=1e-12), 5e-11)):
        z = integrate(sys, Constant(u), x0, (0.0, 60.0), cfg,
                      output_grid=np.array([60.0])).final_state[-3:]
        flow = integrate(LORENZ, U0, x0[-3:], (0.0, tau), cfg,
                         output_grid=np.array([tau])).final_state
        assert np.linalg.norm(z - flow) / np.linalg.norm(flow) < bound


@pytest.mark.parametrize("u", [10.0, -3.0, 0.5, -7.25])
def test_example1_constant_leg_matches_closed_form(u):
    # y = x + u = (x0 + u) e^-t, so p' = -p + y^2/(K + y^2) integrates to
    # p0 + ln(1 + (x0 + u)^2 / K) / 2 over [0, inf)
    x0, K = EXAMPLE_X0, 0.1
    tau = x0[1] + 0.5 * math.log1p((x0[0] + u) ** 2 / K)
    _assert_constant_leg_ends_on_lorenz_flow(compose_example1(K), x0, u, tau)


@pytest.mark.parametrize("u", [10.0, -3.0, 0.5])
def test_two_state_filter_constant_leg_matches_closed_form(u):
    # The filter's state relaxes to x_inf = -A^-1 B u, and W(0) = 0 makes
    # y = C e^{At} (x0 - x_inf); tau = p0 + the integral of y^2/(K + y^2).
    # e^{At} comes from the eigendecomposition of A, the integral from
    # 8-point Gauss-Legendre on 2,400 panels over [0, 60], enough to resolve
    # the dip of alpha where y crosses 0 to rounding (1,200 leave 3e-11).
    x0, K, f = [1.0, -0.5, 0.3, 1.0, 0.0, 0.0], 0.1, TWO_STATE_FILTER
    lam, V = np.linalg.eig(f.A)
    coef = (f.C @ V) * np.linalg.solve(V, x0[:2] + np.linalg.solve(f.A, f.B) * u)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    h = 60.0 / 2400
    t = (np.arange(2400)[:, None] + (nodes + 1.0) / 2.0) * h
    y = (np.exp(t[..., None] * lam) @ coef).real
    tau = x0[2] + h / 2.0 * np.sum(weights * (y * y / (K + y * y)))
    _assert_constant_leg_ends_on_lorenz_flow(_two_state_filter_cascade(), x0, u, tau)


def test_zero_span_returns_single_row():
    for grid in (None, np.array([0.0])):
        traj = integrate(DECAY, U0, np.array([2.0]), (0.0, 0.0), output_grid=grid)
        assert traj.times.tolist() == [0.0]
        assert traj.states.tolist() == [[2.0]]
    # the initial derivative is evaluated on a zero span too
    bad = compose_autonomous(VectorField(1, lambda z: [math.inf]))
    with pytest.raises(DivergenceError):
        integrate(bad, U0, np.array([2.0]), (0.0, 0.0))


def test_grid_contract_times_exact():
    grid = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    traj = integrate(DECAY, U0, np.array([1.0]), (0.0, 7.0), output_grid=grid)
    assert np.array_equal(traj.times, grid)
    # off-step samples come from the 4th-order interpolant, hence the looser
    # tolerance than the step accuracy itself
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-grid), rtol=1e-6)


def test_dense_mode_returns_internal_steps():
    traj = integrate(DECAY, U0, np.array([1.0]), (0.0, 2.0))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diff(traj.times) > 0)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-traj.times), rtol=1e-7)


def test_rhs_of_the_wrong_length_is_rejected():
    # a system's result of the wrong length fails its unpack inside the row
    # that calls it, as a field's does under compose_autonomous and
    # compose_cascade
    short = ComposedSystem(lambda t, z, u: [-z[0]], ("a", "b", "c"))
    short_field = compose_autonomous(VectorField(3, lambda z: [-z[0]]))
    for grid in (None, np.array([0.5, 1.0])):
        for sys in (short, short_field):
            with pytest.raises(ValueError,
                               match=r"^not enough values to unpack \(expected 3, got 1\)$"):
                integrate(sys, U0, np.ones(3), (0.0, 1.0), output_grid=grid)
        # from its 4th call on (the first step's 3rd stage), a 2-state RHS
        # returns one value too many or too few, or raises ValueError itself;
        # newer Pythons add ", got 3" to the first message
        for turned, match in (([1.0, 2.0, 3.0], r"^too many values to unpack \(expected 2[,)]"),
                              ([1.0], r"^not enough values to unpack \(expected 2, got 1\)$"),
                              (ValueError("its own"), "^its own$")):
            calls = []

            def rhs(t, state, u):
                calls.append(t)
                if len(calls) < 4:
                    return [-v for v in state]
                if isinstance(turned, Exception):
                    raise turned
                return turned

            with pytest.raises(ValueError, match=match):
                integrate(ComposedSystem(rhs, ("a", "b")), U0, np.ones(2), (0.0, 1.0),
                          output_grid=grid)
            assert len(calls) == 4


def test_integrate_hands_the_rhs_lists_of_floats():
    states = []

    def rhs(t, state, u):
        states.append(state)
        return [-v for v in state]

    sys = ComposedSystem(rhs, ("a", "b"))
    for grid in (None, np.array([0.5, 1.0])):
        integrate(sys, U0, np.array([1.0, 2.0]), (0.0, 1.0), output_grid=grid)
    assert len(states) > 20
    assert all(type(s) is list and len(s) == 2 and all(type(v) is float for v in s)
               for s in states)


@pytest.mark.parametrize("t_span, x0", [
    ((0.0, np.inf), [1.0]),
    ((0.0, np.nan), [1.0]),
    ((-np.inf, 0.0), [1.0]),
    ((0.0, 1.0), [np.nan]),
    ((0.0, 1.0), [np.inf]),
], ids=["end-inf", "end-nan", "start-inf", "x0-nan", "x0-inf"])
def test_nonfinite_span_or_start_is_rejected(t_span, x0):
    with pytest.raises(ValueError, match="must be finite"):
        integrate(DECAY, U0, np.array(x0), t_span)


def test_grid_validation():
    with pytest.raises(ValueError):
        integrate(DECAY, U0, np.array([1.0]), (0.0, 1.0),
                  output_grid=np.array([0.0, 2.0]))  # outside span
    with pytest.raises(ValueError):
        integrate(DECAY, U0, np.array([1.0]), (0.0, 1.0),
                  output_grid=np.array([0.5, 0.5]))  # not increasing
    with pytest.raises(ValueError, match="finite times"):
        integrate(DECAY, U0, np.array([1.0]), (0.0, 1.0),
                  output_grid=np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        integrate(DECAY, U0, np.array([1.0, 2.0]), (0.0, 1.0))  # bad x0 shape
    with pytest.raises(ValueError):
        integrate(DECAY, U0, np.array([1.0]), (1.0, 0.0))  # decreasing span


def test_uniform_grid_ends_at_t1():
    # the CLI tests cover a zero start and the pulled-in, pushed-out and
    # two-point cases; 0.1 steps from 2.0 miss 2.3 by rounding
    assert uniform_grid(2.0, 2.3, 0.1).tolist() == [2.0, 2.1, 2.2, 2.3]
    # where the step divides the span, the grid is arange's, bit for bit
    for t1 in (20.0, 30.0, 100.0, 200.0):
        grid = np.arange(0.0, t1 + 0.025, 0.05)
        assert grid[-1] == t1
        assert uniform_grid(0.0, t1, 0.05).tobytes() == grid.tobytes()


@pytest.mark.parametrize("t0, t1, step, match", [
    (0.0, 0.0, 0.1, "exceed"),
    (1.0, 0.0, 0.1, "exceed"),
    (0.0, 1.0, 0.0, "positive"),
    (0.0, 1.0, -0.1, "positive"),
    (0.0, math.inf, 0.1, "finite"),
    (0.0, math.nan, 0.1, "finite"),
    (0.0, 1.0, math.nan, "finite"),
])
def test_uniform_grid_rejects_bad_bounds(t0, t1, step, match):
    with pytest.raises(ValueError, match=match):
        uniform_grid(t0, t1, step)


def test_determinism_bitwise():
    sys = compose_example1()
    x0 = np.array([5.0, 0.0, 1.0, 0.0, 0.0])
    grid = np.arange(0.0, 20.0, 0.01)
    a = integrate(sys, Sinusoid(), x0, (0.0, 20.0), output_grid=grid)
    b = integrate(sys, Sinusoid(), x0, (0.0, 20.0), output_grid=grid)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_tolerance_tightening_shrinks_differences():
    # Tightening rel_tol by 100x shrinks the state difference at t=10 by
    # roughly the same factor. The absolute bounds are pinned from reference
    # runs of this scenario (constant input 10, canonical start).
    sys = compose_example1()
    x0 = np.array([5.0, 0.0, 1.0, 0.0, 0.0])
    final = {}
    for rt in (1e-6, 1e-8, 1e-10):
        cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-2)
        final[rt] = integrate(sys, Constant(10.0), x0, (0.0, 10.0), cfg,
                              output_grid=np.array([10.0])).final_state
    d_loose = np.abs(final[1e-6] - final[1e-8]).max()
    d_tight = np.abs(final[1e-8] - final[1e-10]).max()
    assert d_loose < 2e-3
    assert d_tight < 2e-5
    assert d_tight < d_loose / 20.0


def test_divergence_error_reports_last_good_time(monkeypatch):
    # with a step floor this low, overflow comes before the step underflows
    monkeypatch.setattr(solver, "_H_MIN", 1e-300)
    with pytest.raises(DivergenceError) as err:
        # solution blows up at t = 1; overflow long before t = 2
        integrate(BLOWUP, U0, np.array([1.0]), (0.0, 2.0))
    assert 0.9 <= err.value.last_good_time <= 1.01
    assert "last good time" in str(err.value)


def test_stiffness_error_when_step_underflows():
    with pytest.raises(StiffnessError):
        # with the default step floor the step controller underflows first
        integrate(BLOWUP, U0, np.array([1.0]), (0.0, 2.0))


def test_nonfinite_trial_step_is_rejected():
    # dz = -z^3 from z0 = 1e3: the first trial steps overflow, yet the exact
    # solution z(t) = 1 / sqrt(2 t + 1e-6) decays smoothly
    traj = integrate(CUBIC, U0, np.array([1e3]), (0.0, 10.0),
                     output_grid=np.array([10.0]))
    assert traj.final_state[0] == pytest.approx(1.0 / np.sqrt(20.000001), rel=1e-7)


def test_trial_step_that_raises_is_rejected():
    # Python's ** raises OverflowError on the trial steps where the product
    # form above comes out inf; either way the step is rejected and h shrinks
    cube = compose_autonomous(VectorField(1, lambda z: [-v ** 3 for v in z]))
    traj = integrate(cube, U0, np.array([1e3]), (0.0, 10.0),
                     output_grid=np.array([10.0]))
    assert traj.final_state[0] == pytest.approx(1.0 / np.sqrt(20.000001), rel=1e-6)


def test_initial_derivative_that_raises_is_a_divergence():
    recip = compose_autonomous(VectorField(1, lambda z: [1.0 / v for v in z]))
    with pytest.raises(DivergenceError, match="ZeroDivisionError") as err:
        integrate(recip, U0, np.array([0.0]), (0.0, 1.0))
    assert err.value.last_good_time == 0.0


def test_step_budget_error():
    # dz = -1e7 z holds DOPRI5 to steps of about 3e-7, so it would need
    # millions of trials for [0, 1]; the budget stops it early in the span
    stiff = compose_autonomous(VectorField(1, lambda z: [-1e7 * v for v in z]))
    with pytest.raises(StepBudgetError) as err:
        integrate(stiff, U0, np.array([1.0]), (0.0, 1.0))
    assert 0.0 < err.value.last_good_time < 0.01
    assert "per unit of time" in str(err.value)


def test_tight_tolerance_run_stays_within_the_step_budget():
    # example2 under sin t at rel_tol = 1e-12 is the most step-hungry run of
    # a bundled scenario; it uses under a tenth of the budget
    sys = compose_example2()
    calls = []

    def rhs(t, y, u):
        calls.append(t)
        return sys.rhs(t, y, u)

    t_end = 20.0
    traj = integrate(ComposedSystem(rhs, sys.state_names), Sinusoid(), np.array(EXAMPLE2_X0), (0.0, t_end),
                     IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
    assert traj.times[-1] == t_end
    trials = (len(calls) - 1) / 6
    assert trials < solver._MAX_STEPS_PER_UNIT * (1.0 + t_end) / 10


def _stacked(sys, copies):
    """``copies`` copies of ``sys`` side by side in one state, driven by one
    input: the system the two-copy step loop integrates, as one RHS."""
    n = sys.dim

    def rhs(t, state, u):
        return [v for i in range(0, copies * n, n) for v in sys.rhs(t, state[i:i + n], u)]

    return ComposedSystem(rhs, sys.state_names * copies)


def _advance_rows(rhs, signal, y0, n, t_span, cfg, grid):
    """The step loop's rows at ``grid`` for every component of ``y0``, copies
    of an n-state system side by side, filled as ``integrate`` fills one."""
    out = solver._GridRows(grid, len(y0))
    solver._advance(rhs, signal, y0, n, *t_span, cfg, out)
    return out.rows


def _pair_halves(sys, x0_a, x0_b, t_span, output_grid):
    """Run two starts of ``sys`` through the two-copy step loop; the two
    halves' states."""
    rows = _advance_rows(sys.rhs, U0, np.concatenate([x0_a, x0_b]).tolist(), sys.dim,
                         t_span, IntegratorConfig(), output_grid)
    return rows[:, :sys.dim], rows[:, sys.dim:]


def test_pair_identical_starts_stay_bitwise_equal():
    x0 = np.array([1.0, 1.0, 1.0])
    a, b = _pair_halves(LORENZ, x0, x0.copy(), (0.0, 5.0), np.linspace(0.0, 5.0, 51))
    assert a.tobytes() == b.tobytes()


def test_pair_contraction_matches_linear_rate():
    # on dz = -z the separation of any two starts decays exactly like e^-t
    a, b = _pair_halves(DECAY, np.array([0.0]), np.array([3.0]), (0.0, 5.0),
                        np.array([5.0]))
    sep = abs(a[-1, 0] - b[-1, 0])
    assert sep == pytest.approx(3.0 * np.exp(-5.0), rel=0.01)


def test_pair_chaotic_separation_grows():
    # from a point on the attractor, a 1e-9 perturbation grows by far more
    # than 1e3 over 20 time units
    warm = integrate(LORENZ, U0, np.array([1.0, 1.0, 1.0]), (0.0, 25.0),
                     output_grid=np.array([25.0]))
    x_on = warm.final_state
    a, b = _pair_halves(LORENZ, x_on, x_on + np.array([1e-9, 0.0, 0.0]),
                        (0.0, 20.0), np.array([20.0]))
    growth = np.linalg.norm(a[-1] - b[-1]) / 1e-9
    assert growth > 1e3


def test_trajectory_column_accessor():
    sys = compose_example1()
    traj = integrate(sys, Constant(1.0), np.zeros(5), (0.0, 1.0),
                     output_grid=np.array([0.0, 1.0]))
    assert traj.column("x").shape == (2,)
    with pytest.raises(KeyError):
        traj.column("bogus")


# The step's stage sums must give the same bits as the plain per-term loop.


def _combine_loop(coeffs, K, n_terms):
    acc = coeffs[0] * K[0]
    for k in range(1, n_terms):
        c = coeffs[k]
        if c != 0.0:
            acc += c * K[k]
    return acc


def _random_stages(rng, dim, stages=7):
    # magnitudes spread over 10 decades, so that sums round often
    shape = (stages, dim)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)


class _StopStep(Exception):
    pass


@pytest.mark.parametrize("dim", range(1, 13))
def test_combine_matches_loop_bitwise(dim, monkeypatch):
    # Feed the first step chosen stage derivatives and record the stage
    # inputs it asks for: each is y + h * (the per-term loop over its row).
    rng = np.random.default_rng(dim)
    h = 0.0137
    monkeypatch.setattr(solver, "_H_INIT", h)
    for _ in range(20):
        K = _random_stages(rng, dim)
        x0 = _random_stages(rng, dim, 1)[0]
        inputs = []

        def field(z):
            inputs.append(np.array(z))
            if len(inputs) == 7:
                raise _StopStep
            return K[len(inputs) - 1].tolist()

        fed = compose_autonomous(VectorField(dim, field))
        with pytest.raises(_StopStep):
            integrate(fed, U0, x0, (0.0, 1.0))
        assert inputs[0].tobytes() == x0.tobytes()
        for i in range(1, 6):
            assert inputs[i].tobytes() == (x0 + h * _combine_loop(_DP_A[i], K, i)).tobytes()
        # first-same-as-last: the last stage's input is the 5th-order result
        assert inputs[6].tobytes() == (x0 + h * _combine_loop(_DP_B5, K, 7)).tobytes()


def _example_reference(which, K, state, u):
    """The example RHS bodies on numpy scalars, as unpacked from the array."""
    sat = Saturation(K)
    x, p, xi, psi, zeta = state
    y = x + u
    if which == 1:
        s, r, b = 10.0, 28.0, 8.0 / 3.0
        z_dot = [p * (s * (psi - xi)), p * (r * xi - psi - xi * zeta),
                 p * (xi * psi - b * zeta)]
    else:
        z_dot = [10.0 * (psi - xi), 28.0 * p * xi - psi - p * xi * zeta,
                 p * xi * psi - (8.0 / 3.0) * zeta]
    return np.array([-x - u, -p + sat(y)] + z_dot)


# The hand-written right-hand sides that the rows replaced, kept as the
# references the rows must match bit for bit.

def _lorenz_reference(z):
    xi, psi, zeta = z
    return [10.0 * (psi - xi), 28.0 * xi - psi - xi * zeta, xi * psi - (8.0 / 3.0) * zeta]


def _stable_linear_reference(z):
    xi, psi, zeta = z
    return [10.0 * (psi - xi), -psi, -(8.0 / 3.0) * zeta]


def _cascade_reference(filter1, sat, g1, g0=None):
    n = filter1.n
    A, B, C, D = filter1.A.tolist(), filter1.B.tolist(), filter1.C.tolist(), filter1.D

    def rhs(t, state, u):
        x = state[:n]
        p = state[n]
        z = state[n + 1:]
        y = reduce(add, map(mul, C, x)) + D * u
        dx = [reduce(add, map(mul, row, x)) + b * u for row, b in zip(A, B)]
        if g0 is None:
            dz = [p * v for v in g1(z)]
        else:
            q = 1.0 - p
            dz = [p * v1 + q * v0 for v1, v0 in zip(g1(z), g0(z))]
        return dx + [-p + sat(y)] + dz

    return rhs


def _floats(out, n):
    """``out`` as float64 bytes, after checking it is a list of n Python floats."""
    assert type(out) is list and len(out) == n
    assert all(type(v) is float for v in out)
    return np.array(out).tobytes()


def test_example_rhs_bitwise_under_float_and_numpy_inputs():
    # the RHS takes a list of Python floats and returns one, with the bits
    # of the same expressions on numpy scalars; u may be a numpy scalar
    rng = np.random.default_rng(6)
    for which, sys, K in ((1, compose_example1(), 0.1), (2, compose_example2(), 1e-4)):
        pair = _stacked(sys, 2)
        for _ in range(50):
            state = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 2, 5)
            u = float(rng.uniform(-10.0, 10.0))
            ref = _example_reference(which, K, state, u).tobytes()
            assert _floats(sys.rhs(0.0, state.tolist(), u), 5) == ref
            assert np.array(sys.rhs(0.0, state.tolist(), np.float64(u))).tobytes() == ref
            both = pair.rhs(0.0, state.tolist() * 2, u)
            assert _floats(both, 10) == 2 * ref


# name -> (the right-hand side built from rows, the closure it replaced, the
# state length); a field's right-hand side takes z alone
ROW_REFERENCES = {
    "lorenz-field": (lambda: lorenz_field().rhs, _lorenz_reference, 3),
    "stable-linear-field": (lambda: stable_linear_field().rhs, _stable_linear_reference, 3),
    "autonomous": (lambda: compose_autonomous(lorenz_field()).rhs,
                   lambda t, z, u: _lorenz_reference(z), 3),
    "general": (lambda: compose_cascade(filter_one(), Saturation(0.1), lorenz_field()).rhs,
                _cascade_reference(filter_one(), Saturation(0.1), _lorenz_reference), 5),
    "interp-lorenz": (
        lambda: compose_cascade(filter_one(), Saturation(1e-4), lorenz_field(),
                                stable_linear_field()).rhs,
        _cascade_reference(filter_one(), Saturation(1e-4), _lorenz_reference,
                           _stable_linear_reference), 5),
    "two-state-filter": (
        lambda: compose_cascade(TWO_STATE_FILTER, Saturation(0.1), lorenz_field()).rhs,
        _cascade_reference(TWO_STATE_FILTER, Saturation(0.1), _lorenz_reference), 6),
    "folded-filter": (
        lambda: compose_cascade(FOLDED_FILTER, Saturation(0.1), lorenz_field()).rhs,
        _cascade_reference(FOLDED_FILTER, Saturation(0.1), _lorenz_reference), 6),
    # fields without a row, called from the cascade's row
    "called-fields": (
        lambda: compose_cascade(filter_one(), Saturation(0.1), VectorField(3, _lorenz_reference),
                                VectorField(3, _stable_linear_reference)).rhs,
        _cascade_reference(filter_one(), Saturation(0.1), _lorenz_reference,
                           _stable_linear_reference), 5),
}


@pytest.mark.parametrize("case", ROW_REFERENCES)
def test_row_matches_the_closure_it_replaced_bitwise(case):
    # on Python floats, and on numpy scalars (an unpacked array, a np.float64
    # input); signed zeros included
    build, reference, dim = ROW_REFERENCES[case]
    rhs = build()
    field = case.endswith("-field")
    rng = np.random.default_rng(8)
    states = [[0.0] * dim, [-0.0] * dim]
    states += [(rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 2, dim)).tolist()
               for _ in range(50)]
    for i, state in enumerate(states):
        if field:
            ref = np.array(reference(state)).tobytes()
            assert _floats(rhs(state), dim) == ref
            assert np.array(rhs(np.array(state))).tobytes() == ref
        else:
            u = -0.0 if i == 1 else float(rng.uniform(-10.0, 10.0))
            ref = np.array(reference(0.0, state, u)).tobytes()
            assert _floats(rhs(0.0, state, u), dim) == ref
            assert np.array(rhs(0.0, np.array(state), np.float64(u))).tobytes() == ref
    # every pattern of signed zeros over the state and the input
    for *state, u in itertools.product((0.0, -0.0), repeat=dim + 1):
        ref = reference(state) if field else reference(0.0, state, u)
        out = rhs(state) if field else rhs(0.0, state, u)
        assert _floats(out, dim) == np.array(ref).tobytes()


def test_row_is_offered_by_every_composed_system():
    # a system around a user's field offers its row too, with the field a
    # parameter of it; so does a hand-built system, whose row calls it
    offered = [compose_example1(), compose_example2(), compose_autonomous(lorenz_field()),
               compose_autonomous(VectorField(3, _lorenz_reference)),
               compose_cascade(filter_one(), Saturation(0.1), lorenz_field(),
                               stable_linear_field()),
               compose_cascade(filter_one(), Saturation(0.1), VectorField(3, _lorenz_reference)),
               compose_cascade(filter_one(), Saturation(0.1), lorenz_field(),
                               VectorField(3, _stable_linear_reference))]
    for sys in offered:
        assert len(sys.rhs.row.states) == sys.dim
        assert len(sys.rhs.values) == len(sys.rhs.row.params)
    def fn(t, state, u):
        return [-v for v in state]

    called = ComposedSystem(fn, ("a", "a"))
    assert called.rhs.row == Row(("s0", "s1"), ("f_0", "f_1"),
                                 (("f_0, f_1,", "f(t, [s0, s1], u)"),), ("f",))
    assert called.rhs.values == (fn,)
    assert dataclasses.replace(called, z=(1,)).rhs is called.rhs
    # example1 is the general cascade; only K is a parameter of its row, and
    # the filter's entries are numbers in it, exact 1s and -1s folded
    for K in (0.1, 2.5):
        row = compose_example1(K).rhs.row
        assert row == compose_cascade(filter_one(), Saturation(K), lorenz_field()).rhs.row
        assert compose_example1(K).rhs.values == (K,)
    assert row.params == ("K",)
    assert row.exprs[0] == "-x - u" and row.lets[0] == ("y", "x + u")
    row = compose_cascade(FOLDED_FILTER, Saturation(0.1), lorenz_field()).rhs.row
    assert row.exprs[:2] == ("-x0 + x1 + u", "0.0 * x0 + -2.0 * x1 - u")
    assert row.lets[0] == ("y", "x0 - x1 - u")


@pytest.mark.parametrize("copies", [1, 2])
def test_inline_cascade_calls_a_field_without_a_row(copies):
    # the loop writes the cascade's row out and calls the field from it, once
    # per stage and copy; the run keeps its bits when the loop calls the
    # cascade's compiled rhs instead, from a calling row
    calls = []

    def field(z):
        calls.append(z)
        return _lorenz_reference(z)

    sys = compose_cascade(filter_one(), Saturation(0.1), VectorField(3, field))
    src = solver._dp45_source(5, copies, sys.rhs.row, Sinusoid)
    assert "rhs(" not in src
    assert src.count("r_f1_f([") == 7 * copies
    written = _run(sys.rhs, Sinusoid(), EXAMPLE_X0, copies)
    n_written = len(calls)
    del calls[:]
    signal = _CountedInput(Sinusoid())
    called = _run(ComposedSystem(lambda t, state, u: sys.rhs(t, state, u), sys.state_names).rhs,
                  signal, EXAMPLE_X0, copies)
    assert called.tobytes() == written.tobytes()
    assert len(calls) == n_written == copies * signal.calls
    # a field result of the wrong length fails its unpack inside the row
    bad = compose_cascade(filter_one(), Saturation(0.1), VectorField(3, lambda z: [0.0] * 4))
    with pytest.raises(ValueError, match="too many values to unpack"):
        _run(bad.rhs, Sinusoid(), EXAMPLE_X0, copies)


@pytest.mark.parametrize("copies", [1, 2])
def test_inline_autonomous_calls_a_wrapped_field(copies):
    # compose_autonomous writes a field's row out, but calls a functools.wraps
    # wrapper of it from inside its own row, once per stage and copy, with
    # the same bits
    calls = []
    sys = compose_autonomous(VectorField(3, WRAPPERS["wraps"](lorenz_field().rhs, calls)))
    src = solver._dp45_source(3, copies, sys.rhs.row, Sinusoid)
    assert "rhs(" not in src and src.count("r_f_f([") == 7 * copies
    signal = _CountedInput(Sinusoid())
    written = _run(compose_autonomous(lorenz_field()).rhs, Sinusoid(), [1.0, 1.0, 1.0], copies)
    assert _run(sys.rhs, signal, [1.0, 1.0, 1.0], copies).tobytes() == written.tobytes()
    assert len(calls) == copies * signal.calls > 0


def test_row_rejects_reserved_and_repeated_names():
    with pytest.raises(ValueError, match="2 expressions for 1 states"):
        Row(("a",), ("-a", "a"))
    for states, lets, params in [(("a", "a"), (), ()), (("u",), (), ()), (("t",), (), ()),
                                 (("a",), (("a", "1.0"),), ()), (("a",), (), ("a",)),
                                 (("a",), (("b, u,", "f()"),), ()), (("1a",), (), ())]:
        with pytest.raises(ValueError, match="distinct identifiers"):
            Row(states, ("0.0",) * len(states), lets, params)


def test_sinusoid_returns_python_float_of_numpy_sin():
    # Sinusoid evaluates with math.sin; every golden trajectory bit under
    # sin t was computed with numpy's scalar sin, so the two must agree
    rng = np.random.default_rng(7)
    times = np.concatenate([rng.uniform(0.0, 500.0, 50_000),
                            rng.uniform(-1e4, 1e4, 50_000)])
    for amplitude, omega, phase in ((1.0, 1.0, 0.0), (1.3, 2.1, 0.4)):
        sig = Sinusoid(amplitude, omega, phase)
        for t in times:
            u = sig(float(t))
            assert type(u) is float
            expected = float(amplitude * np.sin(omega * t + phase))
            assert np.float64(u).tobytes() == np.float64(expected).tobytes(), t


# The float kernel against the numpy DOPRI5 step it replaced: same tableau,
# same controller, and every sum, the stage sums and the error norm's, by
# np.add.accumulate, which adds in index order at any length. Grid rows come
# from a cubic Hermite on a column of times, one numpy operation per term.
# Every time and state must match bit for bit.

def _ref_terms(coeffs):
    idx = np.flatnonzero(coeffs)
    contiguous = idx[-1] - idx[0] == idx.size - 1
    sel = slice(int(idx[0]), int(idx[-1]) + 1) if contiguous else idx
    return sel, coeffs[idx][:, None]


_REF_A_TERMS = [None] + [_ref_terms(np.array(row)) for row in _DP_A[1:]]
_REF_ERR_TERMS = _ref_terms(np.array(_DP_ERR))


def _ref_combine(terms, K):
    sel, c = terms
    return np.add.accumulate(c * K[sel], axis=0)[-1]


def _ref_error_norm(q):
    return math.sqrt(np.add.accumulate(q * q)[-1] / q.size)


def _ref_hermite(t, t0, h, y0, y1, f0, f1):
    """Cubic Hermite on [t0, t0+h] at a column of times, one row per time."""
    th = (t - t0) / h
    th2 = th * th
    th3 = th2 * th
    return ((2 * th3 - 3 * th2 + 1) * y0
            + (th3 - 2 * th2 + th) * h * f0
            + (-2 * th3 + 3 * th2) * y1
            + (th3 - th2) * h * f1)


def _ref_dp45(f, x0, t0, t_end, cfg, grid):
    rows = None if grid is None else np.empty((grid.size, x0.size))
    dense_t, dense_y = [t0], [x0]
    gi = 0
    if grid is not None and grid[0] == t0:
        rows[0] = x0
        gi = 1

    K = np.empty((7, x0.size))
    t, y = t0, x0
    K[0] = f(t, y)
    if not np.isfinite(K[0]).all():
        raise DivergenceError("derivative non-finite at initial state",
                              last_good_time=t0)
    abs_y = np.abs(y)
    h = min(solver._H_INIT, t_end - t0)
    steps = 0
    finite = True
    eps_end = 1e-14 * max(1.0, abs(t_end))
    while t < t_end - eps_end:
        steps += 1
        if steps > solver._MAX_STEPS_PER_UNIT * (1.0 + t - t0):
            raise StepBudgetError("over the step budget", last_good_time=t)
        if h < solver._H_MIN:
            if not finite:
                raise DivergenceError("non-finite", last_good_time=t)
            raise StiffnessError("h below the step floor", last_good_time=t)
        h_step = min(h, t_end - t)

        for i in range(1, 7):
            yi = y + h_step * _ref_combine(_REF_A_TERMS[i], K)
            K[i] = f(t + _DP_C[i] * h_step, yi)
        y_new = yi
        finite = np.isfinite(y_new).all() and np.isfinite(K[6]).all()
        if finite:
            abs_y_new = np.abs(y_new)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_y_new)
            err = _ref_error_norm(h_step * _ref_combine(_REF_ERR_TERMS, K) / scale)
        else:
            err = math.inf

        if err <= 1.0:
            t_new = t + h_step
            if grid is not None:
                bound = t_new + 1e-14 * max(1.0, abs(t_new))
                if gi < grid.size and grid[gi] <= bound:
                    g_end = np.searchsorted(grid, bound, side="right")
                    rows[gi:g_end] = _ref_hermite(
                        np.minimum(grid[gi:g_end], t_new)[:, None], t, h_step,
                        y, y_new, K[0], K[6])
                    gi = g_end
            else:
                dense_t.append(t_new)
                dense_y.append(y_new)
            t, y, abs_y = t_new, y_new, abs_y_new
            K[0] = K[6]
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2)
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err ** -0.2)
        h = min(solver._H_MAX, h_step * factor)

    if grid is None:
        return np.array(dense_t), np.array(dense_y)
    while gi < grid.size:
        rows[gi] = y
        gi += 1
    return grid.copy(), rows


def _assert_matches_reference(sys, signal, x0, t_span, cfg=IntegratorConfig(),
                              output_grid=None):
    """Run ``integrate`` and the reference step, require the same bits, and
    return how many RHS calls the reference made. An ``x0`` that holds several
    copies of ``sys``'s state runs the step loop for that many copies against
    the reference step on their stacked RHS."""
    calls = []
    x0 = np.asarray(x0, dtype=float)
    copies = x0.size // sys.dim
    rhs = sys.rhs if copies == 1 else _stacked(sys, copies).rhs

    def f(t, y):
        calls.append(t)
        return rhs(t, y, signal(t))

    grid = None if output_grid is None else np.asarray(output_grid, dtype=float)
    with np.errstate(all="ignore"):
        times, states = _ref_dp45(f, x0, t_span[0], t_span[1], cfg, grid)
    n_ref = len(calls)
    if copies == 1:
        traj = integrate(sys, signal, x0, t_span, cfg, output_grid)
        times_out, states_out = traj.times, traj.states
    elif grid is None:
        times_out, states_out = solver._advance(sys.rhs, signal, x0.tolist(), sys.dim,
                                                *t_span, cfg)
    else:
        times_out = grid
        states_out = _advance_rows(sys.rhs, signal, x0.tolist(), sys.dim, t_span, cfg, grid)
    assert times_out.tobytes() == times.tobytes()
    assert states_out.tobytes() == states.tobytes()
    return n_ref


def _two_state_filter_cascade():
    return compose_cascade(TWO_STATE_FILTER, Saturation(0.1), lorenz_field())


EXAMPLE_X0 = [5.0, 0.0, 1.0, 0.0, 0.0]
EXAMPLE2_X0 = [2.95, -0.98, 0.94, -4.07, 4.89]
# a row that reads t, as no bundled row does
_READS_T = ComposedSystem(_row_rhs(Row(("a",), ("u * t - a",))), ("a",))
# hand-built systems, whose calling rows the loop writes out
_CALLED_LORENZ = ComposedSystem(lambda t, z, u: _lorenz_reference(z), ("xi", "psi", "zeta"))
_CALLED_EXAMPLE1 = ComposedSystem(
    _cascade_reference(filter_one(), Saturation(0.1), _lorenz_reference),
    ("x", "p", "xi", "psi", "zeta"))
REFERENCE_CASES = {
    "example1-const": (compose_example1, Constant(10.0), EXAMPLE_X0, 10.0),
    "example1-sin": (compose_example1, Sinusoid(), EXAMPLE_X0, 10.0),
    "example2-const": (compose_example2, Constant(-3.0), EXAMPLE_X0, 10.0),
    "example2-sin": (compose_example2, Sinusoid(), EXAMPLE_X0, 10.0),
    # two copies of example1, the Lyapunov pair's start
    "pair-example1": (compose_example1, Sinusoid(),
                      EXAMPLE_X0 + [5.0, 0.0, 1.0 + 1e-8, 0.0, 0.0], 5.0),
    "two-state-filter": (_two_state_filter_cascade, Constant(7.0),
                         [0.5, -1.0, 0.25, 1.0, 2.0, 3.0], 10.0),
    "folded-filter": (lambda: compose_cascade(FOLDED_FILTER, Saturation(0.1), lorenz_field()),
                      Sinusoid(), [0.5, -1.0, 0.25, 1.0, 2.0, 3.0], 10.0),
    # a row that reads t under a constant input keeps the stage times
    "row-reads-t": (lambda: _READS_T, Constant(2.0), [1.0], 5.0),
    "lorenz": (lambda: LORENZ, U0, [1.0, 1.0, 1.0], 5.0),
    "called-lorenz": (lambda: _CALLED_LORENZ, U0, [1.0, 1.0, 1.0], 5.0),
    "called-example1-sin": (lambda: _CALLED_EXAMPLE1, Sinusoid(), EXAMPLE_X0, 10.0),
    # rows that compose_cascade writes, inlined in the loop against called
    # by the reference
    "general-sin": (lambda: compose_cascade(filter_one(), Saturation(0.1), lorenz_field()),
                    Sinusoid(), EXAMPLE_X0, 10.0),
    "interp-lorenz-sin": (lambda: compose_cascade(filter_one(), Saturation(1e-4), lorenz_field(),
                                                  stable_linear_field()),
                          Sinusoid(), EXAMPLE2_X0, 10.0),
}


def _edge_grid(t_end):
    # first point after t0; last point 5e-13 past t_end, inside integrate's
    # 1e-12 slack, so DP45 fills that row after its last step
    grid = np.linspace(0.013, t_end, 97)
    grid[-1] = t_end + 5e-13
    return grid


GRIDS = {
    "dense": lambda t_end: None,
    "grid": lambda t_end: np.arange(0.0, t_end, 0.05),
    # finer than the largest step, so one step fills several rows
    "fine-grid": lambda t_end: np.arange(0.0, t_end, 0.01),
    "edge-grid": _edge_grid,
}


@pytest.mark.parametrize("grid_id", GRIDS)
@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_kernel_matches_numpy_reference_bitwise(case, grid_id):
    build, signal, x0, t_end = REFERENCE_CASES[case]
    _assert_matches_reference(build(), signal, x0, (0.0, t_end),
                              output_grid=GRIDS[grid_id](t_end))


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("grid_id", [g for g in GRIDS if g != "dense"])
@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_kernel_matches_numpy_reference_in_record_blocks_of(monkeypatch, case, grid_id, block):
    # the loop hands its step records to numpy every _BLOCK steps; blocks of
    # one and two records put a block boundary after every step or every
    # other step, the last block holding one record or two
    monkeypatch.setattr(solver, "_BLOCK", block)
    test_kernel_matches_numpy_reference_bitwise(case, grid_id)


def test_gridded_integrate_holds_little_besides_its_rows():
    # the records wait in blocks of _BLOCK steps, and each block's rows are
    # written in place, so a long gridded run peaks at its rows and the
    # returned copy of the grid (1.2 times the rows here), plus a little
    system, x0 = compose_example1(), np.array(EXAMPLE_X0)
    grid = np.arange(0.0, 1000.0 + 0.005, 0.01)
    integrate(system, Constant(3.3), x0, (0.0, 1.0), output_grid=grid[:101])  # compile
    # under tracemalloc, CPython 3.11 runs this loop about 20 times slower
    # without a profile hook than with one (20 s against 1 s on a 2-core box)
    tracemalloc.start()
    sys.setprofile(lambda *args: None)
    try:
        traj = integrate(system, Constant(3.3), x0, (0.0, 1000.0), output_grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    assert traj.states.shape == (100_001, 5)
    assert peak <= 1.3 * traj.states.nbytes


@pytest.mark.parametrize("dim", [*range(1, 21), 64])
def test_kernel_matches_numpy_reference_on_linear_systems(dim):
    # a random stable linear system; from 8 components on, numpy's pairwise
    # sum would order the error norm differently. Built by hand, or under
    # compose_autonomous, the loop writes out a row that calls it.
    rng = np.random.default_rng(dim)
    M = rng.standard_normal((dim, dim))
    A = M - M.T - np.diag(rng.uniform(0.5, 3.0, dim))
    field = VectorField(dim, lambda z: (A @ z).tolist())
    x0 = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3, dim)
    names = tuple(f"a{i}" for i in range(dim))
    for sys in (ComposedSystem(lambda t, z, u: field.rhs(z), names), compose_autonomous(field)):
        _assert_matches_reference(sys, U0, x0, (0.0, 3.0))
        _assert_matches_reference(sys, U0, x0, (0.0, 3.0),
                                  output_grid=np.linspace(0.0, 3.0, 31))


def _calling_row(n):
    """The row that holds a hand-built n-state system: it calls ``f``."""
    return ComposedSystem(lambda t, state, u: state, ("a",) * n).rhs.row


@pytest.mark.parametrize("n, copies", [(1, 1), (64, 1), (5, 2)], ids=["1", "64", "5-2"])
def test_kernel_is_compiled_once_from_its_source(n, copies):
    # n = 1 unpacks one-element lists; 64 lies past the dimensions above;
    # (5, 2) is the Lyapunov pair of the 5-state examples
    row = _calling_row(n)
    kernel = solver._kernel(n, copies, row, None)
    assert solver._kernel(n, copies, row, None) is kernel
    assert solver._KERNELS[n, copies, row, None] is kernel
    src = solver._dp45_source(n, copies, row)
    assert src == solver._dp45_source(n, copies, row)
    # the first derivative: one input call, one call of the hand-built RHS
    # per copy; then six stages in the loop, each with one input call and
    # one RHS call per copy
    assert src.count("u(t)") == 1
    assert src.count(" = r_f(t, ") == copies
    assert src.count("v = u(ts)") == 6
    assert src.count(" = r_f(ts, ") == 6 * copies
    unpack = ", ".join(f"r_f_{i}" for i in range(n))
    for c in range(copies):
        state = ", ".join(f"yn_{i}" for i in range(c * n, c * n + n))
        assert f"{unpack}, = r_f(ts, [{state}], v)" in src
    ns = {}
    exec(compile(src, "<test>", "exec"), vars(solver), ns)
    # co_code is the bytecode as compiled, before the interpreter specialises it
    fresh, cached = ns["dp45_loop"].__code__, kernel.__code__
    assert (fresh.co_code, fresh.co_consts, fresh.co_varnames) == (
        cached.co_code, cached.co_consts, cached.co_varnames)


def test_source_is_pinned():
    # the Lyapunov pair's loop with example1's row and its input written
    # out, pinned so that a template edit cannot change it unnoticed
    row = compose_example1().rhs.row
    for signal, digest in (
            (Sinusoid, "f11549af5e8cb06694ce5a2bb73a399a97a134eb2521e5087278b073f432c4b7"),
            (Constant, "a2429688f85522c8f896feedefc2ce56ff8a6d9b6bd0b08f16a6eede911ab64a")):
        src = solver._dp45_source(5, 2, row, signal)
        assert hashlib.sha256(src.encode()).hexdigest() == digest


# (n, copies, system, input class): loops with a row, and an input or none,
# written out
INLINED_SOURCES = {
    "example1-sin-2": (5, 2, compose_example1, Sinusoid),
    "example1-const-2": (5, 2, compose_example1, Constant),
    "example2-sin-1": (5, 1, compose_example2, Sinusoid),
    "general-called-input-1": (5, 1, lambda: compose_cascade(
        filter_one(), Saturation(0.1), lorenz_field()), None),
    "interp-lorenz-const-2": (5, 2, lambda: compose_cascade(
        filter_one(), Saturation(1e-4), lorenz_field(), stable_linear_field()), Constant),
    "lorenz-const-2": (3, 2, lambda: compose_autonomous(lorenz_field()), Constant),
    "reads-t-const-1": (1, 1, lambda: _READS_T, Constant),
}


def _inlined_source(case):
    n, copies, build, signal = INLINED_SOURCES[case]
    row = build().rhs.row
    return solver._dp45_source(n, copies, row, signal), row, signal


@pytest.mark.parametrize("n, copies", [(1, 1), (3, 2), (5, 2), (64, 1)])
def test_source_has_no_template_marker_left(n, copies):
    # a leftover [[...]] would still compile, as a nested list
    src = solver._dp45_source(n, copies, _calling_row(n))
    for marker in ("[[", "]]", "@"):
        assert marker not in src


@pytest.mark.parametrize("case", INLINED_SOURCES)
def test_inlined_source_has_no_template_marker_left(case):
    src, row, signal = _inlined_source(case)
    for marker in ("[[", "]]", "@"):
        assert marker not in src
    # what is written out is no longer called; the rest still is
    assert "rhs(" not in src
    assert ("u(t" in src) == (signal is None)
    # parameter values are read on entry, never written into the source
    assert ("rhs.values" in src) == bool(row.params)
    # the stage times are computed only where something reads them
    reads_t = signal is not Constant or "t" in _NAME.findall(" ".join(row.exprs))
    assert src.count("ts = t + c") == 6 * reads_t
    compile(src, "<test>", "exec")


class _CountedInput(InputSignal):
    """A wrapper around an input that counts its calls, as a tracer's does."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __call__(self, t):
        self.calls += 1
        return self.inner(t)


class _LoudSinusoid(Sinusoid):
    """A Sinusoid whose own __call__ counts its calls."""

    calls = 0

    def __call__(self, t):
        type(self).calls += 1
        return super().__call__(t)


def _run(rhs, signal, x0, copies):
    grid = np.linspace(0.0, 3.0, 7)
    return _advance_rows(rhs, signal, list(x0) * copies, len(x0), (0.0, 3.0),
                         IntegratorConfig(), grid)


def _plain(fn, calls):
    def counting(*args):
        calls.append(args)
        return fn(*args)

    return counting


class _Forwarding:
    """Calls ``fn``, recording each call, and forwards every other attribute
    lookup to it, so ``row`` and ``values`` read as ``fn``'s."""

    def __init__(self, fn, calls):
        self.fn, self.calls = fn, calls

    def __call__(self, *args):
        self.calls.append(args)
        return self.fn(*args)

    def __getattr__(self, name):
        return getattr(self.fn, name)


class _Forged(_Forwarding):
    """Calls ``fn``, recording each call, and carries ``fn``'s row and values
    as attributes of its own."""

    def __init__(self, fn, calls):
        super().__init__(fn, calls)
        self.row, self.values = fn.row, fn.values


# wrapper kind -> wrap(fn, calls), a callable that records its calls in
# ``calls`` and returns fn's result; "proxy" and "forged" show fn's row and
# values as their own
WRAPPERS = {
    "plain": _plain,
    "wraps": lambda fn, calls: functools.wraps(fn)(_plain(fn, calls)),
    "proxy": _Forwarding,
    "forged": _Forged,
}


@pytest.mark.parametrize("kind, copies", [
    pytest.param(kind, copies, id=str(copies) if kind == "plain" else f"{kind}-{copies}")
    for kind in WRAPPERS for copies in (1, 2)])
def test_inline_leaves_wrapped_callables_called(kind, copies):
    # a wrapper that dataclasses.replace puts in place of a bundled rhs, as a
    # tracer does, is held in a calling row, called once per copy for the
    # first derivative and six times per trial step, and the run keeps the
    # inlined run's bits; so is one that copies the rhs's attributes or
    # forwards lookups to it: only a built rhs's type marks its row
    sys = compose_example1()
    calls = []
    wrapper = WRAPPERS[kind](sys.rhs, calls)
    traced = dataclasses.replace(sys, rhs=wrapper)
    assert traced.rhs.values == (wrapper,)
    src = solver._dp45_source(5, copies, traced.rhs.row, Sinusoid)
    assert src.count("r_f(") == 7 * copies and "rhs(" not in src
    signal = _CountedInput(Sinusoid())
    inlined = _run(sys.rhs, Sinusoid(), EXAMPLE_X0, copies)
    assert _run(traced.rhs, signal, EXAMPLE_X0, copies).tobytes() == inlined.tobytes()
    trials = (signal.calls - 1) / 6
    assert trials == int(trials) > 10
    assert len(calls) == copies * (1 + 6 * trials)
    # the same trial steps as the reference step on one copy
    assert signal.calls == _assert_matches_reference(sys, Sinusoid(), EXAMPLE_X0, (0.0, 3.0))
    # an input wrapper alone, and a Sinusoid subclass with its own __call__,
    # are called in a loop that still writes the row out
    signal = _CountedInput(Sinusoid())
    assert _run(sys.rhs, signal, EXAMPLE_X0, copies).tobytes() == inlined.tobytes()
    assert signal.calls == 1 + 6 * trials
    _LoudSinusoid.calls = 0
    assert _run(sys.rhs, _LoudSinusoid(), EXAMPLE_X0, copies).tobytes() == inlined.tobytes()
    assert _LoudSinusoid.calls == 1 + 6 * trials
    assert (5, copies, sys.rhs.row, None) in solver._KERNELS
    assert (5, copies, traced.rhs.row, None) in solver._KERNELS
    # the same wrapper around a field's rhs is called from the cascade's row
    del calls[:]
    field = VectorField(3, WRAPPERS[kind](lorenz_field().rhs, calls))
    wrapped = compose_cascade(filter_one(), Saturation(0.1), field)
    src = solver._dp45_source(5, copies, wrapped.rhs.row, Sinusoid)
    assert src.count("r_f1_f(") == 7 * copies and "rhs(" not in src
    signal = _CountedInput(Sinusoid())
    assert _run(wrapped.rhs, signal, EXAMPLE_X0, copies).tobytes() == inlined.tobytes()
    assert len(calls) == copies * signal.calls


@pytest.mark.parametrize("copies", [1, 2])
def test_kernel_runs_a_traced_system_through_its_calling_row(copies):
    # a benchmark tracer times each RHS call with a closure that
    # dataclasses.replace puts in place of example1's rhs; the step loop
    # calls that closure from the row that holds it, once per copy for the
    # first derivative and six times per trial step, with the untraced bits
    sys = compose_example1()
    inner, tally = sys.rhs, {"calls": 0, "s": 0.0}

    def rhs(t, state, u):
        t0 = time.perf_counter()
        out = inner(t, state, u)
        tally["calls"] += 1
        tally["s"] += time.perf_counter() - t0
        return out

    traced = dataclasses.replace(sys, rhs=rhs)
    assert type(traced.rhs) is _RowRhs and traced.rhs.values == (rhs,)
    signal = _CountedInput(Sinusoid())
    rows = _run(traced.rhs, signal, EXAMPLE_X0, copies)
    assert rows.tobytes() == _run(sys.rhs, Sinusoid(), EXAMPLE_X0, copies).tobytes()
    trials = (signal.calls - 1) // 6
    assert signal.calls == 1 + 6 * trials and trials > 10
    assert tally["calls"] == copies * (1 + 6 * trials)


def test_row_of_another_length_is_rejected_where_its_system_is_built():
    # a row describes one copy of its own length; a system or field of
    # another length around it is an error when it is made, not in the loop
    with pytest.raises(ValueError, match="built for 5 states, not the 6 of this system"):
        dataclasses.replace(compose_example1(), state_names=("a",) * 6)
    with pytest.raises(ValueError, match="built for 3 states, not the 4 of this field"):
        VectorField(4, lorenz_field().rhs)
    with pytest.raises(ValueError, match="built for 1 states, not the 2 of this system"):
        ComposedSystem(_READS_T.rhs, ("a", "b"))


def test_row_of_a_field_is_rejected_as_a_systems_rhs():
    # Lorenz's row is compiled as rhs(state); as a system's rhs(t, state, u)
    # the loop would write it out, while a direct call raised TypeError
    with pytest.raises(ValueError, match=r"built as rhs\(state\), not the "
                                         r"rhs\(t, state, u\) of a system"):
        ComposedSystem(lorenz_field().rhs, ("a", "b", "c"))


def test_row_of_a_system_is_rejected_as_a_fields_rhs():
    # example1's row reads the input u, which a field's row has not
    with pytest.raises(ValueError, match=r"built as rhs\(t, state, u\), not the "
                                         r"rhs\(state\) of a field"):
        VectorField(5, compose_example1().rhs)


def test_inline_kernels_do_not_grow_with_parameter_values(monkeypatch):
    # K, the constant level and the sinusoid's parameters are read when the
    # loop is entered: one kernel per (n, copies, row, input class)
    monkeypatch.setattr(solver, "_KERNELS", {})
    x0 = np.array(EXAMPLE_X0)
    for K in (0.1, 0.5, 3.0):
        for compose in (compose_example1, compose_example2):
            for signal in (Constant(-1.0), Constant(4.5), Sinusoid(), Sinusoid(2.0, 1.5, 0.3)):
                integrate(compose(K), signal, x0, (0.0, 0.5))
                _run(compose(K).rhs, signal, EXAMPLE_X0, 2)
    rows = {compose_example1(7.0).rhs.row, compose_example2(7.0).rhs.row}
    assert set(solver._KERNELS) == {(5, copies, row, signal) for copies in (1, 2)
                                    for row in rows for signal in (Constant, Sinusoid)}
    # the general cascade's row is example1's, so it adds no kernel
    for K in (0.1, 2.0):
        sys = compose_cascade(filter_one(), Saturation(K), lorenz_field())
        integrate(sys, Sinusoid(amplitude=K), x0, (0.0, 0.5))
    assert len(solver._KERNELS) == 8


def test_inline_row_names_cannot_meet_the_loop_locals():
    # states and lets named like the loop's own locals (y, h, k, v, the
    # tableau's a10 and the stage component k0_0) are prefixed in the loop
    row = Row(("y", "h", "k"), ("-y + s * h", "-h - v + k0_0", "-a10 * k + y"),
              (("s", "0.5 * u"), ("v", "0.1 * y"), ("k0_0", "h * h")), ("a10",))
    sys = ComposedSystem(_row_rhs(row, (2.0,)), ("y", "h", "k"))
    for copies in (1, 2):
        _assert_matches_reference(sys, Sinusoid(), [1.0, -0.5, 0.25] * copies, (0.0, 5.0),
                                  output_grid=np.linspace(0.0, 5.0, 11))
        assert (3, copies, row, Sinusoid) in solver._KERNELS


@pytest.mark.parametrize("turn", ["non-finite", "raises"])
def test_pair_initial_derivative_of_the_second_copy_alone_is_a_divergence(turn):
    # the first copy's derivative is fine; the second copy sits on a pole
    def rhs(t, state, u):
        if state[0] != 2.0:
            return [-state[0]]
        return [math.inf] if turn == "non-finite" else [1.0 / (state[0] - 2.0)]

    with pytest.raises(DivergenceError) as err:
        solver._advance(ComposedSystem(rhs, ("a",)).rhs, U0, [1.0, 2.0], 1, 0.5, 1.0,
                        IntegratorConfig(), None)
    assert err.value.last_good_time == 0.5
    if turn == "raises":
        assert isinstance(err.value.__cause__, ZeroDivisionError)


@pytest.mark.parametrize("t_span", [(1.5, 2.0), (0.0, 2.0)], ids=["first call", "later stage"])
def test_input_own_value_error_passes_through(t_span):
    # Sampled raises ValueError outside its samples: at the first input call
    # on (1.5, 2), at a later stage on (0, 2); neither is a wrong-length RHS
    signal = Sampled(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="outside sampled range"):
        integrate(LAG, signal, np.array([0.5]), t_span)
    with pytest.raises(ValueError, match="outside sampled range"):
        solver._advance(LAG.rhs, signal, [0.5, 0.25], 1, *t_span, IntegratorConfig(), None)


def test_kernel_matches_numpy_reference_with_rejected_steps(monkeypatch):
    # a tight tolerance and a large first step: the controller rejects steps
    monkeypatch.setattr(solver, "_H_INIT", 0.1)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    n_calls = _assert_matches_reference(compose_example1(), Sinusoid(), EXAMPLE_X0,
                                        (0.0, 2.0), cfg)
    accepted = integrate(compose_example1(), Sinusoid(), np.array(EXAMPLE_X0),
                         (0.0, 2.0), cfg).times.size - 1
    assert n_calls > 1 + 6 * accepted  # each rejected trial costs 6 more calls


def test_kernel_matches_numpy_reference_through_nonfinite_trials():
    _assert_matches_reference(CUBIC, U0, [1e3], (0.0, 10.0))
    _assert_matches_reference(CUBIC, U0, [1e3], (0.0, 10.0),
                              output_grid=np.array([10.0]))


# An independent oracle: scipy's 8th-order Dormand-Prince at a tolerance far
# below the ones tried here stands in for the exact solution.
ORACLE_CASES = {
    "lorenz": (lambda: LORENZ, U0, [1.0, 1.0, 1.0], 5.0),
    "example1-sin": (compose_example1, Sinusoid(), EXAMPLE_X0, 10.0),
    "example2-sin": (compose_example2, Sinusoid(), EXAMPLE2_X0, 10.0),
    "example2-const": (compose_example2, Constant(5.13), EXAMPLE2_X0, 10.0),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_integrate_converges_to_an_independent_high_order_solution(case):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    build, signal, x0, t_end = ORACLE_CASES[case]
    sys = build()
    grid = np.arange(0.0, t_end + 0.25, 0.5)
    ref = solve_ivp(lambda t, y: sys.rhs(t, y.tolist(), signal(t)), (0.0, t_end), x0,
                    method="DOP853", t_eval=grid, rtol=1e-13, atol=1e-15)
    assert ref.success
    b = ref.y.T
    errs = {}
    for rt in (1e-6, 1e-8, 1e-10):
        a = integrate(sys, signal, np.array(x0), (0.0, t_end),
                      IntegratorConfig(rel_tol=rt, abs_tol=rt / 100), grid).states
        errs[rt] = np.max(np.abs(a - b) / (1.0 + np.abs(b)))
    assert errs[1e-8] < 1e-4
    assert errs[1e-8] <= errs[1e-6] / 10
    assert errs[1e-10] <= errs[1e-8] / 10
