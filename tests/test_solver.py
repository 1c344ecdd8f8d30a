"""Integrator contract: accuracy, grid handling, determinism, failure modes."""

import math

import numpy as np
import pytest

from entrain import solver
from entrain.blocks import (
    ComposedSystem,
    Saturation,
    VectorField,
    compose_autonomous,
    compose_cascade,
    compose_example1,
    compose_example2,
    lorenz_field,
)
from entrain.diagnostics import _stacked_pair
from entrain.lti import LtiSystem
from entrain.signals import Constant, Sinusoid
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
    short = compose_autonomous(VectorField(3, lambda z: [-z[0]]))
    for grid in (None, np.array([0.5, 1.0])):
        with pytest.raises(ValueError, match="length 1 for a state of length 3"):
            integrate(short, U0, np.ones(3), (0.0, 1.0), output_grid=grid)


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


def _pair_halves(sys, x0_a, x0_b, t_span, output_grid):
    """Integrate two starts of ``sys`` jointly; the two halves' states."""
    traj = integrate(_stacked_pair(sys), U0, np.concatenate([x0_a, x0_b]), t_span,
                     output_grid=output_grid)
    return traj.states[:, :sys.dim], traj.states[:, sys.dim:]


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
        pair = _stacked_pair(sys)
        for _ in range(50):
            state = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 2, 5)
            u = float(rng.uniform(-10.0, 10.0))
            ref = _example_reference(which, K, state, u).tobytes()
            assert _floats(sys.rhs(0.0, state.tolist(), u), 5) == ref
            assert np.array(sys.rhs(0.0, state.tolist(), np.float64(u))).tobytes() == ref
            both = pair.rhs(0.0, state.tolist() * 2, u)
            assert _floats(both, 10) == 2 * ref


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
    return how many RHS calls the reference made."""
    calls = []

    def f(t, y):
        calls.append(t)
        return sys.rhs(t, y, signal(t))

    x0 = np.asarray(x0, dtype=float)
    grid = None if output_grid is None else np.asarray(output_grid, dtype=float)
    with np.errstate(all="ignore"):
        times, states = _ref_dp45(f, x0, t_span[0], t_span[1], cfg, grid)
    n_ref = len(calls)
    traj = integrate(sys, signal, x0, t_span, cfg, output_grid)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    return n_ref


def _two_state_filter_cascade():
    return compose_cascade(TWO_STATE_FILTER, Saturation(0.1), lorenz_field())


EXAMPLE_X0 = [5.0, 0.0, 1.0, 0.0, 0.0]
EXAMPLE2_X0 = [2.95, -0.98, 0.94, -4.07, 4.89]
REFERENCE_CASES = {
    "example1-const": (compose_example1, Constant(10.0), EXAMPLE_X0, 10.0),
    "example1-sin": (compose_example1, Sinusoid(), EXAMPLE_X0, 10.0),
    "example2-const": (compose_example2, Constant(-3.0), EXAMPLE_X0, 10.0),
    "example2-sin": (compose_example2, Sinusoid(), EXAMPLE_X0, 10.0),
    "pair-example1": (lambda: _stacked_pair(compose_example1()), Sinusoid(),
                      EXAMPLE_X0 + [5.0, 0.0, 1.0 + 1e-8, 0.0, 0.0], 5.0),
    "two-state-filter": (_two_state_filter_cascade, Constant(7.0),
                         [0.5, -1.0, 0.25, 1.0, 2.0, 3.0], 10.0),
    "lorenz": (lambda: LORENZ, U0, [1.0, 1.0, 1.0], 5.0),
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


@pytest.mark.parametrize("dim", range(1, 21))
def test_kernel_matches_numpy_reference_on_linear_systems(dim):
    # a random stable linear system; from 8 components on, numpy's pairwise
    # sum would order the error norm differently
    rng = np.random.default_rng(dim)
    M = rng.standard_normal((dim, dim))
    A = M - M.T - np.diag(rng.uniform(0.5, 3.0, dim))
    sys = compose_autonomous(VectorField(dim, lambda z: (A @ z).tolist()))
    x0 = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3, dim)
    _assert_matches_reference(sys, U0, x0, (0.0, 3.0))
    _assert_matches_reference(sys, U0, x0, (0.0, 3.0),
                              output_grid=np.linspace(0.0, 3.0, 31))


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
