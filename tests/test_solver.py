"""Integrator contract: accuracy, grid handling, determinism, failure modes."""

import numpy as np
import pytest

from entrain.blocks import (
    LorenzParams,
    Saturation,
    VectorField,
    compose_autonomous,
    compose_example1,
    compose_example2,
)
from entrain.signals import Constant, Sinusoid
from entrain.solver import (
    _A_TERMS,
    _DP_A,
    _DP_B5,
    _DP_ERR,
    _ERR_TERMS,
    DivergenceError,
    IntegratorConfig,
    StepBudgetError,
    StiffnessError,
    _combine,
    _error_norm,
    _hermite,
    _terms,
    integrate,
    integrate_pair,
    pair_system,
)

LAG = compose_autonomous(VectorField(1, lambda z: -z + 1.0), "lag")
DECAY = compose_autonomous(VectorField(1, lambda z: -z), "decay")
LORENZ = compose_autonomous(
    VectorField(3, lambda z: np.array([10.0 * (z[1] - z[0]),
                                       28.0 * z[0] - z[1] - z[0] * z[2],
                                       z[0] * z[1] - 8.0 / 3.0 * z[2]])),
    "lorenz")
U0 = Constant(0.0)


def test_config_validation():
    IntegratorConfig()  # defaults are valid
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1e-10)
    with pytest.raises(ValueError):
        IntegratorConfig(h_min=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(h_init=1.0, h_max=0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)


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


def test_zero_span_returns_single_row():
    traj = integrate(DECAY, U0, np.array([2.0]), (0.0, 0.0))
    assert traj.times.shape == (1,)
    assert traj.states[0, 0] == 2.0


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


def test_grid_validation():
    with pytest.raises(ValueError):
        integrate(DECAY, U0, np.array([1.0]), (0.0, 1.0),
                  output_grid=np.array([0.0, 2.0]))  # outside span
    with pytest.raises(ValueError):
        integrate(DECAY, U0, np.array([1.0]), (0.0, 1.0),
                  output_grid=np.array([0.5, 0.5]))  # not increasing
    with pytest.raises(ValueError):
        integrate(DECAY, U0, np.array([1.0, 2.0]), (0.0, 1.0))  # bad x0 shape
    with pytest.raises(ValueError):
        integrate(DECAY, U0, np.array([1.0]), (1.0, 0.0))  # decreasing span


def test_rk4_order_four():
    # on dz = -z the global error should shrink ~16x when h is halved
    errs = []
    for h in (0.1, 0.05):
        cfg = IntegratorConfig(method="rk4_fixed", h_init=h, h_max=1.0)
        traj = integrate(DECAY, U0, np.array([1.0]), (0.0, 2.0), cfg,
                         output_grid=np.array([2.0]))
        errs.append(abs(traj.final_state[0] - np.exp(-2.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_rk4_lands_on_grid_exactly():
    cfg = IntegratorConfig(method="rk4_fixed", h_init=0.013, h_max=1.0)
    grid = np.array([0.5, 1.0, 1.7])
    traj = integrate(DECAY, U0, np.array([1.0]), (0.0, 1.7), cfg, output_grid=grid)
    assert np.array_equal(traj.times, grid)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-grid), rtol=1e-8)


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


def test_divergence_error_reports_last_good_time():
    blow = compose_autonomous(VectorField(1, lambda z: z * z), "blowup")
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        # solution blows up at t = 1; overflow long before t = 2
        integrate(blow, U0, np.array([1.0]), (0.0, 2.0),
                  IntegratorConfig(h_min=1e-300))
    assert 0.9 <= err.value.last_good_time <= 1.01
    assert "last good time" in str(err.value)


def test_stiffness_error_when_step_underflows():
    blow = compose_autonomous(VectorField(1, lambda z: z * z), "blowup")
    with np.errstate(all="ignore"), pytest.raises(StiffnessError):
        # with the default h_min the step controller underflows first
        integrate(blow, U0, np.array([1.0]), (0.0, 2.0))


def test_nonfinite_trial_step_is_rejected():
    # dz = -z^3 from z0 = 1e3: the first trial steps overflow, yet the exact
    # solution z(t) = 1 / sqrt(2 t + 1e-6) decays smoothly
    cubic = compose_autonomous(VectorField(1, lambda z: -z ** 3), "cubic")
    with np.errstate(all="ignore"):
        traj = integrate(cubic, U0, np.array([1e3]), (0.0, 10.0),
                         output_grid=np.array([10.0]))
    assert traj.final_state[0] == pytest.approx(1.0 / np.sqrt(20.000001), rel=1e-7)


def test_step_budget_error():
    with pytest.raises(StepBudgetError):
        integrate(DECAY, U0, np.array([1.0]), (0.0, 10.0),
                  IntegratorConfig(max_steps=3))


def test_pair_identical_starts_stay_bitwise_equal():
    x0 = np.array([1.0, 1.0, 1.0])
    a, b = integrate_pair(LORENZ, U0, x0, x0.copy(), (0.0, 5.0),
                          output_grid=np.linspace(0.0, 5.0, 51))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_pair_contraction_matches_linear_rate():
    # on dz = -z the separation of any two starts decays exactly like e^-t
    a, b = integrate_pair(DECAY, U0, np.array([0.0]), np.array([3.0]),
                          (0.0, 5.0), output_grid=np.array([5.0]))
    sep = abs(a.final_state[0] - b.final_state[0])
    assert sep == pytest.approx(3.0 * np.exp(-5.0), rel=0.01)


def test_pair_chaotic_separation_grows():
    # from a point on the attractor, a 1e-9 perturbation grows by far more
    # than 1e3 over 20 time units
    warm = integrate(LORENZ, U0, np.array([1.0, 1.0, 1.0]), (0.0, 25.0),
                     output_grid=np.array([25.0]))
    x_on = warm.final_state
    a, b = integrate_pair(LORENZ, U0, x_on, x_on + np.array([1e-9, 0.0, 0.0]),
                          (0.0, 20.0), output_grid=np.array([20.0]))
    growth = np.linalg.norm(a.final_state - b.final_state) / 1e-9
    assert growth > 1e3


def test_trajectory_column_accessor():
    sys = compose_example1()
    traj = integrate(sys, Constant(1.0), np.zeros(5), (0.0, 1.0),
                     output_grid=np.array([0.0, 1.0]))
    assert traj.column("x").shape == (2,)
    with pytest.raises(KeyError):
        traj.column("bogus")


# The solver's fused stage sums, error norm and column Hermite call must give
# the same bits as the plain per-term loop, np.mean and per-point calls.


def _combine_loop(coeffs, K, n_terms):
    acc = coeffs[0] * K[0]
    for k in range(1, n_terms):
        c = coeffs[k]
        if c != 0.0:
            acc += c * K[k]
    return acc


def _hermite_point(t, t0, h, y0, y1, f0, f1):
    th = (t - t0) / h
    th2 = th * th
    th3 = th2 * th
    return ((2 * th3 - 3 * th2 + 1) * y0
            + (th3 - 2 * th2 + th) * h * f0
            + (-2 * th3 + 3 * th2) * y1
            + (th3 - th2) * h * f1)


def _random_stages(rng, dim, stages=7):
    # magnitudes spread over 10 decades, so that sums round often
    shape = (stages, dim)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)


@pytest.mark.parametrize("dim", range(1, 13))
def test_combine_matches_loop_bitwise(dim):
    rng = np.random.default_rng(dim)
    rows = [(_A_TERMS[i], _DP_A[i], i) for i in range(1, 7)]
    rows += [(_terms(_DP_B5), _DP_B5, 7), (_ERR_TERMS, _DP_ERR, 7)]
    for _ in range(20):
        K = _random_stages(rng, dim)
        for terms, coeffs, n_terms in rows:
            assert _combine(terms, K).tobytes() == _combine_loop(coeffs, K, n_terms).tobytes()
        # first-same-as-last: the last stage's input is the 5th-order result
        assert (_combine(_A_TERMS[6], K).tobytes()
                == _combine_loop(_DP_B5, K, 7).tobytes())
    # longer rows than DOPRI5's, with and without gaps: the sum stays in order
    for _ in range(20):
        K = _random_stages(rng, dim, 12)
        for coeffs in (rng.standard_normal(12), np.repeat([1.5, 0.0, -0.3], 4)):
            assert (_combine(_terms(coeffs), K).tobytes()
                    == _combine_loop(coeffs, K, 12).tobytes())


@pytest.mark.parametrize("size", [*range(1, 13), 40, 1000])
def test_error_norm_matches_numpy_mean_bitwise(size):
    rng = np.random.default_rng(size)
    for _ in range(20):
        q = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
        assert (np.float64(_error_norm(q)).tobytes()
                == np.sqrt(np.mean(q ** 2)).tobytes())


def test_hermite_on_a_column_matches_per_point_calls_bitwise():
    rng = np.random.default_rng(5)
    for dim in (1, 5, 10):
        y0, y1, f0, f1 = _random_stages(rng, dim)[:4]
        t0, h = 3.7, 0.0913
        ts = np.sort(rng.uniform(t0, t0 + h, 9))
        ref = np.array([_hermite_point(t, t0, h, y0, y1, f0, f1) for t in ts])
        assert _hermite(ts[:, None], t0, h, y0, y1, f0, f1).tobytes() == ref.tobytes()


def _example_reference(which, K, state, u):
    """The example RHS bodies on numpy scalars, as unpacked from the array."""
    sat = Saturation(K)
    x, p, xi, psi, zeta = state
    y = x + u
    if which == 1:
        s, r, b = LorenzParams().s, LorenzParams().r, LorenzParams().b
        z_dot = [p * (s * (psi - xi)), p * (r * xi - psi - xi * zeta),
                 p * (xi * psi - b * zeta)]
    else:
        z_dot = [10.0 * (psi - xi), 28.0 * p * xi - psi - p * xi * zeta,
                 p * xi * psi - (8.0 / 3.0) * zeta]
    return np.array([-x - u, -p + sat(y)] + z_dot)


def test_example_rhs_bitwise_under_float_and_numpy_inputs():
    rng = np.random.default_rng(6)
    for which, sys, K in ((1, compose_example1(), 0.1), (2, compose_example2(), 1e-4)):
        pair = pair_system(sys)
        for _ in range(50):
            state = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 2, 5)
            u = float(rng.uniform(-10.0, 10.0))
            ref = _example_reference(which, K, state, u).tobytes()
            assert sys.rhs(0.0, state, u).tobytes() == ref
            assert sys.rhs(0.0, state, np.float64(u)).tobytes() == ref
            both = pair.rhs(0.0, np.concatenate([state, state]), u)
            assert both.tobytes() == 2 * ref


def test_sinusoid_returns_python_float_of_numpy_sin():
    sig = Sinusoid(amplitude=1.3, omega=2.1, phase=0.4)
    for t in np.random.default_rng(7).uniform(-100.0, 100.0, 50):
        u = sig(float(t))
        assert type(u) is float
        assert np.float64(u).tobytes() == (1.3 * np.sin(2.1 * t + 0.4)).tobytes()
