"""The saturation map, the Lorenz ingredients, and the cascade builders."""

import numpy as np
import pytest

from entrain.blocks import (
    ComposedSystem,
    Saturation,
    VectorField,
    compose_autonomous,
    compose_cascade,
    compose_example1,
    compose_example2,
    filter_one,
    lorenz_field,
    stable_linear_field,
)
from entrain.diagnostics import classify_response
from entrain.lti import LtiSystem, has_zero_at_origin
from entrain.signals import Constant
from entrain.solver import integrate

rng = np.random.default_rng(20240817)


def test_alpha_properties_bulk():
    # bounds, evenness, zero at zero, monotone in |y| -- checked on 10^4 draws
    for K in (0.1, 1e-4, 1.0):
        sat = Saturation(K)
        y = rng.uniform(-100.0, 100.0, size=10_000)
        vals = np.array([sat(v) for v in y])
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)
        np.testing.assert_allclose(vals, [sat(-v) for v in y], rtol=0, atol=0)
        assert sat(0.0) == 0.0
        ay = np.sort(np.abs(y))
        mono = np.array([sat(v) for v in ay])
        assert np.all(np.diff(mono) >= 0.0)


def test_alpha_half_saturation_point():
    # alpha(sqrt(K)) = 1/2 exactly
    for K in (0.1, 1e-4):
        assert Saturation(K)(np.sqrt(K)) == pytest.approx(0.5, abs=1e-15)


def test_alpha_rejects_bad_K():
    with pytest.raises(ValueError):
        Saturation(0.0)
    with pytest.raises(ValueError):
        Saturation(-1.0)


def test_lorenz_rhs_standard_parameters():
    # s = 10, r = 28, b = 8/3
    dz = lorenz_field().rhs([1.0, 2.0, 3.0])
    assert type(dz) is list
    np.testing.assert_allclose(dz, [10.0, 28.0 - 2.0 - 3.0, 2.0 - 8.0], atol=1e-15)


def test_lorenz_equilibria():
    b, r = 8.0 / 3.0, 28.0
    f = lorenz_field().rhs
    np.testing.assert_allclose(f(np.zeros(3)), 0.0, atol=0)
    c = np.sqrt(b * (r - 1.0))
    np.testing.assert_allclose(f(np.array([c, c, r - 1.0])), 0.0, atol=1e-13)


def test_stable_linear_field_contracts():
    g = stable_linear_field()
    # eigenvalues of [[-10,10,0],[0,-1,0],[0,0,-8/3]] are -10, -1, -8/3
    dz = g.rhs([1.0, -2.0, 0.5])
    assert type(dz) is list
    np.testing.assert_allclose(dz, [10 * (-2.0 - 1.0), 2.0, -0.5 * 8 / 3], atol=1e-15)


def test_example1_rhs_hand_computed():
    sys = compose_example1()
    state = np.array([1.0, 0.5, 1.0, 2.0, 3.0])
    u = 2.0
    y = 1.0 + 2.0  # C x + D u
    expected = np.array([
        -1.0 - 2.0,
        -0.5 + y * y / (0.1 + y * y),
        0.5 * 10.0 * (2.0 - 1.0),
        0.5 * (28.0 * 1.0 - 2.0 - 1.0 * 3.0),
        0.5 * (1.0 * 2.0 - 8.0 / 3.0 * 3.0),
    ])
    np.testing.assert_allclose(sys.rhs(0.0, state, u), expected, atol=1e-15)


def test_example2_rhs_hand_computed():
    sys = compose_example2()
    state = np.array([1.0, 0.5, 1.0, 2.0, 3.0])
    u = 2.0
    y = 3.0
    expected = np.array([
        -3.0,
        -0.5 + y * y / (1e-4 + y * y),
        10.0 * (2.0 - 1.0),
        28.0 * 0.5 * 1.0 - 2.0 - 0.5 * 1.0 * 3.0,
        0.5 * 1.0 * 2.0 - 8.0 / 3.0 * 3.0,
    ])
    np.testing.assert_allclose(sys.rhs(0.0, state, u), expected, atol=1e-15)


def test_example2_origin_is_equilibrium_to_machine_precision():
    sys = compose_example2()
    out = np.asarray(sys.rhs(0.0, [0.0] * 5, 0.0))
    assert np.all(out == 0.0)


def test_general_matches_example1_pointwise():
    # bit for bit, signed zeros included: at x = u = 0 both give dx = -0.0
    gen = compose_cascade(filter_one(), Saturation(0.1), lorenz_field())
    e1 = compose_example1()
    cases = [([0.0, 0.0, 1.0, 0.0, 0.0], 0.0), ([-0.0, 0.0, 0.0, -0.0, 0.0], -0.0)]
    for _ in range(100):
        cases.append((rng.uniform(-10, 10, size=5).tolist(), float(rng.uniform(-10, 10))))
    for state, u in cases:
        t = float(rng.uniform(0, 100))
        out = gen.rhs(t, state, u)
        assert type(out) is list
        assert np.array(out).tobytes() == np.array(e1.rhs(t, state, u)).tobytes()


def test_cascade_around_a_two_state_filter():
    # W(s) = s / ((s + 1)(s + 2)) in controllable canonical form
    filt = LtiSystem(A=[[0.0, 1.0], [-2.0, -3.0]], B=[0.0, 1.0], C=[0.0, 1.0], D=0.0)
    sys = compose_cascade(filt, Saturation(0.1), lorenz_field())
    assert sys.state_names == ("x0", "x1", "p", "z0", "z1", "z2")
    assert sys.dim == 6
    assert sys.z == (3, 4, 5)

    x0, x1, p, xi, psi, zeta = state = np.array([0.5, -1.0, 0.25, 1.0, 2.0, 3.0])
    u = 2.0
    y = x1
    expected = [x1, -2.0 * x0 - 3.0 * x1 + u, -p + y * y / (0.1 + y * y),
                p * 10.0 * (psi - xi), p * (28.0 * xi - psi - xi * zeta),
                p * (xi * psi - 8.0 / 3.0 * zeta)]
    np.testing.assert_allclose(sys.rhs(0.0, state, u), expected, rtol=1e-15, atol=0)

    # a constant input settles x at (u/2, 0), so y and then p decay and z freezes
    rec = classify_response(sys, Constant(7.0), np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
                            ss_horizon=100.0)
    assert rec.verdict == "steady_state"


def test_interpolated_matches_example2_pointwise():
    # example 2 is exactly the p-interpolation between the stable linear
    # field and the Lorenz field behind the same front end
    interp = compose_cascade(filter_one(), Saturation(1e-4), lorenz_field(),
                             stable_linear_field())
    e2 = compose_example2()
    for _ in range(100):
        state = rng.uniform(-10, 10, size=5)
        u = rng.uniform(-10, 10)
        np.testing.assert_allclose(interp.rhs(0.0, state, u),
                                   e2.rhs(0.0, state, u), rtol=0, atol=1e-12)


def test_layout_and_names():
    sys = compose_example1()
    assert sys.dim == 5
    assert sys.state_names == ("x", "p", "xi", "psi", "zeta")
    assert sys.z == (2, 3, 4) == compose_example2().z
    x0 = np.arange(5.0)
    traj = integrate(sys, Constant(0.0), x0, (0.0, 0.0))
    assert traj.state_names == sys.state_names
    assert np.array_equal(traj.column("psi"), [3.0])
    with pytest.raises(KeyError, match="nope"):
        traj.column("nope")


def test_front_end_must_be_hurwitz_with_zero_at_origin():
    unstable = LtiSystem(A=[[1.0]], B=[-1.0], C=[1.0], D=1.0)
    with pytest.raises(ValueError):
        compose_cascade(unstable, Saturation(0.1), lorenz_field())
    lag = LtiSystem(A=[[-1.0]], B=[1.0], C=[1.0], D=0.0)  # W(0) = 1
    with pytest.raises(ValueError):
        compose_cascade(lag, Saturation(0.1), lorenz_field())


@pytest.mark.parametrize("D, zero", [(1.0 + 5e-10, True), (1.0 + 5e-9, False)],
                         ids=["inside", "outside"])
def test_zero_at_origin_is_what_the_cascade_accepts(D, zero):
    # W(0) = D - 1; one bound, |W(0)| <= 1e-9, decides both
    filt = LtiSystem(A=[[-1.0]], B=[-1.0], C=[1.0], D=D)
    assert has_zero_at_origin(filt) is zero
    if zero:
        assert compose_cascade(filt, Saturation(0.1), lorenz_field()).dim == 5
    else:
        with pytest.raises(ValueError, match="zero at s=0"):
            compose_cascade(filt, Saturation(0.1), lorenz_field())


def test_interpolated_requires_matching_dims():
    with pytest.raises(ValueError):
        compose_cascade(filter_one(), Saturation(0.1), lorenz_field(),
                        VectorField(2, lambda z: -z))


def test_autonomous_wrapper_ignores_input():
    sys = compose_autonomous(lorenz_field())
    z = [1.0, 2.0, 3.0]
    assert sys.rhs(0.0, z, 0.0) == sys.rhs(5.0, z, 99.0) == lorenz_field().rhs(z)
    assert sys.z == (0, 1, 2)
    assert sys.state_names == ("z0", "z1", "z2")


def test_z_block_must_be_distinct_indices_of_the_state():
    def rhs(t, state, u):
        return state

    names = ("a", "b", "c")
    assert ComposedSystem(rhs, names).z == ()
    assert ComposedSystem(rhs, names, (2, 0)).z == (2, 0)
    for bad in ((0, 0), (3,), (-1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="distinct indices in 0..2"):
            ComposedSystem(rhs, names, bad)


def test_system_without_state_is_rejected():
    # an empty state would reach the solver's error norm as a division by 0
    with pytest.raises(ValueError, match="at least one state"):
        ComposedSystem(lambda t, x, u: [], ())


def test_examples_validate_K():
    for compose in (compose_example1, compose_example2):
        with pytest.raises(ValueError, match="must be positive"):
            compose(K=0.0)
