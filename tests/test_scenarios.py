import dataclasses

import numpy as np
import pytest

from entrain.scenarios import (
    DEFAULT_INPUT,
    DEFAULT_T_END,
    SCENARIO_IDS,
    ScenarioSpec,
    build_reference_system,
    build_system,
    default_spec,
)

rng = np.random.default_rng(6021)


def test_every_scenario_builds_and_evaluates():
    for name in SCENARIO_IDS:
        sys = build_system(name)
        assert sys.dim == 5
        state = rng.uniform(-2, 2, size=5)
        out = np.asarray(sys.rhs(0.0, state.tolist(), 1.3))
        assert out.shape == (5,)
        assert np.all(np.isfinite(out))


def test_scenario_state_names():
    for name in ("example1", "example2", "interp-lorenz"):
        assert build_system(name).state_names == ("x", "p", "xi", "psi", "zeta")
    gen = build_system("general")
    assert gen.state_names[:2] == ("x", "p")


def test_unknown_names_raise():
    with pytest.raises(KeyError):
        build_system("example3")
    with pytest.raises(KeyError):
        default_spec("bogus")
    with pytest.raises(KeyError):
        build_reference_system("rossler")


def test_saturation_constant_override():
    # default K differs per scenario; an explicit K wins
    assert default_spec("example1").K == 0.1
    assert default_spec("example2").K == 1e-4
    state = np.array([0.4, 0.5, 1.0, 2.0, 3.0])
    default = build_system("example1").rhs(0.0, state, 2.0)
    overridden = build_system("example1", K=10.0).rhs(0.0, state, 2.0)
    assert not np.allclose(default, overridden)
    same = build_system("example1", K=0.1).rhs(0.0, state, 2.0)
    np.testing.assert_array_equal(default, same)


def test_interp_scenario_matches_example2():
    a = build_system("interp-lorenz")
    b = build_system("example2")
    for _ in range(50):
        state = rng.uniform(-5, 5, size=5)
        u = rng.uniform(-5, 5)
        np.testing.assert_allclose(a.rhs(0.0, state, u), b.rhs(0.0, state, u),
                                   rtol=0, atol=1e-12)


def test_default_spec_is_runnable():
    # a row holds only what varies between scenarios; input and horizon are
    # the same for all
    assert [f.name for f in dataclasses.fields(ScenarioSpec)] == ["K", "x0", "compose"]
    assert (DEFAULT_INPUT, DEFAULT_T_END) == ("sin:1:1", 200.0)
    for name in SCENARIO_IDS:
        spec = default_spec(name)
        sys = build_system(name)
        assert sys.dim == len(spec.x0)
        assert sys.z == (2, 3, 4)


def test_reference_lorenz_system():
    sys, x0 = build_reference_system("lorenz")
    assert sys.dim == 3
    assert x0 == (1.0, 1.0, 1.0)
    # classic equilibrium check: the fixed point at the origin
    assert np.allclose(sys.rhs(0.0, np.zeros(3), 0.0), 0.0)
