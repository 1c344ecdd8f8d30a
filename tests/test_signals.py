import numpy as np
import pytest

from entrain.signals import Constant, Sampled, Sinusoid, parse_input_spec


def test_constant_is_constant():
    u = Constant(3.5)
    for t in (0.0, 1.0, 1e6, -2.0):
        assert u(t) == 3.5
    assert u.spec == "const:3.5"


def test_sinusoid_default_is_sin_t():
    u = Sinusoid()
    ts = np.linspace(0, 10, 101)
    np.testing.assert_allclose([u(t) for t in ts], np.sin(ts), atol=1e-15)


def test_sinusoid_amplitude_omega_phase():
    u = Sinusoid(amplitude=2.0, omega=3.0, phase=0.5)
    assert u(1.2) == pytest.approx(2.0 * np.sin(3.0 * 1.2 + 0.5))
    assert u.spec == "sin:2:3:0.5"


def test_sinusoid_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        Sinusoid(omega=0.0)
    with pytest.raises(ValueError):
        Sinusoid(omega=-1.0)


def test_sampled_interpolates_linearly():
    u = Sampled(times=(0.0, 1.0, 2.0), values=(0.0, 2.0, 0.0), source="mem")
    assert u(0.5) == pytest.approx(1.0)
    assert u(1.5) == pytest.approx(1.0)
    assert u(1.0) == pytest.approx(2.0)


def test_sampled_rejects_out_of_range_time():
    u = Sampled(times=(0.0, 1.0), values=(0.0, 1.0), source="mem")
    with pytest.raises(ValueError):
        u(1.5)
    with pytest.raises(ValueError):
        u(-0.1)


def test_sampled_owns_read_only_copies():
    # changing the caller's array, or the signal's own, cannot move a sample
    times, values = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.2, 0.4])
    u = Sampled(times, values)
    times[1] = 5.0
    values[2] = 9.0
    assert u.times.tolist() == [0.0, 1.0, 2.0]
    assert u(1.5) == pytest.approx(0.3)
    for a in (u.times, u.values):
        with pytest.raises(ValueError, match="read-only"):
            a[1] = 5.0


def test_sampled_validates_grid():
    with pytest.raises(ValueError):
        Sampled(times=(0.0, 0.0, 1.0), values=(1.0, 2.0, 3.0), source="mem")
    with pytest.raises(ValueError):
        Sampled(times=(0.0,), values=(1.0,), source="mem")
    with pytest.raises(ValueError):
        Sampled(times=(0.0, np.inf), values=(1.0, 2.0), source="mem")


@pytest.mark.parametrize("make", [
    lambda: Constant(np.nan),
    lambda: Constant(-np.inf),
    lambda: Sinusoid(amplitude=np.inf),
    lambda: Sinusoid(omega=np.inf),
    lambda: Sinusoid(phase=np.nan),
    lambda: parse_input_spec("const:nan"),
    lambda: parse_input_spec("sin:inf:1"),
    lambda: parse_input_spec("sin:1:inf"),
], ids=["const-nan", "const-inf", "sin-amplitude-inf", "sin-omega-inf",
        "sin-phase-nan", "spec-const-nan", "spec-sin-inf-1", "spec-sin-1-inf"])
def test_nonfinite_parameters_rejected(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_parse_const_and_sin():
    assert isinstance(parse_input_spec("const:10"), Constant)
    assert parse_input_spec("const:-2.5")(0.0) == -2.5
    s = parse_input_spec("sin:1:1")
    assert isinstance(s, Sinusoid)
    assert s(np.pi / 2) == pytest.approx(1.0)
    s2 = parse_input_spec("sin:2:0.5:0.1")
    assert s2.amplitude == 2.0 and s2.omega == 0.5 and s2.phase == 0.1


def test_parse_file_roundtrip(tmp_path):
    path = tmp_path / "drive.csv"
    path.write_text("t,u\n0.0,0.0\n1.0,1.0\n2.0,4.0\n")
    u = parse_input_spec(f"file:{path}")
    assert u(0.5) == pytest.approx(0.5)
    assert u(1.5) == pytest.approx(2.5)


def test_parse_rejects_garbage():
    for bad in ("", "const", "const:abc", "sin:1", "tri:1:1", "sin:1:0"):
        with pytest.raises(ValueError):
            parse_input_spec(bad)


def test_spec_round_trips_exactly():
    rng = np.random.default_rng(3123456)
    for text in ("const:3.5", "const:10", "sin:2:3:0.5", "sin:1:1:0"):
        assert parse_input_spec(text).spec == text
    assert Constant(3.123456).spec == "const:3.123456"
    assert Sinusoid(1.0, 1.0000001).spec == "sin:1:1.0000001:0"

    def draw():
        return rng.standard_normal() * 10.0 ** rng.integers(-20, 21)

    for _ in range(2000):
        for sig in (Constant(draw()), Sinusoid(draw(), abs(draw()) or 1.0, draw())):
            assert parse_input_spec(sig.spec) == sig
