import numpy as np
import pytest

from entrain.blocks import filter_one
from entrain.lti import (
    LtiSystem,
    has_zero_at_origin,
    sinusoid_steady_state,
    transfer_eval,
)

F1 = filter_one()


def test_filter_one_shapes_and_matrices():
    assert F1.A.shape == (1, 1)
    assert F1.A[0, 0] == -1.0
    assert F1.B[0] == -1.0
    assert F1.C[0] == 1.0
    assert F1.D == 1.0


def test_transfer_matches_closed_form():
    # W(s) = s / (s + 1) for the bundled first-order filter
    for s in (0.0, 1.0, 1j, 2.0 + 3.0j, 100j, 0.01j):
        expected = s / (s + 1.0)
        assert transfer_eval(F1, s) == pytest.approx(expected, abs=1e-14)


def test_zero_at_origin():
    assert abs(transfer_eval(F1, 0.0)) < 1e-12
    assert has_zero_at_origin(F1)
    # a plain lag 1/(s+1) has no zero at the origin
    lag = LtiSystem(A=[[-1.0]], B=[1.0], C=[1.0], D=0.0)
    assert not has_zero_at_origin(lag)


def test_gain_at_reference_frequencies():
    assert abs(transfer_eval(F1, 1j)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(transfer_eval(F1, 100j)) == pytest.approx(0.99995, abs=1e-5)
    assert abs(transfer_eval(F1, 0.01j)) == pytest.approx(0.0099995, abs=1e-7)


def test_sinusoid_steady_state_gain_and_phase():
    gain, phase = sinusoid_steady_state(F1, 1.0)
    assert gain == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert phase == pytest.approx(np.pi / 4, abs=1e-12)


def test_sinusoid_steady_state_requires_hurwitz():
    unstable = LtiSystem(A=[[1.0]], B=[1.0], C=[1.0], D=0.0)
    assert not unstable.is_hurwitz
    with pytest.raises(ValueError):
        sinusoid_steady_state(unstable, 1.0)


def test_transfer_eval_near_pole_raises():
    # the filter has a pole at s = -1; evaluation there is singular
    with pytest.raises(ValueError):
        transfer_eval(F1, -1.0)


def test_arrays_are_read_only_copies():
    # a filter whose A or B changed after it was built would keep its cached
    # eigenvalues, and so pass as Hurwitz with the zero at the origin gone
    f = filter_one()
    for a, idx in ((f.A, (0, 0)), (f.B, 0), (f.C, 0), (f.eigenvalues, 0)):
        with pytest.raises(ValueError, match="read-only"):
            a[idx] = 1.0
    A = np.array([[-1.0]])
    f = LtiSystem(A=A, B=np.array([-1.0]), C=[1.0], D=1.0)
    A[0, 0] = 1.0
    assert f.A[0, 0] == -1.0 and f.is_hurwitz and has_zero_at_origin(f)


def test_equality_is_identity_and_the_hash_is_the_objects():
    # comparing or hashing the array fields would raise; a filter is its
    # own key, as it never changes once built
    f, g = filter_one(), filter_one()
    assert f == f and f != g
    assert hash(f) == hash(f)
    assert {f: "f", g: "g"}[f] == "f"


def test_normalization_from_nested_lists():
    sys = LtiSystem(A=[[0.0, 1.0], [-2.0, -3.0]], B=[0.0, 1.0], C=[1.0, 0.0], D=0.0)
    assert sys.n == 2
    assert sys.is_hurwitz
    # W(s) = 1 / (s^2 + 3 s + 2); check at s = 1j
    w = transfer_eval(sys, 1j)
    assert w == pytest.approx(1.0 / ((1j) ** 2 + 3 * 1j + 2), abs=1e-14)
