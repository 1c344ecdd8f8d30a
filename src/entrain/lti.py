"""Single-input single-output state-space systems and their transfer functions.

The front-end filter of every scenario is a linear system

    dx/dt = A x + B u,    y = C x + D u

whose transfer function W(s) = C (sI - A)^{-1} B + D is evaluated numerically
by a linear solve; no polynomial algebra is ever formed. The construction
hinges on two spectral facts that this module checks: A is Hurwitz (so
constant inputs settle) and W(0) = 0 (so the settled output is zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LtiSystem",
    "transfer_eval",
    "has_zero_at_origin",
    "sinusoid_steady_state",
]

# eigenvalues this close to the evaluation point make (sI - A) numerically singular
_SINGULARITY_TOL = 1e-12
# Hurwitz means every eigenvalue real part below this margin
_HURWITZ_MARGIN = -1e-9
_ZERO_TOL = 1e-9  # a zero at the origin is |W(0)| at most this


@dataclass(frozen=True)
class LtiSystem:
    """State-space realization (A, B, C, D) with scalar input and output.

    A is n-by-n, B and C hold n entries each, D is a scalar. Arrays are
    copied and normalized to A: (n, n), B: (n,), C: (n,) at construction,
    and are read-only, as are the eigenvalues computed from A then.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float = 0.0
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        B = np.array(self.B, dtype=float).reshape(-1)
        C = np.array(self.C, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if B.shape != (n,):
            raise ValueError(f"B must hold {n} entries, got {B.shape}")
        if C.shape != (n,):
            raise ValueError(f"C must hold {n} entries, got {C.shape}")
        object.__setattr__(self, "D", float(self.D))
        for name, a in (("A", A), ("B", B), ("C", C), ("eigenvalues", np.linalg.eigvals(A))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def is_hurwitz(self) -> bool:
        return bool(np.max(self.eigenvalues.real) < _HURWITZ_MARGIN)


def transfer_eval(sys: LtiSystem, s: complex) -> complex:
    """Evaluate W(s) = C (sI - A)^{-1} B + D by solving (sI - A) v = B."""
    s = complex(s)
    if np.min(np.abs(sys.eigenvalues - s)) <= _SINGULARITY_TOL:
        raise ValueError(f"s={s} is an eigenvalue of A; W(s) has a pole there")
    M = s * np.eye(sys.n) - sys.A
    v = np.linalg.solve(M, sys.B.astype(complex))
    return complex(sys.C @ v + sys.D)


def has_zero_at_origin(sys: LtiSystem) -> bool:
    """True iff |W(0)| <= 1e-9, the bound ``compose_cascade`` enforces.
    Raises if 0 is an eigenvalue of A."""
    return abs(transfer_eval(sys, 0.0)) <= _ZERO_TOL


def sinusoid_steady_state(sys: LtiSystem, omega: float) -> tuple[float, float]:
    """Steady-state response to sin(omega t): amplitude |W(i omega)| and
    phase arg W(i omega) in (-pi, pi].

    Requires a Hurwitz A; otherwise there is no steady state to speak of.
    """
    if not sys.is_hurwitz:
        raise ValueError("system is not Hurwitz; sinusoidal steady state undefined")
    w = transfer_eval(sys, 1j * omega)
    amplitude = abs(w)
    phase = float(np.angle(w))
    if phase <= -np.pi:
        phase = np.pi
    return amplitude, phase
