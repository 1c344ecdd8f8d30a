"""Nonlinear blocks and the cascade composition.

The cascade is  u -> [linear filter, zero at s=0] -> y -> [saturation] -> w
-> [lag dp/dt = -p + w] -> p -> [dz/dt = p f(z)].  Constant u makes y, w, p
decay, freezing z; a sinusoid keeps y oscillating, w mostly saturated near 1
and hence p bounded away from zero, so z runs a time-rescaled copy of
dz/dt = f(z).

``compose_example1`` and ``compose_example2`` are the two concrete 5-state
instances used throughout (the second replaces the overall p factor with
p-modulated coefficients so that p = 0 leaves a stable linear system).
They are the paper's equations written out by hand, and the fast path.
``compose_cascade`` builds the same cascade around arbitrary ingredient
blocks; with the bundled blocks it reproduces example1 bit for bit and
example2 to rounding.

Every right-hand side here, a system's ``rhs(t, state, u)`` and a vector
field's ``rhs(z)`` alike, takes the state as a list of Python floats and
returns a new list (see ``ComposedSystem`` and ``VectorField``).
``compose_cascade`` reads the filter's matrices into nested lists once, when
it builds the system, so no right-hand side calls numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Callable

from .lti import LtiSystem, has_zero_at_origin, transfer_eval

__all__ = [
    "Saturation",
    "VectorField",
    "ComposedSystem",
    "lorenz_rhs",
    "lorenz_field",
    "stable_linear_field",
    "filter_one",
    "EXAMPLE_STATE_NAMES",
    "compose_example1",
    "compose_example2",
    "compose_cascade",
    "compose_autonomous",
]


@dataclass(frozen=True)
class Saturation:
    """Even saturating nonlinearity alpha(y) = y^2 / (K + y^2), K > 0.

    Zero at zero, strictly below 1, approaching 1 for |y| >> sqrt(K).
    """

    K: float = 0.1

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError(f"saturation constant K must be positive, got {self.K}")

    def __call__(self, y: float) -> float:
        y2 = y * y
        return y2 / (self.K + y2)


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field z -> f(z) with a declared dimension.

    ``rhs(z)`` takes z as a list of ``dim`` Python floats, which it must not
    change, and returns f(z) as a new list of ``dim`` floats. It must be a
    list, not an array: the Lyapunov pair in ``diagnostics`` joins two
    results with ``+``.
    """

    dim: int
    rhs: Callable[[list[float]], list[float]]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"vector field dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class ComposedSystem:
    """Input-driven ODE assembled from blocks.

    ``rhs(t, state, u)`` returns the state derivative; time enters only
    through the input value u. ``state`` is a list of Python floats, which
    the RHS must not change, and the derivative is a new list of the same
    length. ``state_names`` labels each state column, in
    order, for CSV output and diagnostics lookups; ``dim`` is its length.
    ``z`` lists the indices of the gated field's state, the block
    ``lyapunov_max`` perturbs; it is empty for a system without one.
    """

    rhs: Callable[[float, list[float], float], list[float]]
    state_names: tuple[str, ...]
    z: tuple[int, ...] = ()

    def __post_init__(self):
        if len(set(self.z)) != len(self.z) or not all(0 <= i < self.dim for i in self.z):
            raise ValueError(f"z {self.z} must be distinct indices in 0..{self.dim - 1}")

    @property
    def dim(self) -> int:
        return len(self.state_names)


def lorenz_rhs(z: list[float]) -> list[float]:
    """Lorenz right-hand side at z = (xi, psi, zeta), with the classic
    chaotic parameters s = 10, r = 28, b = 8/3."""
    xi, psi, zeta = z
    return [
        10.0 * (psi - xi),
        28.0 * xi - psi - xi * zeta,
        xi * psi - (8.0 / 3.0) * zeta,
    ]


def lorenz_field() -> VectorField:
    return VectorField(dim=3, rhs=lorenz_rhs)


def stable_linear_field() -> VectorField:
    """The p = 0 limit of the second example: everything decays to the origin."""

    def rhs(z: list[float]) -> list[float]:
        xi, psi, zeta = z
        return [10.0 * (psi - xi), -psi, -(8.0 / 3.0) * zeta]

    return VectorField(dim=3, rhs=rhs)


def filter_one() -> LtiSystem:
    """The concrete front end dx/dt = -x - u, y = x + u, i.e. W(s) = s/(s+1)."""
    return LtiSystem(A=[[-1.0]], B=[-1.0], C=[1.0], D=1.0)


# column names of the two concrete 5-state examples, and where z sits
EXAMPLE_STATE_NAMES = ("x", "p", "xi", "psi", "zeta")
_EXAMPLE_Z = (2, 3, 4)


def compose_example1(K: float = 0.1) -> ComposedSystem:
    """First concrete system: Lorenz field multiplied by p.

        dx    = -x - u
        dp    = -p + alpha(x + u)
        dxi   = p 10 (psi - xi)
        dpsi  = p (28 xi - psi - xi zeta)
        dzeta = p (xi psi - (8/3) zeta)
    """
    sat = Saturation(K)

    def rhs(t: float, state: list[float], u: float) -> list[float]:
        x, p, xi, psi, zeta = state
        y = x + u
        return [
            -x - u,
            -p + sat(y),
            p * (10.0 * (psi - xi)),
            p * (28.0 * xi - psi - xi * zeta),
            p * (xi * psi - (8.0 / 3.0) * zeta),
        ]

    return ComposedSystem(rhs, EXAMPLE_STATE_NAMES, _EXAMPLE_Z)


def compose_example2(K: float = 1e-4) -> ComposedSystem:
    """Second concrete system: p modulates the coefficients instead.

        dx    = -x - u
        dp    = -p + alpha(x + u)
        dxi   = 10 (psi - xi)
        dpsi  = 28 p xi - psi - p xi zeta
        dzeta = p xi psi - (8/3) zeta

    At p = 0 the (xi, psi, zeta) block is a stable linear system; at p = 1 it
    is the Lorenz system with the default parameters.
    """
    sat = Saturation(K)

    def rhs(t: float, state: list[float], u: float) -> list[float]:
        x, p, xi, psi, zeta = state
        y = x + u
        return [
            -x - u,
            -p + sat(y),
            10.0 * (psi - xi),
            28.0 * p * xi - psi - p * xi * zeta,
            p * xi * psi - (8.0 / 3.0) * zeta,
        ]

    return ComposedSystem(rhs, EXAMPLE_STATE_NAMES, _EXAMPLE_Z)


def _check_filter(filter1: LtiSystem) -> None:
    if not filter1.is_hurwitz:
        raise ValueError(
            "front-end filter must be Hurwitz, otherwise constant inputs never settle"
        )
    if not has_zero_at_origin(filter1, tol=1e-9):
        raise ValueError(
            "front-end filter must have a transfer-function zero at s=0 "
            f"(|W(0)| = {abs(transfer_eval(filter1, 0.0)):.3e}); without it the "
            "output of a constant-input run does not decay and z never freezes"
        )


def compose_cascade(filter1: LtiSystem, sat: Saturation, f1: VectorField,
                    f0: VectorField | None = None) -> ComposedSystem:
    """Assemble the full cascade around arbitrary blocks: dz = p f1(z), or
    dz = p f1(z) + (1 - p) f0(z) when ``f0`` is given.

    With ``f0``, constant inputs drive p to 0 and hand z to f0; a sinusoid
    keeps p near 1 and hands z to f1.
    """
    if f0 is not None and f0.dim != f1.dim:
        raise ValueError(f"field dimensions differ: {f0.dim} vs {f1.dim}")
    _check_filter(filter1)
    n, zdim = filter1.n, f1.dim
    A, B, C, D = filter1.A.tolist(), filter1.B.tolist(), filter1.C.tolist(), filter1.D
    g1 = f1.rhs
    g0 = None if f0 is None else f0.rhs

    def rhs(t: float, state: list[float], u: float) -> list[float]:
        # Each row is summed left to right from its first product, with no
        # 0.0 start, so a -0.0 survives as it does in example1's -x - u.
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

    xnames = ("x",) if n == 1 else tuple(f"x{i}" for i in range(n))
    znames = tuple(f"z{i}" for i in range(zdim))
    return ComposedSystem(rhs, xnames + ("p",) + znames, tuple(range(n + 1, n + 1 + zdim)))


def compose_autonomous(field: VectorField) -> ComposedSystem:
    """Wrap a bare vector field as a ComposedSystem that ignores the input.

    Used for reference runs such as the plain Lorenz attractor (p fixed at 1).
    """

    def rhs(t: float, state: list[float], u: float) -> list[float]:
        return field.rhs(state)

    names = tuple(f"z{i}" for i in range(field.dim))
    return ComposedSystem(rhs, names, tuple(range(field.dim)))
