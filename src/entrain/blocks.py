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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lti import LtiSystem, has_zero_at_origin, transfer_eval

__all__ = [
    "Saturation",
    "LorenzParams",
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
class LorenzParams:
    """Lorenz parameters; defaults are the classic chaotic regime."""

    s: float = 10.0
    r: float = 28.0
    b: float = 8.0 / 3.0


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field z -> f(z) with a declared dimension."""

    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"vector field dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class ComposedSystem:
    """Input-driven ODE assembled from blocks.

    ``rhs(t, state, u)`` returns the state derivative; time enters only
    through the input value u. ``state_names`` labels each state column, in
    order, for CSV output and diagnostics lookups; ``dim`` is its length.
    ``layout`` maps block names to state indices (a partition of 0..dim-1).
    """

    rhs: Callable[[float, np.ndarray, float], np.ndarray]
    layout: dict[str, tuple[int, ...]]
    state_names: tuple[str, ...]
    scenario_id: str

    def __post_init__(self):
        covered = sorted(i for idx in self.layout.values() for i in idx)
        if covered != list(range(self.dim)):
            raise ValueError(f"layout {self.layout} does not partition 0..{self.dim - 1}")

    @property
    def dim(self) -> int:
        return len(self.state_names)

    def z_indices(self) -> tuple[int, ...]:
        return self.layout.get("z", ())


def lorenz_rhs(params: LorenzParams, z: np.ndarray) -> np.ndarray:
    """Lorenz right-hand side at z = (xi, psi, zeta)."""
    xi, psi, zeta = z
    return np.array([
        params.s * (psi - xi),
        params.r * xi - psi - xi * zeta,
        xi * psi - params.b * zeta,
    ])


def lorenz_field(params: LorenzParams = LorenzParams()) -> VectorField:
    return VectorField(dim=3, rhs=lambda z: lorenz_rhs(params, z))


def stable_linear_field() -> VectorField:
    """The p = 0 limit of the second example: everything decays to the origin."""

    def rhs(z: np.ndarray) -> np.ndarray:
        xi, psi, zeta = z
        return np.array([10.0 * (psi - xi), -psi, -(8.0 / 3.0) * zeta])

    return VectorField(dim=3, rhs=rhs)


def filter_one() -> LtiSystem:
    """The concrete front end dx/dt = -x - u, y = x + u, i.e. W(s) = s/(s+1)."""
    return LtiSystem(A=[[-1.0]], B=[-1.0], C=[1.0], D=1.0)


# column names of the two concrete 5-state examples
EXAMPLE_STATE_NAMES = ("x", "p", "xi", "psi", "zeta")


def _cascade_layout(n: int, zdim: int) -> tuple[dict, tuple]:
    layout = {
        "x": tuple(range(n)),
        "p": (n,),
        "z": tuple(range(n + 1, n + 1 + zdim)),
    }
    xnames = ("x",) if n == 1 else tuple(f"x{i}" for i in range(n))
    znames = tuple(f"z{i}" for i in range(zdim))
    return layout, xnames + ("p",) + znames


def compose_example1(K: float = 0.1, params: LorenzParams = LorenzParams()) -> ComposedSystem:
    """First concrete system: Lorenz field multiplied by p.

        dx    = -x - u
        dp    = -p + alpha(x + u)
        dxi   = p s (psi - xi)
        dpsi  = p (r xi - psi - xi zeta)
        dzeta = p (xi psi - b zeta)
    """
    sat = Saturation(K)
    s, r, b = params.s, params.r, params.b

    def rhs(t: float, state: np.ndarray, u: float) -> np.ndarray:
        x, p, xi, psi, zeta = state.tolist()
        y = x + u
        return np.array([
            -x - u,
            -p + sat(y),
            p * (s * (psi - xi)),
            p * (r * xi - psi - xi * zeta),
            p * (xi * psi - b * zeta),
        ])

    return ComposedSystem(rhs=rhs, layout=_cascade_layout(1, 3)[0],
                          state_names=EXAMPLE_STATE_NAMES, scenario_id="example1")


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

    def rhs(t: float, state: np.ndarray, u: float) -> np.ndarray:
        x, p, xi, psi, zeta = state.tolist()
        y = x + u
        return np.array([
            -x - u,
            -p + sat(y),
            10.0 * (psi - xi),
            28.0 * p * xi - psi - p * xi * zeta,
            p * xi * psi - (8.0 / 3.0) * zeta,
        ])

    return ComposedSystem(rhs=rhs, layout=_cascade_layout(1, 3)[0],
                          state_names=EXAMPLE_STATE_NAMES, scenario_id="example2")


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
    A, B, C, D = filter1.A, filter1.B, filter1.C, filter1.D
    g1 = f1.rhs
    g0 = None if f0 is None else f0.rhs

    def rhs(t: float, state: np.ndarray, u: float) -> np.ndarray:
        x = state[:n]
        p = state[n]
        z = state[n + 1:]
        y = float(C @ x) + D * u
        out = np.empty_like(state)
        out[:n] = A @ x + B * u
        out[n] = -p + sat(y)
        out[n + 1:] = p * g1(z) if g0 is None else p * g1(z) + (1.0 - p) * g0(z)
        return out

    layout, names = _cascade_layout(n, zdim)
    return ComposedSystem(rhs=rhs, layout=layout, state_names=names,
                          scenario_id="general" if f0 is None else "interpolated")


def compose_autonomous(field: VectorField, scenario_id: str = "autonomous") -> ComposedSystem:
    """Wrap a bare vector field as a ComposedSystem that ignores the input.

    Used for reference runs such as the plain Lorenz attractor (p fixed at 1).
    """

    def rhs(t: float, state: np.ndarray, u: float) -> np.ndarray:
        return field.rhs(state)

    return ComposedSystem(
        rhs=rhs,
        layout={"z": tuple(range(field.dim))},
        state_names=tuple(f"z{i}" for i in range(field.dim)),
        scenario_id=scenario_id,
    )
