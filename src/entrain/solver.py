"""Trajectory integration with controlled accuracy.

Two explicit methods: an adaptive Dormand-Prince 4(5) embedded pair (the
default; local error per step kept below rel_tol * |state| + abs_tol) and a
fixed-step classical RK4 kept for convergence studies and bit-reproducible
baselines. Output is sampled onto a caller-supplied grid; the adaptive
method interpolates its internal steps with a cubic Hermite (locally
4th-order accurate), the fixed-step method lands on grid points exactly.

Everything here is deterministic: same system, input, initial state and
config produce bit-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import ComposedSystem
from .signals import InputSignal

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
    "StiffnessError",
    "DivergenceError",
    "StepBudgetError",
    "integrate",
    "integrate_pair",
    "pair_system",
    "RK4_FIXED",
    "RK45_ADAPTIVE",
]

RK4_FIXED = "rk4_fixed"
RK45_ADAPTIVE = "rk45_adaptive"


class IntegrationError(RuntimeError):
    """Integration could not reach t_end; ``last_good_time`` is where it stopped."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(f"{message} (last good time t={last_good_time:.6g})")
        self.last_good_time = last_good_time


class StiffnessError(IntegrationError):
    """Step size underflowed h_min while trying to meet the tolerance."""


class DivergenceError(IntegrationError):
    """The initial derivative was non-finite, or trial steps stayed non-finite
    until the step size fell below h_min (RK4: a state became non-finite)."""


class StepBudgetError(IntegrationError):
    """max_steps exceeded before reaching t_end."""


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = RK45_ADAPTIVE
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 0.1
    max_steps: int = 10**8

    def __post_init__(self):
        if self.method not in (RK4_FIXED, RK45_ADAPTIVE):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError(
                f"need 0 < h_min <= h_init <= h_max, got "
                f"{self.h_min}, {self.h_init}, {self.h_max}"
            )
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class Trajectory:
    """Time grid plus state rows, one column per name in ``state_names``."""

    times: np.ndarray
    states: np.ndarray
    state_names: tuple[str, ...]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.state_names.index(name)
        except ValueError:
            raise KeyError(
                f"unknown variable {name!r}; trajectory has {self.state_names}"
            ) from None
        return self.states[:, idx]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


# Dormand-Prince 4(5) tableau (propagates the 5th-order solution; the
# difference against the embedded 4th-order result estimates local error).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _terms(coeffs: np.ndarray) -> tuple[slice | np.ndarray, np.ndarray]:
    """The nonzero terms of one tableau row: the stage indices (a slice where
    they are contiguous) and their coefficients as a column."""
    idx = np.flatnonzero(coeffs)
    contiguous = idx[-1] - idx[0] == idx.size - 1
    sel = slice(int(idx[0]), int(idx[-1]) + 1) if contiguous else idx
    return sel, coeffs[idx][:, None]


_A_TERMS = [None] + [_terms(row) for row in _DP_A[1:]]
_ERR_TERMS = _terms(_DP_ERR)
# Stage times as Python floats, for cheap scalar arithmetic.
_STAGE_C = _DP_C.tolist()


def _combine(terms, K: np.ndarray) -> np.ndarray:
    """Sum c[k] * K[k] over one row's nonzero terms, in stage order.

    ``np.add.accumulate`` adds the rows strictly one after another, so every
    element gets the same rounding as the plain loop ``acc += c[k] * K[k]``
    whatever the state's size. ``np.add.reduce`` promises no order: it sums
    a 1-column block pairwise once it has 8 rows or more. BLAS products
    (``@``, ``dot``, ``einsum``) may round differently per column position.
    Either would break the guarantee that two bitwise-identical state blocks
    stacked in one vector (integrate_pair) evolve bitwise identically.
    """
    sel, c = terms
    return np.add.accumulate(c * K[sel], axis=0)[-1]


def _error_norm(q: np.ndarray) -> float:
    """RMS of ``q``; the same bits as ``np.sqrt(np.mean(q ** 2))``."""
    return math.sqrt(np.add.reduce(q * q) / q.size)


def _hermite(t, t0: float, h: float, y0, y1, f0, f1) -> np.ndarray:
    """Cubic Hermite interpolant on [t0, t0+h]; exact at both endpoints.

    ``t`` is a column of times; the result has one row per time.
    """
    th = (t - t0) / h
    th2 = th * th
    th3 = th2 * th
    return ((2 * th3 - 3 * th2 + 1) * y0
            + (th3 - 2 * th2 + th) * h * f0
            + (-2 * th3 + 3 * th2) * y1
            + (th3 - th2) * h * f1)


def integrate(
    sys: ComposedSystem,
    input_signal: InputSignal,
    x0: np.ndarray,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
    output_grid: np.ndarray | None = None,
) -> Trajectory:
    """Integrate ``sys`` driven by ``input_signal`` from ``x0`` over ``t_span``.

    ``output_grid`` selects the sample times (must lie within t_span and
    increase); None returns every internal step ("dense"). The returned
    times equal the requested grid exactly.
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.dim,):
        raise ValueError(f"x0 must have shape ({sys.dim},), got {x0.shape}")
    if t_end < t0:
        raise ValueError(f"t_span must increase, got {t_span}")

    if output_grid is not None:
        grid = np.asarray(output_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("output_grid must be a non-empty 1-D array")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("output_grid must be strictly increasing")
        if grid[0] < t0 - 1e-12 or grid[-1] > t_end + 1e-12:
            raise ValueError("output_grid must lie within t_span")
    else:
        grid = None

    def f(t: float, y: np.ndarray) -> np.ndarray:
        return sys.rhs(t, y, input_signal(t))

    run = _run_rk4 if cfg.method == RK4_FIXED else _run_dp45
    # The runners reject or raise on non-finite values themselves, so numpy's
    # element-wise warnings (say, from a rejected trial step) are only noise.
    with np.errstate(all="ignore"):
        times, states = run(f, x0, t0, t_end, cfg, grid)
    return Trajectory(times, states, sys.state_names)


def _run_rk4(f, x0, t0, t_end, cfg, grid):
    """Classical RK4 with step h_init, subdividing each inter-target interval
    evenly so targets (grid points and t_end) are hit exactly."""
    targets = [t_end] if grid is None else list(grid)
    rows = None if grid is None else np.empty((len(targets), x0.size))
    dense_t, dense_y = [t0], [x0]
    t, y = t0, x0
    steps = 0
    for gi, target in enumerate(targets):
        span = target - t
        if span > 0:
            n_sub = max(1, int(np.ceil(span / cfg.h_init - 1e-9)))
            h = span / n_sub
            base = t
            for i in range(n_sub):
                if steps >= cfg.max_steps:
                    raise StepBudgetError(
                        f"exceeded max_steps={cfg.max_steps}", last_good_time=t)
                steps += 1
                k1 = f(t, y)
                k2 = f(t + h / 2, y + (h / 2) * k1)
                k3 = f(t + h / 2, y + (h / 2) * k2)
                k4 = f(t + h, y + h * k3)
                y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                t = base + (i + 1) * h
                if not np.all(np.isfinite(y)):
                    raise DivergenceError("state became non-finite",
                                          last_good_time=base + i * h)
                if grid is None:
                    dense_t.append(t)
                    dense_y.append(y)
            t = target
        if rows is not None:
            rows[gi] = y
    if grid is None:
        return np.array(dense_t), np.array(dense_y)
    return grid.copy(), rows


def _run_dp45(f, x0, t0, t_end, cfg, grid):
    """Dormand-Prince 4(5) with step control on the RMS of the scaled error.

    A trial step with a non-finite stage or result is rejected like one with
    an infinite error, so ``h`` shrinks by ``_MIN_FACTOR``; only when that
    drives ``h`` below ``h_min`` is it a ``DivergenceError``.
    """
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
    h = min(cfg.h_init, t_end - t0)
    steps = 0
    finite = True  # whether the last trial step was finite
    eps_end = 1e-14 * max(1.0, abs(t_end))
    while t < t_end - eps_end:
        if steps >= cfg.max_steps:
            raise StepBudgetError(
                f"exceeded max_steps={cfg.max_steps}", last_good_time=t)
        steps += 1
        if h < cfg.h_min:
            if not finite:
                raise DivergenceError(
                    f"trial steps stayed non-finite down to h={h:.3e} "
                    f"< h_min={cfg.h_min:.3e}", last_good_time=t)
            raise StiffnessError(
                f"step size {h:.3e} fell below h_min={cfg.h_min:.3e}",
                last_good_time=t)
        h_step = min(h, t_end - t)

        for i in range(1, 7):
            yi = y + h_step * _combine(_A_TERMS[i], K)
            K[i] = f(t + _STAGE_C[i] * h_step, yi)
        # First-same-as-last: _DP_B5 is row 6 of _DP_A with a zero weight on
        # the 7th stage, so the 7th stage ran at the new state.
        y_new = yi
        finite = np.isfinite(y_new).all() and np.isfinite(K[6]).all()
        if finite:
            abs_y_new = np.abs(y_new)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_y_new)
            err = _error_norm(h_step * _combine(_ERR_TERMS, K) / scale)
        else:
            err = math.inf

        if err <= 1.0:  # accept
            t_new = t + h_step
            if grid is not None:
                bound = t_new + 1e-14 * max(1.0, abs(t_new))
                if gi < grid.size and grid[gi] <= bound:
                    g_end = np.searchsorted(grid, bound, side="right")
                    rows[gi:g_end] = _hermite(
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
        else:  # reject and retry with a smaller step
            factor = max(_MIN_FACTOR, _SAFETY * err ** -0.2)
        h = min(cfg.h_max, h_step * factor)

    if grid is None:
        return np.array(dense_t), np.array(dense_y)
    while gi < grid.size:  # grid points at (or within rounding of) t_end
        rows[gi] = y
        gi += 1
    return grid.copy(), rows


def pair_system(sys: ComposedSystem) -> ComposedSystem:
    """Two copies of ``sys`` stacked in one state and driven by one input.

    Both copies advance jointly (error control sees the stacked state), so
    adaptive step choices are common to the pair; this is what the
    two-trajectory Lyapunov estimator needs.
    """
    n = sys.dim

    def rhs(t: float, state: np.ndarray, u: float) -> np.ndarray:
        return np.concatenate((sys.rhs(t, state[:n], u), sys.rhs(t, state[n:], u)))

    return ComposedSystem(
        rhs=rhs,
        layout={"z": tuple(range(2 * n))},
        state_names=tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(n)),
        scenario_id=sys.scenario_id,
    )


def integrate_pair(
    sys: ComposedSystem,
    input_signal: InputSignal,
    x0_a: np.ndarray,
    x0_b: np.ndarray,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
    output_grid: np.ndarray | None = None,
) -> tuple[Trajectory, Trajectory]:
    """Integrate two initial states of the same system on one shared time
    grid and one shared step sequence (see ``pair_system``)."""
    x0_a = np.asarray(x0_a, dtype=float)
    x0_b = np.asarray(x0_b, dtype=float)
    if x0_a.shape != (sys.dim,) or x0_b.shape != (sys.dim,):
        raise ValueError(f"both initial states must have shape ({sys.dim},)")
    n = sys.dim
    traj = integrate(pair_system(sys), input_signal, np.concatenate([x0_a, x0_b]),
                     t_span, cfg, output_grid)
    ta = Trajectory(traj.times, traj.states[:, :n], sys.state_names)
    tb = Trajectory(traj.times.copy(), traj.states[:, n:], sys.state_names)
    return ta, tb
