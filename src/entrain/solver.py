"""Trajectory integration with controlled accuracy.

An adaptive Dormand-Prince 4(5) embedded pair keeps the local error per step
below rel_tol * |state| + abs_tol. Grid output interpolates the internal
steps with a cubic Hermite (locally 4th-order accurate); dense output is the
internal steps themselves.

Everything here is deterministic: same system, input, initial state and
config produce bit-identical trajectories. The step runs on lists of Python
floats and sums each stage's terms strictly left to right, as a per-term
loop does, so a state component rounds the same way whatever else shares
the state vector: the two identical copies of the Lyapunov pair in
``diagnostics`` evolve bit for bit alike. The error norm is the same kind
of ordered sum, over the components in index order, so a step's bits rest
on IEEE arithmetic and libm's ``pow`` (the controller's ``err ** -0.2``),
not on numpy's or BLAS's summation order.

Every RHS call gets the state as a list of Python floats and must return a
new list of the same length (the ``ComposedSystem.rhs`` contract). The
state, the stages and the grid rows are all computed on Python floats;
numpy holds only the grid and the output arrays.
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
]


class IntegrationError(RuntimeError):
    """Integration could not reach t_end; ``last_good_time`` is where it stopped."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(f"{message} (last good time t={last_good_time:.6g})")
        self.last_good_time = last_good_time


class StiffnessError(IntegrationError):
    """The step size fell below ``_H_MIN`` while the trial steps stayed finite."""


class DivergenceError(IntegrationError):
    """The initial derivative was non-finite or raised ``ArithmeticError``,
    or trial steps stayed non-finite (or raised) until the step size fell
    below ``_H_MIN``."""


class StepBudgetError(IntegrationError):
    """The run took more than ``_MAX_STEPS_PER_UNIT`` trial steps per unit of
    time: more than ``_MAX_STEPS_PER_UNIT * (1 + t - t0)`` trials by time t."""


@dataclass(frozen=True)
class IntegratorConfig:
    """The local error tolerances; step sizes and the step budget are fixed."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError(f"tolerances must be finite and positive, got "
                             f"rel_tol={self.rel_tol}, abs_tol={self.abs_tol}")


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


# Dormand-Prince 4(5) tableau as Python floats (propagates the 5th-order
# solution; the difference against the embedded 4th-order result estimates
# local error). _run_dp45 spells each row out term by term.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = _DP_A[6] + (0.0,)
_DP_ERR = tuple(b - b4 for b, b4 in zip(_DP_B5, (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# First step, and the floor and ceiling of the step size.
_H_INIT = 1e-3
_H_MIN = 1e-12
_H_MAX = 0.1
# The bundled scenarios take about 110 trial steps per unit of time at the
# default tolerances and under 700 at rel_tol = 1e-12; a run that needs
# 10,000 is crawling, as a product-form cascade with p < 0 does (it runs its
# field backward in time).
_MAX_STEPS_PER_UNIT = 10_000


def check_initial_state(x0, dim: int) -> np.ndarray:
    """``x0`` as a float array, after checking that it holds ``dim`` finite values."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0}")
    return x0


def uniform_grid(t0: float, t1: float, step: float) -> np.ndarray:
    """Times ``t0, t0 + step, ...`` ending exactly at ``t1``.

    arange's last point lies within half a step of ``t1``, on either side;
    ``t1`` takes its place, so the grid ends where the span does. A span
    shorter than half a step gives the two points ``t0, t1``.
    """
    if not all(map(math.isfinite, (t0, t1, step))):
        raise ValueError(f"grid bounds and step must be finite, got {t0}, {t1}, {step}")
    if not t1 > t0:
        raise ValueError(f"grid end must exceed its start, got {t0} .. {t1}")
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step}")
    grid = np.arange(t0, t1 + step / 2, step)
    if grid.size == 1:
        grid = np.append(grid, t1)
    grid[-1] = t1
    return grid


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
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"t_span must be finite, got {t_span}")
    x0 = check_initial_state(x0, sys.dim)
    if t_end < t0:
        raise ValueError(f"t_span must increase, got {t_span}")

    if output_grid is not None:
        grid = np.asarray(output_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
            raise ValueError("output_grid must be a non-empty 1-D array of finite times")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("output_grid must be strictly increasing")
        if grid[0] < t0 - 1e-12 or grid[-1] > t_end + 1e-12:
            raise ValueError("output_grid must lie within t_span")
    else:
        grid = None

    # The kernel rejects or raises on non-finite values itself; a user RHS
    # may still compute with numpy inside, as ``(A @ z).tolist()`` does, and
    # its element-wise warnings (say, on a rejected trial step) are noise.
    with np.errstate(all="ignore"):
        times, states = _run_dp45(sys.rhs, input_signal, x0.tolist(), t0, t_end,
                                  cfg, grid)
    return Trajectory(times, states, sys.state_names)


def _run_dp45(rhs, u, y0, t0, t_end, cfg, grid):
    """Dormand-Prince 4(5) with step control on the RMS of the scaled error.

    Every stage, the first included, is one call ``rhs(t, y, u(t))``. An
    initial derivative that raises ``ArithmeticError`` or is non-finite is a
    ``DivergenceError``; one of the wrong length is a ``ValueError``. A later
    trial step with a non-finite stage or result, or whose right-hand side
    raised ``ArithmeticError`` (Python's ``**`` raises ``OverflowError``
    where numpy returned inf), is rejected like one with an infinite error,
    so ``h`` shrinks by ``_MIN_FACTOR``; only when that drives ``h`` below
    ``_H_MIN`` is it a ``DivergenceError``. A run whose trial steps outnumber
    ``_MAX_STEPS_PER_UNIT * (1 + t - t0)`` raises ``StepBudgetError``: the
    budget grows with the time covered, so a long run that makes progress
    never meets it, and one that crawls does within seconds.

    The state, the stages and the error are lists of Python floats: on
    vectors this short, one list comprehension per stage costs less than
    the overhead of numpy calls. Each stage sums its terms left to right, skipping
    zero weights, and Python neither reorders nor fuses float operations, so
    every component rounds as the per-term loop ``acc += a[k] * K[k]`` does,
    whatever the state's size. The error norm sums the squared scaled errors
    ``s += q * q`` in component order, in the same loop that computes them.

    Each grid row is the cubic Hermite interpolant of its step, computed on
    floats and written into the preallocated ``rows``; no numpy call runs
    inside the step loop.
    """
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (b0, _, b2, b3, b4, b5) = _DP_A[1:]
    e0, _, e2, e3, e4, e5, e6 = _DP_ERR
    c1, c2, c3, c4, c5, c6 = _DP_C[1:]
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    isfinite = math.isfinite
    n = len(y0)

    rows = None if grid is None else np.empty((grid.size, n))
    t, y = t0, y0
    dense_t, dense_y = [t], [y]
    gi = 0
    if rows is not None and grid[0] == t0:
        rows[0] = y
        gi = 1

    try:
        k0 = rhs(t0, y0, u(t0))
    except ArithmeticError as exc:
        raise DivergenceError(f"derivative at initial state raised {exc!r}",
                              last_good_time=t0) from exc
    if len(k0) != n:  # zip would drop, numpy would broadcast
        raise ValueError(f"the right-hand side returned a vector of length "
                         f"{len(k0)} for a state of length {n}")
    if not all(map(isfinite, k0)):
        raise DivergenceError("derivative non-finite at initial state",
                              last_good_time=t0)
    abs_y = list(map(abs, y))
    h = min(_H_INIT, t_end - t0)
    steps = 0
    finite = True  # whether the last trial step was finite
    eps_end = 1e-14 * max(1.0, abs(t_end))
    while t < t_end - eps_end:
        steps += 1
        if steps > _MAX_STEPS_PER_UNIT * (1.0 + t - t0):
            raise StepBudgetError(
                f"more than {_MAX_STEPS_PER_UNIT} trial steps per unit of time",
                last_good_time=t)
        if h < _H_MIN:
            if not finite:
                raise DivergenceError(
                    f"trial steps stayed non-finite down to h={h:.3e} "
                    f"< {_H_MIN:.3e}", last_good_time=t)
            raise StiffnessError(
                f"step size {h:.3e} fell below {_H_MIN:.3e}",
                last_good_time=t)
        h_step = min(h, t_end - t)

        try:
            ts = t + c1 * h_step
            k1 = rhs(ts, [y_ + h_step * (a10 * p0) for y_, p0 in zip(y, k0)], u(ts))
            ts = t + c2 * h_step
            k2 = rhs(ts, [y_ + h_step * (a20 * p0 + a21 * p1)
                          for y_, p0, p1 in zip(y, k0, k1)], u(ts))
            ts = t + c3 * h_step
            k3 = rhs(ts, [y_ + h_step * (a30 * p0 + a31 * p1 + a32 * p2)
                          for y_, p0, p1, p2 in zip(y, k0, k1, k2)], u(ts))
            ts = t + c4 * h_step
            k4 = rhs(ts, [y_ + h_step * (a40 * p0 + a41 * p1 + a42 * p2 + a43 * p3)
                          for y_, p0, p1, p2, p3 in zip(y, k0, k1, k2, k3)], u(ts))
            ts = t + c5 * h_step
            k5 = rhs(ts, [y_ + h_step * (a50 * p0 + a51 * p1 + a52 * p2 + a53 * p3
                                         + a54 * p4)
                          for y_, p0, p1, p2, p3, p4 in zip(y, k0, k1, k2, k3, k4)],
                     u(ts))
            # First-same-as-last: _DP_B5 is row 6 of _DP_A with a zero weight
            # on the 7th stage, so the 7th stage runs at the new state.
            y_new = [y_ + h_step * (b0 * p0 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5)
                     for y_, p0, p2, p3, p4, p5 in zip(y, k0, k2, k3, k4, k5)]
            ts = t + c6 * h_step
            k6 = rhs(ts, y_new, u(ts))
            finite = all(map(isfinite, y_new)) and all(map(isfinite, k6))
        except ArithmeticError:
            finite = False
        if finite:
            abs_y_new = list(map(abs, y_new))
            s = 0.0
            for a, b, p0, p2, p3, p4, p5, p6 in zip(abs_y, abs_y_new, k0, k2, k3,
                                                    k4, k5, k6):
                q = (h_step * (e0 * p0 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6)
                     / (abs_tol + rel_tol * (a if a > b else b)))
                s += q * q
            err = math.sqrt(s / n)
        else:
            err = math.inf

        if err <= 1.0:  # accept
            t_new = t + h_step
            if rows is None:
                dense_t.append(t_new)
                dense_y.append(y_new)
            else:
                bound = t_new + 1e-14 * max(1.0, abs(t_new))
                while gi < grid.size:
                    tg = grid.item(gi)
                    if tg > bound:
                        break
                    th = (min(tg, t_new) - t) / h_step
                    th2 = th * th
                    th3 = th2 * th
                    w0 = 2 * th3 - 3 * th2 + 1
                    w1 = (th3 - 2 * th2 + th) * h_step
                    w2 = -2 * th3 + 3 * th2
                    w3 = (th3 - th2) * h_step
                    rows[gi] = [w0 * a + w1 * b + w2 * c + w3 * d
                                for a, b, c, d in zip(y, k0, y_new, k6)]
                    gi += 1
            t, y, abs_y, k0 = t_new, y_new, abs_y_new, k6
            # 0.0 ** -0.2 raises in Python
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2)
        else:  # reject and retry with a smaller step
            factor = max(_MIN_FACTOR, _SAFETY * err ** -0.2)
        h = min(_H_MAX, h_step * factor)

    if rows is None:
        return np.array(dense_t), np.array(dense_y)
    rows[gi:] = y  # grid points at (or within rounding of) t_end
    return grid.copy(), rows
