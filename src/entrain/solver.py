"""Trajectory integration with controlled accuracy.

An adaptive Dormand-Prince 4(5) embedded pair keeps the local error per step
below rel_tol * |state| + abs_tol. Grid output interpolates the internal
steps with a cubic Hermite (locally 4th-order accurate); dense output is the
internal steps themselves. The step loop does not interpolate: for each
accepted step that passes grid points it records the Hermite's data (the
step's ends and their derivatives), and ``_GridRows.flush`` evaluates the
records in numpy blocks of ``_BLOCK`` steps, so memory stays bounded.

Runs are bitwise deterministic. The step loop is Python source written out
from one template per state length, number of copies, row and input class
(``_dp45_source``), with a float local per component. It evaluates the input
once per stage and the right-hand side once per copy, the first derivative's
included, as the Lyapunov pair in ``diagnostics`` runs two copies side by
side. Every system's right-hand side holds its row (``blocks.Row``), which
the loop writes out operation for operation; a hand-built one's row calls
its function. A ``Constant`` or ``Sinusoid`` is written out too; any other
input, a wrapper of one of these included, is called. Each stage sums its
terms left to right, skipping zero weights, and Python neither reorders nor
fuses float operations, so a component rounds as the per-term loop
``acc += a[k] * K[k]`` does, whatever else shares the state: identical
copies evolve bit for bit alike. The error norm adds ``q * q`` in component
order. So a step's bits rest on IEEE arithmetic and libm's ``pow`` (the
controller's ``err ** -0.2``), not on numpy's or BLAS's summation order.
The grid rows take numpy's elementwise operations in the order the scalar
formula gives, each rounded as Python rounds it, and no reduction. An
RHS gets the state as a list of Python floats and returns a new list of the
same length (``ComposedSystem``).
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass

import numpy as np

from .blocks import _NAME, ComposedSystem, _rename
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
# local error). _DP45_LOOP spells each row out term by term.
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
# Under sin t over [0, 50], the bundled scenarios take at most 111 trial
# steps per unit of time at the default tolerances and 657 at rel_tol = 1e-12,
# abs_tol = 1e-14; a run that needs 10,000 is crawling, as a product-form
# cascade with p < 0 does (it runs its field backward in time).
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

    Every stage, the first included, evaluates ``rhs(t, y, u(t))`` once, in
    the generated step loop that ``_advance`` runs; a hand-built right-hand
    side whose result has the wrong length, at any stage, fails its unpack
    with Python's ``ValueError``. A trial step with a non-finite stage or
    result, or whose RHS raised ``ArithmeticError`` (where numpy gave inf,
    Python's ``**`` raises ``OverflowError``), is rejected like one with an
    infinite error.
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise ValueError(f"t_span must be finite, got {t_span}")
    x0 = check_initial_state(x0, sys.dim)
    if t_end < t0:
        raise ValueError(f"t_span must increase, got {t_span}")

    if output_grid is None:
        times, states = _advance(sys.rhs, input_signal, x0.tolist(), sys.dim, t0, t_end, cfg)
        return Trajectory(times, states, sys.state_names)
    grid = np.asarray(output_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError("output_grid must be a non-empty 1-D array of finite times")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("output_grid must be strictly increasing")
    if grid[0] < t0 - 1e-12 or grid[-1] > t_end + 1e-12:
        raise ValueError("output_grid must lie within t_span")
    out = _GridRows(grid, sys.dim)
    _advance(sys.rhs, input_signal, x0.tolist(), sys.dim, t0, t_end, cfg, out)
    return Trajectory(grid.copy(), out.rows, sys.state_names)


# Step records the loop gathers before _GridRows.flush evaluates them: enough
# to pay numpy's per-call cost many times over, few enough to keep the
# records' memory small beside the rows
_BLOCK = 256


class _GridRows:
    """The rows at ``grid``'s times of the first ``width`` components of the
    state that the step loop advances, filled over one or more ``_advance``
    calls. ``gi`` is the next point to fill.

    The loop does no interpolation. For each accepted step that reaches the
    points ``gi`` to ``gj - 1``, it appends to ``records`` one flat tuple:
    gi, gj, the step's t and h, then y, k0, yn and k6 of each component in
    turn, the cubic Hermite's data. ``flush`` evaluates them in numpy.
    """

    __slots__ = ("grid", "rows", "records", "gi")

    def __init__(self, grid, width):
        self.grid = grid
        self.rows = np.empty((grid.size, width))
        self.records = []
        self.gi = 0

    def flush(self):
        """Write the recorded steps' rows and empty ``records``.

        Each row is ``w0 * y + w1 * k0 + w2 * yn + w3 * k6`` at its point tg,
        with ``th = (min(tg, t + h) - t) / h``, ``w0 = 2 * th3 - 3 * th2 + 1``,
        ``w1 = (th3 - 2 * th2 + th) * h``, ``w2 = -2 * th3 + 3 * th2`` and
        ``w3 = (th3 - th2) * h``, operation for operation; elementwise numpy
        rounds each as Python's floats do, so a row has the bits of a
        float-by-float evaluation.
        """
        if not self.records:
            return
        rec = np.array(self.records, dtype=float)
        self.records.clear()
        gi = rec[:, 0].astype(np.intp)
        count = rec[:, 1].astype(np.intp) - gi
        at = np.repeat(np.arange(len(rec)), count)  # each row's record
        # each row's point; a point between records took a state, not a record
        idx = np.arange(at.size) + (gi - (np.cumsum(count) - count))[at]
        t, h = rec[at, 2], rec[at, 3]
        th = (np.minimum(self.grid[idx], t + h) - t) / h
        th2 = th * th
        th3 = th2 * th
        data = rec[:, 4:].reshape(len(rec), -1, 4)[:, :self.rows.shape[1]]
        rows = data[at, :, 0]
        rows *= (2 * th3 - 3 * th2 + 1)[:, None]
        for j, w in ((1, (th3 - 2 * th2 + th) * h), (2, -2 * th3 + 3 * th2),
                     (3, (th3 - th2) * h)):
            term = data[at, :, j]
            term *= w[:, None]
            rows += term
        self.rows[idx] = rows

    def fill(self, y, end):
        """Give the points from ``gi`` up to ``end`` the state ``y``, and
        evaluate the last records once every point is filled."""
        if end > self.gi:
            self.rows[self.gi:end] = y[:self.rows.shape[1]]
            self.gi = end
        if end == self.grid.size:
            self.flush()


def _advance(rhs, u, y0, n, t0, t_end, cfg, out=None, stop=None, end=None):
    """Step ``y0``, a list of floats holding copies of an n-state system side
    by side, all driven by ``u``, from t0 to t_end with ``_kernel``.

    With ``out`` None, returns the times and states of every internal step.
    Otherwise ``out`` is a ``_GridRows``. Its points from ``out.gi`` up to
    index ``stop`` take ``y0`` if they lie at t0 and otherwise the rows of
    the steps that pass them, which the loop records; the points from there
    up to index ``end`` take the final state (both indices default to every
    point), and the final state is returned as a list.

    ``rhs`` is a system's right-hand side, which holds its row
    (``rhs.row``, sized when its system was built), and the loop writes that
    row out; a hand-built system's row, or a wrapper's, calls its function.
    The loop writes out, too, the ``expr`` that the input's own class defines;
    any other input, a ``Sampled`` one or a wrapper, is called.
    """
    signal = type(u) if "expr" in vars(type(u)) else None
    if out is not None:
        size = out.grid.size
        stop = size if stop is None else stop
        end = size if end is None else end
        if out.gi < stop and out.grid.item(out.gi) == t0:
            out.fill(y0, out.gi + 1)
    # The kernel handles non-finite values itself; numpy warnings from an RHS
    # such as ``(A @ z).tolist()`` (say, on a rejected trial step) are noise.
    with np.errstate(all="ignore"):
        y = _kernel(n, len(y0) // n, rhs.row, signal)(rhs, u, y0, t0, t_end, cfg, out, stop)
        if out is not None:
            out.fill(y, end)
    return y


# (state length, copies, row, input class) -> compiled step loop; parameter
# values are read when the loop is entered, so they are not part of the key
_KERNELS = {}


def _kernel(n, copies, row, signal):
    """The step loop ``_dp45_source(n, copies, row, signal)``, compiled on
    first use. Its globals are this module's, so it reads ``_H_MIN`` and the
    like as it runs."""
    key = (n, copies, row, signal)
    if key not in _KERNELS:
        ns = {}
        exec(compile(_dp45_source(*key), f"<dp45 {n}x{copies}>", "exec"), globals(), ns)
        _KERNELS[key] = ns["dp45_loop"]
    return _KERNELS[key]


def _dp45_source(n, copies, row, signal=None):
    """``_DP45_LOOP`` for ``copies`` copies of n states side by side, with
    ``row``, a ``blocks.Row`` of n states, written out. Each copy's
    ``[[k1_@]] = rhs(...)`` becomes one assignment per state whose stage
    input is not a bare name (``r_x = y_0 + ...``), the row's lets, and one
    assignment per stage component (``k1_0 = -r_x - v``); the row's
    parameters are bound from ``rhs.values`` on entry. Everywhere else
    ``[[x_@]]`` becomes the list ``[x_0, x_1, ...]`` of all n * copies
    components, and a line with ``@`` one line per component, so every
    component of the state and of each stage is a local (``y_0``, ``k3_0``,
    ...).

    With a ``signal`` class, each ``v = u(ts)`` becomes the class's ``expr``,
    its fields bound from ``u`` on entry; an ``expr`` without ``t`` is
    evaluated once, there, and if the row reads no ``t`` either, no stage
    time ``ts`` is computed. ``print(_dp45_source(5, 2,
    compose_example1().rhs.row, Sinusoid))`` shows the Lyapunov pair's loop
    for example1 under a sinusoid.
    """
    def each(text, sep, idx):
        return sep.join(text.replace("@", str(i)) for i in idx)

    def expand(text, idx):
        text = re.sub(r"\[\[(.*?)\]\]",
                      lambda m: f"[{each(' '.join(m[1].split()), ', ', idx)}]", text, flags=re.S)
        return "".join(each(line, "", idx) if "@" in line else line
                       for line in text.splitlines(True))

    def call(m):
        indent, k, ts, arg = m[1], m[2], m[3], " ".join(m[4].split())
        out = []
        for c in range(copies):
            own = range(c * n, c * n + n)
            lines, exprs = row.body([arg.replace("@", str(i)) for i in own], ts, "v")
            out += lines + [f"{k}{i} = {e}" for i, e in zip(own, exprs)]
        return "".join(f"{indent}{line}\n" for line in out)

    src = re.sub(r"^( +)\[\[(\w+)@\]\] = rhs\((\w+), \[\[(.*?)\]\], v\)\n", call,
                 _DP45_LOOP, flags=re.M | re.S)
    entry = []
    if row.params:
        entry.append(f"{', '.join('r_' + a for a in row.params)}, = rhs.values")
    if signal is not None:
        fields = [f.name for f in dataclasses.fields(signal)]
        entry += [f"u_{a} = u.{a}" for a in fields]
        names = {a: "u_" + a for a in fields}
        if "t" in _NAME.findall(signal.expr):
            src = re.sub(r"^( +)v = u\((\w+)\)\n", lambda m: f"{m[1]}v = "
                         f"{_rename(signal.expr, {**names, 't': m[2]})}\n", src, flags=re.M)
        else:  # the same value at every stage
            src = re.sub(r"^ +v = u\(\w+\)\n", "", src, flags=re.M)
            entry.append(f"v = {_rename(signal.expr, names)}")
    rest = re.sub(r"^ +ts = .*\n", "", src, flags=re.M)
    src = src if "ts" in _NAME.findall(rest) else rest  # drop unread stage times
    head, body = src.split("\n", 1)
    return expand("".join([head, "\n", *(f"    {line}\n" for line in entry), body]),
                  range(n * copies))


_DP45_LOOP = """\
def dp45_loop(rhs, u, y, t, t_end, cfg, out, stop):
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \\
        (a50, a51, a52, a53, a54), (b0, _, b2, b3, b4, b5) = _DP_A[1:]
    e0, _, e2, e3, e4, e5, e6 = _DP_ERR
    c1, c2, c3, c4, c5, c6 = _DP_C[1:]
    abs_tol, rel_tol, isfinite = cfg.abs_tol, cfg.rel_tol, math.isfinite
    t0, steps, h = t, 0, min(_H_INIT, t_end - t)
    [[y_@]] = y
    a_@ = abs(y_@)
    if out is None:
        dense_t, dense_y = [t], [y]
    else:
        grid, recs, gi = out.grid, out.records, out.gi
        tg = grid.item(gi) if gi < stop else math.inf  # the next point to pass
    finite = True  # whether the last trial step was finite
    eps_end = 1e-14 * max(1.0, abs(t_end))
    try:
        v = u(t)
        [[k0_@]] = rhs(t, [[y_@]], v)
    except ArithmeticError as exc:
        raise DivergenceError(f"derivative at initial state raised {exc!r}",
                              last_good_time=t) from exc
    if not all([[isfinite(k0_@)]]):
        raise DivergenceError("derivative non-finite at initial state", last_good_time=t)
    while t < t_end - eps_end:
        steps += 1
        if steps > _MAX_STEPS_PER_UNIT * (1.0 + t - t0):
            raise StepBudgetError(f"more than {_MAX_STEPS_PER_UNIT} trial steps "
                                  "per unit of time", last_good_time=t)
        if h < _H_MIN:
            if not finite:
                raise DivergenceError(f"trial steps stayed non-finite down to "
                                      f"h={h:.3e} < {_H_MIN:.3e}", last_good_time=t)
            raise StiffnessError(f"step size {h:.3e} fell below {_H_MIN:.3e}", last_good_time=t)
        h_step = min(h, t_end - t)
        try:
            ts = t + c1 * h_step
            v = u(ts)
            [[k1_@]] = rhs(ts, [[y_@ + h_step * (a10 * k0_@)]], v)
            ts = t + c2 * h_step
            v = u(ts)
            [[k2_@]] = rhs(ts, [[y_@ + h_step * (a20 * k0_@ + a21 * k1_@)]], v)
            ts = t + c3 * h_step
            v = u(ts)
            [[k3_@]] = rhs(ts, [[y_@ + h_step * (a30 * k0_@ + a31 * k1_@ + a32 * k2_@)]], v)
            ts = t + c4 * h_step
            v = u(ts)
            [[k4_@]] = rhs(ts, [[y_@ + h_step * (a40 * k0_@ + a41 * k1_@
                                                 + a42 * k2_@ + a43 * k3_@)]], v)
            ts = t + c5 * h_step
            v = u(ts)
            [[k5_@]] = rhs(ts, [[y_@ + h_step * (a50 * k0_@ + a51 * k1_@ + a52 * k2_@
                                                 + a53 * k3_@ + a54 * k4_@)]], v)
            # First-same-as-last: _DP_B5 is row 6 of _DP_A with a zero
            # weight on the 7th stage, so the 7th stage runs at the new state.
            yn_@ = y_@ + h_step * (b0 * k0_@ + b2 * k2_@ + b3 * k3_@ + b4 * k4_@ + b5 * k5_@)
            ts = t + c6 * h_step
            v = u(ts)
            [[k6_@]] = rhs(ts, [[yn_@]], v)
            finite = all([[isfinite(yn_@) and isfinite(k6_@)]])
        except ArithmeticError:
            finite = False
        if finite:
            b_@ = abs(yn_@)
            d_@ = e0 * k0_@ + e2 * k2_@ + e3 * k3_@ + e4 * k4_@ + e5 * k5_@ + e6 * k6_@
            q_@ = h_step * d_@ / (abs_tol + rel_tol * (a_@ if a_@ > b_@ else b_@))
            s = 0.0
            s += q_@ * q_@
            err = math.sqrt(s / len(y))
        else:
            err = math.inf

        if err <= 1.0:  # accept
            t_new = t + h_step
            if out is None:
                dense_t.append(t_new)
                dense_y.append([[yn_@]])
            else:
                bound = t_new + 1e-14 * max(1.0, abs(t_new))
                if tg <= bound:  # record the step for the points it passes
                    gj = gi + 1
                    while gj < stop and grid.item(gj) <= bound:
                        gj += 1
                    recs.append((gi, gj, t, h_step, *[[y_@, k0_@, yn_@, k6_@]]))
                    if len(recs) >= _BLOCK:
                        out.flush()
                    gi = gj
                    tg = grid.item(gi) if gi < stop else math.inf
            t = t_new
            y_@ = yn_@
            a_@ = b_@
            k0_@ = k6_@
            # 0.0 ** -0.2 raises in Python
            factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
        else:  # reject and retry with a smaller step
            factor = max(_MIN_FACTOR, _SAFETY * err ** -0.2)
        h = min(_H_MAX, h_step * factor)
    if out is None:
        return np.array(dense_t), np.array(dense_y)
    out.gi = gi
    return [[y_@]]
"""
