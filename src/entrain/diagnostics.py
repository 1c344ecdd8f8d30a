"""Trajectory diagnostics: steady-state detection, largest-Lyapunov-exponent
estimation, tail statistics, response classification, and a seeded Monte
Carlo sweep over inputs and initial conditions.

The central question these answer: does a forced run settle to a constant
(steady state) or keep moving — and if it keeps moving, is it chaotic-like
(positive largest Lyapunov exponent) or merely oscillating?
"""

from __future__ import annotations

import itertools
import math
from concurrent import futures
from dataclasses import dataclass, fields

import numpy as np

from . import scenarios
from .blocks import ComposedSystem
from .signals import Constant, InputSignal, Sinusoid
# nothing here calls integrate; perfbench's tracer wraps diagnostics.integrate
from .solver import (IntegrationError, IntegratorConfig, Trajectory, _advance,
                     check_initial_state, integrate, uniform_grid)

__all__ = [
    "SteadyStateReport",
    "LyapunovEstimate",
    "TailStats",
    "VerdictRecord",
    "MonteCarloRow",
    "detect_steady_state",
    "lyapunov_max",
    "tail_stats",
    "classify_response",
    "monte_carlo",
    "VERDICT_STEADY_STATE",
    "VERDICT_OSCILLATION",
    "VERDICT_CHAOTIC",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_DIVERGENCE",
]

VERDICT_STEADY_STATE = "steady_state"
VERDICT_OSCILLATION = "sustained_oscillation"
VERDICT_CHAOTIC = "chaotic_like"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_DIVERGENCE = "divergence"

# Largest-exponent threshold separating "chaotic_like" from
# "sustained_oscillation": comfortably above estimator noise, comfortably
# below the ~0.9 of a Lorenz-type attractor.
CHAOS_THRESHOLD = 0.05

_MIN_SPAN = 10.0
_MIN_RENORM_EVENTS = 50
# classify_response's sequential stop: the exponent's standard error comes
# from the means of this many near-equal batches of its counted windows, and
# a leg stops once the exponent lies more than _STOP_Z standard errors from
# both verdict boundaries, -CHAOS_THRESHOLD and CHAOS_THRESHOLD. z is above a
# fixed-horizon 3 because a running estimate checked at every window would
# otherwise call a boundary case wrongly more often.
_BATCHES = 10
_STOP_Z = 5.0
# The trailing share of a run that the steady-state test and tail_stats see.
_TAIL_FRACTION = 0.2
# The steady-state test's relative bound on each component's tail variation.
_STEADY_EPS = 1e-5
# Step of the grid on which classify_response's steady-state test sees a run.
_GRID_STEP = 0.05
# A grid point this close to the end of a renormalization window is sampled
# at that end.
_SNAP = 1e-9
# Size of the perturbation lyapunov_max follows, in the first z-component.
_D0 = 1e-8
# lyapunov_max's defaults, which classify_response's lyapunov_opts override.
_TRANSIENT = 100.0
_HORIZON = 400.0
_RENORM_DT = 0.5
# Monte Carlo draws u0 and every x0 component uniformly from this range,
# then maps p0 into [0, 1].
_SAMPLE_RANGE = (-10.0, 10.0)


@dataclass(frozen=True)
class SteadyStateReport:
    """Outcome of the asymptotically-constant test on a trajectory tail."""

    converged: bool
    tail_window: tuple[float, float]
    max_component_variation: float
    final_state: np.ndarray
    velocity_norm_at_end: float


@dataclass(frozen=True)
class LyapunovEstimate:
    """Largest Lyapunov exponent from two-trajectory renormalization.

    ``renorm_count`` is the number of windows whose log growth the estimate
    averages: every counted window for ``lyapunov_max``, and those up to the
    stop for a ``classify_response`` leg that stopped early. ``stderr`` is
    the batch-means standard error of ``lambda_max``: the spread of the means
    of 10 consecutive, near-equal batches of those windows. Only estimates
    backed by at least 50 renormalization events are produced;
    ``lyapunov_max`` raises otherwise.
    """

    lambda_max: float
    stderr: float
    renorm_interval: float
    renorm_count: int
    transient_discarded: float
    perturbation_size: float


@dataclass(frozen=True)
class TailStats:
    """Mean/min/max of one state variable over a trailing window."""

    variable: str
    window: tuple[float, float]
    mean: float
    min: float
    max: float


def _tail_mask(times: np.ndarray, fraction: float) -> tuple[np.ndarray, float, float]:
    span = float(times[-1] - times[0])
    start = float(times[-1]) - fraction * span
    return times >= start - 1e-12, start, float(times[-1])


def _norm(v) -> float:
    """Euclidean norm of the floats ``v``, their squares summed in index order.

    Not numpy's norm, whose BLAS kernel picks its summation order by CPU,
    nor ``sum()``, compensated since Python 3.12: the bits rest on IEEE
    arithmetic alone, as the solver's error norm does.
    """
    s = 0.0
    for x in v:
        s += x * x
    return math.sqrt(s)


def detect_steady_state(traj: Trajectory) -> SteadyStateReport:
    """Decide whether ``traj`` has become asymptotically constant.

    Converged means every state component's (max - min) over the trailing
    20 % of the time span is at most 1e-5 * (1 + |component mean|). The
    relative form keeps the verdict scale-free when inputs of size 10 push
    equilibria far from the origin.
    """
    span = traj.span()
    if span < _MIN_SPAN:
        raise ValueError(
            f"trajectory spans {span:.3g} time units; need at least {_MIN_SPAN:g} "
            "for a steady-state verdict"
        )
    mask, t_lo, t_hi = _tail_mask(traj.times, _TAIL_FRACTION)
    tail = traj.states[mask]
    if tail.shape[0] < 2:
        raise ValueError("tail window contains fewer than 2 samples")

    variation = tail.max(axis=0) - tail.min(axis=0)
    mean = tail.mean(axis=0)
    converged = bool(np.all(variation <= _STEADY_EPS * (1.0 + np.abs(mean))))

    dt = traj.times[-1] - traj.times[-2]
    velocity = _norm(((traj.states[-1] - traj.states[-2]) / dt).tolist())
    return SteadyStateReport(
        converged=converged,
        tail_window=(t_lo, t_hi),
        max_component_variation=float(variation.max()),
        final_state=traj.final_state.copy(),
        velocity_norm_at_end=velocity,
    )


def tail_stats(traj: Trajectory, variable: str) -> TailStats:
    """Mean/min/max of one named variable over the trailing 20 % of the run,
    the window ``detect_steady_state`` uses."""
    col = traj.column(variable)  # KeyError for unknown names
    mask, t_lo, t_hi = _tail_mask(traj.times, _TAIL_FRACTION)
    vals = col[mask]
    return TailStats(
        variable=variable,
        window=(t_lo, t_hi),
        mean=float(vals.mean()),
        min=float(vals.min()),
        max=float(vals.max()),
    )


def _renorm_windows(sys: ComposedSystem, transient: float = _TRANSIENT,
                    horizon: float = _HORIZON, renorm_dt: float = _RENORM_DT):
    """Check ``lyapunov_max``'s settings against ``sys``.

    Returns ``transient``, ``renorm_dt`` and the indices k of the windows
    ((k - 1) renorm_dt, k renorm_dt] whose growth the estimate averages:
    those that end after ``transient`` and by ``horizon``.
    """
    if not all(map(math.isfinite, (transient, horizon, renorm_dt))):
        raise ValueError(f"transient, horizon and renorm_dt must be finite, got "
                         f"{transient}, {horizon}, {renorm_dt}")
    if renorm_dt <= 0:
        raise ValueError("renorm_dt must be positive")
    if horizon < 100 * renorm_dt:
        raise ValueError(
            f"horizon {horizon:g} too short: need at least 100 renormalization "
            f"intervals ({100 * renorm_dt:g})"
        )
    if not 0.0 <= transient < horizon:
        raise ValueError("need 0 <= transient < horizon")
    if not sys.z:
        raise ValueError("system has no 'z' block to perturb")
    last = int(math.floor(horizon / renorm_dt + 1e-9))
    first = next((k for k in range(1, last + 1)
                  if k * renorm_dt > transient + 1e-12), last + 1)
    counted = range(first, last + 1)
    if len(counted) < _MIN_RENORM_EVENTS:
        raise ValueError(
            f"only {len(counted)} renormalization events after the transient; "
            f"need at least {_MIN_RENORM_EVENTS}"
        )
    return transient, renorm_dt, counted


def _pair_windows(sys, input_signal, x0, cfg, renorm_dt, grid=np.empty(0)):
    """Run x0 and a copy perturbed by _D0 in its first z-component as one
    pair, in windows ((k - 1) renorm_dt, k renorm_dt] for k = 1, 2, ...

    The pair is one list of 2n floats, reference then copy, that the
    solver's two-copy step loop advances, so both take the same steps.
    After each window this yields the log growth log(d / _D0) of the copies'
    separation d at its end, None when d is exactly 0, and the reference
    half at the points of ``grid`` inside the window. It then pulls the
    copy back to distance _D0 along the separation (onto the reference when
    d is 0). A grid point within _SNAP of a window's end is sampled at that
    end, the last point of the window's own grid; grid output does not
    steer step control, so the growth does not depend on ``grid``.
    """
    n = sys.dim
    state = check_initial_state(x0, n).tolist() * 2
    state[n + sys.z[0]] += _D0
    t, lo = 0.0, 0
    for k in itertools.count(1):
        t_next = k * renorm_dt
        hi = int(np.searchsorted(grid, t_next + _SNAP, side="right"))
        points = grid[lo:hi]
        if points.size and points[-1] > t_next - _SNAP:
            points = points[:-1]  # the window's end stands in for it
        _, rows = _advance(sys.rhs, input_signal, state, n, t, t_next, cfg,
                           np.append(points, t_next))
        state = rows[-1].tolist()
        delta = [b - a for a, b in zip(state, state[n:])]
        d = _norm(delta)
        growth = None if d == 0.0 else math.log(d / _D0)
        yield growth, rows[:hi - lo, :n]
        if d == 0.0:
            state[n:] = state[:n]
        else:
            state[n:] = [a + e * (_D0 / d) for a, e in zip(state, delta)]
        t, lo = t_next, hi


def _lambda_stderr(sums, renorm_dt) -> tuple[float, float]:
    """The exponent and its batch-means standard error from ``sums``, where
    ``sums[i]`` is the sum of the first i counted log growths (``sums[0]``
    is 0).

    Batch j holds the counted windows j m // B to (j + 1) m // B - 1 of
    m = len(sums) - 1, so each mean is read from two entries of ``sums``.
    The squares add in index order, as in ``_norm``.
    """
    m = len(sums) - 1
    lam = sums[m] / (m * renorm_dt)
    ss, lo = 0.0, 0
    for j in range(1, _BATCHES + 1):
        hi = j * m // _BATCHES
        e = (sums[hi] - sums[lo]) / ((hi - lo) * renorm_dt) - lam
        ss += e * e
        lo = hi
    return lam, math.sqrt(ss / (_BATCHES * (_BATCHES - 1)))


def _settled(sums, renorm_dt) -> bool:
    """True once at least _MIN_RENORM_EVENTS counted windows put the exponent
    more than _STOP_Z standard errors from both verdict boundaries."""
    if len(sums) <= _MIN_RENORM_EVENTS:
        return False
    lam, stderr = _lambda_stderr(sums, renorm_dt)
    margin = _STOP_Z * stderr
    return abs(lam - CHAOS_THRESHOLD) > margin and abs(lam + CHAOS_THRESHOLD) > margin


def _estimate(sums, transient, renorm_dt) -> LyapunovEstimate:
    lam, stderr = _lambda_stderr(sums, renorm_dt)
    return LyapunovEstimate(
        lambda_max=lam,
        stderr=stderr,
        renorm_interval=renorm_dt,
        renorm_count=len(sums) - 1,
        transient_discarded=transient,
        perturbation_size=_D0,
    )


def lyapunov_max(
    sys: ComposedSystem,
    input_signal: InputSignal,
    x0: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(),
    *,
    transient: float = _TRANSIENT,
    horizon: float = _HORIZON,
    renorm_dt: float = _RENORM_DT,
) -> LyapunovEstimate:
    """Estimate the largest Lyapunov exponent by two-trajectory
    renormalization.

    A copy of the state perturbed by d0 = 1e-8 in its first z-component is
    integrated jointly with the reference. Every ``renorm_dt`` the
    separation d is measured, log(d/d0) is accumulated (only after
    ``transient``), and the perturbed copy is pulled back to distance d0
    along the current separation direction. The estimate is the mean
    logarithmic growth rate over the accumulated events.

    The perturbation lives in the z-subsystem because the filter cascade
    contracts by construction; perturbing it would only slow convergence of
    the estimate.
    """
    transient, renorm_dt, counted = _renorm_windows(sys, transient, horizon,
                                                    renorm_dt)
    sums = [0.0]
    windows = _pair_windows(sys, input_signal, x0, cfg, renorm_dt)
    for k, (growth, _) in enumerate(windows, 1):
        if growth is None:
            raise ValueError(
                "perturbation collapsed to exactly zero; cannot renormalize"
            )
        if k in counted:
            sums.append(sums[-1] + growth)
        if k == counted[-1]:
            break
    return _estimate(sums, transient, renorm_dt)


@dataclass(frozen=True)
class VerdictRecord:
    """Verdict plus the evidence behind it.

    ``trajectory`` is the run the steady-state test saw: the reference half
    of the Lyapunov pair on the steady-state grid. It and ``steady`` are
    None when the pair diverged before ``ss_horizon``. ``lyapunov`` is None
    when the steady-state test already settled the verdict, when the pair
    diverged after ``ss_horizon``, or when its perturbation collapsed to
    exactly zero; in the last case a converged steady-state test gives the
    verdict, and otherwise it is inconclusive. ``lyapunov.renorm_count`` is
    below what the estimator's horizon holds when a sequential verdict
    stopped early (see ``classify_response``).
    """

    verdict: str
    steady: SteadyStateReport | None
    lyapunov: LyapunovEstimate | None
    trajectory: Trajectory | None


def classify_response(
    sys: ComposedSystem,
    input_signal: InputSignal,
    x0: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(),
    *,
    ss_horizon: float = 200.0,
    always_lyapunov: bool = False,
    lyapunov_opts: dict | None = None,
) -> VerdictRecord:
    """Run the steady-state test and, when needed, the Lyapunov estimate,
    on one run of the two-trajectory pair that ``lyapunov_max`` uses.

    The steady-state test sees the pair's reference half on a 0.05 grid
    that ends at ``ss_horizon``. Verdict rule: steady_state if its tail is
    asymptotically constant; otherwise chaotic_like when lambda_max > 0.05,
    sustained_oscillation when |lambda_max| <= 0.05, and inconclusive when
    the tail keeps moving yet the exponent reads clearly negative
    (diagnostics disagree) or the exponent could not be measured because
    the perturbation collapsed. When the tail has converged and
    ``always_lyapunov`` is off, the run stops after the renormalization
    window that holds ``ss_horizon``.

    When the tail has not converged and ``always_lyapunov`` is off, the
    verdict is sequential: from the window that holds ``ss_horizon`` on, at
    each window end where at least 50 counted windows exist, the exponent
    and its batch-means standard error sigma are read from the counted
    windows so far (10 near-equal batches), and the run stops once the
    exponent lies more than 5 sigma from both -0.05 and 0.05. Otherwise,
    or with ``always_lyapunov``, the run goes on to the estimator's
    ``horizon``, and the exponent has the bits ``lyapunov_max`` gives with
    the same ``lyapunov_opts``.

    A diverging run yields the "divergence" verdict rather than an
    exception; so does a run that exceeds the integrator's step budget,
    one that crawls at more than 10,000 trial steps per unit of time.
    ``ss_horizon`` (at least 10), ``lyapunov_opts`` and the system's z
    block are checked before the first step, as ``lyapunov_max`` checks
    them.
    """
    if not ss_horizon >= _MIN_SPAN:
        raise ValueError(f"ss_horizon must be at least {_MIN_SPAN:g}, got {ss_horizon}")
    grid = uniform_grid(0.0, ss_horizon, _GRID_STEP)
    transient, renorm_dt, counted = _renorm_windows(sys, **(lyapunov_opts or {}))

    steady = traj = None
    parts, filled = [], 0
    sums, measured = [0.0], True
    windows = _pair_windows(sys, input_signal, x0, cfg, renorm_dt, grid)
    try:
        for k, (growth, rows) in enumerate(windows, 1):
            if growth is None and k <= counted[-1]:
                measured = False
            elif k in counted:
                sums.append(sums[-1] + growth)
            parts.append(rows)
            filled += len(rows)
            if steady is None and filled == grid.size:
                traj = Trajectory(grid, np.concatenate(parts), sys.state_names)
                steady = detect_steady_state(traj)
                if steady.converged and not always_lyapunov:
                    break
            if steady is not None and (k >= counted[-1] or not measured or (
                    not always_lyapunov and _settled(sums, renorm_dt))):
                break
    except IntegrationError:
        if steady is None or not steady.converged:
            return VerdictRecord(VERDICT_DIVERGENCE, steady, None, traj)
        measured = False

    estimate = None
    if measured and (always_lyapunov or not steady.converged):
        estimate = _estimate(sums, transient, renorm_dt)

    if steady.converged:
        verdict = VERDICT_STEADY_STATE
    elif estimate is None:
        verdict = VERDICT_INCONCLUSIVE
    elif estimate.lambda_max > CHAOS_THRESHOLD:
        verdict = VERDICT_CHAOTIC
    elif abs(estimate.lambda_max) <= CHAOS_THRESHOLD:
        verdict = VERDICT_OSCILLATION
    else:
        verdict = VERDICT_INCONCLUSIVE
    return VerdictRecord(verdict, steady, estimate, traj)


@dataclass(frozen=True)
class MonteCarloRow:
    """One sample of the random-input/random-IC sweep.

    ``to_json_dict`` emits exactly the documented JSON-lines fields; the
    extra ``final_state_const`` array stays in-process for convergence
    checks.
    """

    sample: int
    u0: float
    x0: np.ndarray
    verdict_const: str
    verdict_sin: str
    lambda_const: float | None
    lambda_sin: float | None
    p_tail_mean_const: float | None
    p_tail_mean_sin: float | None
    final_state_const: np.ndarray | None

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "final_state_const"}
        out["x0"] = [float(v) for v in self.x0]
        return out


def _leg(sys, input_signal, x0, cfg):
    """One input leg of a Monte Carlo sample: verdict, exponent, p-tail mean."""
    record = classify_response(sys, input_signal, x0, cfg, always_lyapunov=True)
    lam = record.lyapunov.lambda_max if record.lyapunov else None
    traj = record.trajectory
    if traj is None:
        return record.verdict, lam, None, None
    return record.verdict, lam, tail_stats(traj, "p").mean, traj.final_state.copy()


def _mc_sample(task) -> MonteCarloRow:
    sample, scenario, u0, x0, cfg = task
    sys = scenarios.build_system(scenario)
    v_const, lam_const, p_const, final_const = _leg(sys, Constant(u0), x0, cfg)
    v_sin, lam_sin, p_sin, _ = _leg(sys, Sinusoid(), x0, cfg)
    return MonteCarloRow(
        sample=sample,
        u0=u0,
        x0=x0,
        verdict_const=v_const,
        verdict_sin=v_sin,
        lambda_const=lam_const,
        lambda_sin=lam_sin,
        p_tail_mean_const=p_const,
        p_tail_mean_sin=p_sin,
        final_state_const=final_const,
    )


def monte_carlo(
    scenario: str,
    n_samples: int,
    seed: int = 0,
    *,
    cfg: IntegratorConfig = IntegratorConfig(),
    jobs: int = 1,
) -> list[MonteCarloRow]:
    """Sweep ``n_samples`` random (constant-input, initial-condition) draws.

    Each sample draws a constant-input magnitude u0 and a full initial
    state uniformly from [-10, 10], then maps p0 affinely into [0, 1], and
    classifies the response to u = u0 and to u = sin t. The cascade keeps
    p in [0, 1] once there, and a negative p would run the product-form
    field backward in time. Draws come from per-sample generators split
    off one seed, so results are reproducible and independent of ``jobs``;
    sample i's draw does not change when n_samples grows. At most
    ``min(jobs, n_samples)`` worker processes run; with one, no pool starts.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    lo, hi = _SAMPLE_RANGE
    names = scenarios.build_system(scenario).state_names
    p = names.index("p")
    children = np.random.SeedSequence(seed).spawn(n_samples)
    tasks = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        u0 = float(rng.uniform(lo, hi))
        x0 = rng.uniform(lo, hi, size=len(names))
        x0[p] = (x0[p] - lo) / (hi - lo)
        tasks.append((i, scenario, u0, x0, cfg))

    # a fork pool starts all its workers at once, needed or not
    workers = min(jobs, n_samples)
    if workers <= 1:
        return [_mc_sample(task) for task in tasks]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_mc_sample, tasks))
