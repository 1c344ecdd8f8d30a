"""Span tracer for the benchmark's traced run, and the arithmetic on spans.

The tracer patches public entry points of ``entrain`` as module globals, so
the package's own cross-module calls go through the wrappers; the package
itself is not edited. Every wrapped call records one span: name, start,
end, parent span, operation (pass) id and process id. Spans stay in memory
and are written out as JSON lines when the traced run ends.

The two innermost layers, the RHS (``blocks``) and the input
(``signals``), run hundreds of thousands of times per pass. One span each
would cost more memory and time than the work they time, so they are kept
as a call count and a time total on the span that encloses them, usually a
``solver.integrate`` span. They are still subtracted from that span's self
time.

Monte Carlo workers are forked by ``monte_carlo`` while its span is open:
they inherit the patches, the operation id and the open span, which becomes
the parent of their spans. A pool worker leaves through ``os._exit``, so no
exit hook runs there; it writes its spans out each time its outermost span
closes instead.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from entrain import cli, diagnostics, scenarios
from entrain.signals import InputSignal


@dataclasses.dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    op: int
    pid: int
    rhs_n: int = 0
    rhs_s: float = 0.0
    input_n: int = 0
    input_s: float = 0.0
    rows: int = 0


class TracedInput(InputSignal):
    """Delegating input that adds its evaluation time to the open span."""

    def __init__(self, inner: InputSignal, tracer: "Tracer"):
        self.inner = inner
        self.tracer = tracer

    def __call__(self, t: float) -> float:
        t0 = perf_counter()
        u = self.inner(t)
        span = self.tracer.stack[-1]
        span.input_n += 1
        span.input_s += perf_counter() - t0
        return u

    @property
    def spec(self) -> str:
        return self.inner.spec


# (module, global name, span name) of every wrapped entry point. ``cli``
# imported its helpers by name, so its copies are patched separately.
_PATCHES = (
    (scenarios, "build_system", "scenarios.build_system"),
    (cli, "build_system", "scenarios.build_system"),
    (diagnostics, "integrate", "solver.integrate"),
    (cli, "integrate", "solver.integrate"),
    (diagnostics, "classify_response", "diagnostics.classify"),
    (diagnostics, "detect_steady_state", "diagnostics.steady"),
    (cli, "detect_steady_state", "diagnostics.steady"),
    (diagnostics, "lyapunov_max", "diagnostics.lyapunov"),
    (diagnostics, "tail_stats", "diagnostics.tail"),
    (cli, "tail_stats", "diagnostics.tail"),
    (diagnostics, "monte_carlo", "diagnostics.monte_carlo"),
    (cli, "main", "cli.main"),
)


class Tracer:
    """Records spans around the patched entry points while installed."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.main_pid = self.pid = os.getpid()
        self.op = 0
        self.spans: list[Span] = []
        # The bottom entry catches RHS and input calls made outside any span.
        self.stack: list[Span] = [Span("root", "root", 0.0, 0.0, None, 0, self.pid)]
        self._base_depth = 1
        self._count = 0
        self._saved: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._base_depth = len(self.stack)

    def install(self) -> None:
        for module, attr, name in _PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if name == "scenarios.build_system":
                wrapper = self._wrap_build(original)
            elif name == "solver.integrate":
                wrapper = self._wrap_integrate(original)
            else:
                wrapper = self._wrap(name, original)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> Span:
        self._count += 1
        span = Span(f"{self.pid}:{self._count}", name, perf_counter(), 0.0,
                    self.stack[-1].id if len(self.stack) > 1 else None,
                    self.op, self.pid)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()
        self.spans.append(span)
        if self.pid != self.main_pid and len(self.stack) == self._base_depth:
            self.flush()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def _wrap_build(self, fn):
        @functools.wraps(fn)
        def build_system(*args, **kwargs):
            span = self._open("scenarios.build_system")
            try:
                return self.traced_system(fn(*args, **kwargs))
            finally:
                self._close(span)
        return build_system

    def _wrap_integrate(self, fn):
        @functools.wraps(fn)
        def integrate(sys, input_signal, *args, **kwargs):
            span = self._open("solver.integrate")
            try:
                traj = fn(sys, TracedInput(input_signal, self), *args, **kwargs)
                span.rows = int(traj.times.size)
                return traj
            finally:
                self._close(span)
        return integrate

    def traced_system(self, sys):
        """Copy of ``sys`` whose RHS adds its time to the open span."""
        inner = sys.rhs
        stack = self.stack

        def rhs(t, state, u):
            t0 = perf_counter()
            out = inner(t, state, u)
            span = stack[-1]
            span.rhs_n += 1
            span.rhs_s += perf_counter() - t0
            return out

        return dataclasses.replace(sys, rhs=rhs)

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
        self.spans = []


def load_spans(out_dir: Path) -> list[Span]:
    """Merge the span files every process wrote."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(Span(**json.loads(line)) for line in fh)
    return spans


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover (children may run in parallel, in other processes)
    and minus the RHS and input time recorded on it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id] if c.end > s.start and c.start < s.end)
        out[s.id] = (s.end - s.start) - covered - s.rhs_s - s.input_s
    return out


def pass_metrics(spans: list[Span], wall: float, jobs: int,
                 main_pid: int) -> dict[str, float]:
    """Per-layer totals of one traced pass, from the spans of that pass, its
    traced wall time, the Monte Carlo worker count and the pid that ran it."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def duration(items):
        return sum(s.end - s.start for s in items)

    integrates = named("solver.integrate")
    lyapunovs = named("diagnostics.lyapunov")
    lyapunov_ids = {s.id for s in lyapunovs}
    mains = named("cli.main")
    mcs = named("diagnostics.monte_carlo")
    mc_ids = {s.id for s in mcs}
    legs = [s for s in named("diagnostics.classify") if s.parent in mc_ids]
    rhs_calls = sum(s.rhs_n for s in spans)
    solver_self = sum(own[s.id] for s in integrates)

    # Self times in the process that ran the pass, plus the time that
    # worker processes cover, should add up to the traced wall time.
    attributed = (sum(own[s.id] + s.rhs_s + s.input_s
                      for s in spans if s.pid == main_pid)
                  + union_length((s.start, s.end) for s in spans
                                 if s.pid != main_pid))
    return {
        "blocks.rhs_calls": rhs_calls,
        "blocks.rhs_s": sum(s.rhs_s for s in spans),
        "signals.input_calls": sum(s.input_n for s in spans),
        "signals.input_s": sum(s.input_s for s in spans),
        "solver.integrate_calls": len(integrates),
        "solver.integrate_s": duration(integrates),
        "solver.self_s": solver_self,
        "solver.us_per_stage": solver_self / rhs_calls * 1e6 if rhs_calls else 0.0,
        "solver.grid_rows": sum(s.rows for s in integrates),
        "diagnostics.classify_s": duration(named("diagnostics.classify")),
        "diagnostics.steady_s": duration(named("diagnostics.steady")),
        "diagnostics.lyapunov_s": duration(lyapunovs),
        "diagnostics.lyapunov_windows": sum(1 for s in integrates
                                            if s.parent in lyapunov_ids),
        "diagnostics.lyapunov_self_s": sum(own[s.id] for s in lyapunovs),
        "diagnostics.mc_legs": len(legs),
        "diagnostics.mc_busy_frac": (duration(legs) / (jobs * duration(mcs))
                                     if mcs else 0.0),
        "cli.main_s": duration(mains),
        "cli.write_s": sum(own[s.id] for s in mains),
        "trace.self_sum_frac": attributed / wall,
    }
