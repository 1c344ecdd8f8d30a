"""Layer micro-runs: single layers timed from outside, untraced.

Each figure is the median over a few batches, so one slow batch (another
process taking the core) does not move it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from entrain import scenarios, solver
from entrain.signals import Constant, Sinusoid

BATCHES = 5


def _per_call_us(fn, calls: int) -> float:
    times = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append(perf_counter() - t0)
    return median(times) / calls * 1e6


def rhs_us(name: str, calls: int) -> float:
    """One bare RHS call of a scenario (or of the ``lorenz`` reference)."""
    if name == "lorenz":
        sys, x0 = scenarios.build_reference_system("lorenz")
    else:
        sys, x0 = scenarios.build_system(name), scenarios.default_spec(name).x0
    rhs, x = sys.rhs, np.asarray(x0, dtype=float)
    return _per_call_us(lambda: rhs(0.5, x, 0.5), calls)


def input_us(signal, calls: int) -> float:
    return _per_call_us(lambda: signal(0.5), calls)


def grid_us_per_row(t_end: float, step: float) -> float:
    """Gridded integrate minus an endpoint-only one, per grid row.

    Both runs take the same steps (output does not steer step control), so
    the difference is the cost of producing the grid rows.
    """
    sys = scenarios.build_system("example1")
    x0 = np.asarray(scenarios.default_spec("example1").x0, dtype=float)
    u = Constant(2.0)
    grid = np.arange(0.0, t_end + step / 2, step)
    end = np.array([t_end])
    gridded, bare = [], []
    for _ in range(BATCHES):
        for out, times in ((grid, gridded), (end, bare)):
            t0 = perf_counter()
            solver.integrate(sys, u, x0, (0.0, t_end), output_grid=out)
            times.append(perf_counter() - t0)
    return (median(gridded) - median(bare)) / grid.size * 1e6


def build_us(names, calls: int) -> float:
    """One ``build_system`` call, averaged over the workload's scenarios."""
    return sum(_per_call_us(lambda n=n: scenarios.build_system(n), calls)
               for n in names) / len(names)


def measure(names, scale: float = 1.0) -> dict[str, float]:
    """Every micro-run metric; ``scale`` shrinks the call counts."""
    calls = max(10, int(4000 * scale))
    return {
        "blocks.rhs_us.example1": rhs_us("example1", calls),
        "blocks.rhs_us.example2": rhs_us("example2", calls),
        "blocks.rhs_us.lorenz": rhs_us("lorenz", calls),
        "signals.input_us.Sinusoid": input_us(Sinusoid(), calls),
        "signals.input_us.Constant": input_us(Constant(2.0), calls),
        "solver.grid_us_per_row": grid_us_per_row(max(10.0, 50.0 * scale), 0.01),
        "scenarios.build_us": build_us(names, calls),
    }
