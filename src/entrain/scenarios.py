"""Named scenario presets: canonical systems, initial conditions, inputs.

Each preset bundles everything a demo run needs — how to build the
composed system, its saturation constant, the reference initial state, a
default input and horizon — in one table row, so the standard experiments
are one command. Every bundled scenario puts the same front end,
``filter_one()``, before the saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .blocks import (
    EXAMPLE_STATE_NAMES,
    ComposedSystem,
    Saturation,
    compose_autonomous,
    compose_cascade,
    compose_example1,
    compose_example2,
    filter_one,
    lorenz_field,
    stable_linear_field,
)

__all__ = [
    "ScenarioSpec",
    "SCENARIO_IDS",
    "build_system",
    "build_reference_system",
    "default_spec",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully-specified run: system recipe plus run defaults.

    ``compose(K)`` builds the scenario's system for a saturation constant;
    every row uses the classic Lorenz parameters.
    """

    scenario_id: str
    K: float
    x0: tuple[float, ...]
    compose: Callable[[float], ComposedSystem]
    input_spec: str = "sin:1:1"
    t_end: float = 200.0


def _interp_lorenz(K: float) -> ComposedSystem:
    sys = compose_cascade(filter_one(), Saturation(K), lorenz_field(),
                          stable_linear_field())
    return replace(sys, state_names=EXAMPLE_STATE_NAMES)


def _general(K: float) -> ComposedSystem:
    return compose_cascade(filter_one(), Saturation(K), lorenz_field())


# Reference initial states: the two 5-state demo systems each have a
# canonical starting point used throughout the docs and tests.
_X0_EXAMPLE1 = (5.0, 0.0, 1.0, 0.0, 0.0)
_X0_EXAMPLE2 = (2.95, -0.98, 0.94, -4.07, 4.89)

_SCENARIOS = {spec.scenario_id: spec for spec in (
    ScenarioSpec("example1", 0.1, _X0_EXAMPLE1, compose_example1),
    ScenarioSpec("example2", 1e-4, _X0_EXAMPLE2, compose_example2),
    ScenarioSpec("interp-lorenz", 1e-4, _X0_EXAMPLE2, _interp_lorenz),
    ScenarioSpec("general", 0.1, _X0_EXAMPLE1, _general),
)}

SCENARIO_IDS = tuple(_SCENARIOS)


def default_spec(name: str) -> ScenarioSpec:
    """The canonical ScenarioSpec for a scenario name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_IDS)}"
        ) from None


def build_system(name: str, K: float | None = None) -> ComposedSystem:
    """Construct the composed system for a scenario name.

    ``K`` overrides the scenario's default saturation constant.
    """
    spec = default_spec(name)
    return spec.compose(spec.K if K is None else K)


def build_reference_system(name: str) -> tuple[ComposedSystem, tuple[float, ...]]:
    """Bare reference systems (no input cascade) and their standard starts."""
    if name == "lorenz":
        return compose_autonomous(lorenz_field()), (1.0, 1.0, 1.0)
    raise KeyError(f"unknown reference system {name!r}; available: lorenz")
