"""Named scenario presets: canonical systems, initial conditions, inputs.

Each preset is one table row of what varies between scenarios: the
saturation constant, the reference initial state and how to build the
composed system. Every scenario runs the same default input,
``DEFAULT_INPUT``, up to ``DEFAULT_T_END``, and puts the same front end,
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
    "DEFAULT_INPUT",
    "DEFAULT_T_END",
    "build_system",
    "build_reference_system",
    "default_spec",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario's saturation constant, reference initial state and system.

    ``compose(K)`` builds the scenario's system for a saturation constant;
    every row uses the classic Lorenz parameters.
    """

    K: float
    x0: tuple[float, ...]
    compose: Callable[[float], ComposedSystem]


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
# every scenario's input and horizon unless a run names its own
DEFAULT_INPUT = "sin:1:1"
DEFAULT_T_END = 200.0

_SCENARIOS = {
    "example1": ScenarioSpec(0.1, _X0_EXAMPLE1, compose_example1),
    "example2": ScenarioSpec(1e-4, _X0_EXAMPLE2, compose_example2),
    "interp-lorenz": ScenarioSpec(1e-4, _X0_EXAMPLE2, _interp_lorenz),
    "general": ScenarioSpec(0.1, _X0_EXAMPLE1, _general),
}

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
