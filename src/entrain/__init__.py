"""Composable simulation of forced systems built to defeat entrainment:
every constant input drives them to a steady state, while periodic forcing
sustains chaotic-like motion.

The pieces: input signals (``signals``), linear front-end filters with a
transfer-function zero at the origin (``lti``), the saturation/lag/vector-
field cascade (``blocks``), adaptive integration (``solver``), steady-state
and Lyapunov diagnostics plus a Monte Carlo harness (``diagnostics``), and
named presets (``scenarios``). The ``entrain`` console script fronts it all.
"""

# bound before the cli import below, which reads it back from the package
__version__ = "0.1.0"

from .blocks import (
    ComposedSystem,
    Saturation,
    VectorField,
    compose_autonomous,
    compose_cascade,
    compose_example1,
    compose_example2,
    filter_one,
    lorenz_field,
    stable_linear_field,
)
from .cli import RunArtifacts, run_from_manifest
from .diagnostics import (
    LyapunovEstimate,
    MonteCarloRow,
    SteadyStateReport,
    TailStats,
    VerdictRecord,
    classify_response,
    detect_steady_state,
    lyapunov_max,
    monte_carlo,
    tail_stats,
)
from .lti import LtiSystem, has_zero_at_origin, sinusoid_steady_state, transfer_eval
from .scenarios import ScenarioSpec, build_reference_system, build_system, default_spec
from .signals import Constant, InputSignal, Sampled, Sinusoid, parse_input_spec
from .solver import (
    DivergenceError,
    IntegrationError,
    IntegratorConfig,
    StepBudgetError,
    StiffnessError,
    Trajectory,
    integrate,
)

__all__ = [
    "__version__",
    # signals
    "InputSignal", "Constant", "Sinusoid", "Sampled", "parse_input_spec",
    # lti
    "LtiSystem", "transfer_eval", "has_zero_at_origin", "sinusoid_steady_state",
    # blocks
    "Saturation", "VectorField", "ComposedSystem",
    "filter_one", "lorenz_field", "stable_linear_field",
    "compose_example1", "compose_example2", "compose_cascade",
    "compose_autonomous",
    # solver
    "IntegratorConfig", "Trajectory", "integrate",
    "IntegrationError", "StiffnessError", "DivergenceError", "StepBudgetError",
    # diagnostics
    "SteadyStateReport", "LyapunovEstimate", "TailStats", "VerdictRecord",
    "MonteCarloRow", "detect_steady_state", "lyapunov_max", "tail_stats",
    "classify_response", "monte_carlo",
    # scenarios
    "ScenarioSpec", "build_system", "build_reference_system", "default_spec",
    # cli
    "run_from_manifest", "RunArtifacts",
]
