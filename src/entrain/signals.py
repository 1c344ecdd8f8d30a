"""Scalar forcing inputs u(t).

Every simulation in this package is driven by a single scalar input. The
three carriers below cover everything the scenarios need: a constant level,
a sinusoid, and a sampled table (linearly interpolated) for inputs loaded
from file. Signals are immutable and safe to share between concurrent
integrations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputSignal",
    "Constant",
    "Sinusoid",
    "Sampled",
    "parse_input_spec",
]


class InputSignal:
    """Base class for scalar inputs. Subclasses implement ``__call__(t)``.

    A class may also define ``expr``: its ``__call__`` as an expression over
    ``t`` and its dataclass fields, with the same operations in the same
    order. The solver's step loop then writes that expression out in place
    of the call, for inputs of exactly that class; a subclass that does not
    define ``expr`` itself is called.
    """

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    @property
    def spec(self) -> str:
        """Canonical spec string (the CLI input grammar)."""
        raise NotImplementedError


def _num(value: float) -> str:
    """The shortest text that parses back to ``value`` exactly; 10.0 reads ``10``."""
    return repr(float(value)).removesuffix(".0")


@dataclass(frozen=True)
class Constant(InputSignal):
    """u(t) = value for all t."""

    value: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"constant input must be finite, got {self.value}")

    expr = "value"

    def __call__(self, t: float) -> float:
        return self.value

    @property
    def spec(self) -> str:
        return f"const:{_num(self.value)}"


@dataclass(frozen=True)
class Sinusoid(InputSignal):
    """u(t) = amplitude * sin(omega * t + phase), omega in rad/s."""

    amplitude: float = 1.0
    omega: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.omega, self.phase))):
            raise ValueError(f"sinusoid parameters must be finite, got {self}")
        if not self.omega > 0:
            raise ValueError(f"sinusoid omega must be positive, got {self.omega}")

    expr = "amplitude * math.sin(omega * t + phase)"

    def __call__(self, t: float) -> float:
        return self.amplitude * math.sin(self.omega * t + self.phase)

    @property
    def spec(self) -> str:
        return f"sin:{_num(self.amplitude)}:{_num(self.omega)}:{_num(self.phase)}"


@dataclass(frozen=True, eq=False)
class Sampled(InputSignal):
    """Tabulated signal, linearly interpolated between samples.

    Evaluation outside [times[0], times[-1]] raises ValueError: extrapolating
    a measured input silently would corrupt a simulation. ``times`` and
    ``values`` are read-only copies of the arrays given, so equality is
    identity and the hash is the object's.
    """

    times: np.ndarray
    values: np.ndarray
    source: str = ""

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        for name, a in (("times", times), ("values", values)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if times.size < 2:
            raise ValueError("sampled signal needs at least two samples")
        if not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("sample times and values must be finite")

    def __call__(self, t: float) -> float:
        if t < self.times[0] or t > self.times[-1]:
            raise ValueError(
                f"t={t} outside sampled range [{self.times[0]}, {self.times[-1]}]"
            )
        return float(np.interp(t, self.times, self.values))

    @property
    def spec(self) -> str:
        return self.source if self.source else f"sampled:{self.times.size}pts"


def parse_input_spec(spec: str) -> InputSignal:
    """Parse the CLI input grammar.

    ``const:<c>``                        constant level
    ``sin:<amplitude>:<omega>[:<phase>]`` sinusoid (omega in rad/s, phase in rad)
    ``file:<path>``                       two-column CSV ``t,u``
    """
    kind, _, rest = spec.partition(":")
    if kind == "const":
        try:
            value = float(rest)
        except ValueError:
            raise ValueError(f"bad constant input spec {spec!r}") from None
        return Constant(value)
    if kind == "sin":
        parts = rest.split(":") if rest else []
        if len(parts) not in (2, 3):
            raise ValueError(f"bad sinusoid input spec {spec!r}, "
                             "expected sin:<amplitude>:<omega>[:<phase>]")
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad sinusoid input spec {spec!r}") from None
        phase = nums[2] if len(nums) == 3 else 0.0
        return Sinusoid(amplitude=nums[0], omega=nums[1], phase=phase)
    if kind == "file":
        with warnings.catch_warnings():
            # numpy warns on a file without data rows; the check below says so
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(rest, delimiter=",", ndmin=2)
            except ValueError:  # tolerate a header row such as "t,u"
                data = np.loadtxt(rest, delimiter=",", ndmin=2, skiprows=1)
        if data.size == 0:
            raise ValueError(f"input file {rest!r} has no data rows")
        if data.shape[1] != 2:
            raise ValueError(f"input file {rest!r} must have two columns t,u")
        return Sampled(times=data[:, 0], values=data[:, 1], source=spec)
    raise ValueError(f"unknown input spec {spec!r}")
