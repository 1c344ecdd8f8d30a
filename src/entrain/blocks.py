"""Nonlinear blocks and the cascade composition.

The cascade is  u -> [linear filter, zero at s=0] -> y -> [saturation] -> w
-> [lag dp/dt = -p + w] -> p -> [dz/dt = p f(z)].  Constant u makes y, w, p
decay, freezing z; a sinusoid keeps y oscillating, w mostly saturated near 1
and hence p bounded away from zero, so z runs a time-rescaled copy of
dz/dt = f(z).

Every bundled right-hand side is written once, as data: a ``Row`` of
expression strings, one per state, over named states, the input ``u`` and
named parameters. ``lorenz_field`` and ``stable_linear_field`` are rows over
(xi, psi, zeta), and every system a ``compose_*`` function builds is a row.
``compose_cascade`` writes the cascade around arbitrary blocks as one row,
with the filter's entries as numbers in it, and ``compose_autonomous`` a
field alone, both with ``_field``. The two concrete 5-state systems
are cascades too: ``compose_example1`` is ``compose_cascade`` around
``filter_one()`` and the Lorenz field, and ``compose_example2`` puts the same
front before p-modulated Lorenz coefficients, so p = 0 leaves a stable field.

Every ``ComposedSystem`` and ``VectorField`` holds a row. A row becomes
the ``rhs`` it describes when the block is built: a ``_RowRhs``, which
carries the row and its parameter values as ``row`` and ``values`` for the
solver's generated step loop to write out, and is rejected by a system or
field of another number of states, or by one that calls it another way: a
field's ``rhs(z)`` is no system's ``rhs(t, state, u)``, nor the reverse.
Any other callable, a user's function or a wrapper of a built ``rhs``
alike, even one made by ``functools.wraps`` or that forwards attribute
lookups, is wrapped in a calling row: a parameter ``f`` that the row calls
once and unpacks, so a result of the wrong length fails that unpack.

Every right-hand side here, a system's ``rhs(t, state, u)`` and a vector
field's ``rhs(z)`` alike, takes the state as a list of Python floats and
returns a new list (see ``ComposedSystem`` and ``VectorField``); none
calls numpy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

from .lti import LtiSystem, has_zero_at_origin, transfer_eval

__all__ = [
    "Saturation",
    "Row",
    "VectorField",
    "ComposedSystem",
    "lorenz_field",
    "stable_linear_field",
    "filter_one",
    "EXAMPLE_STATE_NAMES",
    "compose_example1",
    "compose_example2",
    "compose_cascade",
    "compose_autonomous",
]


@dataclass(frozen=True)
class Saturation:
    """Even saturating nonlinearity alpha(y) = y^2 / (K + y^2), K > 0.

    Zero at zero, strictly below 1, approaching 1 for |y| >> sqrt(K).
    """

    K: float = 0.1

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError(f"saturation constant K must be positive, got {self.K}")

    def __call__(self, y: float) -> float:
        y2 = y * y
        return y2 / (self.K + y2)


# A name in an expression: not part of a number or an attribute
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def _rename(text: str, names: dict[str, str]) -> str:
    """``text`` with every name that is a key of ``names`` replaced by its value."""
    return _NAME.sub(lambda m: names.get(m[0], m[0]), text)


@dataclass(frozen=True)
class Row:
    """A right-hand side as data.

    ``exprs[i]`` is the derivative of ``states[i]``: a Python expression over
    the states, the input ``u``, the time ``t``, the ``params`` and the names
    that ``lets`` binds. Each let is ``(target, expression)``, evaluated in
    order; a target may unpack, as in ``"a, b,"``. The compiled right-hand
    side evaluates exactly these expressions on the state's floats, so
    whoever writes a row out must keep each one's operations and their order.
    """

    states: tuple[str, ...]
    exprs: tuple[str, ...]
    lets: tuple[tuple[str, str], ...] = ()
    params: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.exprs) != len(self.states):
            raise ValueError(f"{len(self.exprs)} expressions for {len(self.states)} states")
        names = self.states + self.names
        if (len(set(names)) != len(names) or {"t", "u"} & set(names)
                or not all(map(str.isidentifier, names))):
            raise ValueError(f"row names must be distinct identifiers other than t "
                             f"and u, got {names}")

    @property
    def names(self) -> tuple[str, ...]:
        """The names the row binds besides its states: params, then let targets."""
        return self.params + tuple(a.strip() for target, _ in self.lets
                                   for a in target.split(",") if a.strip())

    def body(self, states, t: str = "t", u: str = "u") -> tuple[list[str], list[str]]:
        """The statements that evaluate the row, and its derivative
        expressions, as code that reads state i from ``states[i]``, the time
        from ``t`` and the input from ``u``. A state given as a bare name is
        read in place; any other expression is first assigned to the state's
        local. Every local of the row, and every param, is its name with the
        prefix ``r_``, so it cannot meet a name of the code around it."""
        names = {a: "r_" + a for a in self.states + self.names}
        lines = []
        for a, arg in zip(self.states, states):
            if arg.isidentifier():
                names[a] = arg
            else:
                lines.append(f"{names[a]} = {arg}")
        names.update(t=t, u=u)
        lines += [f"{_rename(target, names)} = {_rename(expr, names)}"
                  for target, expr in self.lets]
        return lines, [_rename(expr, names) for expr in self.exprs]


@cache
def _binder(row: Row, args: str):
    """``bind(*values)``, which returns ``row`` compiled as ``rhs(args)``
    with its params bound to ``values``; ``args`` names the state ``state``."""
    states = [f"r_{a}" for a in row.states]
    lets, exprs = row.body(states)
    src = "".join(line + "\n" for line in (
        f"def bind({', '.join('r_' + a for a in row.params)}):",
        f"    def rhs({args}):",
        f"        {', '.join(states)}, = state",
        *(f"        {line}" for line in lets),
        f"        return [{', '.join(exprs)}]",
        "    return rhs"))
    ns = {}
    exec(compile(src, f"<row {', '.join(row.states)}>", "exec"), {}, ns)
    return ns["bind"]


class _RowRhs:
    """A right-hand side compiled from ``row`` as ``rhs(args)`` with its
    params bound to ``values``; the solver's step loop writes ``row`` out in
    place of the call. Only ``_row_rhs`` makes one, so a wrapper of one,
    whatever attributes it copies or forwards, is another callable."""

    __slots__ = ("row", "values", "args", "fn")

    def __init__(self, row: Row, values, args: str, fn):
        self.row, self.values, self.args, self.fn = row, values, args, fn

    def __call__(self, *args):
        return self.fn(*args)


def _row_rhs(row: Row, values=(), args: str = "t, state, u") -> _RowRhs:
    """``row`` compiled as ``rhs(args)`` with its params bound to ``values``."""
    return _RowRhs(row, tuple(values), args, _binder(row, args)(*values))


def _as_row_rhs(rhs, n: int, what: str, args: str) -> _RowRhs:
    """``rhs`` if ``_row_rhs`` built it as ``rhs(args)`` for n states; any
    other callable as the row that calls it once, as ``f(args)`` with the
    state a list of the n floats, and unpacks its result, so one of the
    wrong length fails there. The states are ``s0, s1, ...``, whatever the
    columns are called."""
    if type(rhs) is not _RowRhs:
        ss = tuple(f"s{i}" for i in range(n))
        fs = tuple(f"f_{i}" for i in range(n))
        call = args.replace("state", f"[{', '.join(ss)}]")
        rhs = _row_rhs(Row(ss, fs, ((", ".join(fs) + ",", f"f({call})"),), ("f",)),
                       (rhs,), args)
    if len(rhs.row.states) != n:
        raise ValueError(f"rhs was built for {len(rhs.row.states)} states, not the {n} "
                         f"of this {what}")
    if rhs.args != args:
        raise ValueError(f"rhs was built as rhs({rhs.args}), not the rhs({args}) "
                         f"of a {what}")
    return rhs


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field z -> f(z) with a declared dimension.

    ``rhs(z)`` takes z as a list of ``dim`` Python floats, which it must not
    change, and returns f(z) as a new list of ``dim`` floats. The field holds
    it as a row (``_as_row_rhs``).
    """

    dim: int
    rhs: Callable[[list[float]], list[float]]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"vector field dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "rhs", _as_row_rhs(self.rhs, self.dim, "field", "state"))


@dataclass(frozen=True)
class ComposedSystem:
    """Input-driven ODE assembled from blocks.

    ``rhs(t, state, u)`` returns the state derivative; time enters only
    through the input value u. ``state`` is a list of Python floats, which
    the RHS must not change, and the derivative is a new list of the same
    length; the Lyapunov pair calls ``rhs`` once per copy, on that copy's own
    list. ``state_names`` labels each state column, in order, for CSV output
    and diagnostics lookups; ``dim`` is its length, at least 1.
    ``z`` lists the indices of the gated field's state, the block
    ``lyapunov_max`` perturbs; it is empty for a system without one. The
    system holds ``rhs`` as a row (``_as_row_rhs``).
    """

    rhs: Callable[[float, list[float], float], list[float]]
    state_names: tuple[str, ...]
    z: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.state_names:
            raise ValueError("a system needs at least one state")
        if len(set(self.z)) != len(self.z) or not all(0 <= i < self.dim for i in self.z):
            raise ValueError(f"z {self.z} must be distinct indices in 0..{self.dim - 1}")
        object.__setattr__(self, "rhs", _as_row_rhs(self.rhs, self.dim, "system", "t, state, u"))

    @property
    def dim(self) -> int:
        return len(self.state_names)


# The Lorenz field with the classic chaotic parameters s = 10, r = 28,
# b = 8/3, and its p = 0 partner in the second example
_LORENZ = Row(("xi", "psi", "zeta"), (
    "10.0 * (psi - xi)",
    "28.0 * xi - psi - xi * zeta",
    "xi * psi - (8.0 / 3.0) * zeta"))
_STABLE_LINEAR = Row(("xi", "psi", "zeta"), (
    "10.0 * (psi - xi)",
    "-psi",
    "-(8.0 / 3.0) * zeta"))


def lorenz_field() -> VectorField:
    """The Lorenz field at z = (xi, psi, zeta), with the classic chaotic
    parameters s = 10, r = 28, b = 8/3."""
    return VectorField(3, _row_rhs(_LORENZ, args="state"))


def stable_linear_field() -> VectorField:
    """The p = 0 limit of the second example: everything decays to the origin."""
    return VectorField(3, _row_rhs(_STABLE_LINEAR, args="state"))


def filter_one() -> LtiSystem:
    """The concrete front end dx/dt = -x - u, y = x + u, i.e. W(s) = s/(s+1)."""
    return LtiSystem(A=[[-1.0]], B=[-1.0], C=[1.0], D=1.0)


# column names of the two concrete 5-state examples
EXAMPLE_STATE_NAMES = ("x", "p", "xi", "psi", "zeta")
# example2's z block, in which p modulates the Lorenz coefficients
_EXAMPLE2_Z = ("10.0 * (psi - xi)",
               "28.0 * p * xi - psi - p * xi * zeta",
               "p * xi * psi - (8.0 / 3.0) * zeta")


def compose_example1(K: float = 0.1) -> ComposedSystem:
    """First concrete system: Lorenz field multiplied by p.

        dx    = -x - u
        dp    = -p + alpha(x + u)
        dxi   = p 10 (psi - xi)
        dpsi  = p (28 xi - psi - xi zeta)
        dzeta = p (xi psi - (8/3) zeta)

    It is ``compose_cascade(filter_one(), Saturation(K), lorenz_field())``
    with the columns named ``EXAMPLE_STATE_NAMES``.
    """
    sys = compose_cascade(filter_one(), Saturation(K), lorenz_field())
    return replace(sys, state_names=EXAMPLE_STATE_NAMES)


def compose_example2(K: float = 1e-4) -> ComposedSystem:
    """Second concrete system: p modulates the coefficients instead.

        dx    = -x - u
        dp    = -p + alpha(x + u)
        dxi   = 10 (psi - xi)
        dpsi  = 28 p xi - psi - p xi zeta
        dzeta = p xi psi - (8/3) zeta

    At p = 0 the (xi, psi, zeta) block is a stable linear system; at p = 1 it
    is the Lorenz system with the default parameters.
    """
    return _cascade(filter_one(), Saturation(K), EXAMPLE_STATE_NAMES[2:], _EXAMPLE2_Z)


def _check_filter(filter1: LtiSystem) -> None:
    if not filter1.is_hurwitz:
        raise ValueError(
            "front-end filter must be Hurwitz, otherwise constant inputs never settle"
        )
    if not has_zero_at_origin(filter1):
        raise ValueError(
            "front-end filter must have a transfer-function zero at s=0 "
            f"(|W(0)| = {abs(transfer_eval(filter1, 0.0)):.3e}); without it the "
            "output of a constant-input run does not decay and z never freezes"
        )


def _dot(coeffs, names) -> str:
    """``c0 * a0 + c1 * a1 + ...`` with no 0.0 start, so a -0.0 survives; each
    ``c`` is its ``repr``, which round-trips, and an exact 1.0 or -1.0 makes
    ``a`` or ``-a`` (``... - a``), which rounds as the product does."""
    text = ""
    for c, a in zip(coeffs, names):
        term = a if abs(c) == 1.0 else f"{c!r} * {a}"
        if c == -1.0:
            text += f" - {term}" if text else f"-{term}"
        else:
            text += f" + {term}" if text else term
    return text


def _cascade(filter1: LtiSystem, sat: Saturation, zs, dz, lets=(), params=None) -> ComposedSystem:
    """The cascade as one row over the filter's states ``x`` (or ``x0, x1,
    ...``), ``p`` and the z block's ``zs``, whose derivatives are ``dz``. Its
    lets are ``y``, ``y2 = y * y``, then the z block's ``lets``; its params
    are ``K``, then the z block's ``params`` (name -> value)."""
    _check_filter(filter1)
    n = filter1.n
    xs = ("x",) if n == 1 else tuple(f"x{i}" for i in range(n))
    dx = tuple(_dot([*row, b], [*xs, "u"])
               for row, b in zip(filter1.A.tolist(), filter1.B.tolist()))
    y = _dot([*filter1.C.tolist(), filter1.D], [*xs, "u"])
    params = {"K": sat.K, **(params or {})}
    row = Row(xs + ("p",) + tuple(zs), dx + ("-p + y2 / (K + y2)",) + tuple(dz),
              (("y", y), ("y2", "y * y"), *lets), tuple(params))
    return ComposedSystem(_row_rhs(row, tuple(params.values())), row.states,
                          tuple(range(n + 1, n + 1 + len(zs))))


def _field(f: VectorField, tag: str, zs, lets: list, params: dict) -> tuple[str, ...]:
    """``f`` at ``zs`` as one expression per component, adding what those
    need to ``lets`` and ``params``: the field's row is written in, its own
    names prefixed ``tag_``."""
    row = f.rhs.row
    names = {a: f"{tag}_{a}" for a in row.names}
    names.update(zip(row.states, zs))
    params.update(zip((names[a] for a in row.params), f.rhs.values))
    lets.extend((_rename(target, names), _rename(expr, names)) for target, expr in row.lets)
    return tuple(_rename(expr, names) for expr in row.exprs)


def compose_cascade(filter1: LtiSystem, sat: Saturation, f1: VectorField,
                    f0: VectorField | None = None) -> ComposedSystem:
    """Assemble the full cascade around arbitrary blocks: dz = p f1(z), or
    dz = p f1(z) + (1 - p) f0(z) when ``f0`` is given.

    With ``f0``, constant inputs drive p to 0 and hand z to f0; a sinusoid
    keeps p near 1 and hands z to f1.

    The right-hand side is one row over ``x`` (or ``x0, x1, ...``), ``p`` and
    ``z0, z1, ...``, with each entry of A, B, C and D a number in it, and
    each field's row written in.
    """
    if f0 is not None and f0.dim != f1.dim:
        raise ValueError(f"field dimensions differ: {f0.dim} vs {f1.dim}")
    zs = tuple(f"z{i}" for i in range(f1.dim))
    lets, params = [], {}
    g1 = _field(f1, "f1", zs, lets, params)
    if f0 is None:
        dz = tuple(f"p * ({a})" for a in g1)
    else:
        g0 = _field(f0, "f0", zs, lets, params)
        lets.append(("q", "1.0 - p"))
        dz = tuple(f"p * ({a}) + q * ({b})" for a, b in zip(g1, g0))
    return _cascade(filter1, sat, zs, dz, lets, params)


def compose_autonomous(field: VectorField) -> ComposedSystem:
    """Wrap a bare vector field as a ComposedSystem that ignores the input.

    Used for reference runs such as the plain Lorenz attractor (p fixed at 1).
    Its right-hand side is one row over ``z0, z1, ...`` that writes ``field``
    in as ``compose_cascade`` does."""
    zs = tuple(f"z{i}" for i in range(field.dim))
    lets, params = [], {}
    row = Row(zs, _field(field, "f", zs, lets, params), tuple(lets), tuple(params))
    return ComposedSystem(_row_rhs(row, tuple(params.values())), zs, tuple(range(field.dim)))
