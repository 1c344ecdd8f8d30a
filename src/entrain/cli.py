"""Command-line front end.

Subcommands:

- ``simulate``   integrate a scenario, write trajectory CSV + JSON report
- ``lyapunov``   estimate the largest Lyapunov exponent, print JSON
- ``montecarlo`` seeded sweep over random inputs/ICs, write verdicts JSONL
- ``freqresp``   tabulate the shared front-end filter's frequency response

Exit codes: 0 success, 2 bad arguments or a run too large for memory (such
as a ``--grid-step`` too fine for the span), 3 integration failure (the
message names the last time the integrator reached). ``simulate`` and
``montecarlo`` write into ``--out-dir``, which defaults to the
``ENTRAIN_OUT_DIR`` environment variable, then the current directory.

Every ``simulate`` run drops a ``manifest.json`` holding all parameters and
the tool version; ``run_from_manifest`` replays it and, the integrator
being deterministic, reproduces the trajectory CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import filter_one
from .diagnostics import (
    _VERDICT_CFG,
    detect_steady_state,
    lyapunov_max,
    monte_carlo,
    tail_stats,
)
from .lti import has_zero_at_origin, sinusoid_steady_state, transfer_eval
from .scenarios import (DEFAULT_INPUT, DEFAULT_T_END, SCENARIO_IDS, build_reference_system,
                        build_system, default_spec)
from .signals import parse_input_spec
from .solver import IntegrationError, IntegratorConfig, Trajectory, integrate, uniform_grid

__all__ = ["main", "run_from_manifest", "RunArtifacts"]

_FLOAT_FMT = "%.17g"
# CSV rows formatted by one % each: enough to pay for the call, few enough
# that the block's Python floats stay small beside the trajectory
_CSV_BLOCK = 1024


@dataclass(frozen=True)
class RunArtifacts:
    """What a simulate run wrote: the two file paths and the report's content."""

    trajectory_csv_path: Path
    report_json_path: Path
    report: dict


def _write_csv(path: Path, traj: Trajectory) -> None:
    row_fmt = ",".join([_FLOAT_FMT] * (1 + traj.states.shape[1])) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(traj.state_names) + "\n")
        for i in range(0, traj.times.size, _CSV_BLOCK):
            block = np.column_stack((traj.times[i:i + _CSV_BLOCK], traj.states[i:i + _CSV_BLOCK]))
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, default=np.ndarray.tolist)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_x0(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse --x0 {text!r} as comma-separated floats")


def _config_from(params: dict) -> IntegratorConfig:
    return IntegratorConfig(rel_tol=params["rel_tol"], abs_tol=params["abs_tol"])


def _simulate_from_params(params: dict, out_dir: Path) -> RunArtifacts:
    """Shared core of ``simulate`` and manifest replay: identical inputs
    produce identical bytes."""
    sys_obj = build_system(params["scenario"], K=params["K"])
    x0 = list(map(float, params["x0"]))
    signal = parse_input_spec(params["input"])
    t0, t1 = params["t_start"], params["t_end"]
    # the rows end at t_end, where the report's t_span does
    grid = uniform_grid(t0, t1, params["grid_step"])

    traj = integrate(sys_obj, signal, x0, (t0, t1), _config_from(params),
                     output_grid=grid)
    try:
        steady = detect_steady_state(traj)
    except ValueError:  # the grid is too short or too coarse for a verdict
        steady = None

    report = {
        "scenario_id": params["scenario"],
        "input_spec": signal.spec,
        "x0": x0,
        "t_span": [t0, t1],
        "converged": None if steady is None else steady.converged,
        "steady_state": None if steady is None else asdict(steady),
        "tail_stats": asdict(tail_stats(traj, "p")),
    }

    manifest = {"tool": "entrain", "version": __version__, "command": "simulate"}
    manifest.update(params)
    manifest["x0"] = x0
    manifest["csv"] = "trajectory.csv"
    manifest["report"] = "report.json"

    csv_path = out_dir / "trajectory.csv"
    report_path = out_dir / "report.json"
    _write_csv(csv_path, traj)
    _write_json(report_path, report)
    _write_json(out_dir / "manifest.json", manifest)
    return RunArtifacts(csv_path, report_path, report)


def run_from_manifest(manifest_path: str | Path, out_dir: str | Path | None = None) -> RunArtifacts:
    """Replay a recorded simulate run; output lands next to the manifest
    unless ``out_dir`` says otherwise."""
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("command") != "simulate":
        raise ValueError(f"manifest {manifest_path} does not describe a simulate run")
    # Older manifests name the integrator; only a DOPRI5 run replays bit for bit.
    method = manifest.get("method", "rk45_adaptive")
    if method != "rk45_adaptive":
        raise ValueError(f"manifest {manifest_path} was written with method {method!r}; "
                         "only 'rk45_adaptive' (DOPRI5) can be replayed")
    keys = ("scenario", "K", "input", "x0", "t_start", "t_end",
            "grid_step", "rel_tol", "abs_tol")
    params = {k: manifest[k] for k in keys}
    target = Path(out_dir) if out_dir is not None else manifest_path.parent
    target.mkdir(parents=True, exist_ok=True)
    return _simulate_from_params(params, target)


def _cmd_simulate(args) -> int:
    spec = default_spec(args.scenario)
    params = {
        "scenario": args.scenario,
        "K": spec.K if args.K is None else args.K,
        "input": DEFAULT_INPUT if args.input is None else args.input,
        "x0": list(spec.x0) if args.x0 is None else list(_parse_x0(args.x0)),
        "t_start": args.t_start,
        "t_end": DEFAULT_T_END if args.t_end is None else args.t_end,
        "grid_step": args.grid_step,
        "rel_tol": args.rel_tol,
        "abs_tol": args.abs_tol,
    }
    artifacts = _simulate_from_params(params, _out_dir(args))
    print(f"wrote {artifacts.trajectory_csv_path}")
    print(f"wrote {artifacts.report_json_path}")
    print(f"converged: {artifacts.report['converged']}")
    return 0


def _cmd_lyapunov(args) -> int:
    cfg = _config_from(vars(args))
    if args.system is not None:
        ignored = [flag for flag, value in (("--input", args.input), ("--K", args.K))
                   if value is not None]
        if ignored:
            raise ValueError(f"{' and '.join(ignored)} cannot be used with --system "
                             f"{args.system}: a reference system has no input")
        sys_obj, x0_default = build_reference_system(args.system)
        signal = parse_input_spec("const:0")
    else:
        sys_obj = build_system(args.scenario, K=args.K)
        x0_default = default_spec(args.scenario).x0
        signal = parse_input_spec(DEFAULT_INPUT if args.input is None else args.input)
    x0 = x0_default if args.x0 is None else _parse_x0(args.x0)

    est = lyapunov_max(sys_obj, signal, x0, cfg)
    print(json.dumps(asdict(est)))
    return 0


def _cmd_montecarlo(args) -> int:
    rows = monte_carlo(args.scenario, args.n, seed=args.seed, jobs=args.jobs,
                       cfg=_config_from(vars(args)))
    out = _out_dir(args)
    path = out / "verdicts.jsonl"
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row.to_json_dict()) + "\n")

    const_counts = Counter(r.verdict_const for r in rows)
    sin_counts = Counter(r.verdict_sin for r in rows)

    def fmt(counts: Counter) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))

    print(f"wrote {path}")
    print(f"summary (n={args.n}, seed={args.seed}): "
          f"const[{fmt(const_counts)}] sin[{fmt(sin_counts)}]")
    return 0


def _cmd_freqresp(args) -> int:
    filt = filter_one()
    zero = has_zero_at_origin(filt)
    w0 = abs(transfer_eval(filt, 0.0))
    print(f"zero at origin: {'yes' if zero else 'no'} (|W(0)| = {w0:.3e})")
    print("omega,magnitude,phase")
    for omega in np.logspace(-2, 2, 41):
        mag, phase = sinusoid_steady_state(filt, omega)
        print(f"{omega:.6g},{mag:.10g},{phase:.10g}")
    return 0


def _add_common_flags(p: argparse.ArgumentParser, defaults: IntegratorConfig,
                      out_dir: bool = True) -> None:
    p.add_argument("--rel-tol", type=float, default=defaults.rel_tol,
                   help="integrator relative tolerance (default: %(default)g)")
    p.add_argument("--abs-tol", type=float, default=defaults.abs_tol,
                   help="integrator absolute tolerance (default: %(default)g)")
    if out_dir:
        p.add_argument("--out-dir", default=os.environ.get("ENTRAIN_OUT_DIR", "."),
                       help="output directory (default: $ENTRAIN_OUT_DIR or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrain",
        description="Simulate forced cascades that settle under constant "
                    "inputs yet stay chaotic under periodic ones.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate and write CSV + report")
    sim.add_argument("--scenario", required=True, choices=SCENARIO_IDS)
    sim.add_argument("--input", default=None,
                     help="const:<c> | sin:<amp>:<omega>[:<phase>] | file:<path>")
    sim.add_argument("--x0", default=None, help="comma-separated initial state")
    sim.add_argument("--t-start", type=float, default=0.0)
    sim.add_argument("--t-end", type=float, default=None,
                     help=f"end of the run (default: {DEFAULT_T_END:g})")
    sim.add_argument("--grid-step", type=float, default=0.01)
    sim.add_argument("--K", type=float, default=None,
                     help="saturation constant (default: scenario preset)")
    _add_common_flags(sim, IntegratorConfig())
    sim.set_defaults(func=_cmd_simulate)

    lya = sub.add_parser("lyapunov", help="largest Lyapunov exponent as JSON")
    target = lya.add_mutually_exclusive_group(required=True)
    target.add_argument("--scenario", choices=SCENARIO_IDS)
    target.add_argument("--system", choices=("lorenz",),
                        help="bare reference system instead of a scenario")
    lya.add_argument("--input", default=None,
                     help=f"input spec (default: {DEFAULT_INPUT}); not with --system")
    lya.add_argument("--x0", default=None)
    lya.add_argument("--K", type=float, default=None,
                     help="saturation constant (default: scenario preset); "
                          "not with --system")
    _add_common_flags(lya, _VERDICT_CFG, out_dir=False)
    lya.set_defaults(func=_cmd_lyapunov)

    mc = sub.add_parser("montecarlo", help="random input/IC sweep to JSONL")
    mc.add_argument("--scenario", required=True, choices=SCENARIO_IDS)
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--jobs", type=int, default=1)
    _add_common_flags(mc, _VERDICT_CFG)
    mc.set_defaults(func=_cmd_montecarlo)

    fr = sub.add_parser("freqresp", help="front-end filter frequency response, "
                                         "W(s) = s/(s+1), shared by every scenario")
    fr.set_defaults(func=_cmd_freqresp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
