import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrain
from entrain import cli, run_from_manifest
from entrain.cli import _write_csv, main
from entrain.diagnostics import LyapunovEstimate
from entrain.scenarios import DEFAULT_INPUT, SCENARIO_IDS
from entrain.signals import parse_input_spec
from entrain.solver import Trajectory

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def read(path):
    return path.read_bytes()


def test_simulate_writes_csv_report_manifest(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "example1", "--t-end", "20",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged:" in out

    csv_path = tmp_path / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x,p,xi,psi,zeta"
    t = np.array([float(l.split(",")[0]) for l in lines[1:]])
    assert np.all(np.diff(t) > 0)
    assert t[0] == 0.0 and t[-1] == 20.0
    assert len(lines[1].split(",")) == 6

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario_id"] == "example1"
    assert report["converged"] in (True, False)
    assert report["tail_stats"]["variable"] == "p"
    assert "max_component_variation" in report["steady_state"]

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["csv"] == "trajectory.csv"
    for key in ("scenario", "K", "input", "x0", "t_start", "t_end",
                "grid_step", "rel_tol", "abs_tol", "version"):
        assert key in manifest


@pytest.mark.parametrize("name", SCENARIO_IDS)
def test_report_names_the_scenario_run(name, tmp_path):
    assert main(["simulate", "--scenario", name, "--t-end", "1",
                 "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario_id"] == name


def test_repeat_runs_and_manifest_replay_are_byte_identical(tmp_path):
    args = ["simulate", "--scenario", "example2", "--input", "sin:1:1",
            "--t-end", "10", "--grid-step", "0.05"]
    d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    assert read(d1 / "trajectory.csv") == read(d2 / "trajectory.csv")

    run_from_manifest(d1 / "manifest.json", out_dir=d3)
    assert read(d1 / "trajectory.csv") == read(d3 / "trajectory.csv")
    assert read(d1 / "report.json") == read(d3 / "report.json")


def test_gridded_simulate_csv_bytes_are_pinned(tmp_path):
    # Once the constant input settles, most steps sit at the largest step
    # size and fill several 0.01 grid rows each, so nearly every row of this
    # CSV is interpolated; its bytes pin the grid rows across platforms.
    assert main(["simulate", "--scenario", "example1", "--input", "const:3.3",
                 "--t-end", "50", "--grid-step", "0.01",
                 "--out-dir", str(tmp_path)]) == 0
    csv = read(tmp_path / "trajectory.csv")
    assert len(csv) == 584_480
    assert hashlib.sha256(csv).hexdigest() == (
        "b57dab5d76302f5d8525fec9a03c4efeb45ee7d6a735987c90cd770adf4f9076")


def test_general_and_example1_write_the_same_csv_rows(tmp_path):
    # example1 is the general cascade with its columns renamed
    args = ["simulate", "--input", "sin:1:1", "--t-end", "10", "--grid-step", "0.05"]
    for name in ("general", "example1"):
        assert main(args + ["--scenario", name, "--out-dir", str(tmp_path / name)]) == 0
    general, example1 = (read(tmp_path / name / "trajectory.csv").split(b"\n", 1)
                         for name in ("general", "example1"))
    assert general[0] == b"t,x,p,z0,z1,z2"
    assert example1[0] == b"t,x,p,xi,psi,zeta"
    assert general[1] == example1[1]


def test_csv_rows_match_per_value_formatting(tmp_path):
    rng = np.random.default_rng(17)
    states = rng.standard_normal((200, 5)) * 10.0 ** rng.integers(-20, 20, (200, 5))
    states[::3, 1] = -0.0
    traj = Trajectory(np.linspace(0.0, 2.0, 200), states, ("x", "p", "xi", "psi", "zeta"))
    _write_csv(tmp_path / "t.csv", traj)
    expected = "t,x,p,xi,psi,zeta\n" + "".join(
        ",".join(["%.17g" % t] + ["%.17g" % v for v in row]) + "\n"
        for t, row in zip(traj.times, traj.states))
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("t_end, step, times", [
    ("10", "3", [0.0, 3.0, 6.0, 10.0]),
    ("12", "5", [0.0, 5.0, 12.0]),
    ("0.01", "0.05", [0.0, 0.01]),
], ids=["10-3", "12-5", "0.01-0.05"])
def test_coarse_grid_gives_null_verdict(tmp_path, capsys, t_end, step, times):
    # too few tail samples for a steady-state verdict: the run still
    # succeeds and says so; the last row, the span and the tail window all
    # end at t_end, although the step does not divide the span
    rc = main(["simulate", "--scenario", "example1", "--t-end", t_end,
               "--grid-step", step, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "converged: None" in capsys.readouterr().out
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,x,p,")
    assert [float(line.split(",")[0]) for line in lines[1:]] == times
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is None and report["steady_state"] is None
    assert report["t_span"] == [0.0, float(t_end)]
    assert report["tail_stats"]["variable"] == "p"
    assert report["tail_stats"]["window"][1] == float(t_end)


def test_replay_rejects_foreign_manifest(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"command": "montecarlo"}))
    with pytest.raises(ValueError):
        run_from_manifest(bad)


def test_replay_of_a_manifest_that_names_its_method(tmp_path):
    # manifests once recorded the integrator: a DOPRI5 one still replays
    # byte for byte, and one written for any other method is refused
    src = tmp_path / "src"
    assert main(["simulate", "--scenario", "example1", "--t-end", "12",
                 "--grid-step", "0.05", "--out-dir", str(src)]) == 0
    manifest = json.loads((src / "manifest.json").read_text())
    assert "method" not in manifest
    for method in ("rk45_adaptive", "rk4_fixed"):
        path = tmp_path / f"{method}.json"
        path.write_text(json.dumps({**manifest, "method": method}))
        if method == "rk45_adaptive":
            run_from_manifest(path, out_dir=tmp_path / method)
            for name in ("trajectory.csv", "report.json"):
                assert read(tmp_path / method / name) == read(src / name)
        else:
            with pytest.raises(ValueError, match="'rk4_fixed'"):
                run_from_manifest(path, out_dir=tmp_path / method)


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTRAIN_OUT_DIR", str(tmp_path / "from_env"))
    rc = main(["simulate", "--scenario", "example1", "--t-end", "12"])
    assert rc == 0
    assert (tmp_path / "from_env" / "trajectory.csv").exists()


def test_unknown_scenario_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "example9", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "example1", "--method", "rk4_fixed"],
    ["lyapunov", "--scenario", "example1", "--method", "rk45_adaptive"],
    ["montecarlo", "--scenario", "example2", "--n", "1", "--method", "rk4_fixed"],
    ["freqresp", "--scenario", "example2"],
    ["lyapunov", "--scenario", "example1", "--out-dir", "out"],
], ids=["simulate-method", "lyapunov-method", "montecarlo-method",
        "freqresp-scenario", "lyapunov-out-dir"])
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_bad_arguments_exit_2(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["montecarlo", "--scenario", "example2", "--n", "0",
                 "--out-dir", out]) == 2
    assert main(["montecarlo", "--scenario", "example2", "--n", "1", "--jobs", "-3",
                 "--out-dir", out]) == 2
    assert main(["simulate", "--scenario", "example1", "--x0", "1,2",
                 "--t-end", "20", "--out-dir", out]) == 2
    assert main(["simulate", "--scenario", "example1", "--input", "tri:1:1",
                 "--t-end", "20", "--out-dir", out]) == 2
    assert main(["simulate", "--scenario", "example1", "--t-end", "-5",
                 "--out-dir", out]) == 2
    assert main(["lyapunov", "--scenario", "example1", "--x0", "1,2,3"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 6
    assert "error: jobs must be at least 1, got -3\n" in err
    # simulate and lyapunov report a wrong-length x0 from the same check
    assert "error: x0 must have shape (5,), got (2,)\n" in err
    assert "error: x0 must have shape (5,), got (3,)\n" in err
    # --scenario and --system exclude each other, and one of them is needed
    for target in ([], ["--scenario", "example1", "--system", "lorenz"]):
        with pytest.raises(SystemExit) as exc:
            main(["lyapunov", *target, "--input", "const:3"])
        assert exc.value.code == 2


@pytest.mark.parametrize("arg", ["--input=const:nan", "--input=sin:inf:1",
                                 "--input=sin:1:inf", "--x0=nan,0,1,0,0",
                                 "--rel-tol=inf", "--rel-tol=nan", "--abs-tol=inf"])
def test_nonfinite_arguments_exit_2(arg, capsys):
    assert main(["lyapunov", "--scenario", "example1", arg]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_divergence_exits_3_and_names_last_good_time(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "general",
               "--x0", "0,1,1e200,1e200,0", "--t-end", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "last good time" in err


def test_grid_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys):
    # The grid builder is stubbed: a real 36 TiB request may be granted by a
    # host that overcommits memory, and then fill its RAM.
    numpy_msg = ("Unable to allocate 36.4 TiB for an array with shape "
                 "(5000000000001,) and data type float64")
    for msg, line in ((numpy_msg, numpy_msg), ("", "MemoryError")):
        def oversized(t0, t1, step, msg=msg):
            raise MemoryError(msg)

        monkeypatch.setattr(cli, "uniform_grid", oversized)
        assert main(["simulate", "--scenario", "example1", "--t-end", "5",
                     "--grid-step", "1e-12", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.iterdir())


def test_freqresp_reports_zero_at_origin(capsys):
    assert main(["freqresp"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("zero at origin: yes")
    assert out[1] == "omega,magnitude,phase"
    row = next(l for l in out if l.startswith("1,"))
    _, mag, phase = row.split(",")
    assert float(mag) == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    assert float(phase) == pytest.approx(np.pi / 4, abs=1e-6)
    # magnitude rolls off toward DC
    first = float(out[2].split(",")[1])
    assert first < 0.02


def test_lyapunov_scenario_under_constant_input(capsys):
    # constant forcing starves the gate, so the exponent sits at ~0 (the
    # frozen z-block neither grows nor shrinks perturbations); well below
    # the chaos threshold either way
    rc = main(["lyapunov", "--scenario", "example1", "--input", "const:0",
               "--rel-tol", "1e-6", "--abs-tol", "1e-8"])
    assert rc == 0
    est = json.loads(capsys.readouterr().out)
    assert est["lambda_max"] < 0.05
    assert est["renorm_count"] >= 50
    assert est["renorm_interval"] == 0.5
    assert math.isfinite(est["stderr"]) and est["stderr"] >= 0.0


def _record_lyapunov_calls(monkeypatch):
    calls = []

    def fake(sys, input_signal, x0, cfg):
        calls.append(input_signal.spec)
        return LyapunovEstimate(0.0, 0.0, 0.5, 600, 100.0, 1e-8)

    monkeypatch.setattr(cli, "lyapunov_max", fake)
    return calls


@pytest.mark.parametrize("text", ["", "t,u\n"], ids=["empty", "header-only"])
def test_simulate_rejects_input_file_without_data_rows(tmp_path, capsys, text):
    # numpy's warning on a file without data stays inside parse_input_spec,
    # and the one error line says what the file lacks
    path = tmp_path / "drive.csv"
    path.write_text(text)
    rc = main(["simulate", "--scenario", "example1", "--input", f"file:{path}",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: input file {str(path)!r} has no data rows\n"


@pytest.mark.parametrize("name", SCENARIO_IDS)
def test_lyapunov_input_defaults_to_the_scenario_preset(name, monkeypatch):
    # every scenario's preset input is the one default, sin:1:1
    calls = _record_lyapunov_calls(monkeypatch)
    assert main(["lyapunov", "--scenario", name]) == 0
    assert main(["lyapunov", "--scenario", name, "--input", "const:3"]) == 0
    assert calls == [parse_input_spec(DEFAULT_INPUT).spec, "const:3"]


@pytest.mark.parametrize("flags", [["--input", "const:3"], ["--K", "5"]])
def test_lyapunov_system_rejects_scenario_flags(flags, monkeypatch, capsys):
    calls = _record_lyapunov_calls(monkeypatch)
    assert main(["lyapunov", "--system", "lorenz", *flags]) == 2
    assert flags[0] in capsys.readouterr().err
    assert calls == []  # rejected before integrating
    assert main(["lyapunov", "--system", "lorenz", "--x0", "1,2,3"]) == 0
    assert calls == ["const:0"]


def test_montecarlo_writes_jsonl(tmp_path, capsys):
    rc = main(["montecarlo", "--scenario", "example2", "--n", "1",
               "--seed", "7", "--rel-tol", "1e-6", "--abs-tol", "1e-8",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "summary (n=1, seed=7)" in out
    lines = (tmp_path / "verdicts.jsonl").read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert sorted(row) == ["lambda_const", "lambda_sin", "p_tail_mean_const",
                           "p_tail_mean_sin", "sample", "u0", "verdict_const",
                           "verdict_sin", "x0"]
    assert row["sample"] == 0
    assert len(row["x0"]) == 5


def project_table():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11 on
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def run_python(*args):
    """Run this interpreter on the package this process imported."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(entrain.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def run_declared_entry_point(*args):
    """Run ``entrain`` the way the installed console script would: import
    the callable ``[project.scripts]`` names, hand it ``sys.argv`` and exit
    with its return value."""
    module, _, attr = project_table()["scripts"]["entrain"].partition(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return run_python("-c", code, *args)


def check_freqresp_and_version(run):
    proc = run("freqresp")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("zero at origin: yes")
    proc = run("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == project_table()["version"]


def test_console_script_entry_point():
    check_freqresp_and_version(run_declared_entry_point)


def test_python_dash_m_entrain():
    check_freqresp_and_version(lambda *args: run_python("-m", "entrain", *args))
    proc = run_python("-m", "entrain", "--version")
    assert proc.stderr == ""


def test_import_loads_no_process_pool():
    # monte_carlo reaches the pool through concurrent.futures, which loads
    # its process module (and multiprocessing) only when a pool starts
    proc = run_python("-c", "import sys, entrain; print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_and_scenario_setup_compile_no_step_kernel():
    # the solver compiles its step loop on the first integrate call at each
    # state length, row and input class, so importing and building every
    # scenario pay nothing for it
    proc = run_python("-c", "import entrain; from entrain import scenarios, solver; "
                      "[scenarios.build_system(n) for n in scenarios.SCENARIO_IDS]; "
                      "scenarios.build_reference_system('lorenz'); print(solver._KERNELS)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{}\n"


@pytest.mark.skipif(shutil.which("entrain") is None,
                    reason="entrain console script not on PATH "
                           "(install with pip install -e .)")
def test_installed_console_script():
    check_freqresp_and_version(
        lambda *args: subprocess.run(["entrain", *args], capture_output=True,
                                     text=True, timeout=60))
