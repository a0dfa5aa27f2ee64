import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochtop import cli, gates, propagate
from blochtop.pulsegen import tre_pulse, write_pulse_csv
from blochtop.robustness import sweep, write_map_csv
from blochtop.topdyn import Family, TopParameters, orbit_period, tre_initial


def run(args):
    return cli.main([str(a) for a in args])


def load_csv(path):
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def test_pulse_tre_writes_csv_and_sidecar(tmp_path):
    assert run(["pulse", "--family", "tre", "--k", 0.5, "--eps", 0.01,
                "--out", tmp_path]) == 0
    path = tmp_path / "pulse.csv"
    assert path.read_text().splitlines()[0] == "t,omega1,omega2,omega3"
    data = load_csv(path)
    assert np.all(data[:, 2] == 0.0)

    side = json.loads((tmp_path / "pulse.csv.json").read_text())
    assert side["command"] == "pulse"
    assert side["config"]["k"] == 0.5
    assert side["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_pulse_allen_eberly_peak_on_grid(tmp_path):
    assert run(["pulse", "--family", "allen-eberly", "--k", 0.5,
                "--out", tmp_path]) == 0
    data = load_csv(tmp_path / "pulse.csv")
    assert abs(data[:, 1].max() - 2.0 / math.sqrt(3.0)) <= 1e-12


def test_pulse_missing_k_is_usage_error(tmp_path, capsys):
    assert run(["pulse", "--family", "tre", "--eps", 0.01,
                "--out", tmp_path]) == 2
    assert "--k" in capsys.readouterr().err


def test_pulse_unknown_family_is_usage_error(tmp_path):
    assert run(["pulse", "--family", "sinc", "--out", tmp_path]) == 2


def test_sidecar_replay_reproduces_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["pulse", "--family", "allen-eberly", "--k", 0.7,
                "--n", 301, "--out", a]) == 0
    assert run(["pulse", "--config", a / "pulse.csv.json", "--out", b]) == 0
    assert (a / "pulse.csv").read_bytes() == (b / "pulse.csv").read_bytes()


def test_retired_seed_flag_rejected_and_old_sidecars_replay(tmp_path):
    assert run(["pulse", "--family", "rect", "--n", 11, "--seed", 3,
                "--out", tmp_path]) == 2
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["pulse", "--family", "rect", "--n", 11, "--out", a]) == 0
    side = json.loads((a / "pulse.csv.json").read_text())
    assert "seed" not in side["config"]
    side["config"]["seed"] = 7
    (a / "old.json").write_text(json.dumps(side))
    assert run(["pulse", "--config", a / "old.json", "--out", b]) == 0
    assert (a / "pulse.csv").read_bytes() == (b / "pulse.csv").read_bytes()


def test_time_scale_touches_only_time_column(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(["pulse", "--family", "rect", "--n", 11, "--out", a])
    run(["pulse", "--family", "rect", "--n", 11, "--time-scale", 0.001,
         "--out", b])
    da = load_csv(a / "pulse.csv")
    db = load_csv(b / "pulse.csv")
    assert np.allclose(db[:, 0], 0.001 * da[:, 0], rtol=0, atol=0)
    assert np.array_equal(da[:, 1:], db[:, 1:])


def test_gate_not_then_simulate_inverts_m2(tmp_path):
    assert run(["gate", "not", "--k", 0.5, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "gate_not.json").read_text())
    assert report["fidelity"] >= 1.0 - 1e-6
    assert report["converged"] is True

    assert run(["simulate", "--pulse", tmp_path / "gate_not_pulse.csv",
                "--m0", "0,1,0", "--out", tmp_path]) == 0
    traj = load_csv(tmp_path / "trajectory.csv")
    assert traj[-1, 2] <= -0.99


def test_simulate_axis_angle_constant_axis_for_rect(tmp_path):
    assert run(["simulate", "--family", "rect", "--n", 101,
                "--emit", "axis-angle", "--out", tmp_path]) == 0
    data = load_csv(tmp_path / "axis_angle.csv")
    live = data[data[:, 5] == 0.0]
    assert live.shape[0] == 100
    assert np.all(live[:, 1] == 1.0)
    assert np.all(live[:, 2] == 0.0)
    assert np.all(live[:, 3] == 0.0)
    assert abs(live[-1, 4] - math.pi) <= 1e-12


@pytest.mark.parametrize("case", [
    dict(family="rect", n=101),
    dict(family="tre", k=0.6, eps=0.01, n=513, alpha=0.03, delta=-0.02,
         m0="0.6,0,0.8"),
])
def test_simulate_axis_angle_scans_once_with_two_scan_bytes(
        tmp_path, monkeypatch, case):
    scans = []
    scan = propagate._scan
    monkeypatch.setattr(propagate, "_scan",
                        lambda steps: scans.append(1) or scan(steps))
    flags = [a for key, value in case.items() for a in (f"--{key}", value)]
    assert run(["simulate", *flags, "--emit", "axis-angle",
                "--time-scale", 2, "--out", tmp_path]) == 0
    assert len(scans) == 1
    monkeypatch.undo()

    # the public two-scan composition, written by numpy
    cfg = dict(cli._SPECS["simulate"], **case)
    pulse = cli._build_pulse(cfg)
    err = propagate.ErrorParams(cfg["alpha"], cfg["delta"])
    m0 = [float(x) for x in cfg["m0"].split(",")]
    traj = propagate.bloch_propagate(pulse, m0, err)
    aap = propagate.axis_angle_path(propagate.su2_propagate(pulse, err))
    assert aap.degenerate.any()
    for name, header, table in [
        ("trajectory.csv", "t,M1,M2,M3",
         np.column_stack([traj.times * 2.0, traj.M])),
        ("axis_angle.csv", "t,n1,n2,n3,angle,degenerate",
         np.column_stack([aap.times * 2.0, aap.axis, aap.angle,
                          aap.degenerate.astype(float)])),
    ]:
        np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",",
                   comments="", header=header)
        assert (tmp_path / name).read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_public_writers_return_the_sha256_of_their_file(tmp_path):
    p = TopParameters(0.6)
    pulse = tre_pulse(p, 0.01, Family.ROTATING, n=257)
    err = propagate.ErrorParams(0.01, -0.02)
    rmap = sweep(pulse, (0.0, 0.0, 1.0), np.linspace(-0.1, 0.1, 3),
                 np.array([0.0, 0.1]))
    upath = propagate.su2_propagate(pulse, err)
    _, _, report = gates.tune_not_gate(p, (1e-3, 0.5), n=512)
    cases = [
        ("pulse.csv", lambda f: write_pulse_csv(pulse, f)),
        ("bare_pulse.csv", lambda f: write_pulse_csv(pulse, f, sidecar=False)),
        ("trajectory.csv", lambda f: propagate.write_trajectory_csv(
            propagate.bloch_propagate(pulse, (0.0, 0.0, 1.0), err), f)),
        ("axis_angle.csv", lambda f: propagate.write_axis_angle_csv(
            propagate.axis_angle_path(upath), f, 2.0)),
        ("su2.csv", lambda f: propagate.write_propagator_csv(upath, f)),
        ("so3.csv", lambda f: propagate.write_propagator_csv(
            propagate.so3_propagate(pulse, err), f)),
        ("map.csv", lambda f: write_map_csv(rmap, f)),
        ("bare_map.csv", lambda f: write_map_csv(rmap, f, sidecar=False)),
        ("gate.json", lambda f: gates.write_gate_report(report, f)),
    ]
    for name, write in cases:
        path = tmp_path / name
        assert write(path) == _sha256(path), name
    # the sidecar a writer adds is not what its digest covers
    assert (tmp_path / "pulse.csv.json").is_file()
    assert (tmp_path / "map.csv.json").is_file()
    assert not (tmp_path / "bare_pulse.csv.json").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--family", "tre", "--k", 0.6, "--eps", 0.01, "--n", 129,
     "--emit", "axis-angle"],
    ["gate", "not", "--n", 512],
    ["montgomery", "--k", 0.5, "--eps", 0.1, "--n", 2049],
    ["sweep", "--family", "rect", "--n", 65, "--alpha-grid=-0.1,0.1,3",
     "--delta-grid", "0"],
])
def test_sidecars_record_the_written_digest_without_reading_back(
        tmp_path, monkeypatch, argv):
    real = pathlib.Path.read_bytes

    def read_bytes(path):
        raise AssertionError(f"read back {path}")

    monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)
    assert run(argv + ["--out", tmp_path]) == 0
    monkeypatch.setattr(pathlib.Path, "read_bytes", real)
    sidecars = [p for p in tmp_path.iterdir() if p.suffix == ".json"
                and p.with_suffix("").is_file()]
    assert sidecars
    for side in sidecars:
        assert json.loads(side.read_text())["sha256"] == \
            _sha256(side.with_suffix("")), side.name


def test_simulate_zero_duration_single_row(tmp_path):
    assert run(["simulate", "--family", "rect", "--n", 1,
                "--m0", "0.6,0,0.8", "--out", tmp_path]) == 0
    data = load_csv(tmp_path / "trajectory.csv")
    assert data.shape == (1, 4)
    assert list(data[0]) == [0.0, 0.6, 0.0, 0.8]


def test_sweep_experiment_preset(tmp_path):
    assert run(["sweep", "--preset", "experiment", "--n", 513,
                "--out", tmp_path]) == 0
    data = load_csv(tmp_path / "sweep.csv")
    assert data.shape[0] == 11
    assert data[0, 0] == -0.5 and data[-1, 0] == 0.5
    center = data[data[:, 0] == 0.0]
    assert center[0, 2] >= 0.99


def test_sweep_worker_bytes_identical(tmp_path):
    base = ["sweep", "--family", "tre", "--k", 0.5, "--eps", 0.05,
            "--n", 257, "--alpha-grid=-0.2,0.2,5", "--delta-grid=-0.1,0.1,3"]
    a = tmp_path / "w1"
    b = tmp_path / "w8"
    assert run(base + ["--workers", 1, "--out", a]) == 0
    assert run(base + ["--workers", 8, "--out", b]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    c = tmp_path / "replay"
    assert run(["sweep", "--config", b / "sweep.csv.json", "--out", c]) == 0
    assert (b / "sweep.csv").read_bytes() == (c / "sweep.csv").read_bytes()


def test_sweep_nan_error_grid_flags_cell(tmp_path, capsys):
    assert run(["sweep", "--family", "rect", "--alpha-grid=nan",
                "--delta-grid=0", "--out", tmp_path]) == 3
    assert "1 sweep cells failed" in capsys.readouterr().err
    data = load_csv(tmp_path / "sweep.csv")
    assert np.isnan(data[0, 2]) and data[0, 3] == 1


def test_simulate_nan_error_is_usage_error(tmp_path, capsys):
    assert run(["simulate", "--family", "rect", "--alpha", "nan",
                "--out", tmp_path]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("m0", ["nan,0,1", "0,-inf,1"])
def test_non_finite_m0_is_usage_error_and_writes_nothing(tmp_path, capsys,
                                                         command, m0):
    assert run([command, "--family", "rect", "--n", 33, "--m0", m0,
                "--out", tmp_path]) == 2
    assert "finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["simulate", "--family", "rect"],
                                     ["gate", "not", "--n", 512]])
@pytest.mark.parametrize("scale", ["nan", "-1", "0", "inf"])
def test_bad_time_scale_is_usage_error_and_writes_nothing(tmp_path, capsys,
                                                          command, scale):
    assert run(command + [f"--time-scale={scale}", "--out", tmp_path]) == 2
    assert "--time-scale" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bad_time_scale_from_config_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "rect", "time_scale": -1.0}))
    assert run(["pulse", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()


def test_sweep_infinite_grid_count_is_usage_error(tmp_path, capsys):
    assert run(["sweep", "--family", "rect", "--n", 33,
                "--alpha-grid=0,1,inf", "--out", tmp_path]) == 2
    assert "lo,hi,count" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key, grid", [
    ("alpha_grid", "0,0.1,2.5"), ("alpha_grid", "0,1,1.4"),
    ("delta_grid", "-0.1,0.1,3.5")])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_sweep_fractional_grid_count_is_usage_error(tmp_path, capsys, key,
                                                    grid, via):
    # a rounded count would sweep 2 points for 2.5 and the single point 0
    # for 1.4, and exit 0
    argv = ["sweep", "--family", "rect", "--n", 11]
    if via == "flag":
        argv.append(f"{cli._flag(key)}={grid}")
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: grid}))
        argv += ["--config", path]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {cli._flag(key)} must be" in err
    assert repr(grid) in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["alpha_grid", "delta_grid"])
@pytest.mark.parametrize("grid", ["-1e308,1e308,3", "-inf,inf,3", "0,inf,2",
                                  "-1.5e308,1.5e308,1"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_sweep_grid_with_an_infinite_span_is_usage_error(tmp_path, capsys,
                                                         key, grid, via):
    # np.linspace over such a span overflows: it swept alpha = nan, inf
    # and 1e308 for -1e308,1e308,3 and exited 3
    argv = ["sweep", "--family", "rect", "--n", 11]
    if via == "flag":
        argv.append(f"{cli._flag(key)}={grid}")
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: grid}))
        argv += ["--config", path]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {cli._flag(key)} must be" in err
    assert repr(grid) in err
    assert not out.exists()


def test_sweep_whole_float_grid_count_is_that_count(tmp_path):
    base = ["sweep", "--family", "rect", "--n", 11, "--delta-grid=0"]
    assert run(base + ["--alpha-grid=0,0.1,3", "--out", tmp_path / "int"]) == 0
    assert run(base + ["--alpha-grid=0,0.1,3.0",
                       "--out", tmp_path / "float"]) == 0
    csv = (tmp_path / "int" / "sweep.csv").read_bytes()
    assert (tmp_path / "float" / "sweep.csv").read_bytes() == csv
    assert load_csv(tmp_path / "float" / "sweep.csv").shape == (3, 4)
    side = json.loads((tmp_path / "float" / "sweep.csv.json").read_text())
    assert side["sha256"] == hashlib.sha256(csv).hexdigest()


def test_sweep_four_k_preset_emits_four_maps(tmp_path):
    assert run(["sweep", "--preset", "four-k", "--n", 129,
                "--alpha-grid=-0.2,0.2,3", "--delta-grid", "0",
                "--out", tmp_path]) == 0
    for k in ("0.2", "0.6", "0.9", "0.99"):
        path = tmp_path / f"sweep_k{k}.csv"
        assert path.exists()
        assert load_csv(path).shape[0] == 3


def test_gate_unknown_name_is_usage_error(tmp_path):
    assert run(["gate", "toffoli", "--out", tmp_path]) == 2


def test_gate_not_unconverged_exits_3_but_writes(tmp_path, capsys):
    assert run(["gate", "not", "--k", 0.5, "--eps-lo", 0.3, "--eps-hi", 0.5,
                "--out", tmp_path]) == 3
    capsys.readouterr()
    report = json.loads((tmp_path / "gate_not.json").read_text())
    assert report["converged"] is False
    assert (tmp_path / "gate_not_pulse.csv").exists()


def test_gate_hadamard_unconverged_segment_exits_3_but_writes(
        tmp_path, capsys, monkeypatch):
    solve = gates._solve_scanned

    def unconverged(*args):
        return solve(*args)[0], False

    # same roots, so the fidelity alone would pass; the segment flags fail
    monkeypatch.setattr(gates, "_solve_scanned", unconverged)
    assert run(["gate", "hadamard", "--k", 0.6, "--n", 512,
                "--out", tmp_path]) == 3
    assert "did not converge" in capsys.readouterr().err
    report = json.loads((tmp_path / "gate_hadamard.json").read_text())
    assert report["converged"] is False
    assert report["residuals"]["infidelity"] <= 1e-6
    assert (tmp_path / "gate_hadamard_pulse.csv").exists()
    assert (tmp_path / "gate_hadamard_pulse.csv.json").exists()


def test_gate_phase_budget_reports_target(tmp_path):
    assert run(["gate", "phase", "--target", 1.5707963,
                "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "gate_phase.json").read_text())
    assert abs(report["phase_budget"]["geometric"] - math.pi / 2.0) <= 1e-4
    assert abs(report["parameters"]["achieved_phase"] - math.pi / 2.0) <= 1e-3
    assert report["converged"] is True


def test_gate_phase_requires_target(tmp_path):
    assert run(["gate", "phase", "--out", tmp_path]) == 2


def test_montgomery_budget_closes(tmp_path):
    assert run(["montgomery", "--k", 0.5, "--eps", 0.1,
                "--out", tmp_path]) == 0
    out = json.loads((tmp_path / "montgomery.json").read_text())
    assert out["defect"] <= 1e-6
    gap = (out["total"] - out["dynamical"] + out["geometric"]) % (2 * math.pi)
    assert min(gap, 2 * math.pi - gap) <= 1e-6


def test_montgomery_unclosed_loop_names_n_gap_and_tolerance(tmp_path,
                                                             capsys):
    # the command has no tolerance option: the message asks for n alone
    out = tmp_path / "out"
    assert run(["montgomery", "--k", 0.5, "--eps", 0.1, "--n", 33,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert "n = 33" in err
    assert "|R L0 - L0| = " in err
    assert "tolerance 1e-06" in err
    assert err.rstrip().endswith("raise n")
    assert not out.exists()


def test_montgomery_refuses_a_short_loop_without_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["montgomery", "--k", 0.5, "--eps", 0.5, "--n", 5,
                "--out", out]) == 2
    assert "the loop does not close at n = 5: " in capsys.readouterr().err
    assert not out.exists()


def test_fit_period_outputs_quality_fit(tmp_path):
    assert run(["fit-period", "--k", 0.5, "--out", tmp_path]) == 0
    out = json.loads((tmp_path / "fit_period.json").read_text())
    assert out["r_squared"] >= 0.999
    assert out["slope"] > 0.0


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "blochtop", "pulse", "--family", "rect",
         "--n", "11", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "pulse.csv").exists()


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    assert run([]) == 2


def test_cached_parser_holds_no_state_between_calls(tmp_path, capsys):
    cli._build_parser.cache_clear()
    tre = ["pulse", "--family", "tre", "--k", 0.6, "--eps", 0.01]
    assert run([*tre, "--out", tmp_path / "first"]) == 0
    assert run(["pulse", "--family", "sinc", "--out", tmp_path / "bad"]) == 2
    assert run(["--help"]) == 0
    assert run(["pulse", "--family", "rect", "--out", tmp_path / "rect"]) == 0
    assert run([*tre, "--out", tmp_path / "last"]) == 0
    # one parser served all five calls
    assert cli._build_parser.cache_info().misses == 1
    for name in ("pulse.csv", "pulse.csv.json"):
        assert (tmp_path / "first" / name).read_bytes() == \
            (tmp_path / "last" / name).read_bytes()
    side = json.loads((tmp_path / "rect" / "pulse.csv.json").read_text())
    assert side["config"]["k"] is None
    assert side["config"]["eps"] is None
    assert not (tmp_path / "bad").exists()


def test_sweep_grid_flags_take_space_or_equals_form(tmp_path):
    base = ["sweep", "--family", "rect", "--n", 65]
    spaced = tmp_path / "spaced"
    joined = tmp_path / "joined"
    assert run(base + ["--alpha-grid", "-0.1,0.1,3", "--delta-grid",
                       "-0.2,0.2,3", "--out", spaced]) == 0
    assert run(base + ["--alpha-grid=-0.1,0.1,3", "--delta-grid=-0.2,0.2,3",
                       "--out", joined]) == 0
    for name in ("sweep.csv", "sweep.csv.json"):
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    assert load_csv(spaced / "sweep.csv").shape == (9, 4)


def test_sweep_warning_counts_failures_per_reason(tmp_path, capsys):
    assert run(["sweep", "--family", "rect", "--n", 33,
                "--alpha-grid=nan", "--delta-grid", "-0.1,0.1,2",
                "--out", tmp_path]) == 3
    assert ("warning: 2 sweep cells failed (non-finite error parameter: 2)"
            in capsys.readouterr().err)
    side = json.loads((tmp_path / "sweep.csv.json").read_text())
    assert side["config"]["delta_grid"] == "-0.1,0.1,2"
    assert side["map_meta"]["failed_cells"] == [
        {"index": [0, 0], "reason": "non-finite error parameter"},
        {"index": [0, 1], "reason": "non-finite error parameter"}]


def test_gate_design_imports_numpy_only(tmp_path):
    # scipy, mpmath and hypothesis are test references only; a gate run
    # must not import them (a scipy import alone doubles start-up time)
    code = (
        "import sys\n"
        "from blochtop import cli\n"
        "out = sys.argv[1]\n"
        "codes = [cli.main(['gate', 'not', '--n', '512', '--out', out]),\n"
        "         cli.main(['gate', 'phase', '--target', '1.0', '--n', '512',\n"
        "                   '--out', out]),\n"
        "         cli.main(['gate', 'hadamard', '--n', '512', '--out', out])]\n"
        "print(codes)\n"
        "print(sorted({'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = proc.stdout.splitlines()[-2:]
    assert codes == "[0, 0, 0]"
    assert loaded == "[]"


@pytest.mark.parametrize("argv, unread", [
    (["--preset", "experiment", "--n", 129, "--m0", "nan,0,1"], "--m0"),
    (["--preset", "experiment", "--n", 129, "--merit", "J2"], "--merit"),
    (["--preset", "four-k", "--n", 129, "--family", "tre"], "--family"),
])
def test_preset_rejects_flags_it_does_not_read(tmp_path, capsys, argv,
                                                unread):
    assert run(["sweep", *argv, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "does not read" in err and unread in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, unread", [
    (["not", "--k", 0.6, "--target", 1.0, "--eps-a", 0.3],
     "--target, --eps-a"),
    (["hadamard", "--target", 2.0], "--target"),
    (["hadamard", "--eps-lo", 0.01], "--eps-lo"),
    (["phase", "--target", 1.0, "--eps-hi", 0.4], "--eps-hi"),
])
def test_gate_rejects_flags_it_does_not_read(tmp_path, capsys, argv, unread):
    assert run(["gate", *argv, "--n", 64, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert f"gate {argv[0]} does not read {unread}" in err
    assert not any(tmp_path.iterdir())


def test_gate_sidecar_with_unread_defaults_replays(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gate", "not", "--n", 512, "--out", a]) == 0
    assert run(["gate", "not", "--config", a / "gate_not.json.json",
                "--out", b]) == 0
    for f in ("gate_not.json", "gate_not_pulse.csv"):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_simulate_near_separatrix_reaches_the_far_pole(tmp_path):
    assert run(["simulate", "--family", "tre", "--k", 0.5, "--eps", 3e-7,
                "--n", 4097, "--out", tmp_path]) == 0
    side = json.loads((tmp_path / "trajectory.csv.json").read_text())
    assert side["final_state"][2] <= -0.9999


def test_eps_whose_m_rounds_to_one_is_usage_error(tmp_path, capsys):
    assert run(["simulate", "--family", "tre", "--k", 0.5, "--eps", 1e-9,
                "--n", 65, "--out", tmp_path]) == 2
    assert "eps = 1e-09" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unreadable_pulse_is_usage_error_and_writes_nothing(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "out"
    assert run(["simulate", "--pulse", missing, "--out", out]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["pulse", "--family", "tre", "--eps", 0.01],
    ["sweep", "--preset", "experiment", "--n", 129, "--merit", "J2"],
    ["pulse", "--pulse", "missing.csv"],
    ["gate", "phase", "--n", 512],
    ["simulate", "--family", "rect", "--m0", "1,2"],
    ["pulse"],
    ["pulse", "--family", "rect", "--n", 0],
])
def test_failed_command_leaves_no_output_directory(tmp_path, monkeypatch,
                                                  argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out", "new/dir"]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),
    ("{not json", "cannot read config"),
    ("[1, 2]", "config file must hold a JSON object"),
])
def test_unusable_config_file_is_usage_error_and_writes_nothing(
        tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    assert run(["pulse", "--config", path, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, cfg", [
    (["pulse"], {"n": [5]}),
    (["pulse"], {"time_scale": [1]}),
    (["pulse", "--family", "tre"], {"k": "abc"}),
    (["pulse"], {"branch": "sideways"}),
    (["simulate"], {"emit": "movie"}),
])
def test_bad_config_value_is_usage_error_and_writes_nothing(tmp_path, capsys,
                                                            argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(argv + ["--config", path, "--out", out]) == 2
    key, = cfg
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_are_recorded_in_their_type(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "rect", "n": 11.0,
                                "amplitude": "0.5"}))
    assert run(["pulse", "--config", path, "--out", tmp_path / "a"]) == 0
    assert run(["pulse", "--family", "rect", "--n", 11, "--amplitude", 0.5,
                "--out", tmp_path / "b"]) == 0
    for name in ("pulse.csv", "pulse.csv.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    path.write_text(json.dumps({"family": "rect", "n": 11.5}))
    assert run(["pulse", "--config", path, "--out", tmp_path / "c"]) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--family", "tre", "--k", 0.6, "--eps", 0.01, "--n", 257,
     "--emit", "axis-angle"],
    ["gate", "not", "--n", 512],
    ["montgomery", "--k", 0.5, "--eps", 0.1, "--n", 2049],
    ["fit-period", "--k", 0.5],
    ["sweep", "--preset", "four-k", "--n", 129, "--alpha-grid=-0.2,0.2,3",
     "--delta-grid", "0"],
])
def test_sidecar_replay_reproduces_every_command(tmp_path, argv):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(argv + ["--out", a]) == 0
    sidecars = sorted(p for p in a.iterdir() if p.with_suffix("").is_file())
    assert sidecars
    # the gate name is positional, so a replay names it again
    command = argv[:2] if argv[0] == "gate" else argv[:1]
    assert run(command + ["--config", sidecars[0], "--out", b]) == 0
    assert sorted(p.name for p in b.iterdir()) == \
        sorted(p.name for p in a.iterdir())
    for path in a.iterdir():
        assert (b / path.name).read_bytes() == path.read_bytes(), path.name
    for side in sidecars:
        assert json.loads((b / side.name).read_text())["config"] == \
            json.loads(side.read_text())["config"]


def _near(typical, lo, hi, **kwargs):
    """Floats in [lo, hi], half of them from the typical range."""
    return st.one_of(st.floats(*typical), st.floats(lo, hi, **kwargs))


_open_unit = dict(exclude_min=True, exclude_max=True)


@st.composite
def gate_argv(draw):
    """A gate with the flags it reads, drawn across and beyond the region
    where its design succeeds: eps-lo and eps-hi in either order, phase
    targets on both sides of (0, 2 pi)."""
    name = draw(st.sampled_from(["not", "phase", "hadamard"]))
    argv = ["gate", name, f"--k={draw(_near((0.3, 0.9), 0.01, 0.999))}",
            f"--n={draw(st.integers(2, 512))}"]
    if name == "not":
        lo = draw(_near((1e-4, 0.1), 0.0, 1.0, **_open_unit))
        hi = draw(_near((0.1, 0.9), 0.0, 1.0, **_open_unit))
        argv += [f"--eps-lo={lo}", f"--eps-hi={hi}"]
    elif name == "phase":
        target = draw(_near((0.05, 2.0 * math.pi - 0.05),
                            -1.0, 2.0 * math.pi + 1.0))
        eps_a = draw(_near((1e-3, 0.05), 0.0, 1.0, **_open_unit))
        argv += [f"--target={target}", f"--eps-a={eps_a}"]
    return argv


def _numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, (int, float)) else []


@settings(derandomize=True, deadline=None, max_examples=40)
@given(gate_argv())
def test_gate_exit_code_matches_its_artifacts(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("gate") / "out"
    rc = run(argv + ["--out", out])
    assert rc in (0, 2, 3)
    if rc == 2:
        assert not out.exists()
        return
    report = json.loads((out / f"gate_{argv[1]}.json").read_text())
    assert report["converged"] is (rc == 0)
    if rc == 0:
        assert report["fidelity"] >= 1.0 - 1e-6
        for path in out.iterdir():
            if path.suffix == ".json":
                values = _numbers(json.loads(path.read_text()))
            else:
                values = load_csv(path).ravel().tolist()
            assert all(math.isfinite(v) for v in values), path.name


def _unit_interval(typical):
    return _near(typical, 0.0, 1.0, **_open_unit)


def _anywhere(typical):
    return _near(typical, -1e308, 1e308)


@st.composite
def _pulse_flags(draw):
    family = draw(st.sampled_from(cli._CHOICES["family"]))
    argv = [f"--family={family}", f"--n={draw(st.integers(1, 65))}"]
    if family in ("tre", "tre-loop", "allen-eberly"):
        argv.append(f"--k={draw(_unit_interval((0.2, 0.95)))}")
    if family in ("tre", "tre-loop"):
        argv += [f"--eps={draw(_unit_interval((1e-3, 0.1)))}",
                 f"--branch={draw(st.sampled_from(cli._CHOICES['branch']))}"]
    elif family == "allen-eberly":
        argv += [f"--t0={draw(_anywhere((-5.0, 5.0)))}",
                 f"--half-width={draw(_anywhere((1.0, 20.0)))}"]
    else:
        argv.append(f"--amplitude={draw(_anywhere((0.5, 2.0)))}")
    return argv


@st.composite
def _grid(draw):
    lo, hi = sorted(draw(st.lists(_anywhere((-0.5, 0.5)), min_size=2,
                                  max_size=2)))
    return f"{lo},{hi},{draw(st.integers(1, 3))}"


@st.composite
def command_argv(draw):
    """A pulse, simulate, sweep, montgomery or fit-period command with its
    numbers drawn out to the extreme finite floats."""
    command = draw(st.sampled_from(
        ["pulse", "simulate", "sweep", "montgomery", "fit-period"]))
    scale = draw(_near((0.5, 2.0), 0.0, 1e308, exclude_min=True))
    argv = [command, f"--time-scale={scale}"]
    if command in ("pulse", "simulate", "sweep"):
        argv += draw(_pulse_flags())
    if command == "simulate":
        m0 = ",".join(str(draw(_anywhere((-1.0, 1.0)))) for _ in range(3))
        argv += [f"--alpha={draw(_anywhere((-0.5, 0.5)))}",
                 f"--delta={draw(_anywhere((-1.0, 1.0)))}", f"--m0={m0}",
                 f"--emit={draw(st.sampled_from(cli._CHOICES['emit']))}"]
    elif command == "sweep":
        argv += [f"--alpha-grid={draw(_grid())}",
                 f"--delta-grid={draw(_grid())}",
                 f"--merit={draw(st.sampled_from(cli._CHOICES['merit']))}"]
    elif command in ("montgomery", "fit-period"):
        argv += [f"--k={draw(_unit_interval((0.2, 0.95)))}",
                 f"--branch={draw(st.sampled_from(cli._CHOICES['branch']))}"]
        if command == "montgomery":
            # the loop closes to 1e-6 from about n = 2049
            argv += [f"--eps={draw(_unit_interval((1e-3, 0.5)))}",
                     f"--n={draw(st.integers(1, 8193))}"]
        else:
            eps = draw(st.lists(_unit_interval((1e-6, 1e-2)), min_size=1,
                                max_size=4))
            argv.append("--eps=" + ",".join(map(str, eps)))
    return argv


def _check_artifacts(out, rc):
    """Each sidecar's sha256 matches its file; exit 0 means every number
    written is finite."""
    for path in out.iterdir():
        if path.suffix == ".json" and path.with_suffix("").is_file():
            side = json.loads(path.read_text())
            assert side["sha256"] == hashlib.sha256(
                path.with_suffix("").read_bytes()).hexdigest(), path.name
        if rc == 0:
            if path.suffix == ".json":
                values = _numbers(json.loads(path.read_text()))
            else:
                values = load_csv(path).ravel().tolist()
            assert all(math.isfinite(v) for v in values), path.name


@settings(derandomize=True, deadline=None, max_examples=600)
@given(command_argv())
def test_command_exit_code_matches_its_artifacts(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("cmd") / "out"
    rc = run(argv + ["--out", out])
    assert rc in (0, 2, 3)
    if rc == 2:
        assert not out.exists()
    else:
        _check_artifacts(out, rc)


# the transfer from the orbit's start ends at its turning point, whose
# third component is -sqrt(1 - eps^2), up to the midpoint rule's O(h^2)
# error, h the transfer's duration over n - 1: at most 0.036 h^2 over
# 11,000 random draws of the ranges below (largest near k = 0.8, eps =
# 0.8, rotating); the property allows 0.1 h^2
_TURNING_POINT_GAP = 0.1


@settings(derandomize=True, deadline=None, max_examples=120)
@given(branch=st.sampled_from(cli._CHOICES["branch"]),
       k=st.floats(0.05, 0.95),
       log_eps=st.floats(math.log(1e-7), math.log(0.9)),
       n=st.integers(257, 4097))
def test_tre_transfer_reaches_its_turning_point(tmp_path_factory, branch, k,
                                                log_eps, n):
    eps = min(math.exp(log_eps), 0.9)
    p, family = TopParameters(k), Family(branch)
    m0 = ",".join(repr(float(x)) for x in tre_initial(p, eps, family))
    out = tmp_path_factory.mktemp("tre") / "out"
    rc = run(["simulate", "--family", "tre", f"--k={k}", f"--eps={eps}",
              f"--branch={branch}", f"--n={n}", f"--m0={m0}", "--out", out])
    # every draw is a valid transfer
    assert rc == 0
    side = json.loads((out / "trajectory.csv.json").read_text())
    m3 = side["final_state"][2]
    h = 0.5 * orbit_period(p, eps, family) / (n - 1)
    assert m3 < 0.0
    assert abs(m3 + math.sqrt(1.0 - eps**2)) <= _TURNING_POINT_GAP * h**2


@pytest.mark.parametrize("argv, named", [
    # A = sqrt(k^2 + eps^2 k'^2) underflows to 0
    (["montgomery", "--k", 1e-300, "--eps", 1e-300, "--n", 3], "k = 1e-300"),
    (["pulse", "--family", "tre-loop", "--k", 1e-308, "--eps", 5e-324,
      "--n", 17], "k = 1e-308"),
    # nu = -(a / b)^2 m of the solid angle overflows, b = k C
    (["montgomery", "--k", 1e-170, "--eps", 0.5, "--branch", "oscillating",
      "--n", 17], "k = 1e-170"),
    # the oscillating period 4 K / (k A) overflows
    (["pulse", "--family", "tre", "--k", 5e-324, "--eps", 0.5, "--branch",
      "oscillating", "--n", 5], "k = 5e-324"),
    # 1 / eps overflows
    (["fit-period", "--k", 0.5, "--eps", "1e-2,1e-4,5e-324"], "eps samples"),
    # a step's rotation angle overflows
    (["simulate", "--family", "rect", "--n", 5, "--delta", 1e308],
     "delta = 1e+308"),
    (["simulate", "--family", "rect", "--n", 5, "--alpha", 1e308],
     "alpha = 1e+308"),
    (["simulate", "--family", "rect", "--n", 5, "--alpha", 1e308, "--emit",
      "axis-angle"], "alpha = 1e+308"),
    # an exported time overflows
    (["simulate", "--family", "rect", "--n", 3, "--time-scale", 1e308],
     "--time-scale"),
    (["pulse", "--family", "rect", "--n", 3, "--time-scale", 1e308],
     "--time-scale"),
    (["gate", "not", "--k", 0.6, "--n", 64, "--time-scale", 1e308],
     "--time-scale"),
])
def test_overflowing_input_is_usage_error_before_any_artifact(tmp_path, capsys,
                                                              argv, named):
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# every artifact path in one process: the three gates, montgomery,
# fit-period, the experiment preset (an nmr_frame pulse), the off-axis
# simulate and 5 x 5 sweep, a composite NOT and an 8,193-sample loop
# rotated by rotate_pulse; prints the exit codes
_CORE_JOBS = """
import sys
from pathlib import Path
import numpy as np
from blochtop import cli, gates
from blochtop.pulsegen import rotate_pulse, tre_loop_pulse, write_pulse_csv
from blochtop.topdyn import Family, TopParameters

out = Path(sys.argv[1])
tre = ["--family", "tre", "--k", "0.6", "--eps", "0.01", "--m0", "0.6,0,0.8"]
jobs = {
    "not": ["gate", "not", "--k", "0.7", "--n", "2048"],
    "phase": ["gate", "phase", "--k", "0.55", "--target", "1.3",
              "--n", "2048"],
    "hadamard": ["gate", "hadamard", "--k", "0.6", "--n", "2048"],
    "montgomery": ["montgomery", "--k", "0.55", "--eps", "0.01",
                   "--n", "8193"],
    "fit-period": ["fit-period", "--k", "0.6"],
    "experiment": ["sweep", "--preset", "experiment", "--n", "513"],
    "simulate": ["simulate", *tre, "--n", "4097", "--emit", "axis-angle"],
    "sweep": ["sweep", *tre, "--alpha-grid=-0.3,0.3,5",
              "--delta-grid=-0.4,0.4,5"],
}
codes = [cli.main(argv + ["--out", str(out / name)])
         for name, argv in jobs.items()]
p = TopParameters(0.6)
write_pulse_csv(gates.composite_bir_not(p, 0.01, n=2048),
                out / "composite.csv")
loop = tre_loop_pulse(p, 0.01, Family.ROTATING, n=8193)
R = gates._rotation_between(np.array([0.6, 0.0, 0.8]),
                            np.array([0.0, -0.28, 0.96]))
write_pulse_csv(rotate_pulse(loop, R), out / "rotated.csv")
print(codes)
"""


def test_artifacts_do_not_depend_on_the_openblas_core(tmp_path):
    # no artifact path calls BLAS or LAPACK, so forcing another OpenBLAS
    # kernel set changes no byte; a core type the loaded library does not
    # accept leaves it on its default kernels.  A numpy overflow or
    # invalid value on the way fails the run
    digests = {}
    for core in ("", "Haswell", "Prescott"):
        out = tmp_path / (core or "default")
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONWARNINGS="error::RuntimeWarning")
        if not core:
            env.pop("OPENBLAS_CORETYPE")
        proc = subprocess.run([sys.executable, "-c", _CORE_JOBS, str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0, 0]"
        digests[core] = {
            str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*")) if f.is_file()}
    assert len(digests[""]) == 28
    for core in ("Haswell", "Prescott"):
        moved = sorted(name for name, digest in digests[core].items()
                       if digests[""].get(name) != digest)
        assert digests[core].keys() == digests[""].keys()
        assert not moved, (core, moved)
