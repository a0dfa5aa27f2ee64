"""Command line front end.

Subcommands cover pulse export, Bloch/propagator simulation, robustness
sweeps, gate design, loop phase budgets, and the duration scaling fit.
Every artifact is written next to a JSON sidecar holding the command
name, the effective configuration, and a sha256 digest of the file
bytes; feeding that sidecar back through --config reproduces the file
exactly.  Exit codes: 0 success, 2 usage or configuration error,
3 numerical non-convergence (artifacts are still written).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _util
from .gates import GateReport, budget_defect, design_phase_gate, \
    montgomery_phase, synthesize_one_qubit, tune_not_gate, write_gate_report
from .propagate import ErrorParams, Trajectory, \
    _trajectory_and_axis_angle, bloch_propagate, write_axis_angle_csv, \
    write_trajectory_csv
from .pulsegen import ControlPulse, allen_eberly_pulse, nmr_frame, \
    pulse_sidecar_meta, read_pulse_csv, rect_pi_pulse, tre_loop_pulse, \
    tre_pulse, write_pulse_csv
from .robustness import default_alpha_grid, default_delta_grid, \
    fit_log_period, merit_J2, merit_J3, sweep, write_map_csv
from .topdyn import Family, TopParameters


class UsageError(Exception):
    pass


_GLOBAL = {"workers": None, "time_scale": 1.0}

# odd default keeps the midpoint of symmetric envelopes on the grid
_PULSE_KEYS = {"family": None, "k": None, "eps": None, "branch": "rotating",
               "n": 2049, "t0": 0.0, "half_width": 12.0, "amplitude": 1.0,
               "pulse": None}

_SPECS = {
    "pulse": dict(_PULSE_KEYS),
    "simulate": dict(_PULSE_KEYS, m0="0,0,1", alpha=0.0, delta=0.0,
                     emit="trajectory"),
    "sweep": dict(_PULSE_KEYS, preset=None, m0=None, merit="J3",
                  alpha_grid=None, delta_grid=None),
    "gate": {"name": None, "k": 0.5, "n": 4096, "eps_lo": 1e-3, "eps_hi": 0.5,
             "target": None, "eps_a": 0.01},
    "montgomery": {"k": None, "eps": None, "branch": "rotating", "n": 65537},
    "fit-period": {"k": None, "eps": "1e-2,1e-3,1e-4,1e-5,1e-6",
                   "branch": "rotating"},
}


def _load_config(path) -> dict:
    try:
        obj = _util.load_json(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if isinstance(obj, dict) and "config" in obj and "command" in obj:
        obj = obj["config"]
    if not isinstance(obj, dict):
        raise UsageError("config file must hold a JSON object")
    return obj


def _effective(args, file_cfg: dict, spec: dict) -> dict:
    cfg = {}
    for key, default in spec.items():
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
        elif file_cfg.get(key) is not None:
            cfg[key] = file_cfg[key]
        else:
            cfg[key] = default
    return cfg


def _finish(path: Path, command: str, cfg: dict, extra: dict | None = None):
    side = {"command": command, "config": cfg,
            "sha256": _util.sha256_hex(path.read_bytes())}
    if extra:
        side.update(extra)
    _util.dump_json(side, str(path) + ".json")
    print(f"wrote {path}")


def _need(cfg: dict, key: str) -> float:
    v = cfg.get(key)
    if v is None:
        raise UsageError(f"--{key} is required here")
    return float(v)


def _parse_branch(text) -> Family:
    try:
        return Family(str(text))
    except ValueError:
        raise UsageError(f"unknown branch {text!r}")


def _parse_vec3(text):
    parts = str(text).split(",")
    if len(parts) != 3:
        raise UsageError("state must be three comma-separated numbers")
    return tuple(float(x) for x in parts)


def _parse_grid(text):
    parts = [float(x) for x in str(text).split(",")]
    if len(parts) == 1:
        return np.array(parts)
    if len(parts) == 3 and 1 <= parts[2] < math.inf and parts[1] >= parts[0]:
        return np.linspace(parts[0], parts[1], int(round(parts[2])))
    raise UsageError("grid must be 'value' or 'lo,hi,count'")


def _build_pulse(cfg: dict) -> ControlPulse:
    if cfg.get("pulse"):
        return read_pulse_csv(cfg["pulse"])
    fam = cfg["family"]
    if fam is None:
        raise UsageError("--family (or --pulse <csv>) is required")
    n = int(cfg["n"])
    if n < 1:
        raise UsageError("--n must be at least 1")
    branch = _parse_branch(cfg["branch"])
    build_n = max(n, 2)
    if fam in ("tre", "tre-loop"):
        maker = tre_pulse if fam == "tre" else tre_loop_pulse
        pulse = maker(TopParameters(_need(cfg, "k")), _need(cfg, "eps"),
                      branch, n=build_n)
    elif fam == "allen-eberly":
        pulse = allen_eberly_pulse(TopParameters(_need(cfg, "k")),
                                   t0=float(cfg["t0"]),
                                   half_width=float(cfg["half_width"]),
                                   n=build_n)
    elif fam == "rect":
        pulse = rect_pi_pulse(float(cfg["amplitude"]), n=build_n)
    else:
        raise UsageError(f"unknown family {fam!r}")
    if n == 1:
        pulse = ControlPulse(pulse.times[:1], pulse.omega1[:1],
                             pulse.omega2[:1], pulse.omega3[:1],
                             dict(pulse.meta))
    return pulse


def _export_pulse(pulse: ControlPulse, path: Path, scale: float):
    write_pulse_csv(replace(pulse, times=pulse.times * scale), path,
                    sidecar=False)


def _cmd_pulse(cfg: dict, out: Path) -> int:
    pulse = _build_pulse(cfg)
    path = out / "pulse.csv"
    _export_pulse(pulse, path, float(cfg["time_scale"]))
    _finish(path, "pulse", cfg, {"pulse": pulse_sidecar_meta(pulse)})
    return 0


def _cmd_simulate(cfg: dict, out: Path) -> int:
    pulse = _build_pulse(cfg)
    if cfg["emit"] not in ("trajectory", "axis-angle"):
        raise UsageError(f"unknown emit mode {cfg['emit']!r}")
    err = ErrorParams(alpha=float(cfg["alpha"]), delta=float(cfg["delta"]))
    scale = float(cfg["time_scale"])
    M0 = _parse_vec3(cfg["m0"])
    if cfg["emit"] == "axis-angle":
        # one scan feeds both read-outs
        traj, aap = _trajectory_and_axis_angle(pulse, M0, err)
    else:
        traj, aap = bloch_propagate(pulse, M0, err), None
    path = out / "trajectory.csv"
    write_trajectory_csv(Trajectory(traj.times * scale, traj.M), path)
    _finish(path, "simulate", cfg,
            {"final_state": [float(x) for x in traj.M[-1]]})
    if aap is not None:
        path2 = out / "axis_angle.csv"
        write_axis_angle_csv(aap, path2, scale)
        _finish(path2, "simulate", cfg)
    return 0


def _sweep_grids(cfg: dict, pulse: ControlPulse):
    a = _parse_grid(cfg["alpha_grid"]) if cfg["alpha_grid"] is not None \
        else default_alpha_grid()
    d = _parse_grid(cfg["delta_grid"]) if cfg["delta_grid"] is not None \
        else default_delta_grid(pulse)
    return a, d


def _sweep_maps(cfg: dict, merit):
    """(file name, sidecar extra, pulse, M0, grids, merit) of each map of
    the sweep, each pulse built only when its map is due."""
    preset = cfg["preset"]
    if preset == "experiment":
        k = float(cfg["k"]) if cfg["k"] is not None else 0.5
        eps = float(cfg["eps"]) if cfg["eps"] is not None else 0.01
        base = tre_pulse(TopParameters(k), eps, _parse_branch(cfg["branch"]),
                         n=int(cfg["n"]))
        yield ("sweep.csv", {}, nmr_frame(base), (0.0, 1.0, 0.0),
               (np.linspace(-0.5, 0.5, 11), np.array([0.0])), merit_J2)
    elif preset == "four-k":
        eps = float(cfg["eps"]) if cfg["eps"] is not None else 0.01
        branch = _parse_branch(cfg["branch"])
        for k in (0.2, 0.6, 0.9, 0.99):
            pulse = tre_pulse(TopParameters(k), eps, branch, n=int(cfg["n"]))
            yield (f"sweep_k{k}.csv", {"k": k}, pulse, (0.0, 0.0, 1.0),
                   _sweep_grids(cfg, pulse), merit)
    elif preset is None:
        pulse = _build_pulse(cfg)
        m0 = _parse_vec3(cfg["m0"]) if cfg["m0"] is not None else (0.0, 0.0, 1.0)
        yield "sweep.csv", {}, pulse, m0, _sweep_grids(cfg, pulse), merit
    else:
        raise UsageError(f"unknown preset {preset!r}")


def _cmd_sweep(cfg: dict, out: Path) -> int:
    merits = {"J3": merit_J3, "J2": merit_J2}
    if cfg["merit"] not in merits:
        raise UsageError(f"unknown merit {cfg['merit']!r}")
    reasons = Counter()
    for name, extra, pulse, m0, grids, merit in _sweep_maps(
            cfg, merits[cfg["merit"]]):
        rmap = sweep(pulse, m0, *grids, merit=merit)
        path = out / name
        write_map_csv(rmap, path, sidecar=False)
        _finish(path, "sweep", cfg, dict(extra, map_meta=rmap.meta))
        reasons.update(cell["reason"]
                       for cell in rmap.meta.get("failed_cells", ()))
    if reasons:
        counts = ", ".join(f"{r}: {c}" for r, c in sorted(reasons.items()))
        print(f"warning: {sum(reasons.values())} sweep cells failed ({counts})",
              file=sys.stderr)
        return 3
    return 0


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _cmd_gate(cfg: dict, out: Path) -> int:
    name = cfg["name"]
    p = TopParameters(float(cfg["k"]))
    n = int(cfg["n"])
    if name == "not":
        _, pulse, report = tune_not_gate(
            p, (float(cfg["eps_lo"]), float(cfg["eps_hi"])), n=n)
    elif name == "phase":
        if cfg["target"] is None:
            raise UsageError("--target is required for the phase gate")
        design, pulse, budget = design_phase_gate(
            float(cfg["target"]), p, eps_a=float(cfg["eps_a"]), n=n)
        params = design.as_dict()
        params.pop("residuals", None)
        report = GateReport("phase", params, design.fidelity,
                            budget.as_dict(), design.residuals,
                            design.converged)
    elif name == "hadamard":
        prog = synthesize_one_qubit(_HADAMARD, p, n=n)
        infidelity = 1.0 - prog.fidelity
        converged = (all(seg.meta["converged"] for seg in prog.segments)
                     and infidelity <= 1e-6)
        report = GateReport("hadamard",
                            {"k": p.k, "segments": list(prog.labels)},
                            prog.fidelity, None,
                            {"infidelity": infidelity}, converged)
        pulse = prog.pulse
    else:
        raise UsageError(f"unknown gate {name!r}")

    rpath = out / f"gate_{name}.json"
    write_gate_report(report, rpath)
    _finish(rpath, "gate", cfg)
    if pulse is not None:
        ppath = out / f"gate_{name}_pulse.csv"
        _export_pulse(pulse, ppath, float(cfg["time_scale"]))
        _finish(ppath, "gate", cfg, {"pulse": pulse_sidecar_meta(pulse)})
    if not report.converged:
        print("warning: gate design did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_montgomery(cfg: dict, out: Path) -> int:
    budget = montgomery_phase(TopParameters(_need(cfg, "k")),
                              _need(cfg, "eps"), _parse_branch(cfg["branch"]),
                              n=int(cfg["n"]))
    payload = dict(k=float(cfg["k"]), eps=float(cfg["eps"]),
                   branch=str(cfg["branch"]), **budget.as_dict(),
                   defect=budget_defect(budget))
    path = out / "montgomery.json"
    _util.dump_json(payload, path)
    _finish(path, "montgomery", cfg)
    return 0


def _cmd_fit_period(cfg: dict, out: Path) -> int:
    eps = np.array([float(x) for x in str(cfg["eps"]).split(",")])
    a, b, r2 = fit_log_period(TopParameters(_need(cfg, "k")), eps,
                              _parse_branch(cfg["branch"]))
    payload = {"k": float(cfg["k"]), "branch": str(cfg["branch"]),
               "eps": eps.tolist(), "slope": a, "intercept": b,
               "r_squared": r2}
    path = out / "fit_period.json"
    _util.dump_json(payload, path)
    _finish(path, "fit-period", cfg)
    return 0


def _add_common(sp):
    sp.add_argument("--config", help="JSON config or sidecar; flags override")
    sp.add_argument("--out", help="output directory (default .)")
    sp.add_argument("--workers", type=int, help="accepted; has no effect")
    sp.add_argument("--time-scale", type=float, dest="time_scale",
                    help="seconds per body time unit for exported t columns")


def _add_pulse_flags(sp):
    sp.add_argument("--family",
                    choices=("tre", "tre-loop", "allen-eberly", "rect"))
    sp.add_argument("--pulse", help="read the drive from a CSV instead")
    sp.add_argument("--k", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--branch", choices=("rotating", "oscillating"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--t0", type=float)
    sp.add_argument("--half-width", type=float, dest="half_width")
    sp.add_argument("--amplitude", type=float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochtop",
        description="pulse design and simulation for driven two-level "
                    "systems built on free rigid-body orbits")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pulse", help="export a sampled drive as CSV")
    _add_common(sp)
    _add_pulse_flags(sp)

    sp = sub.add_parser("simulate", help="propagate a state under a drive")
    _add_common(sp)
    _add_pulse_flags(sp)
    sp.add_argument("--m0", help="initial state, e.g. 0,0,1")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--emit", choices=("trajectory", "axis-angle"))

    sp = sub.add_parser("sweep", help="map a merit over error parameters")
    _add_common(sp)
    _add_pulse_flags(sp)
    sp.add_argument("--preset", choices=("experiment", "four-k"))
    sp.add_argument("--m0")
    sp.add_argument("--merit", choices=("J3", "J2"))
    sp.add_argument("--alpha-grid", dest="alpha_grid",
                    help="'value' or 'lo,hi,count'")
    sp.add_argument("--delta-grid", dest="delta_grid")

    sp = sub.add_parser("gate", help="design a gate and write its report")
    _add_common(sp)
    sp.add_argument("name", choices=("not", "phase", "hadamard"))
    sp.add_argument("--k", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--eps-lo", type=float, dest="eps_lo")
    sp.add_argument("--eps-hi", type=float, dest="eps_hi")
    sp.add_argument("--target", type=float, help="relative phase in (0, 2 pi)")
    sp.add_argument("--eps-a", type=float, dest="eps_a")

    sp = sub.add_parser("montgomery", help="phase budget of one closed orbit")
    _add_common(sp)
    sp.add_argument("--k", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--branch", choices=("rotating", "oscillating"))
    sp.add_argument("--n", type=int)

    sp = sub.add_parser("fit-period", help="duration vs log precision fit")
    _add_common(sp)
    sp.add_argument("--k", type=float)
    sp.add_argument("--eps", help="comma-separated offsets")
    sp.add_argument("--branch", choices=("rotating", "oscillating"))

    return parser


_HANDLERS = {
    "pulse": _cmd_pulse,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "gate": _cmd_gate,
    "montgomery": _cmd_montgomery,
    "fit-period": _cmd_fit_period,
}


_GRID_FLAGS = ("--alpha-grid", "--delta-grid")


def _bind_grid_values(argv):
    """Join each grid flag to the value after it, so that both
    '--alpha-grid -0.1,0.1,3' and '--alpha-grid=-0.1,0.1,3' parse;
    argparse alone reads a value with a leading '-' as an option."""
    out = []
    for tok in argv:
        if out and out[-1] in _GRID_FLAGS and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_bind_grid_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_cfg = _load_config(args.config) if args.config else {}
        spec = dict(_SPECS[args.command])
        spec.update(_GLOBAL)
        cfg = _effective(args, file_cfg, spec)
        if not 0.0 < float(cfg["time_scale"]) < math.inf:
            raise UsageError("--time-scale must be finite and positive")
        out = Path(args.out or file_cfg.get("out") or ".")
        out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](cfg, out)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console():
    sys.exit(main())
