"""Command line front end.

Subcommands cover pulse export, Bloch/propagator simulation, robustness
sweeps, gate design, loop phase budgets, and the duration scaling fit.
Every artifact is written next to a JSON sidecar holding the command
name, the effective configuration, and the sha256 digest of the file
bytes, the one its writer computed while writing them (no artifact is
read back); feeding that sidecar back through --config reproduces the
file exactly.  Exit codes: 0 success, 2 usage or configuration error,
3 numerical non-convergence (artifacts are still written).  The output
directory is made when the first artifact is written, so a command that
fails before that leaves none behind.

Each option's type and legal values are declared once, below, and a
config value is checked like its flag (exit 2 naming the key).  A sweep
preset or a gate rejects keys it does not read unless they hold their
defaults; an unreadable --pulse file is exit 2.  The parser is built
once per process, so repeated in-process calls of main pay only for
parsing.
"""

from __future__ import annotations

import argparse
import functools
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

# Per key, unless a (command, key) entry overrides it.  A key not typed
# here is a string.
_TYPES = {"workers": int, "time_scale": float, "k": float, "eps": float,
          "n": int, "t0": float, "half_width": float, "amplitude": float,
          "alpha": float, "delta": float, "eps_lo": float, "eps_hi": float,
          "target": float, "eps_a": float, ("fit-period", "eps"): str}

_CHOICES = {"family": ("tre", "tre-loop", "allen-eberly", "rect"),
            "branch": ("rotating", "oscillating"),
            "emit": ("trajectory", "axis-angle"),
            "preset": ("experiment", "four-k"),
            "merit": ("J3", "J2"),
            "name": ("not", "phase", "hadamard")}

_HELP = {"workers": "accepted; has no effect",
         "time_scale": "seconds per body time unit for exported t columns",
         "pulse": "read the drive from a CSV instead",
         "m0": "initial state, e.g. 0,0,1",
         "alpha_grid": "'value' or 'lo,hi,count', count a whole number",
         "delta_grid": "'value' or 'lo,hi,count', count a whole number",
         "target": "relative phase in (0, 2 pi)",
         ("fit-period", "eps"): "comma-separated offsets"}

# The keys that each sweep preset and each gate reads; every other key of
# the command must keep its default (the global keys are exempt).
_MODE = {"sweep": "preset", "gate": "name"}
_READS = {
    ("sweep", "experiment"): ("preset", "k", "eps", "branch", "n"),
    ("sweep", "four-k"): ("preset", "eps", "branch", "n", "merit",
                          "alpha_grid", "delta_grid"),
    ("gate", "not"): ("name", "k", "n", "eps_lo", "eps_hi"),
    ("gate", "phase"): ("name", "k", "n", "target", "eps_a"),
    ("gate", "hadamard"): ("name", "k", "n"),
}


def _lookup(table: dict, command: str, key: str, default=None):
    return table.get((command, key), table.get(key, default))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


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


def _typed(command: str, key: str, value):
    """A flag or config value in its key's type, checked against choices."""
    typ = _lookup(_TYPES, command, key, str)
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise TypeError
        typed = typ(value)
        if typ is int and typed != float(value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{key} must be {typ.__name__}, got {value!r}")
    choices = _CHOICES.get(key)
    if choices and typed not in choices:
        raise UsageError(f"{key} must be one of {', '.join(choices)}, "
                         f"got {value!r}")
    return typed


def _effective(args, file_cfg: dict) -> dict:
    """Flag over file value over default, for every key of the command."""
    cfg = {}
    for key, default in dict(_SPECS[args.command], **_GLOBAL).items():
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key)
        cfg[key] = default if value is None else \
            _typed(args.command, key, value)
    return cfg


def _check_reads(command: str, cfg: dict):
    """Reject a key that the command's preset or gate does not read."""
    mode = cfg.get(_MODE.get(command))
    reads = _READS.get((command, mode), _SPECS[command])
    unread = [_flag(key) for key, default in _SPECS[command].items()
              if key not in reads and cfg[key] != default]
    if unread:
        what = "--preset" if command == "sweep" else command
        raise UsageError(f"{what} {mode} does not read " + ", ".join(unread))


def _artifact(out: Path, name: str) -> Path:
    """out / name, making out first: a command that fails before it
    writes anything leaves no directory behind."""
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _finish(path: Path, command: str, cfg: dict, extra: dict | None,
            sha256: str):
    """Write the sidecar of the artifact at path, whose writer returned
    the digest sha256."""
    side = {"command": command, "config": cfg, "sha256": sha256}
    if extra:
        side.update(extra)
    _util.dump_json(side, str(path) + ".json")
    print(f"wrote {path}")


def _need(cfg: dict, key: str) -> float:
    v = cfg.get(key)
    if v is None:
        raise UsageError(f"--{key} is required here")
    return v


def _parse_vec3(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("state must be three comma-separated numbers")
    return tuple(float(x) for x in parts)


def _parse_grid(cfg: dict, key: str):
    """The grid of cfg[key]: one value, or count points from lo to hi,
    count a whole number (3.0 reads as 3) of at least 1 and hi - lo
    finite, which lo or hi infinite, or a span past the largest double,
    is not."""
    text = cfg[key]
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 1:
        return np.array(parts)
    if len(parts) == 3 and 1 <= parts[2] < math.inf and parts[1] >= parts[0] \
            and parts[2].is_integer() and math.isfinite(parts[1] - parts[0]):
        return np.linspace(parts[0], parts[1], int(parts[2]))
    raise UsageError(f"{_flag(key)} must be 'value' or 'lo,hi,count' with "
                     f"lo <= hi, a finite span hi - lo and a whole count of "
                     f"at least 1, got {text!r}")


def _build_pulse(cfg: dict) -> ControlPulse:
    if cfg.get("pulse"):
        try:
            return read_pulse_csv(cfg["pulse"])
        except OSError as exc:
            raise UsageError(f"cannot read pulse {cfg['pulse']}: {exc}")
    fam = cfg["family"]
    if fam is None:
        raise UsageError("--family (or --pulse <csv>) is required")
    n = cfg["n"]
    if n < 1:
        raise UsageError("--n must be at least 1")
    build_n = max(n, 2)
    if fam in ("tre", "tre-loop"):
        maker = tre_pulse if fam == "tre" else tre_loop_pulse
        pulse = maker(TopParameters(_need(cfg, "k")), _need(cfg, "eps"),
                      Family(cfg["branch"]), n=build_n)
    elif fam == "allen-eberly":
        pulse = allen_eberly_pulse(TopParameters(_need(cfg, "k")),
                                   t0=cfg["t0"], half_width=cfg["half_width"],
                                   n=build_n)
    else:
        pulse = rect_pi_pulse(cfg["amplitude"], n=build_n)
    if n == 1:
        pulse = ControlPulse(pulse.times[:1], pulse.omega1[:1],
                             pulse.omega2[:1], pulse.omega3[:1],
                             dict(pulse.meta))
    return pulse


def _seconds(times, scale: float):
    """times * scale; a --time-scale under which a time overflows is
    refused, so callers scale before they write anything."""
    if not float(np.max(np.abs(times))) * scale < math.inf:
        raise UsageError(f"--time-scale {scale} overflows the exported times")
    return times * scale


def _cmd_pulse(cfg: dict, out: Path) -> int:
    """export a sampled drive as CSV"""
    pulse = _build_pulse(cfg)
    times = _seconds(pulse.times, cfg["time_scale"])
    path = _artifact(out, "pulse.csv")
    digest = write_pulse_csv(replace(pulse, times=times), path, sidecar=False)
    _finish(path, "pulse", cfg, {"pulse": pulse_sidecar_meta(pulse)}, digest)
    return 0


def _cmd_simulate(cfg: dict, out: Path) -> int:
    """propagate a state under a drive"""
    pulse = _build_pulse(cfg)
    err = ErrorParams(alpha=cfg["alpha"], delta=cfg["delta"])
    scale = cfg["time_scale"]
    times = _seconds(pulse.times, scale)
    M0 = _parse_vec3(cfg["m0"])
    if cfg["emit"] == "axis-angle":
        # one scan feeds both read-outs
        traj, aap = _trajectory_and_axis_angle(pulse, M0, err)
    else:
        traj, aap = bloch_propagate(pulse, M0, err), None
    path = _artifact(out, "trajectory.csv")
    digest = write_trajectory_csv(Trajectory(times, traj.M), path)
    _finish(path, "simulate", cfg,
            {"final_state": [float(x) for x in traj.M[-1]]}, digest)
    if aap is not None:
        path2 = _artifact(out, "axis_angle.csv")
        digest = write_axis_angle_csv(aap, path2, scale)
        _finish(path2, "simulate", cfg, None, digest)
    return 0


def _sweep_grids(cfg: dict, pulse: ControlPulse):
    a = _parse_grid(cfg, "alpha_grid") if cfg["alpha_grid"] is not None \
        else default_alpha_grid()
    d = _parse_grid(cfg, "delta_grid") if cfg["delta_grid"] is not None \
        else default_delta_grid(pulse)
    return a, d


def _sweep_maps(cfg: dict, merit):
    """(file name, sidecar extra, pulse, M0, grids, merit) of each map of
    the sweep, each pulse built only when its map is due."""
    preset = cfg["preset"]
    eps = cfg["eps"] if cfg["eps"] is not None else 0.01
    if preset == "experiment":
        k = cfg["k"] if cfg["k"] is not None else 0.5
        base = tre_pulse(TopParameters(k), eps, Family(cfg["branch"]),
                         n=cfg["n"])
        yield ("sweep.csv", {}, nmr_frame(base), (0.0, 1.0, 0.0),
               (np.linspace(-0.5, 0.5, 11), np.array([0.0])), merit_J2)
    elif preset == "four-k":
        for k in (0.2, 0.6, 0.9, 0.99):
            pulse = tre_pulse(TopParameters(k), eps, Family(cfg["branch"]),
                              n=cfg["n"])
            yield (f"sweep_k{k}.csv", {"k": k}, pulse, (0.0, 0.0, 1.0),
                   _sweep_grids(cfg, pulse), merit)
    else:
        pulse = _build_pulse(cfg)
        m0 = _parse_vec3(cfg["m0"]) if cfg["m0"] is not None else (0.0, 0.0, 1.0)
        yield "sweep.csv", {}, pulse, m0, _sweep_grids(cfg, pulse), merit


def _cmd_sweep(cfg: dict, out: Path) -> int:
    """map a merit over error parameters"""
    merit = {"J3": merit_J3, "J2": merit_J2}[cfg["merit"]]
    reasons = Counter()
    for name, extra, pulse, m0, grids, merit in _sweep_maps(cfg, merit):
        rmap = sweep(pulse, m0, *grids, merit=merit)
        path = _artifact(out, name)
        digest = write_map_csv(rmap, path, sidecar=False)
        _finish(path, "sweep", cfg, dict(extra, map_meta=rmap.meta), digest)
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
    """design a gate and write its report"""
    name = cfg["name"]
    p = TopParameters(cfg["k"])
    n = cfg["n"]
    if name == "not":
        _, pulse, report = tune_not_gate(p, (cfg["eps_lo"], cfg["eps_hi"]),
                                         n=n)
    elif name == "phase":
        design, pulse, budget = design_phase_gate(
            _need(cfg, "target"), p, eps_a=cfg["eps_a"], n=n)
        params = design.as_dict()
        params.pop("residuals", None)
        report = GateReport("phase", params, design.fidelity,
                            budget.as_dict(), design.residuals,
                            design.converged)
    else:
        prog = synthesize_one_qubit(_HADAMARD, p, n=n)
        report = GateReport("hadamard",
                            {"k": p.k, "segments": list(prog.labels)},
                            prog.fidelity, None, prog.residuals,
                            prog.converged)
        pulse = prog.pulse

    times = None if pulse is None else _seconds(pulse.times, cfg["time_scale"])
    rpath = _artifact(out, f"gate_{name}.json")
    digest = write_gate_report(report, rpath)
    _finish(rpath, "gate", cfg, None, digest)
    if pulse is not None:
        ppath = _artifact(out, f"gate_{name}_pulse.csv")
        digest = write_pulse_csv(replace(pulse, times=times), ppath,
                                 sidecar=False)
        _finish(ppath, "gate", cfg, {"pulse": pulse_sidecar_meta(pulse)},
                digest)
    if not report.converged:
        print("warning: gate design did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_montgomery(cfg: dict, out: Path) -> int:
    """phase budget of one closed orbit"""
    budget = montgomery_phase(TopParameters(_need(cfg, "k")),
                              _need(cfg, "eps"), Family(cfg["branch"]),
                              n=cfg["n"])
    payload = dict(k=cfg["k"], eps=cfg["eps"], branch=cfg["branch"],
                   **budget.as_dict(), defect=budget_defect(budget))
    path = _artifact(out, "montgomery.json")
    digest = _util.dump_json(payload, path)
    _finish(path, "montgomery", cfg, None, digest)
    return 0


def _cmd_fit_period(cfg: dict, out: Path) -> int:
    """duration vs log precision fit"""
    eps = np.array([float(x) for x in cfg["eps"].split(",")])
    a, b, r2 = fit_log_period(TopParameters(_need(cfg, "k")), eps,
                              Family(cfg["branch"]))
    payload = {"k": cfg["k"], "branch": cfg["branch"], "eps": eps.tolist(),
               "slope": a, "intercept": b, "r_squared": r2}
    path = _artifact(out, "fit_period.json")
    digest = _util.dump_json(payload, path)
    _finish(path, "fit-period", cfg, None, digest)
    return 0


# built once per process: no option has a default or a stateful action,
# and every parse_args returns a fresh Namespace
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochtop",
        description="pulse design and simulation for driven two-level "
                    "systems built on free rigid-body orbits")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        sp = sub.add_parser(command, help=_HANDLERS[command].__doc__)
        sp.add_argument("--config", help="JSON config or sidecar; flags override")
        sp.add_argument("--out", help="output directory (default .)")
        for key in dict(_GLOBAL, **spec):
            # the gate name is positional; argparse derives the flags' dest
            sp.add_argument(key if key == "name" else _flag(key),
                            type=_lookup(_TYPES, command, key, str),
                            choices=_CHOICES.get(key),
                            help=_lookup(_HELP, command, key))
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_bind_grid_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_cfg = _load_config(args.config) if args.config else {}
        cfg = _effective(args, file_cfg)
        if not 0.0 < cfg["time_scale"] < math.inf:
            raise UsageError("--time-scale must be finite and positive")
        _check_reads(args.command, cfg)
        out = Path(args.out or file_cfg.get("out") or ".")
        return _HANDLERS[args.command](cfg, out)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console():
    sys.exit(main())
