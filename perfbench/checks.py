"""Artifact checks for one finished job, run outside the timed interval.

``check_job`` returns ``(problems, err)``: a list of reasons the job
failed (empty when it passed) and the job's accuracy figure, or None when
the job has none.  The accuracy figures, per workload:

- sweep-maps: |J - J_exact| over every cell of a ``rect`` map, where
  J_exact is the closed-form Rabi rotation of the constant drive, which
  the midpoint rule reproduces up to roundoff;
- gate-design: 1 - fidelity of the gate report;
- long-pulse: the Montgomery budget defect, and | |M| - 1 | over the rows
  of a trajectory.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = {
    "rect": 1e-10,          # roundoff grows with n; about 5e-13 at n=8193
    "fidelity": 1e-6,       # converged gate reports: 1 - F
    "defect": 1e-4,         # about 8e-6 at n=16385, k=0.95
    "norm": 1e-10,          # | |M| - 1 | of a trajectory row
}

_ARTIFACTS = {
    "sweep": ["sweep.csv"],
    "montgomery": ["montgomery.json"],
    "pulse": ["pulse.csv"],
}


def digest_files(out: Path) -> dict:
    """sha256 of every file under a job's output directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _expected(job) -> list:
    kind, params = job["kind"], job["params"]
    if kind == "gate":
        name = params["name"]
        return [f"gate_{name}.json", f"gate_{name}_pulse.csv"]
    if kind == "simulate":
        files = ["trajectory.csv"]
        if params["emit"] == "axis-angle":
            files.append("axis_angle.csv")
        return files
    return _ARTIFACTS[kind]


def _csv(path: Path, header: str, cols: int, rows: int | None):
    with open(path) as fh:
        first = fh.readline().strip()
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != cols or (rows is not None and data.shape[0] != rows):
        raise ValueError(f"{path.name}: shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name}: non-finite values")
    return data


def _rabi_J(amp, alpha, delta, merit):
    """Merit of e3 after the constant drive ((1+alpha) amp, 0, delta)
    acts for the pi-pulse duration pi / amp."""
    w1 = (1.0 + alpha) * amp
    w = np.hypot(w1, delta)
    theta = w * math.pi / amp
    if merit == "J3":
        n3 = delta / w
        return -(np.cos(theta) + n3 * n3 * (1.0 - np.cos(theta)))
    return (w1 / w) * np.sin(theta)


def _check_sweep(job, out):
    params = job["params"]
    data = _csv(out / "sweep.csv", "alpha,delta,J,flag", 4, params["cells"])
    if np.any(data[:, 3] != 0):
        raise ValueError("sweep.csv: a cell is flagged")
    if np.any(np.abs(data[:, 2]) > 1.0 + 1e-12):
        raise ValueError("sweep.csv: |J| > 1")
    if params["family"] != "rect":
        return None
    exact = _rabi_J(params["amplitude"], data[:, 0], data[:, 1],
                    params["merit"])
    err = float(np.max(np.abs(data[:, 2] - exact)))
    if not err <= TOL["rect"]:
        raise ValueError(f"rect map error {err:.3g} > {TOL['rect']:g}")
    return err


def _check_gate(job, out):
    name = job["params"]["name"]
    report = json.loads((out / f"gate_{name}.json").read_text())
    if report.get("target") != name or report.get("converged") is not True:
        raise ValueError(f"gate report: target {report.get('target')!r}, "
                         f"converged {report.get('converged')!r}")
    err = 1.0 - float(report["fidelity"])
    if not err <= TOL["fidelity"]:
        raise ValueError(f"gate infidelity {err:.3g} > {TOL['fidelity']:g}")
    _csv(out / f"gate_{name}_pulse.csv", "t,omega1,omega2,omega3", 4, None)
    return err


def _check_montgomery(job, out):
    payload = json.loads((out / "montgomery.json").read_text())
    err = float(payload["defect"])
    if not err <= TOL["defect"]:
        raise ValueError(f"budget defect {err:.3g} > {TOL['defect']:g}")
    return err


def _check_simulate(job, out):
    n = job["params"]["n"]
    traj = _csv(out / "trajectory.csv", "t,M1,M2,M3", 4, n)
    err = float(np.max(np.abs(np.linalg.norm(traj[:, 1:], axis=1) - 1.0)))
    if not err <= TOL["norm"]:
        raise ValueError(f"trajectory | |M| - 1 | = {err:.3g}")
    if job["params"]["emit"] == "axis-angle":
        aa = _csv(out / "axis_angle.csv", "t,n1,n2,n3,angle,degenerate", 6, n)
        if np.any(aa[:, 4] < 0.0) or np.any(aa[:, 4] > 2.0 * math.pi + 1e-12):
            raise ValueError("axis_angle.csv: angle outside [0, 2 pi]")
    return err


def _check_pulse(job, out):
    _csv(out / "pulse.csv", "t,omega1,omega2,omega3", 4, job["params"]["n"])
    return None


_CHECKS = {"sweep": _check_sweep, "gate": _check_gate,
           "montgomery": _check_montgomery, "simulate": _check_simulate,
           "pulse": _check_pulse}


def check_job(job, out: Path, rc: int, digests: dict):
    """Exit code, sidecar digests, parse and accuracy of one job."""
    if rc != 0:
        return [f"exit code {rc}"], None
    problems = []
    for name in _expected(job):
        if name not in digests:
            problems.append(f"missing {name}")
            continue
        side = out / (name + ".json")
        try:
            recorded = json.loads(side.read_text())["sha256"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"sidecar of {name}: {exc!r}")
            continue
        if recorded != digests[name]:
            problems.append(f"sha256 of {name} does not match its sidecar")
    if problems:
        return problems, None
    try:
        return [], _CHECKS[job["kind"]](job, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{type(exc).__name__}: {exc}"], None
