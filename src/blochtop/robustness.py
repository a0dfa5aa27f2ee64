"""Robustness maps for control pulses under static drive errors.

Sweeps the miscalibration pair (alpha, delta) over a grid and records a
scalar merit of the final state.  The final states of every cell with a
finite error pair come from one batched propagation
(propagate._final_states), and the merit is then called once per cell,
in grid order, on a one-sample Trajectory holding that cell's final
state.  A cell's value has the bits of the last sample of
bloch_propagate under its error pair, whatever the rest of the grid.  A
failing cell, or one whose error pair or merit is not finite, is flagged
and set to NaN instead of aborting the grid, and its reason is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _util
from .propagate import Trajectory, _final_states, _state
from .pulsegen import ControlPulse, pulse_sidecar_meta
from .topdyn import Family, TopParameters, transfer_period


def merit_J3(traj: Trajectory) -> float:
    """Inversion merit: minus the final M3 component."""
    return -float(traj.M[-1, 2])


def merit_J2(traj: Trajectory) -> float:
    """Transverse merit: minus the final M2 component."""
    return -float(traj.M[-1, 1])


@dataclass(frozen=True, eq=False)
class RobustnessMap:
    """Merit values on the (alpha, delta) grid, row-major in alpha."""

    alpha_grid: np.ndarray
    delta_grid: np.ndarray
    values: np.ndarray
    flags: np.ndarray
    meta: dict

    def __post_init__(self):
        expect = (len(self.alpha_grid), len(self.delta_grid))
        if self.values.shape != expect or self.flags.shape != expect:
            raise ValueError("values/flags must be shaped (n_alpha, n_delta)")


def default_alpha_grid(n: int = 21) -> np.ndarray:
    return np.linspace(-0.5, 0.5, n)


def default_delta_grid(pulse: ControlPulse, n: int = 21) -> np.ndarray:
    peak = float(np.max(np.abs(pulse.omega1)))
    if peak == 0.0:
        peak = 1.0
    return np.linspace(-peak, peak, n)


def sweep(pulse: ControlPulse, M0, alpha_grid=None, delta_grid=None,
          merit=merit_J3, workers: int | None = None) -> RobustnessMap:
    """Evaluate the merit over the error grid.

    The final states of all cells with a finite error pair come from one
    batched propagation; the merit is then called once per cell in grid
    order, on a one-sample Trajectory (times = the last pulse time, M =
    the final state).  Each cell's value has the bits of the last sample
    of bloch_propagate under its error pair, wherever it sits in the
    grid.  workers is accepted for compatibility and has no effect.  A
    cell whose error pair is not finite, whose merit raises or whose
    merit is not finite is recorded as NaN with its flag set; meta then
    lists each such cell under "failed_cells" as its [i, j] index and
    reason.  If the propagation raises, every cell with a finite error
    pair is flagged with the exception's class name and the merit is not
    called.  An M0 that is not a finite 3-vector raises ValueError up
    front.
    """
    alpha = (default_alpha_grid() if alpha_grid is None
             else np.asarray(alpha_grid, dtype=float))
    delta = (default_delta_grid(pulse) if delta_grid is None
             else np.asarray(delta_grid, dtype=float))
    if alpha.ndim != 1 or delta.ndim != 1 or not len(alpha) or not len(delta):
        raise ValueError("alpha_grid and delta_grid must be non-empty 1-d")
    M0 = _state(M0)

    a_cells = np.repeat(alpha, len(delta))
    d_cells = np.tile(delta, len(alpha))
    values = np.full(a_cells.size, math.nan)
    finite = np.isfinite(a_cells) & np.isfinite(d_cells)
    reasons = dict.fromkeys(np.flatnonzero(~finite), "non-finite error parameter")
    live = np.flatnonzero(finite)
    end = pulse.times[-1:]
    try:
        # an overflowing cell ends non-finite, and its merit flags it
        with np.errstate(over="ignore", invalid="ignore"):
            finals = _final_states(pulse, M0, a_cells[live], d_cells[live])
    except Exception as exc:
        reasons.update(dict.fromkeys(live, type(exc).__name__))
        finals = ()
    for c, M in zip(live, finals):
        try:
            value = float(merit(Trajectory(end, M[None])))
        except Exception as exc:
            reasons[c] = type(exc).__name__
            continue
        if math.isfinite(value):
            values[c] = value
        else:
            reasons[c] = "non-finite merit"

    values = values.reshape(len(alpha), len(delta))
    flags = np.isnan(values).astype(np.int64)
    meta = {"merit": getattr(merit, "__name__", str(merit)),
            "M0": [float(x) for x in M0],
            "pulse": pulse_sidecar_meta(pulse)}
    if reasons:
        meta["failed_cells"] = [{"index": list(divmod(int(c), len(delta))),
                                 "reason": reasons[c]} for c in sorted(reasons)]
    return RobustnessMap(alpha_grid=alpha, delta_grid=delta, values=values,
                         flags=flags, meta=meta)


def write_map_csv(rmap: RobustnessMap, path, sidecar: bool = True) -> str:
    """CSV rows alpha,delta,J,flag in grid order plus a JSON sidecar.
    Returns the sha256 hex digest of the CSV's bytes."""
    alpha, delta = rmap.alpha_grid, rmap.delta_grid
    digest = _util.write_csv(path, "alpha,delta,J,flag", np.column_stack(
        [np.repeat(alpha, len(delta)), np.tile(delta, len(alpha)),
         rmap.values.ravel(), rmap.flags.ravel()]))
    if sidecar:
        _util.dump_json({"alpha_grid": [float(x) for x in rmap.alpha_grid],
                         "delta_grid": [float(x) for x in rmap.delta_grid],
                         "meta": rmap.meta}, str(path) + ".json")
    return digest


def fit_log_period(p: TopParameters, eps_samples,
                   family: Family = Family.ROTATING):
    """Least-squares fit T(eps) = a ln(1/eps) + b over the samples.

    Needs at least 3 samples spanning at least two decades of eps.
    Returns (a, b, r_squared).
    """
    eps = np.asarray(eps_samples, dtype=float)
    if eps.ndim != 1 or len(eps) < 3:
        raise ValueError("need at least 3 eps samples")
    # a normal eps keeps 1 / eps and the span ratio finite
    if not np.all((eps >= np.finfo(float).tiny) & (eps < 1.0)):
        raise ValueError("eps samples must be normal floats in (0, 1)")
    if np.max(eps) / np.min(eps) < 100.0:
        raise ValueError("eps samples must span at least two decades")
    x = np.log(1.0 / eps)
    y = np.array([transfer_period(p, float(e), family) for e in eps])
    a, b = np.polyfit(x, y, 1)
    resid = y - (a * x + b)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(a), float(b), r2
