"""Control pulses built from rigid-body trajectories.

A trajectory L(t) of the free top turns into a drive for a precessing
unit vector by reading off the instantaneous rotation axis

    Omega(t) = (L1(t), 0, k**2 L3(t))

so closed orbits give pole-to-pole transfer pulses and the separatrix
gives the hyperbolic-secant sweep with a tanh frequency chirp.  Pulses
are sampled field tables; the propagators treat each interval with the
field averaged over its endpoints, so sample counts set the accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _util
from .topdyn import Family, TopParameters, _orbit_point, orbit_constants

_FIELD_NAMES = ("times", "omega1", "omega2", "omega3")

# Lab frame used by spin-resonance hardware: the unstable body pole e3
# maps to +y, the drive component e1 stays on x, and e2 maps to -z, so
# a transfer pulse becomes a transverse rf field in the x-y plane.
NMR_FRAME = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
])


@dataclass(frozen=True, eq=False)
class ControlPulse:
    """Sampled three-component drive.

    times is non-decreasing; repeated times may appear where pulses
    were joined and denote zero-width samples that no propagator step
    ever integrates over.  Arrays are read-only.
    """

    times: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    omega3: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _FIELD_NAMES:
            a = np.array(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        t = self.times
        if t.ndim != 1 or t.size < 1:
            raise ValueError("times must be a 1-D array with at least one sample")
        for name in _FIELD_NAMES[1:]:
            if getattr(self, name).shape != t.shape:
                raise ValueError(f"{name} must match the shape of times")
        if np.any(np.diff(t) < 0.0):
            raise ValueError("times must be non-decreasing")

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def fields(self):
        """Samples stacked as an (n, 3) array."""
        return np.stack([self.omega1, self.omega2, self.omega3], axis=-1)


def _check_n(n: int):
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")


def _orbit_fields(p: TopParameters, es, family: Family, n: int, quarters: int,
                  u_offset: float = 0.0):
    """The field sampler of the orbits through tre_initial(p, eps, family),
    eps in es, on the n-point grid over quarters quarter periods, with the
    elliptic argument started u_offset past its near-pole point:
    fields(rows, lo, hi), rows a slice of es, is the block (4, r, hi - lo)
    of (times, omega1, omega2, omega3) of those r orbits over samples
    lo:hi.  Sample i is at i (end / (n - 1)), and sample n - 1 at end, the
    bits of np.linspace(0, end, n), so any block is that slice of the
    whole one.  Each orbit's constants are built once, here, and every
    block reads L1 and L3 off them through topdyn._orbit_point, with the
    bits of analytic_trajectory's L1 and L3.  Every orbit pulse and
    mirror half is sampled here, so a half has its full pulse's bits."""
    _check_n(n)
    orbits = [orbit_constants(p, eps, family) for eps in map(float, es)]

    def fields(rows, lo, hi):
        block = np.zeros((4, len(orbits[rows]), hi - lo))
        for row, oc in zip(block.transpose(1, 0, 2), orbits[rows]):
            end = quarters * oc.K / oc.omega
            np.multiply(np.arange(lo, hi), end / (n - 1), out=row[0])
            if hi == n:
                row[0, -1] = end
            # the shifted times are staged in the omega1 row, which L1 then
            # overwrites, so no times array beside the block is held
            np.add(row[0], u_offset / oc.omega, out=row[1])
            L1, _, L3 = _orbit_point(oc, family, row[1])
            row[1], row[3] = L1, p.k**2 * L3
        return block

    return fields


def tre_pulse(p: TopParameters, eps: float, family: Family, n: int = 2048) -> ControlPulse:
    """Pole-to-pole transfer pulse from a closed orbit passing eps from +e3."""
    table = _orbit_fields(p, [eps], family, n, 2)(slice(None), 0, n)
    meta = {"kind": "tre", "k": p.k, "eps": eps, "family": family.value, "n": n}
    return ControlPulse(*table[:, 0], meta)


def tre_loop_pulse(p: TopParameters, eps: float, family: Family, n: int = 2048,
                   u_offset: float = 0.0) -> ControlPulse:
    """Full-orbit pulse; u_offset shifts the starting phase of the
    elliptic argument away from the near-pole point."""
    table = _orbit_fields(p, [eps], family, n, 4, u_offset)(slice(None), 0, n)
    meta = {"kind": "tre_loop", "k": p.k, "eps": eps, "family": family.value,
            "n": n, "u_offset": u_offset}
    return ControlPulse(*table[:, 0], meta)


class _MirrorHalf(NamedTuple):
    """First halves of field tables that are mirror-symmetric about their
    midpoints, one per row: samples 0 .. n // 2 of n-sample grids, so
    samples = n // 2 + 1, read through the sampler fields, whose
    fields(rows, lo, hi) is the (times, omega1, omega2, omega3) of a slice
    of rows over samples lo:hi (_orbit_fields).  middle marks that the
    last interval is the middle one (n even), and the pi rotation about
    e_axis maps each field step of a first half onto the negative of its
    mirror step in the second."""

    fields: Callable
    rows: int
    samples: int
    middle: bool
    axis: int


def _mirror_half(p: TopParameters, es, family: Family, n: int,
                 loop: bool) -> _MirrorHalf:
    """First halves, one row per eps in es, of the unrotated tre_pulse
    (loop False) or tre_loop_pulse (loop True, u_offset 0) grids, without
    a ControlPulse or a table; row j has the bits of the first n // 2 + 1
    samples of that pulse at es[j].

    About the midpoint of the transfer (u = 2K) omega1 is even and omega3
    odd, so J is the pi rotation about e3 in both families.  About the
    midpoint of the loop (u = 3K) both are even on a rotating orbit (J
    about e2), while an oscillating orbit has omega1 odd and omega3 even
    (J about e1).
    """
    fields = _orbit_fields(p, es, family, n, 4 if loop else 2)
    if not loop:
        axis = 3
    else:
        axis = 2 if family is Family.ROTATING else 1
    return _MirrorHalf(fields, len(es), n // 2 + 1, n % 2 == 0, axis)


def allen_eberly_pulse(p: TopParameters, t0: float = 0.0, half_width: float = 12.0,
                       n: int = 2048, sign1: int = +1, sign3: int = +1) -> ControlPulse:
    """Hyperbolic-secant drive sech(s)/kp with frequency sweep k*tanh(s)/kp.

    Sampled for s = t + t0 on [-half_width, half_width] and shifted so the
    grid starts at 0.  half_width counts e-folds of the sech, so the drive
    is truncated at relative amplitude sech(half_width).  sign1 flips the
    drive, sign3 the sweep direction; the inversion is exact either way.
    These are the separatrix fields of the free top expressed in the
    rescaled time s = k*kp*t_body (amplitudes divided by the same factor).
    """
    _check_n(n)
    if not 0.0 < 2.0 * half_width < math.inf:
        raise ValueError("half_width must be positive with a finite span "
                         f"2 * half_width, got {half_width}")
    if sign1 not in (-1, 1) or sign3 not in (-1, 1):
        raise ValueError("sign1 and sign3 must be +1 or -1")
    k = p.k
    kp = math.sqrt(1.0 - k**2)
    times = np.linspace(0.0, 2.0 * half_width, n)
    s = times - half_width + t0
    # cosh overflows past |s| ~ 710, where the drive is 0 to double precision
    with np.errstate(over="ignore"):
        w1 = sign1 / (kp * np.cosh(s))
    w3 = sign3 * k * np.tanh(s) / kp
    meta = {"kind": "allen_eberly", "k": k, "t0": t0, "half_width": half_width,
            "n": n, "sign1": sign1, "sign3": sign3}
    return ControlPulse(times, w1, np.zeros(n), w3, meta)


def rect_pi_pulse(amplitude: float, n: int = 2048) -> ControlPulse:
    """Constant drive on axis 1 with area pi."""
    _check_n(n)
    if not (amplitude > 0.0 and math.pi / amplitude < math.inf):
        raise ValueError("amplitude must be positive with a finite span "
                         f"pi / amplitude, got {amplitude}")
    times = np.linspace(0.0, math.pi / amplitude, n)
    w1 = np.full(n, amplitude)
    meta = {"kind": "rect_pi", "amplitude": amplitude, "n": n}
    return ControlPulse(times, w1, np.zeros(n), np.zeros(n), meta)


def concat(pulses) -> ControlPulse:
    """Join pulses end to end.

    The joint sample of each boundary appears twice (once as the end of
    one segment, once as the start of the next) so the field tables of
    the segments are preserved exactly and the propagator of the result
    equals the product of the segment propagators.
    """
    pulses = list(pulses)
    if not pulses:
        raise ValueError("need at least one pulse")
    times = [pulses[0].times]
    for prev, cur in zip(pulses, pulses[1:]):
        times.append(cur.times - cur.times[0] + times[-1][-1])
    cat = lambda name: np.concatenate([getattr(q, name) for q in pulses])
    meta = {"kind": "concat", "parts": [q.meta for q in pulses]}
    return ControlPulse(np.concatenate(times), cat("omega1"), cat("omega2"),
                        cat("omega3"), meta)


def transform_pulse(pulse: ControlPulse, *, reverse: bool = False,
                    s1: int = 1, s2: int = 1, s3: int = 1) -> ControlPulse:
    """Time reversal and per-component sign flips of the field table."""
    for s in (s1, s2, s3):
        if s not in (1, -1):
            raise ValueError("signs must be +1 or -1")
    t = pulse.times
    w = [pulse.omega1, pulse.omega2, pulse.omega3]
    if reverse:
        t = t[0] + (t[-1] - t[::-1])
        w = [x[::-1] for x in w]
    meta = {"kind": "transform", "reverse": reverse, "signs": [s1, s2, s3],
            "base": pulse.meta}
    return ControlPulse(t, s1 * w[0], s2 * w[1], s3 * w[2], meta)


def inverse_pulse(pulse: ControlPulse) -> ControlPulse:
    """Pulse whose propagator is the exact inverse of the input's.

    Runs the field table backwards with all components negated; the
    discrete propagator steps invert pairwise, so the inversion is
    exact for the sampled dynamics, not just in the continuum limit.
    """
    t = pulse.times
    meta = {"kind": "inverse", "base": pulse.meta}
    return ControlPulse(t[0] + (t[-1] - t[::-1]), -pulse.omega1[::-1],
                        -pulse.omega2[::-1], -pulse.omega3[::-1], meta)


def rotate_pulse(pulse: ControlPulse, R) -> ControlPulse:
    """Apply a fixed proper rotation R to every field sample.  Component
    i is (R_i0 omega1 + R_i1 omega2) + R_i2 omega3, summed in that order
    with no BLAS call, so its bits do not depend on the host's kernels."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)) \
            or np.max(np.abs(R.T @ R - np.eye(3))) > 1e-10 \
            or np.linalg.det(R) < 0.0:
        raise ValueError("R must be a proper rotation matrix")
    f = (pulse.omega1, pulse.omega2, pulse.omega3)
    w = [(r[0] * f[0] + r[1] * f[1]) + r[2] * f[2] for r in R.tolist()]
    meta = {"kind": "rotate", "matrix": R.tolist(), "base": pulse.meta}
    return ControlPulse(pulse.times, *w, meta)


def nmr_frame(pulse: ControlPulse) -> ControlPulse:
    """Rotate body-frame fields into the spin-resonance lab frame."""
    return rotate_pulse(pulse, NMR_FRAME)


def pulse_area(pulse: ControlPulse, component: int = 0) -> float:
    """Time integral of one field component (trapezoid rule)."""
    w = (pulse.omega1, pulse.omega2, pulse.omega3)[component]
    return float(np.trapezoid(w, pulse.times))


def pulse_sidecar_meta(pulse: ControlPulse) -> dict:
    """Export metadata: pulse family tag plus the parameters that define it."""
    m = pulse.meta
    return {"family": m.get("kind"), "k": m.get("k"), "eps": m.get("eps"),
            "duration": pulse.duration, "n": pulse.n_samples}


def write_pulse_csv(pulse: ControlPulse, path, sidecar: bool = True) -> str:
    """Write t,omega1,omega2,omega3 rows; a .json sidecar carries the meta.
    Returns the sha256 hex digest of the CSV's bytes."""
    digest = _util.write_csv(path, "t,omega1,omega2,omega3", np.column_stack(
        [pulse.times, pulse.omega1, pulse.omega2, pulse.omega3]))
    if sidecar:
        _util.dump_json(pulse_sidecar_meta(pulse), str(path) + ".json")
    return digest


def read_pulse_csv(path) -> ControlPulse:
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    if data.shape[1] != 4:
        raise ValueError(f"expected 4 columns in {path}, got {data.shape[1]}")
    meta = {"kind": "csv", "path": str(path)}
    return ControlPulse(data[:, 0], data[:, 1], data[:, 2], data[:, 3], meta)
