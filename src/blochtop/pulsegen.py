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
from typing import NamedTuple

import numpy as np

from . import _util
from .topdyn import Family, TopParameters, analytic_trajectory, orbit_constants

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


def _top_fields(p: TopParameters, L):
    return L[..., 0], np.zeros(L.shape[:-1]), p.k**2 * L[..., 2]


def tre_pulse(p: TopParameters, eps: float, family: Family, n: int = 2048) -> ControlPulse:
    """Pole-to-pole transfer pulse from a closed orbit passing eps from +e3."""
    _check_n(n)
    oc = orbit_constants(p, eps, family)
    times = np.linspace(0.0, 2.0 * oc.K / oc.omega, n)
    w1, w2, w3 = _top_fields(p, analytic_trajectory(p, eps, family, times))
    meta = {"kind": "tre", "k": p.k, "eps": eps, "family": family.value, "n": n}
    return ControlPulse(times, w1, w2, w3, meta)


def tre_loop_pulse(p: TopParameters, eps: float, family: Family, n: int = 2048,
                   u_offset: float = 0.0) -> ControlPulse:
    """Full-orbit pulse; u_offset shifts the starting phase of the
    elliptic argument away from the near-pole point."""
    _check_n(n)
    oc = orbit_constants(p, eps, family)
    times = np.linspace(0.0, 4.0 * oc.K / oc.omega, n)
    L = analytic_trajectory(p, eps, family, times + u_offset / oc.omega)
    w1, w2, w3 = _top_fields(p, L)
    meta = {"kind": "tre_loop", "k": p.k, "eps": eps, "family": family.value,
            "n": n, "u_offset": u_offset}
    return ControlPulse(times, w1, w2, w3, meta)


class _MirrorHalf(NamedTuple):
    """First half of a field table that is mirror-symmetric about its
    midpoint: samples 0 .. n // 2 of the n-sample grid, with the field
    components named as on a ControlPulse.  middle marks that the last
    interval is the middle one (n even), and the pi rotation about
    e_axis maps each field step of the first half onto the negative of
    its mirror step in the second."""

    times: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    omega3: np.ndarray
    middle: bool
    axis: int


def _mirror_half(p: TopParameters, eps: float, family: Family, n: int,
                 loop: bool) -> _MirrorHalf:
    """First half of the unrotated tre_pulse (loop False) or
    tre_loop_pulse (loop True, u_offset 0) grid, without a ControlPulse.

    About the midpoint of the transfer (u = 2K) omega1 is even and omega3
    odd, so J is the pi rotation about e3 in both families.  About the
    midpoint of the loop (u = 3K) both are even on a rotating orbit (J
    about e2), while an oscillating orbit has omega1 odd and omega3 even
    (J about e1).
    """
    _check_n(n)
    oc = orbit_constants(p, eps, family)
    times = np.linspace(0.0, (4.0 if loop else 2.0) * oc.K / oc.omega, n)
    times = times[:n // 2 + 1]
    fields = _top_fields(p, analytic_trajectory(p, eps, family, times))
    if not loop:
        axis = 3
    else:
        axis = 2 if family is Family.ROTATING else 1
    return _MirrorHalf(times, *fields, n % 2 == 0, axis)


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
    if half_width <= 0.0:
        raise ValueError("half_width must be positive")
    if sign1 not in (-1, 1) or sign3 not in (-1, 1):
        raise ValueError("sign1 and sign3 must be +1 or -1")
    k = p.k
    kp = math.sqrt(1.0 - k**2)
    times = np.linspace(0.0, 2.0 * half_width, n)
    s = times - half_width + t0
    w1 = sign1 / (kp * np.cosh(s))
    w3 = sign3 * k * np.tanh(s) / kp
    meta = {"kind": "allen_eberly", "k": k, "t0": t0, "half_width": half_width,
            "n": n, "sign1": sign1, "sign3": sign3}
    return ControlPulse(times, w1, np.zeros(n), w3, meta)


def rect_pi_pulse(amplitude: float, n: int = 2048) -> ControlPulse:
    """Constant drive on axis 1 with area pi."""
    _check_n(n)
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
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
    """Apply a fixed proper rotation R to every field sample."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)) \
            or np.max(np.abs(R.T @ R - np.eye(3))) > 1e-10 \
            or np.linalg.det(R) < 0.0:
        raise ValueError("R must be a proper rotation matrix")
    w = pulse.fields @ R.T
    meta = {"kind": "rotate", "matrix": R.tolist(), "base": pulse.meta}
    return ControlPulse(pulse.times, w[:, 0], w[:, 1], w[:, 2], meta)


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


def write_pulse_csv(pulse: ControlPulse, path, sidecar: bool = True) -> None:
    """Write t,omega1,omega2,omega3 rows; a .json sidecar carries the meta."""
    _util.write_csv(path, "t,omega1,omega2,omega3", np.column_stack(
        [pulse.times, pulse.omega1, pulse.omega2, pulse.omega3]))
    if sidecar:
        _util.dump_json(pulse_sidecar_meta(pulse), str(path) + ".json")


def read_pulse_csv(path) -> ControlPulse:
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    if data.shape[1] != 4:
        raise ValueError(f"expected 4 columns in {path}, got {data.shape[1]}")
    meta = {"kind": "csv", "path": str(path)}
    return ControlPulse(data[:, 0], data[:, 1], data[:, 2], data[:, 3], meta)
