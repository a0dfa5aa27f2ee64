"""Propagation of sampled pulses: Bloch vector, SO(3) and SU(2) lifts.

A pulse drives M' = Omega(t) x M.  The same motion lifts to the spin
half Schroedinger equation U' = -i H U with H = (Omega . sigma) / 2,
so the accumulated SU(2) propagator always covers the SO(3) rotation:
adjoint_map(U(t)) = R(t).

Each sampling interval is integrated with its field frozen at the
average of the endpoint samples and exponentiated exactly, as the unit
quaternion (cos(phi/2), sin(phi/2) n) of its rotation by phi about n.
Every step is therefore an exact rotation and the trajectory error is
second order in the sample spacing.  Static errors rescale the drive
components by (1 + alpha) and shift the third component by delta before
stepping.  One kernel composes the steps by the Hamilton product, in a
prefix scan for paths and a pairwise reduction for final propagators,
and reads rotation matrices, spinors q0 - i (q1, q2, q3) . sigma and
Bloch vectors out of the accumulated quaternions.

The kernel is batched: steps, scan and reduction carry a leading axis of
error pairs (alpha, delta).  The reduction pairs steps from the last one
down, which is the product tree of the scan's last element, so a final
propagator equals the endpoint of its path bit for bit, whether it is
computed alone or inside a batch.

A private mirror route (_mirror_final) serves gate design: the fields of
an unrotated transfer or loop pulse on its own grid are mirror-symmetric
about the midpoint, so the final propagator follows from the product of
the first half's steps, a sign flip and the middle step.  It takes no
error parameters.  The public propagators never use it and compose every
step of whatever pulse they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _util

_SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)
_ONE = np.array([1.0, 0.0, 0.0, 0.0])  # identity quaternion


@dataclass(frozen=True)
class ErrorParams:
    """Static drive miscalibration alpha and detuning offset delta."""

    alpha: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.alpha, self.delta])):
            raise ValueError("alpha and delta must be finite")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Bloch vector samples M (n, 3) at the pulse times."""

    times: np.ndarray
    M: np.ndarray


@dataclass(frozen=True, eq=False)
class PropagatorPath:
    """Accumulated propagators at the pulse times; R is (n, 3, 3) real,
    U is (n, 2, 2) complex, whichever the producing routine fills."""

    times: np.ndarray
    R: np.ndarray | None = None
    U: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class AxisAnglePath:
    """Rotation axis and angle of an accumulated propagator.

    angle lies in [0, 2 pi]; axis is unit and chosen continuously in t,
    so it may be the negative of the naive representative.  Samples
    whose rotation is too close to the identity (or a full turn) to
    define an axis carry the previous axis and a True degenerate flag.
    """

    times: np.ndarray
    axis: np.ndarray
    angle: np.ndarray
    degenerate: np.ndarray


def _steps(pulse, alpha, delta):
    """Quaternions (B, n - 1, 4) of every sampling interval, one row per
    error pair (alpha[b], delta[b]): the rotation by the endpoint-averaged
    effective field times the interval length."""
    alpha = np.asarray(alpha, dtype=float)[:, None, None]
    delta = np.asarray(delta, dtype=float)[:, None]
    gain = np.ones((len(alpha), 1, 3))
    gain[..., :2] = 1.0 + alpha
    shift = np.zeros((len(delta), 1, 3))
    shift[..., 2] = delta
    w = pulse.fields * gain + shift
    phi_vec = 0.5 * (w[:, 1:] + w[:, :-1]) * np.diff(pulse.times)[:, None]
    phi = _norm(phi_vec)
    scale = np.sin(0.5 * phi) / np.where(phi == 0.0, 1.0, phi)
    return np.concatenate([np.cos(0.5 * phi)[..., None],
                           phi_vec * scale[..., None]], axis=-1)


def _qmul(p, q):
    """Hamilton product p q of quaternion arrays (..., 4); q acts first."""
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty_like(p)
    out[..., 0] = pw * qw - px * qx - py * qy - pz * qz
    out[..., 1] = pw * qx + px * qw + py * qz - pz * qy
    out[..., 2] = pw * qy - px * qz + py * qw + pz * qx
    out[..., 3] = pw * qz + px * qy - py * qx + pz * qw
    return out


def _norm(v):
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def _unit(P):
    # rounding moves products off the unit sphere, under a nearly constant
    # drive the same way at every step: rescale once at the end
    return P / _norm(P)[..., None]


def _with_identity(steps):
    P = np.empty(steps.shape[:-2] + (steps.shape[-2] + 1, 4))
    P[..., 0, :] = _ONE
    P[..., 1:, :] = steps
    return P


def _scan(steps):
    """All left-accumulated products along axis -2: out[..., i, :] =
    steps[i-1] ... steps[0], with out[..., 0, :] = 1.  Logarithmic number
    of vectorized passes."""
    P = _with_identity(steps)
    s = 1
    while s < P.shape[-2]:
        P[..., s:, :] = _qmul(P[..., s:, :], P[..., :-s, :])
        s *= 2
    return _unit(P)


def _reduce(steps):
    """Final products steps[-1] ... steps[0] along axis -2 by pairwise
    reduction.  Pairs are anchored at the last step and an odd leading
    element is carried, which is the product tree of the last entry of
    _scan, so the result equals _scan(steps)[..., -1, :] bit for bit."""
    P = _with_identity(steps)
    while P.shape[-2] > 1:
        odd = P.shape[-2] % 2
        half = _qmul(P[..., 1 + odd::2, :], P[..., odd::2, :])
        P = np.concatenate([P[..., :1, :], half], axis=-2) if odd else half
    return _unit(P)[..., 0, :]


def _rotations(q):
    """Rotation matrices (..., 3, 3) of unit quaternions (..., 4)."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    R[..., 0, 1] = 2.0 * (x * y - w * z)
    R[..., 0, 2] = 2.0 * (x * z + w * y)
    R[..., 1, 0] = 2.0 * (x * y + w * z)
    R[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    R[..., 1, 2] = 2.0 * (y * z - w * x)
    R[..., 2, 0] = 2.0 * (x * z - w * y)
    R[..., 2, 1] = 2.0 * (y * z + w * x)
    R[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return R


def _spinors(q):
    """SU(2) matrices q0 - i (q1, q2, q3) . sigma of quaternions (..., 4)."""
    shape = q.shape[:-1] + (2, 2)
    U = (q[..., 1:] @ _SIGMA.reshape(3, 4)).reshape(shape)
    # in place: complex (n, 2, 2) temporaries set the peak memory of a path
    np.multiply(1j, U, out=U)
    return np.subtract(q[..., :1, None] * np.eye(2), U, out=U)


def spinor_quaternion(U):
    """Quaternions (..., 4) of SU(2) elements (..., 2, 2); inverts the
    spinor read-out of the propagators exactly."""
    U = np.asarray(U, dtype=complex)
    q = np.empty(U.shape[:-2] + (4,))
    q[..., 0] = 0.5 * np.real(U[..., 0, 0] + U[..., 1, 1])
    q[..., 1] = 0.5 * np.real(1.0j * (U[..., 0, 1] + U[..., 1, 0]))
    q[..., 2] = 0.5 * np.real(U[..., 1, 0] - U[..., 0, 1])
    q[..., 3] = 0.5 * np.real(1.0j * (U[..., 0, 0] - U[..., 1, 1]))
    return q


def _state(M0):
    M0 = np.asarray(M0, dtype=float)
    if M0.shape != (3,):
        raise ValueError("M0 must be a vector of shape (3,)")
    return M0


# a single pair drops the batch axis before composing: numpy's loops run
# measurably slower on (1, n, 4) slices than on (n, 4) ones
def _path(pulse, err: ErrorParams):
    return _scan(_steps(pulse, [err.alpha], [err.delta])[0])


def _final(pulse, err: ErrorParams):
    return _reduce(_steps(pulse, [err.alpha], [err.delta])[0])


def _mirror_final(half):
    """Final quaternion of a mirror-symmetric field table from its first
    half (a pulsegen._MirrorHalf), with no error parameters.

    Mirrored intervals carry the fields phi and -J phi, J the pi rotation
    about e_axis, so their steps are q and J q^-1 J^-1.  With A the
    product of the first-half steps and M the middle step (n even only),
    the whole table propagates by J A^-1 J^-1 . M . A, and J A^-1 J^-1 is
    A with the sign of its component along e_axis flipped.
    """
    steps = _steps(half, [0.0], [0.0])[0]
    A = _reduce(steps[:-1] if half.middle else steps)
    mirror = A.copy()  # J A^-1 J^-1
    mirror[half.axis] = -mirror[half.axis]
    MA = _qmul(steps[-1], A) if half.middle else A
    return _unit(_qmul(mirror, MA))


def bloch_propagate(pulse, M0, err: ErrorParams = ErrorParams()) -> Trajectory:
    """Drive the vector M0 through the pulse.  Returns all samples."""
    return Trajectory(pulse.times, _rotations(_path(pulse, err)) @ _state(M0))


def _final_states(pulse, M0, alpha, delta):
    """Final Bloch vectors (B, 3) of M0 under the pulse, one per error
    pair (alpha[b], delta[b]).  Row b has the bits of the last sample of
    bloch_propagate under that pair, whatever the rest of the batch."""
    return _rotations(_reduce(_steps(pulse, alpha, delta))) @ _state(M0)


def so3_propagate(pulse, err: ErrorParams = ErrorParams()) -> PropagatorPath:
    return PropagatorPath(pulse.times, R=_rotations(_path(pulse, err)))


def su2_propagate(pulse, err: ErrorParams = ErrorParams()) -> PropagatorPath:
    return PropagatorPath(pulse.times, U=_spinors(_path(pulse, err)))


def so3_final(pulse, err: ErrorParams = ErrorParams()):
    """Final rotation only; the last element of so3_propagate, without
    the path."""
    return _rotations(_final(pulse, err))


def su2_final(pulse, err: ErrorParams = ErrorParams()):
    return _spinors(_final(pulse, err))


def adjoint_map(U):
    """SO(3) rotation covered by the SU(2) element U.  Batched."""
    U = np.asarray(U, dtype=complex)
    Ud = np.conj(np.swapaxes(U, -1, -2))
    R = np.empty(U.shape[:-2] + (3, 3))
    for j in range(3):
        M = U @ _SIGMA[j] @ Ud
        for i in range(3):
            R[..., i, j] = 0.5 * np.real(
                np.einsum("...ab,...ba->...", _SIGMA[i], M))
    return R


def gate_fidelity(U, V) -> float:
    """|tr(U^dag V)| / 2: equals 1 iff the gates agree up to global phase."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    return float(0.5 * np.abs(np.trace(U.conj().T @ V)))


def axis_angle_path(upath: PropagatorPath, tol: float = 1e-12) -> AxisAnglePath:
    """Axis-angle reading of an SU(2) propagator path."""
    if upath.U is None:
        raise ValueError("axis_angle_path needs an SU(2) path")
    q = spinor_quaternion(upath.U)
    # keep the double cover continuous in time
    flips = np.cumprod(np.where(np.sum(q[1:] * q[:-1], axis=1) < 0.0, -1.0, 1.0))
    q[1:] *= flips[:, None]
    s = np.linalg.norm(q[:, 1:], axis=1)
    angle = 2.0 * np.arctan2(s, q[:, 0])
    degenerate = s < tol
    axis = q[:, 1:] / np.where(degenerate, 1.0, s)[:, None]
    if degenerate[0]:
        axis[0] = (0.0, 0.0, 1.0)
    # each degenerate sample takes the axis of the last live one
    live = np.maximum.accumulate(np.where(degenerate, 0, np.arange(len(q))))
    axis = axis[live]
    return AxisAnglePath(upath.times, axis, angle, degenerate)


def _trajectory_and_axis_angle(pulse, M0, err: ErrorParams):
    """bloch_propagate(pulse, M0, err) and axis_angle_path(su2_propagate(
    pulse, err)) from one scan.  Both read the same quaternions through
    the same formulas as the public pair, so the bits are theirs."""
    q = _path(pulse, err)
    traj = Trajectory(pulse.times, _rotations(q) @ _state(M0))
    return traj, axis_angle_path(PropagatorPath(pulse.times, U=_spinors(q)))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    _util.write_csv(path, "t,M1,M2,M3", np.column_stack([traj.times, traj.M]))


def write_axis_angle_csv(aap: AxisAnglePath, path, scale: float = 1.0) -> None:
    """Row per time sample: t * scale, axis, angle, then 1 for a
    degenerate sample and 0 otherwise."""
    _util.write_csv(path, "t,n1,n2,n3,angle,degenerate", np.column_stack(
        [aap.times * scale, aap.axis, aap.angle,
         aap.degenerate.astype(float)]))


def write_propagator_csv(ppath: PropagatorPath, path) -> None:
    """Row per time sample: R entries row-major, then Re/Im of each U entry."""
    cols = [np.asarray(ppath.times)]
    names = ["t"]
    if ppath.R is not None:
        for i in range(3):
            for j in range(3):
                cols.append(ppath.R[:, i, j])
                names.append(f"R{i + 1}{j + 1}")
    if ppath.U is not None:
        for i in range(2):
            for j in range(2):
                cols.append(np.real(ppath.U[:, i, j]))
                cols.append(np.imag(ppath.U[:, i, j]))
                names.append(f"ReU{i + 1}{j + 1}")
                names.append(f"ImU{i + 1}{j + 1}")
    _util.write_csv(path, ",".join(names), np.column_stack(cols))
