"""Propagation of sampled pulses: Bloch vector, SO(3) and SU(2) lifts.

A pulse drives M' = Omega(t) x M.  The same motion lifts to the spin
half Schroedinger equation U' = -i H U with H = (Omega . sigma) / 2,
so the accumulated SU(2) propagator always covers the SO(3) rotation:
adjoint_map(U(t)) = R(t).

Each sampling interval is integrated with its field frozen at the
average of the endpoint samples and exponentiated exactly, as the
Cayley-Klein pair (a, c) of its rotation by phi about n: the SU(2)
element U = [[a, -c*], [c, a*]] with a = cos(phi/2) - i sin(phi/2) n3
and c = sin(phi/2) (n2 - i n1).  Every step is therefore an exact
rotation and the trajectory error is second order in the sample
spacing.  Static errors rescale the drive components by (1 + alpha) and
shift the third component by delta before stepping.  One kernel composes
the steps by the product of pairs, a = a_p a_q - c_p* c_q and
c = c_p a_q + a_p* c_q, in a prefix scan for paths and a pairwise
reduction for final propagators, and reads rotation matrices, spinors
and Bloch vectors out of the accumulated pairs.

The kernel is batched and has one step layout: planes (2, B, n), a and
c each one contiguous complex plane along the sample axis, a leading
axis of error pairs (alpha, delta), and the identity in slot 0 ahead of
the n - 1 steps.  Steps are made in two stages: an effective-field stage
gives each interval's rotation vector, and one builder writes the pairs
of those rotations straight into the planes, so no step is copied on
its way into the products.  The scan takes the planes it is given and
accumulates the products in place in them, the reduction folds them
pairwise in place in them, with its products in scratch planes, and
both read pairs (..., 2) out only at the end.  The reduction pairs
steps from the last one down, which is the product tree of the scan's
last element, so a final propagator equals the endpoint of its path bit
for bit, whether it is computed alone or inside a batch.  Every product
and norm runs on arrays that keep the sample axis, even a final one of
length 1: numpy rounds scalar arithmetic differently from its array
loops.

Sweeps (_final_states) take many error pairs in chunks of
_chunk_rows(n) rows, the batch rule that gate scans share.  Each call
allocates one workspace that every chunk rewrites: the fields, the
planes and the scratch of the fold.  A chunk is folded only until its
rows hold about _FOLD_PAIRS pairs, where numpy's call overhead starts
to outweigh the products; those short planes go to a tail shared by
many chunks, and each full tail is folded to the end, rescaled and
read out at once.  The fold is stopped and resumed on the same product
tree, so the bits stay those of a single-row final.  A sweep of
_FORK_SAMPLES samples or more, on a host with two usable CPUs, forks
once: a child propagates the chunks after the middle one and sends its
final pairs back through a pipe (_util._forked).  No pair depends on
another, so the bits are those of one process.

A private mirror route (_mirror_final) serves gate design: the fields of
an unrotated transfer or loop pulse on its own grid are mirror-symmetric
about the midpoint, so the final propagator follows from the product of
the first half's steps, a conjugation and the middle step.  It takes no
error parameters and propagates a stack of halves on one grid length,
one row per pulse, in one call.  The public propagators never use it
and compose every step of whatever pulse they are given.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import _util

# samples propagated per batch of sweep cells or gate scan points
# (_chunk_rows): large enough to share the numpy call overhead over many
# rows, small enough to keep peak memory flat
_CHUNK_SAMPLES = 2 ** 14

# error pairs x samples (B * n) from which _final_states forks.  A fork,
# the child's start and its exit cost about 5 ms at 35 MiB RSS on a
# shared 2-CPU host, and each fork's copy-on-write faults land on the
# work after it.  Split in two, 21 x 21 cells at n = 2049 took 59 ms
# against 77 and 11 x 11 at n = 8193 51 against 74 (medians of 9);
# 5 x 5 at n = 8193 (205k) broke even, and a 220k cutoff, which also
# splits 11 x 11 at n = 2049 and 21 x 21 at n = 513, made paired
# in-process sweep-maps cycles slower on 9 of 10 (586 against 544 ms)
_FORK_SAMPLES = 300_000

# a sweep chunk is folded until it holds at most this many pairs: below
# it numpy's call overhead outweighs the products, and the chunks share
# the rest of their folds
_FOLD_PAIRS = 1024

_SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)


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


def _pairs(S):
    """Pairs (..., m, 2) read from planes S (2, ..., m): S[0] holds a and
    S[1] holds c, each contiguous along the sample axis."""
    return np.moveaxis(S, 0, -1)


def _fields(pulse, alpha, delta, out):
    """Effective-field stage: the rotation vectors (v1, v2, v3) of every
    sampling interval, written into out[0], out[1] and out[2], each
    (B, n - 1), one row per error pair (alpha[b], delta[b]): the
    endpoint-averaged field, drive rescaled by 1 + alpha and third
    component shifted by delta, times the interval length.  out[3] is
    scratch.  Returns out."""
    gain = 1.0 + np.asarray(alpha, dtype=float)[:, None]
    delta = np.asarray(delta, dtype=float)[:, None]
    dt = np.diff(pulse.times)
    tmp = out[3]
    for v, w, shift, x in ((out[0], pulse.omega1, np.multiply, gain),
                           (out[1], pulse.omega2, np.multiply, gain),
                           (out[2], pulse.omega3, np.add, delta)):
        shift(w[..., 1:], x, out=v)
        shift(w[..., :-1], x, out=tmp)
        v += tmp
        v *= 0.5
        v *= dt
    return out


def _exp_pairs(v, out):
    """Planes out (2, ..., n) of the identity followed by the pairs of the
    rotations by the vectors (v1, v2, v3) = v[:3], each (..., n - 1): the
    planes the scan and the fold consume, written in place.  v[3:] is
    scratch.  Returns out."""
    v1, v2, v3, phi, half, s = v
    np.multiply(v1, v1, out=phi)
    np.multiply(v2, v2, out=half)
    phi += half
    np.multiply(v3, v3, out=half)
    phi += half
    np.sqrt(phi, out=phi)
    np.multiply(phi, 0.5, out=half)
    # the divisor of sin(phi / 2): phi, and 1 in place of a zero phi
    np.equal(phi, 0.0, out=s)
    phi += s
    np.sin(half, out=s)
    s /= phi
    out[0, ..., 0] = 1.0
    out[1, ..., 0] = 0.0
    a, c = out[0, ..., 1:], out[1, ..., 1:]
    np.cos(half, out=a.real)
    np.multiply(s, v2, out=c.real)
    np.negative(s, out=s)
    np.multiply(s, v3, out=a.imag)
    np.multiply(s, v1, out=c.imag)
    return out


def _step_planes(pulse, alpha, delta):
    """Planes (2, B, n) of the identity and every step of the pulse, one
    row per error pair."""
    lead = np.broadcast_shapes(np.shape(pulse.omega1)[:-1], (len(alpha),))
    n = np.shape(pulse.times)[-1]
    # six arrays, not one block: a long pulse's fields in one block raise
    # glibc's mmap threshold, and the heap then keeps more pages resident
    v = [np.empty(lead + (n - 1,)) for _ in range(6)]
    S = np.empty((2,) + lead + (n,), dtype=complex)
    return _exp_pairs(_fields(pulse, alpha, delta, v), S)


def _mul(p, q, out, scratch=None):
    """Product p q of pair planes (2, ..., m) into out; q acts first.  out
    may share memory with p or q.  The four products go to scratch, four
    contiguous (..., m) complex planes, allocated when None."""
    (pa, pc), (qa, qc) = p, q
    if scratch is None:
        scratch = np.empty((4,) + pa.shape, dtype=complex)
    w, x, y, z = scratch
    # no complex product is taken in place: numpy runs an in-place product
    # of one element through its reduction loop, which rounds differently
    np.multiply(np.conj(pc, out=y), qc, out=x)
    np.multiply(np.conj(pa, out=z), qc, out=y)
    np.multiply(pc, qa, out=z)
    np.multiply(pa, qa, out=w)
    np.subtract(w, x, out=out[0])
    np.add(z, y, out=out[1])
    return out


def _unit(S):
    """Pair planes S (2, ..., m) rescaled in place to unit norm."""
    # rounding moves products off the unit sphere, under a nearly constant
    # drive the same way at every step: rescale once at the end.  The
    # real and imaginary planes are divided by the real norm, since complex
    # division rounds differently
    x = S.view(float).reshape(S.shape + (2,))
    sq = np.square(x)
    x /= np.sqrt((sq[0, ..., 0] + sq[0, ..., 1])
                 + (sq[1, ..., 0] + sq[1, ..., 1]))[..., None]
    return S


def _scan(S):
    """Left-accumulated products of the planes S (2, ..., n) of the
    identity and the steps: entry i is S[..., i] ... S[..., 0].  A
    logarithmic number of vectorized passes, in place in S, which holds
    the scan afterwards; returns it as pairs (..., n, 2).  Every pass
    puts its products in a prefix of one scratch allocated per call."""
    lead, n = S.shape[1:-1], S.shape[-1]
    rows = math.prod(lead)
    scratch = np.empty(4 * rows * (n - 1), dtype=complex)
    s = 1
    while s < n:
        _mul(S[..., s:], S[..., :-s], S[..., s:],
             scratch[:4 * rows * (n - s)].reshape((4,) + lead + (n - s,)))
        s *= 2
    return _pairs(_unit(S))


def _fold(S, stop=1, scratch=None):
    """Fold the planes S (2, ..., n) pairwise, in place, down to the first
    length m <= stop of the halving sequence n, ceil(n / 2), ..., and
    return the planes S[..., :m]; folding those on to length 1 gives the
    product S[..., -1] ... S[..., 0].  Pairs are anchored at the last
    element and an odd leading element is carried in slot 0, which is
    the product tree of the last entry of _scan.  scratch is a flat
    complex array of at least 4 * B * (n // 2) elements, B the rows of
    S, allocated when None."""
    lead, m = S.shape[1:-1], S.shape[-1]
    rows = math.prod(lead)
    if scratch is None:
        scratch = np.empty(4 * rows * (m // 2), dtype=complex)
    while m > max(stop, 1):
        odd, k = m % 2, m // 2
        _mul(S[..., 1 + odd:m:2], S[..., odd:m:2], S[..., odd:odd + k],
             scratch[:4 * rows * k].reshape((4,) + lead + (k,)))
        m = odd + k
    return S[..., :m]


def _last(S, scratch=None):
    """Final pairs (..., 2) of the planes S (2, ..., n) of the identity
    and the steps.  S is always consumed: it is folded and rescaled in
    place, so it must not be read after this."""
    return _pairs(_unit(_fold(S, 1, scratch)))[..., 0, :]


def _rotations(q):
    """Rotation matrices (..., 3, 3) of unit pairs (..., 2)."""
    a, c = q[..., 0], q[..., 1]
    ar, ai, cr, ci = a.real, a.imag, c.real, c.imag
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1.0 - 2.0 * (cr * cr + ai * ai)
    R[..., 0, 1] = 2.0 * (ar * ai - ci * cr)
    R[..., 0, 2] = 2.0 * (ci * ai + ar * cr)
    R[..., 1, 0] = -2.0 * (ci * cr + ar * ai)
    R[..., 1, 1] = 1.0 - 2.0 * (ci * ci + ai * ai)
    R[..., 1, 2] = 2.0 * (ar * ci - cr * ai)
    R[..., 2, 0] = 2.0 * (ci * ai - ar * cr)
    R[..., 2, 1] = -2.0 * (cr * ai + ar * ci)
    R[..., 2, 2] = 1.0 - 2.0 * (ci * ci + cr * cr)
    return R


def _spinors(q):
    """SU(2) matrices [[a, -c*], [c, a*]] of pairs (..., 2)."""
    a, c = q[..., 0], q[..., 1]
    # written in place: complex (n, 2, 2) temporaries set the peak memory
    # of a path
    U = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    U[..., 0, 0] = a
    np.negative(np.conj(c, out=U[..., 0, 1]), out=U[..., 0, 1])
    U[..., 1, 0] = c
    np.conj(a, out=U[..., 1, 1])
    return U


def spinor_quaternion(U):
    """Quaternions (..., 4) of SU(2) elements (..., 2, 2), the q of
    U = q0 - i (q1, q2, q3) . sigma; inverts the spinor read-out of the
    propagators exactly."""
    U = np.asarray(U, dtype=complex)
    q = np.empty(U.shape[:-2] + (4,))
    q[..., 0] = 0.5 * np.real(U[..., 0, 0] + U[..., 1, 1])
    q[..., 1] = 0.5 * np.real(1.0j * (U[..., 0, 1] + U[..., 1, 0]))
    q[..., 2] = 0.5 * np.real(U[..., 1, 0] - U[..., 0, 1])
    q[..., 3] = 0.5 * np.real(1.0j * (U[..., 0, 0] - U[..., 1, 1]))
    return q


def _state(M0):
    M0 = np.asarray(M0, dtype=float)
    if M0.shape != (3,) or not np.all(np.isfinite(M0)):
        raise ValueError("M0 must be a finite vector of shape (3,)")
    return M0


def _one_row_planes(pulse, err: ErrorParams):
    """Planes (2, 1, n) of the identity and every step of the pulse under
    err.  A step whose rotation angle overflows would leave the path and
    the final propagator NaN, so it raises ValueError instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        S = _step_planes(pulse, [err.alpha], [err.delta])
    if not np.all(np.isfinite(S)):
        raise ValueError(f"alpha = {err.alpha}, delta = {err.delta}: a "
                         "step's rotation angle overflows")
    return S


def _path(pulse, err: ErrorParams):
    return _scan(_one_row_planes(pulse, err))[0]


def _final(pulse, err: ErrorParams):
    return _last(_one_row_planes(pulse, err))[0]


def _mirror_final(half):
    """Final pairs (B, 2) of mirror-symmetric field tables from their
    first halves (a pulsegen._MirrorHalf of (B, m) tables on grids of one
    length), with no error parameters; row b has the bits of a one-row
    half of row b alone.

    Mirrored intervals carry the fields phi and -J phi, J the pi rotation
    about e_axis, so their steps are q and J q^-1 J^-1.  With A the
    product of the first-half steps and M the middle step (n even only),
    the whole table propagates by J A^-1 J^-1 . M . A.  J A^-1 J^-1 is A
    with its component along e_axis negated: a -> a* about e3, c -> c*
    about e1 and c -> -c* about e2.
    """
    S = _step_planes(half, [0.0], [0.0])
    # the fold and the rescale run in place in S[..., :-1], which leaves
    # the middle step in S[..., -1:] untouched
    A = _unit(_fold(S[..., :-1] if half.middle else S))
    mirror = A.copy()  # J A^-1 J^-1
    if half.axis == 3:
        np.conj(mirror[0], out=mirror[0])
    else:
        np.conj(mirror[1], out=mirror[1])
        if half.axis == 2:
            np.negative(mirror[1], out=mirror[1])
    if half.middle:
        # the middle step keeps its sample axis of length 1
        A = _mul(S[..., -1:], A, np.empty_like(A))
    return _pairs(_unit(_mul(mirror, A, np.empty_like(A))))[..., 0, :]


def bloch_propagate(pulse, M0, err: ErrorParams = ErrorParams()) -> Trajectory:
    """Drive the vector M0 through the pulse.  Returns all samples."""
    return Trajectory(pulse.times, _rotations(_path(pulse, err)) @ _state(M0))


def _chunk_rows(samples: int) -> int:
    """Rows in one batch of sweep cells or gate scan points, a row
    holding samples samples: _CHUNK_SAMPLES samples a batch, and at
    least one row."""
    return max(1, _CHUNK_SAMPLES // samples)


def _final_pairs(pulse, alpha, delta, out):
    """Final pairs of the pulse into out (B, 2), one row per error pair
    (alpha[b], delta[b]), propagated in this process in chunks of
    _chunk_rows(n) pairs.  Returns out.

    One workspace is allocated per call and rewritten in place by every
    chunk.  Each chunk is folded down to the first length m of n's
    halving sequence with rows * m <= _FOLD_PAIRS, and its short planes
    are gathered in a tail of at most _CHUNK_SAMPLES pairs; each full
    tail is folded to the end and rescaled at once.  With no error pairs
    it allocates no workspace."""
    B, n = len(alpha), pulse.n_samples
    if not B:
        return out
    rows = min(B, _chunk_rows(n))
    m = n
    while rows * m > _FOLD_PAIRS and m > 1:
        m -= m // 2
    t = max(1, min(B, _CHUNK_SAMPLES // m))
    # one float workspace: the chunk's planes, the tail, and scratch that
    # holds the chunk's fields and then the products of either fold.  A
    # chunk of at most _CHUNK_SAMPLES samples needs at most 14 floats a
    # sample, and every such call asks for that much: the next sweep then
    # reuses the pages this one frees instead of growing the heap
    planes, tail = 4 * rows * n, 4 * t * m
    work = np.empty(max(14 * _CHUNK_SAMPLES, planes + tail + max(
        6 * rows * (n - 1), 8 * rows * (n // 2), 8 * t * (m // 2))))
    T = work[planes:planes + tail].view(complex).reshape(2, t, m)
    scratch = work[planes + tail:]
    products = scratch.view(complex)
    held = done = 0
    for start in range(0, B, rows):
        r = min(rows, B - start)
        S = work[:4 * r * n].view(complex).reshape(2, r, n)
        v = scratch[:6 * r * (n - 1)].reshape(6, r, n - 1)
        cells = slice(start, start + r)
        _exp_pairs(_fields(pulse, alpha[cells], delta[cells], v), S)
        S = _fold(S, m, products)
        j = 0
        while j < r:
            take = min(r - j, t - held)
            T[:, held:held + take] = S[:, j:j + take]
            held, j = held + take, j + take
            if held == t or start + j == B:
                out[done:done + held] = _last(T[:, :held], products)
                held, done = 0, done + held
    return out


def _pairs_child(r, w, pulse, alpha, delta) -> bool:
    """The forked half of _final_states, run by _util._forked.  It sends
    the bytes of its final pairs through w and returns True, or sends
    the pickle of the exception it raised (nothing, if that does not
    pickle) and returns False.  It makes no BLAS call: the parent reads
    the rotations out of the pairs."""
    os.close(r)
    try:
        data, ok = _final_pairs(pulse, alpha, delta, np.empty(
            (len(alpha), 2), dtype=complex)), True
    except Exception as exc:    # the parent raises it
        try:
            data, ok = pickle.dumps(exc), False
        except Exception:       # of a local class, say
            data, ok = b"", False
    _util._write_all(w, data)
    return ok


def _child_error(sent):
    """The exception the forked half of _final_states raised, from the
    bytes it sent, or ChildProcessError when they hold none."""
    try:
        return pickle.loads(sent)
    except Exception:    # nothing sent, or a pickle that does not load
        return ChildProcessError("the forked half of the sweep failed")


def _final_states(pulse, M0, alpha, delta):
    """Final Bloch vectors (B, 3) of M0 under the pulse, one per error
    pair (alpha[b], delta[b]).  Row b has the bits of the last sample of
    bloch_propagate under that pair, whatever the rest of the batch.

    The pairs are propagated by _final_pairs, _chunk_rows(n) at a time.
    A batch of _FORK_SAMPLES samples (B * n) or more, with at least two
    chunks, on a host with two usable CPUs, is split once on a chunk
    boundary: a forked child (_pairs_child) propagates the pairs after
    the split while this process propagates the rest, and the child
    sends its final pairs back through a pipe.  Every pair is propagated
    alone, so the bits are those of one process.  No child outlives the
    call, and the exception a child raised is raised here.  The
    rotations are read out of the pairs here, once for the batch.  With
    no error pairs it returns an empty (0, 3) array and allocates no
    workspace."""
    M0 = _state(M0)
    alpha = np.asarray(alpha, dtype=float)
    delta = np.asarray(delta, dtype=float)
    B = len(alpha)
    q = np.empty((B, 2), dtype=complex)
    n = pulse.n_samples
    h = _util._split(B, _chunk_rows(n), B * n, _FORK_SAMPLES)
    if not h:
        _final_pairs(pulse, alpha, delta, q)
    else:
        with _util._forked(
                lambda r, w: _pairs_child(r, w, pulse, alpha[h:], delta[h:]),
                lambda: _child_error(sent)) as (reader, writer):
            writer.close()
            _final_pairs(pulse, alpha[:h], delta[:h], q[:h])
            sent = reader.readall()
        q[h:] = np.frombuffer(sent, dtype=complex).reshape(B - h, 2)
    return _rotations(q) @ M0


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
    return _axis_angle(upath.times, spinor_quaternion(upath.U), tol)


def _pair_quaternion(q):
    """spinor_quaternion(_spinors(q)) of pairs (n, 2), read straight from
    (a, c) with its bits: 0.0 - x, not -x, keeps the spinor route's +0.0."""
    a, c = q[:, 0], q[:, 1]
    return np.column_stack([a.real, 0.0 - c.imag, c.real, 0.0 - a.imag])


def _axis_angle(times, q, tol):
    """AxisAnglePath of the quaternions q (n, 4), which it reorients in
    place."""
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
    return AxisAnglePath(times, axis, angle, degenerate)


def _trajectory_and_axis_angle(pulse, M0, err: ErrorParams):
    """bloch_propagate(pulse, M0, err) and axis_angle_path(su2_propagate(
    pulse, err)) from one scan.  Both read the same pairs, and the
    quaternions come straight from them with the spinor route's bits, so
    the bits are those of the public pair of calls."""
    q = _path(pulse, err)
    traj = Trajectory(pulse.times, _rotations(q) @ _state(M0))
    return traj, _axis_angle(pulse.times, _pair_quaternion(q), 1e-12)


def write_trajectory_csv(traj: Trajectory, path) -> str:
    """Row per time sample: t, M; returns the sha256 hex digest of the
    CSV's bytes."""
    return _util.write_csv(path, "t,M1,M2,M3",
                           np.column_stack([traj.times, traj.M]))


def write_axis_angle_csv(aap: AxisAnglePath, path, scale: float = 1.0) -> str:
    """Row per time sample: t * scale, axis, angle, then 1 for a
    degenerate sample and 0 otherwise.  Returns the sha256 hex digest of
    the CSV's bytes."""
    return _util.write_csv(path, "t,n1,n2,n3,angle,degenerate",
                           np.column_stack([aap.times * scale, aap.axis,
                                            aap.angle,
                                            aap.degenerate.astype(float)]))


def write_propagator_csv(ppath: PropagatorPath, path) -> str:
    """Row per time sample: R entries row-major, then Re/Im of each U
    entry.  Returns the sha256 hex digest of the CSV's bytes."""
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
    return _util.write_csv(path, ",".join(names), np.column_stack(cols))
