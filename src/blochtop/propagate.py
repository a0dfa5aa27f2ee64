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
spacing.  Static errors rescale the drive components by g = 1 + alpha
and shift the third component by delta.  They are applied to interval
averages taken once per pulse, A_j = (w_j[1:] + w_j[:-1]) 0.5 dt, in
this rounding order:

    v3    = (w3[1:] + w3[:-1] + 2 delta) 0.5 dt
    phi^2 = g^2 (A1^2 + A2^2) + v3^2,  q = phi^2 0.25
    a     = cos(phi/2) - i s v3,  s = sin(phi/2) / phi
    c     = (s g) (A2 - i A1)

The half-angle pair needs no libm (_half_angles): cos(phi/2) =
sum_k (-q)^k / (2k)! and s = sum_k (-q)^k / (2 (2k+1)!) (DLMF 4.19),
each cut before its first term below 2^-64 at q = _Q_BOUND (phi/2 <=
0.05, five terms), are evaluated by Horner's rule, c_0 + q (c_1 + q
(... + q c_4)), one real multiply or add per ufunc call.  The last add
rounds once and the rest of the chain, at most q/2 in size, adds under
0.01 ulp, so each is within 0.51 ulp of its exact value at the phi^2
given; no SIMD dispatch can fuse its operations.  A stage call holding an element past the bound, or
a NaN one, also runs the libm route, phi = sqrt(phi^2), s =
sin(phi/2) / phi (1 in place of a zero divisor) and cos(phi/2), and
those elements keep its bits.  An element's bits depend on its phi^2
alone, never on what shares its call.

A row with alpha = delta = 0 has the bits of the textbook order, which
rescales and shifts the field samples before it averages them; other
rows differ from it at roundoff.  One kernel composes the steps by the
product of pairs, a = a_p a_q - c_p* c_q and c = c_p a_q + a_p* c_q, in
a prefix scan for paths and a pairwise reduction for final propagators,
and reads rotation matrices, spinors and Bloch vectors out of the
accumulated pairs.  Bloch vectors (_states) sum R_ij M0_j over j in
order, from R's entry formulas in the real parts of a and c and with no
term for a zero M0_j: no (n, 3, 3) array and no BLAS call, and an M0 on
a signed axis keeps the bits of a column of R (zeros read as +0).  Axis
and angle are read column by column from the quaternion (Re a, -Im c,
Re c, -Im a) (_quaternion), which gate design reads too.

The kernel is batched and has one step layout: planes (2, B, n), a and
c each one contiguous complex plane along the sample axis, a leading
axis of error pairs (alpha, delta), and the identity in slot 0 ahead of
the n - 1 steps.  Paths and finals run through the same stages.  The
field table is read through a sampler (_sampler for a pulse), its
interval averages (_averages) are taken once for the rows that share
them, and one step stage (_steps) applies each row's errors and writes
its pairs straight into the planes, so no step is copied on its way
into the products and a sweep cell has the bits of the endpoint of
bloch_propagate under its error pair.  A path (_path) runs both stages
for its one row inside the overflow check (_one_row), in six arrays of
n - 1 floats beside its planes, and releases the arrays before the
planes are composed.

Neither composition rescales.  The reduction (_fold) pairs the steps
from the last one down, one level of the product tree at a time
(_halve), and folds them in place in the planes, with its products in
scratch planes.  The scan (_scan) is work-efficient (Blelloch 1990):
its up-sweep is that same tree, each level kept in one workspace of 64
bytes a sample of a row, and a down-sweep turns the levels back into
prefixes, in place in the planes, about 2 n products in 2 log2 n
batched levels; the workspace is released when it returns.  Its last
entry is the root of the tree, so a final propagator equals the
endpoint of its path bit for bit, whether it is computed alone or
inside a batch; the interior entries are the same products grouped
otherwise.  Last, the composed planes are rescaled to unit norm (_unit)
and read as pairs (..., 2), by _last for a final and by _path for a
path once the scan's workspace is released, so a path peaks at its
planes and that workspace, 96 bytes a sample.  Every product and norm
runs on arrays that keep the sample axis, even a final one of length 1:
numpy rounds scalar arithmetic differently from its array loops.

Every final propagator is built and folded by one driver (_final_pairs):
sweep cells, so3_final and su2_final, gate scans and the mirror route.
It reads the fields through one sampler, fields(rows, lo, hi), whose
samples lo:hi are shared by every row (a pulse's arrays, _sampler) or
drawn one row per mirror half (pulsegen._orbit_fields), and it asks for
one chunk of _chunk_rows(n) rows and one span at a time, so no caller
holds more of a table than that: the batch rule lives here alone.  A
chunk is folded only until its rows hold about _FOLD_PAIRS pairs, a row
longer than _CHUNK_SAMPLES in end-aligned spans of whole blocks of the
product tree; the short planes go to a tail of whole chunks, which is
folded to the end on the same tree, so the bits stay those of a one-row
fold of the whole row.  Each call takes one workspace of one fixed
size, whatever n.  A large sweep on two usable CPUs forks once
(_util._in_two); no pair depends on another, so the bits are those of
one process.

A private mirror route (_mirror_final) serves gate design: the fields of
an unrotated transfer or loop pulse on its own grid are mirror-symmetric
about the midpoint, so the final propagator follows from the driver's
final of the first half, a conjugation and the middle step.  The driver
holds the middle step back from the fold (last) and steps it in the
same step-stage call as the rest of its span, so an even grid costs no
second sampler or step-stage call.  The route takes no error parameters
and propagates a stack of halves on one grid length, one row per pulse,
in one call, never holding a whole half.  The public propagators never
use it and compose every step of whatever pulse they are given.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import _util

# samples propagated per batch of sweep cells or gate scan points
# (_chunk_rows), or per span of a longer row: large enough to share the
# numpy call overhead over many rows, small enough to keep peak memory
# flat
_CHUNK_SAMPLES = 2 ** 14

# error pairs x samples (B * n) from which _final_states forks.  On a
# shared 2-CPU host os.fork returns in the parent after 0.8-1.0 ms at 34
# MiB RSS, the child runs at 1.7-2.1 ms and is reaped at 3.3-3.7 ms, and
# these grow with RSS: 1.7-2.2, 2.8-3.3 and 4.9-6.2 ms at 74 MiB (three
# sets of 30 forks each).  Each fork's copy-on-write faults land on the
# work after it.  Split in two, 21 x 21 cells at n = 2049 took 59 ms
# against 77 and 11 x 11 at n = 8193 51 against 74 (medians of 9);
# 5 x 5 at n = 8193 (205k) broke even, and a 220k cutoff, which also
# splits 11 x 11 at n = 2049 and 21 x 21 at n = 513, made paired
# in-process sweep-maps cycles slower on 9 of 10 (586 against 544 ms)
_FORK_SAMPLES = 300_000

# a chunk of finals is folded until it holds at most this many pairs:
# below it numpy's call overhead outweighs the products, and the chunks
# share the rest of their folds
_FOLD_PAIRS = 1024

# the half-angle polynomials of the step stage (_half_angles) serve
# q = phi^2 / 4 up to this bound, phi / 2 <= 0.05, with five terms each.
# Gate and long-pulse steps stay under 0.01 and most sweep steps under
# 0.042; a call holding a larger step, such as some 513-sample loop-pulse
# maps (up to 0.11), also runs the libm route
_Q_BOUND = 0.0025


def _series(odd):
    """Maclaurin coefficients in q = phi^2 / 4 of cos(phi / 2) (odd = 0)
    or sin(phi / 2) / phi (odd = 1), (-1)^k / ((1 + odd) (2k + odd)!),
    each correctly rounded, up to the last term before one that is below
    2^-64 of the leading term at q = _Q_BOUND."""
    c, k = [], 0
    while _Q_BOUND ** k / math.factorial(2 * k + odd) >= 2.0 ** -64:
        c.append((-1) ** k / ((1 + odd) * math.factorial(2 * k + odd)))
        k += 1
    return tuple(c)


_COS, _SINC = _series(0), _series(1)

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


def _sampler(pulse):
    """The field sampler of a pulse: its field table (times, omega1,
    omega2, omega3) over samples lo:hi, (hi - lo,) each and shared by
    every row."""
    return lambda rows, lo, hi: [f[lo:hi] for f in (
        pulse.times, pulse.omega1, pulse.omega2, pulse.omega3)]


def _averages(table, out):
    """The interval averages of the field table (times, omega1, omega2,
    omega3) that the step stage (_steps) reads, written into out[0], ...,
    out[4], each (..., n - 1): the interval lengths dt, -A1, A2, the
    endpoint sums w3[1:] + w3[:-1] and A1^2 + A2^2, where A_j =
    (w_j[1:] + w_j[:-1]) 0.5 dt is field component j averaged over an
    interval and times its length.  -A1 has the bits of A1 with the sign
    flipped, so the stage takes no negation for c.  out[5] is scratch.
    Returns out[:5]."""
    dt, a1, a2, w3, a12, tmp = out
    np.subtract(table[0][..., 1:], table[0][..., :-1], out=dt)
    np.add(table[3][..., 1:], table[3][..., :-1], out=w3)
    for a, w, half in ((a1, table[1], -0.5), (a2, table[2], 0.5)):
        np.add(w[..., 1:], w[..., :-1], out=a)
        a *= half
        a *= dt
    np.multiply(a1, a1, out=a12)
    np.multiply(a2, a2, out=tmp)
    a12 += tmp
    return out[:5]


def _horner(q, coefs, acc, out, where=True):
    """out = c_0 + q (c_1 + q (... + q c_K)) of coefs (c_0, ..., c_K) by
    Horner's rule, one real multiply or add a call, in the scratch acc
    (which may be out); only where where is True.  Returns out."""
    np.multiply(q, coefs[-1], out=acc, where=where)
    for c in coefs[-2:0:-1]:
        np.add(acc, c, out=acc, where=where)
        np.multiply(acc, q, out=acc, where=where)
    return np.add(acc, coefs[0], out=out, where=where)


def _half_angles(p, cos, s, q, w):
    """cos(phi / 2) into cos and s = sin(phi / 2) / phi into s, from
    p = phi^2: the polynomials in q = p 0.25 of the module docstring, and
    the libm route for elements past _Q_BOUND or NaN when a call holds
    any.  cos, s, p and q are (..., m) float arrays, cos perhaps strided,
    and p and q are overwritten; w is a complex (..., m) array contiguous
    along its last axis whose bytes are scratch.  No other memory is
    taken."""
    np.multiply(p, 0.25, out=q)
    # <=, not >: a NaN maximum must take the libm route too
    if q.max(initial=0.0) <= _Q_BOUND:
        _horner(q, _COS, p, cos)
        _horner(q, _SINC, s, s)
        return
    # the libm route for every element, w's planes its scratch
    np.sqrt(p, out=p)
    np.multiply(p, 0.5, out=w.real)
    np.equal(p, 0.0, out=w.imag)
    p += w.imag
    np.sin(w.real, out=s)
    s /= p
    np.cos(w.real, out=cos)
    # then the polynomials where q is inside the bound, the mask in one
    # byte of each element of w.imag
    inside = np.less_equal(q, _Q_BOUND, out=w.view(bool)[..., 8::16])
    _horner(q, _COS, p, cos, inside)
    _horner(q, _SINC, w.real, s, inside)


def _steps(avg, alpha, delta, v, out):
    """Planes out (2, B, ..., n) of the identity followed by the pairs of
    every step, one row per error pair (alpha[b], delta[b]), from the
    interval averages avg of _averages: the planes the scan and the fold
    consume, written in place.  With g = 1 + alpha and v3 = (w3[1:] +
    w3[:-1] + 2 delta) 0.5 dt, the step rotates by phi, phi^2 =
    g^2 (A1^2 + A2^2) + v3^2, and its pair is a = cos(phi / 2) - i s v3,
    c = (s g) (A2 - i A1), with s = sin(phi / 2) / phi from _half_angles:
    polynomials in q = phi^2 / 4 up to _Q_BOUND, and the libm route past
    it.  v holds four (B, ..., n - 1) scratch arrays; v[1] may be avg's
    A1^2 + A2^2, v[2] its endpoint sums and v[3] its dt, each read for
    the last time before it is overwritten.  The planes of c are the half
    angles' scratch until their own values are written.  Returns out."""
    dt, a1, a2, w3, a12 = avg
    v3, p, q, s = v
    gain = 1.0 + np.asarray(alpha, dtype=float)[:, None]
    # delta is added to the endpoint sum, not to A3 after the scaling, so
    # a row with delta = 0 keeps the sign of a zero v3 on an interval of
    # zero width
    np.add(w3, 2.0 * np.asarray(delta, dtype=float)[:, None], out=v3)
    v3 *= 0.5
    v3 *= dt
    np.multiply(a12, gain * gain, out=p)
    np.multiply(v3, v3, out=q)
    p += q
    out[0, ..., 0] = 1.0
    out[1, ..., 0] = 0.0
    a, c = out[0, ..., 1:], out[1, ..., 1:]
    _half_angles(p, a.real, s, q, c)
    np.multiply(s, gain, out=p)
    np.multiply(p, a2, out=c.real)
    np.multiply(p, a1, out=c.imag)
    np.negative(s, out=s)
    np.multiply(s, v3, out=a.imag)
    return out


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


def _halve(X, out, scratch):
    """One level of the product tree: the planes X (2, ..., m) paired
    from the last element down into out (2, ..., m - m // 2), which may
    be X[..., :m - m // 2].  With odd = m % 2, out[..., odd + j] is
    X[..., odd + 2 j + 1] X[..., odd + 2 j]; an odd leading element
    X[..., 0] is carried into out[..., 0], which is left to the caller.
    scratch is a flat complex array of at least 4 * B * (m // 2)
    elements, B the rows of X.  Returns out."""
    m = X.shape[-1]
    odd, k = m % 2, m // 2
    _mul(X[..., 1 + odd::2], X[..., odd::2], out[..., odd:],
         scratch[:2 * (X.size // m) * k].reshape((4,) + X.shape[1:-1] + (k,)))
    return out


def _scan(S):
    """Left-accumulated products of the planes S (2, ..., n) of the
    identity and the steps: entry i is S[..., i] ... S[..., 0].  A
    work-efficient scan (Blelloch 1990) on the product tree of _fold: the
    up-sweep halves S level by level (_halve) into one workspace, and the
    down-sweep turns each level into its prefixes, in place, from the
    root back down to S.  A right child takes its parent's prefix, and a
    left child becomes its own block times the prefix of the parent
    before its own; element 0 of every level, a carried one included, is
    its own prefix.  That is about 2 n products in 2 log2 n batched
    levels.  The last entry is the fold's root copied down, so it has the
    bits of _last before its rescale.  S holds the scan afterwards, not
    rescaled; returns S, and the workspace is released on return."""
    lead, n = S.shape[1:-1], S.shape[-1]
    rows = math.prod(lead)
    sizes = [n]
    while sizes[-1] > 1:
        sizes.append(sizes[-1] - sizes[-1] // 2)
    # one allocation: the levels above S, then the products' scratch
    above = 2 * rows * sum(sizes[1:])
    work = np.empty(above + 4 * rows * (n // 2), dtype=complex)
    scratch = work[above:]
    levels, at = [S], 0
    for below, m in zip(sizes, sizes[1:]):
        out = work[at:at + 2 * rows * m].reshape((2,) + lead + (m,))
        at += 2 * rows * m
        if below % 2:
            out[..., 0] = levels[-1][..., 0]
        levels.append(_halve(levels[-1], out, scratch))
    for X, Y in zip(levels[-2::-1], levels[:0:-1]):
        m = X.shape[-1]
        odd, k = m % 2, m // 2
        X[..., 1 + odd::2] = Y[..., odd:]
        # the left children odd + 2 j; on an even level the first one,
        # element 0, is its own prefix
        j = 1 - odd
        _mul(X[..., odd + 2 * j::2], Y[..., :k - j], X[..., odd + 2 * j::2],
             scratch[:4 * rows * (k - j)].reshape((4,) + lead + (k - j,)))
    return S


def _fold(S, stop=1, scratch=None):
    """Fold the planes S (2, ..., n) pairwise, in place, down to the first
    length m <= stop of the halving sequence n, ceil(n / 2), ..., and
    return the planes S[..., :m]; folding those on to length 1 gives the
    product S[..., -1] ... S[..., 0].  Each level is _halve's, which the
    up-sweep of _scan shares, so the fold is the product tree of the
    last entry of _scan.  scratch is a flat complex array of at least
    4 * B * (n // 2) elements, B the rows of S, allocated when None."""
    m = S.shape[-1]
    if scratch is None:
        scratch = np.empty(4 * math.prod(S.shape[1:-1]) * (m // 2),
                           dtype=complex)
    while m > max(stop, 1):
        _halve(S[..., :m], S[..., :m - m // 2], scratch)
        m -= m // 2
    return S[..., :m]


def _last(S, scratch=None):
    """Final pairs (..., 2) of the planes S (2, ..., n) of the identity
    and the steps.  S is always consumed: it is folded and rescaled in
    place, so it must not be read after this."""
    return _pairs(_unit(_fold(S, 1, scratch)))[..., 0, :]


def _column(q, j):
    """Column j (R_0j, R_1j, R_2j) of the rotations of unit pairs (..., 2)."""
    a, c = q[..., 0], q[..., 1]
    ar, ai, cr, ci = a.real, a.imag, c.real, c.imag
    if j == 0:
        return (1.0 - 2.0 * (cr * cr + ai * ai), -2.0 * (ci * cr + ar * ai),
                2.0 * (ci * ai - ar * cr))
    if j == 1:
        return (2.0 * (ar * ai - ci * cr), 1.0 - 2.0 * (ci * ci + ai * ai),
                -2.0 * (cr * ai + ar * ci))
    return (2.0 * (ci * ai + ar * cr), 2.0 * (ar * ci - cr * ai),
            1.0 - 2.0 * (ci * ci + cr * cr))


def _rotations(q):
    """Rotation matrices (..., 3, 3) of unit pairs (..., 2)."""
    R = np.empty(q.shape[:-1] + (3, 3))
    for j in range(3):
        R[..., 0, j], R[..., 1, j], R[..., 2, j] = _column(q, j)
    return R


def _states(q, M0):
    """Bloch vectors (..., 3) of M0 under unit pairs (..., 2), with no
    (..., 3, 3) array and no BLAS call: M_i = ((0.0 + R_i0 M0_0) +
    R_i1 M0_1) + R_i2 M0_2 from _column's entries, the terms of a zero
    M0_j left out.  An M0 on a signed axis gives +-R's column bit for bit,
    zeros read as +0 as a BLAS product reads them."""
    M = np.zeros(q.shape[:-1] + (3,))
    for j in np.flatnonzero(M0):
        for i, x in enumerate(_column(q, j)):
            M[..., i] += x * M0[j]
    return M


def _quaternion(q):
    """Quaternions (q0, q1, q2, q3) = (Re a, -Im c, Re c, -Im a) of pairs
    (..., 2), the q of U = q0 - i (q1, q2, q3) . sigma, with the bits of
    spinor_quaternion(_spinors(q)): Re a and Re c are views of the pairs,
    and 0.0 - x, not -x, keeps the spinor route's +0.0."""
    a, c = q[..., 0], q[..., 1]
    return a.real, 0.0 - c.imag, c.real, 0.0 - a.imag


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


def _one_row(build, err: ErrorParams):
    """build(alpha, delta) of the one error pair of err: a row's planes or
    its final pairs.  A step whose rotation angle overflows would leave
    them NaN, so it raises ValueError instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = build([err.alpha], [err.delta])
    if not np.all(np.isfinite(x)):
        raise ValueError(f"alpha = {err.alpha}, delta = {err.delta}: a "
                         "step's rotation angle overflows")
    return x


def _path(pulse, err: ErrorParams):
    """Pairs (n, 2) of the pulse's path under err: the shared stages write
    the steps into one row's planes, the scan composes them, and the
    planes are rescaled once the stages' arrays and the scan's workspace
    are released."""
    n = pulse.n_samples

    def steps(alpha, delta):
        # six arrays, not one block: a long pulse's fields in one block
        # raise glibc's mmap threshold, and the heap then keeps more pages
        # resident.  The stage's scratch is the sixth array and three
        # averages it has read
        v = [np.empty((1, n - 1)) for _ in range(6)]
        avg = _averages(_sampler(pulse)(None, 0, n), v)
        return _steps(avg, alpha, delta, (v[5], v[4], v[3], v[0]),
                      np.empty((2, 1, n), dtype=complex))

    return _pairs(_unit(_scan(_one_row(steps, err))))[0]


def _final(pulse, err: ErrorParams):
    return _one_row(lambda a, d: _final_pairs(
        _sampler(pulse), pulse.n_samples, a, d,
        np.empty((1, 2), dtype=complex)), err)[0]


def _mirror_final(half):
    """Final pairs (B, 2) of mirror-symmetric field tables from their
    first halves (a pulsegen._MirrorHalf of B rows on grids of one
    length), with no error parameters; row b has the bits of a one-row
    half of row b alone.

    Mirrored intervals carry the fields phi and -J phi, J the pi rotation
    about e_axis, so their steps are q and J q^-1 J^-1.  With A the
    product of the first-half steps and M the middle step (n even only),
    the whole table propagates by J A^-1 J^-1 . M . A.  J A^-1 J^-1 is A
    with its component along e_axis negated: a -> a* about e3, c -> c*
    about e1 and c -> -c* about e2.  A is the final of the half without
    its middle interval, and M the step that _final_pairs holds back past
    it (last), so both come out of one call of the step stage, which
    reads the half's fields span by span.
    """
    zeros = np.zeros(half.rows)
    q = np.empty((2, half.rows, 2), dtype=complex)
    _final_pairs(half.fields, half.samples - half.middle, zeros, zeros, q[0],
                 q[1] if half.middle else None)
    # planes (2, B, 1): the sample axis is kept
    A, M = q.transpose(0, 2, 1)[..., None]
    mirror = A.copy()  # J A^-1 J^-1
    if half.axis == 3:
        np.conj(mirror[0], out=mirror[0])
    else:
        np.conj(mirror[1], out=mirror[1])
        if half.axis == 2:
            np.negative(mirror[1], out=mirror[1])
    if half.middle:
        A = _mul(M, A, np.empty_like(A))
    return _pairs(_unit(_mul(mirror, A, np.empty_like(A))))[..., 0, :]


def bloch_propagate(pulse, M0, err: ErrorParams = ErrorParams()) -> Trajectory:
    """Drive the vector M0 through the pulse.  Returns all samples."""
    return Trajectory(pulse.times, _states(_path(pulse, err), _state(M0)))


def _chunk_rows(samples: int) -> int:
    """Rows in one batch of sweep cells or gate scan points, a row
    holding samples samples: _CHUNK_SAMPLES samples a batch, and at
    least one row."""
    return max(1, _CHUNK_SAMPLES // samples)


def _final_pairs(fields, n, alpha, delta, out, last=None):
    """Final pairs of n-sample field tables into out (B, 2), one row per
    error pair (alpha[b], delta[b]): the one place where the steps of a
    final propagator are built and folded.  The fields are read through
    the sampler fields(rows, lo, hi), the (times, omega1, omega2, omega3)
    of the rows slice over samples lo:hi, each (hi - lo,), shared by every
    row, or (r, hi - lo), one row each.  Given last (B, 2), the tables go
    on to sample n, and the step from sample n - 1 to n is written there,
    unfolded and not rescaled, with the bits the step stage gives it in
    any table.  Returns out.

    Rows go in chunks of _chunk_rows(n) (n + 1 with last), and a chunk is
    folded L levels of the product tree, the first level whose length
    m = ceil(n / 2^L) has rows * m <= _FOLD_PAIRS.  A chunk is sampled,
    stepped and folded in end-aligned spans of _CHUNK_SAMPLES samples,
    rounded down to whole blocks of 2^L samples, so a row of up to
    _CHUNK_SAMPLES samples is one span and no call reads more than a
    span and the samples on either side of it.  The leading span holds
    the rest, which may be the identity alone.  _halve pairs from the
    last element, so a span folds to the very entries that the whole
    row's tree has at level L.  A tail of whole chunks gathers the rows'
    m entries, and each full tail is folded to the end and rescaled at
    once, so every row has the bits of a one-row fold of the whole row.
    A shared table whose rows fit in one span is sampled and averaged
    once per call; others are sampled and averaged per chunk and span.

    One workspace of 18 _CHUNK_SAMPLES floats (2.25 MiB) is allocated per
    call and rewritten in place by every chunk and span.  With the
    module's constants every row of up to 2^24 samples needs at most
    17 _CHUNK_SAMPLES + 21 floats, a held-back step included, so calls do
    not grow the heap in turn; a longer row, or smaller constants, get
    what they need.  With no error pairs it allocates no workspace."""
    B, extra = len(alpha), last is not None
    if not B:
        return out
    rows = min(B, _chunk_rows(n + extra))
    m, block = n, 1
    while rows * m > _FOLD_PAIRS and m > 1:
        m, block = m - m // 2, 2 * block
    span = max(block, _CHUNK_SAMPLES // block * block)
    t = rows * max(1, min(-(-B // rows), _CHUNK_SAMPLES // (rows * m)))
    # a span is stepped from the sample before it, where there is one, and
    # the last one on to the held-back step
    w = min(n, span + 1) + extra
    planes, tail = 4 * rows * w, 4 * t * m
    at = planes + tail + max(8 * rows * (w // 2), 8 * t * (m // 2))
    work = np.empty(max(18 * _CHUNK_SAMPLES, at + 5 * rows * (w - 1)))
    T = work[planes:planes + tail].view(complex).reshape(2, t, m)
    # the step stage's scratch, then either fold's products
    scratch = work[planes + tail:at]
    once, held, done = False, 0, 0
    for start in range(0, B, rows):
        r = min(rows, B - start)
        cells = slice(start, start + r)
        for i1 in range(n - (n - 1) // span * span, n + 1, span):
            i0 = max(i1 - span, 0)
            lo, hi = max(i0 - 1, 0), i1 + (extra and i1 == n)
            if not once:
                part = fields(cells, lo, hi)
                d = part[0][..., 1:]
                avg = _averages(part, [*work[at:at + 5 * d.size].reshape(
                    (5,) + d.shape), scratch[:d.size].reshape(d.shape)])
                once = d.ndim == 1 and span >= n
            S = work[:4 * r * (hi - lo)].view(complex).reshape(2, r, hi - lo)
            _steps(avg, alpha[cells], delta[cells],
                   scratch[:4 * r * (hi - lo - 1)].reshape(4, r, hi - lo - 1),
                   S)
            if hi > i1:
                last[cells] = _pairs(S[..., -1])
            S = _fold(S[..., i0 - lo:i1 - lo], -(-(i1 - i0) // block),
                      scratch.view(complex))
            # the span's level-L entries end where its samples do
            T[:, held:held + r, :m - (n - i1) // block][..., -S.shape[-1]:] = S
        held += r
        if held == t or start + r == B:
            out[done:done + held] = _last(T[:, :held], scratch.view(complex))
            held, done = 0, done + held
    return out


def _final_states(pulse, M0, alpha, delta):
    """Final Bloch vectors (B, 3) of M0 under the pulse, one per error
    pair (alpha[b], delta[b]).  Row b has the bits of the last sample of
    bloch_propagate under that pair, whatever the rest of the batch.

    The pairs are propagated by _final_pairs, _chunk_rows(n) at a time.
    A batch of _FORK_SAMPLES samples (B * n) or more, with at least two
    chunks, on a host with two usable CPUs, is split once on a chunk
    boundary (_util._split): a forked child (_util._in_two) propagates
    the pairs after the split straight into a shared array while this
    process propagates the rest.  Should the child fail, or the fork,
    this process propagates the child's pairs itself, and an error they
    raise is raised here.  Every pair is propagated alone, so the bits
    are those of one process.  The states are read out of the pairs
    here, once for the batch.  With no error pairs it returns an empty
    (0, 3) array and allocates no workspace."""
    M0 = _state(M0)
    alpha = np.asarray(alpha, dtype=float)
    delta = np.asarray(delta, dtype=float)
    B, n, fields = len(alpha), pulse.n_samples, _sampler(pulse)
    h = _util._split(B, _chunk_rows(n), B * n, _FORK_SAMPLES)
    if not h:
        q = _final_pairs(fields, n, alpha, delta, np.empty((B, 2), complex))
    else:
        q = np.frombuffer(mmap.mmap(-1, 32 * B), complex).reshape(B, 2)
        if not _util._in_two(
                lambda: _final_pairs(fields, n, alpha[h:], delta[h:], q[h:]),
                lambda: _final_pairs(fields, n, alpha[:h], delta[:h], q[:h])):
            _final_pairs(fields, n, alpha[h:], delta[h:], q[h:])
    return _states(q, M0)


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


def _gate_error(U, V):
    """(infidelity, so3) of 2 x 2 unitaries U and V, read from W = U^dag V,
    formed entry by entry with no BLAS call.

    W is e^(i chi) (q0 - i v . sigma) with q0^2 + |v|^2 = 1, so |v|^2 =
    1 - F^2, F = |tr W| / 2 = |q0|, reads (|W01|^2 + |W10|^2) / 2 +
    |W00 - W11|^2 / 4 with no cancellation and no global phase.  The
    infidelity 1 - F is |v|^2 / (1 + F), never negative, and the so3
    residual |R_U - R_V|_F of the covered rotations is sqrt(8 |v|^2)."""
    (u00, u01), (u10, u11) = np.asarray(U, dtype=complex).conj().tolist()
    (v00, v01), (v10, v11) = np.asarray(V, dtype=complex).tolist()
    w00, w11 = u00 * v00 + u10 * v10, u01 * v01 + u11 * v11
    w01, w10 = u00 * v01 + u10 * v11, u01 * v00 + u11 * v10
    v2 = 0.5 * (abs(w01) ** 2 + abs(w10) ** 2) + 0.25 * abs(w00 - w11) ** 2
    return v2 / (1.0 + 0.5 * abs(w00 + w11)), math.sqrt(8.0 * v2)


def gate_fidelity(U, V) -> float:
    """|tr(U^dag V)| / 2, read as 1 - the infidelity of _gate_error: equals
    1 iff the gates agree up to global phase, and never exceeds 1."""
    return 1.0 - _gate_error(U, V)[0]


def axis_angle_path(upath: PropagatorPath, tol: float = 1e-12) -> AxisAnglePath:
    """Axis-angle reading of an SU(2) propagator path."""
    if upath.U is None:
        raise ValueError("axis_angle_path needs an SU(2) path")
    return _axis_angle(upath.times, spinor_quaternion(upath.U).T, tol)


def _axis_angle(times, q, tol):
    """AxisAnglePath of the quaternion columns q = (q0, q1, q2, q3), each
    (n,), which it reorients in place.  The bits are those of a row-wise
    reading of an (n, 4) array: the flip test sums q_k[i + 1] q_k[i] in
    order k = 0, ..., 3 and the norm is sqrt((q1^2 + q2^2) + q3^2).  The
    axes of degenerate samples after the first are gathered only when
    there are some."""
    # keep the double cover continuous in time
    flips = np.cumprod(np.where(sum(x[1:] * x[:-1] for x in q) < 0.0,
                                -1.0, 1.0))
    for x in q:
        x[1:] *= flips
    s = np.sqrt(sum(x * x for x in q[1:]))
    degenerate = s < tol
    axis = np.column_stack(q[1:])
    axis /= np.where(degenerate, 1.0, s)[:, None]
    if degenerate[0]:
        axis[0] = (0.0, 0.0, 1.0)
    if degenerate[1:].any():
        # each degenerate sample takes the axis of the last live one
        axis = axis[np.maximum.accumulate(
            np.where(degenerate, 0, np.arange(len(s))))]
    return AxisAnglePath(times, axis, 2.0 * np.arctan2(s, q[0]), degenerate)


def _trajectory_and_axis_angle(pulse, M0, err: ErrorParams):
    """bloch_propagate(pulse, M0, err) and axis_angle_path(su2_propagate(
    pulse, err)) from one scan, with their bits.  The states are read
    first, since _axis_angle reorients the quaternion columns in place
    and two of them are views of the pairs (_quaternion)."""
    q = _path(pulse, err)
    traj = Trajectory(pulse.times, _states(q, _state(M0)))
    return traj, _axis_angle(pulse.times, _quaternion(q), 1e-12)


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
