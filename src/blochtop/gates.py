"""Gate design on top of near-separatrix pulses.

Provides the Montgomery phase budget of a closed orbit, the tuned NOT
gate, BIR-style composite NOT pulses, two-orbit geometric phase gates
with dynamical-phase cancellation, and one-qubit synthesis over those
primitives.

Every design scans a grid of its free parameter and solves one crossing
of its objective there, through one routine, _search.  The transfer and
loop objectives have closed forms in the free top's attitude
(_orbit_phases), from which _search locates the bracket while sampling
few points, each by the mirror route; the phase gate's objective, its
inner solve (_match_dynamical) and its loop budgets (_closed_budget) are
closed forms throughout, so its design samples no orbit.  The pulse a
designer returns, and the fidelity and residuals of its report, are
computed from the full pulse through the public propagators.

Sign conventions frozen here (and locked by regression tests):
the geometric term is minus the line integral of (1 - M3) dphi along
the loop, so that the budget identity reads

    total = dynamical - geometric   (mod 2 pi)

with total the lab rotation angle about the loop base point and
dynamical = 2 E T.  A loop circling the +e3 pole clockwise, seen from
outside the sphere, has positive geometric phase.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import _util
from .elliptic import _complete_KE, complete_Pi
from .propagate import (
    ErrorParams,
    _chunk_rows,
    _final,
    _mirror_final,
    _rotations,
    _spinors,
    gate_fidelity,
    so3_final,
    spinor_quaternion,
    su2_final,
)
from .pulsegen import (
    ControlPulse,
    _check_n,
    _mirror_half,
    concat,
    inverse_pulse,
    rotate_pulse,
    transform_pulse,
    tre_loop_pulse,
    tre_pulse,
)
from .topdyn import (
    Family,
    TopParameters,
    energy,
    orbit_constants,
    orbit_period,
    tre_initial,
)

_EPS = sys.float_info.epsilon
# Brent's method takes at most about (log2(width / xtol))**2 steps, under
# 2,000 for the brackets and tolerances of gate design; the cap only
# stops a solve whose f is not finite
_BRENT_STEPS = 10_000
# the sampled NOT, composite-NOT and loop-angle objectives lie within
# 0.3 h^2 of their closed forms, h the pulse length over n - 1, at every n
# for k in [0.02, 0.999] and eps in [1e-6, 0.999] (a property test in
# test_gates holds them to a tenth of _GAP); _search trusts the closed
# form beyond _GAP h^2
_GAP = 4.0

_E1 = np.array([1.0, 0.0, 0.0])
_E3 = np.array([0.0, 0.0, 1.0])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
NOT_SU2 = -1.0j * _SX
NOT_SO3 = np.diag([1.0, -1.0, -1.0])


# ---------------------------------------------------------------------------
# phase budget


@dataclass(frozen=True)
class PhaseBudget:
    """Decomposition of the lab rotation accumulated over one closed loop."""

    total: float
    dynamical: float
    geometric: float

    def as_dict(self) -> dict:
        return asdict(self)


def budget_defect(budget: PhaseBudget) -> float:
    """|total - (dynamical - geometric)| reduced mod 2 pi."""
    return abs(_util.wrap_angle(
        budget.total - budget.dynamical + budget.geometric))


def geometric_phase(M) -> float:
    """Signed solid angle enclosed by a sampled loop on the unit sphere.

    Fan of geodesic triangles from the +e3 pole, summed by the half-angle
    formula.  The result is exact for the geodesic polygon through the
    samples, so it depends only on the ordered points and not on how the
    loop is parametrized.  The closing edge from the last sample back to
    the first is always included; an exactly repeated closing sample
    contributes nothing.  Sign convention as in the module docstring.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] != 3 or M.shape[0] < 3:
        raise ValueError("need a loop of at least 3 samples of shape (n, 3)")
    if not np.all(np.isfinite(M)):
        raise ValueError("loop samples must be finite")
    return -2.0 * _fan(M, np.roll(M, -1, axis=0))


def _fan(a, b) -> float:
    """Sum of the half-angle fan terms of the geodesic edges a[i] -> b[i].

    The denominator 1 + a3 + b3 + a . b is (1 + a3)(1 + b3) + a1 b1 + a2 b2,
    and on the unit sphere 1 + x3 is (x1^2 + x2^2) / (1 - x3), which does
    not cancel for points near -e3."""
    def u(x):
        x3 = x[:, 2]
        return np.where(x3 < 0.0, (x[:, 0] ** 2 + x[:, 1] ** 2)
                        / (1.0 - np.minimum(x3, 0.0)), 1.0 + x3)

    num = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    den = u(a) * u(b) + (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1])
    return float(np.sum(np.arctan2(num, den)))


def dynamical_phase(pulse: ControlPulse, M) -> float:
    """Trapezoid integral of Omega(t) . M(t) over the pulse grid."""
    M = np.asarray(M, dtype=float)
    if M.shape != (pulse.n_samples, 3) or not np.all(np.isfinite(M)):
        raise ValueError("M must be finite of shape (pulse.n_samples, 3)")
    return float(np.trapezoid(np.sum(pulse.fields * M, axis=1), pulse.times))


def _orbit_solid_angle(p: TopParameters, eps: float, family: Family,
                       oc=None) -> float:
    """The orbit's solid angle in closed form (Montgomery 1991).

    With (a, b, c) the amplitudes on (dn, cn, sn), axes (1, 2, 3) on the
    rotating family and (2, 1, 3) on the oscillating one, the azimuth
    about the dn axis turns at b c dn / (1 - a^2 dn^2) per unit u, and
    Montgomery's enclosed solid angle is

        Omega = (b c / a) [4 K - 4 Pi(nu | m) / (1 - a^2)
                           + 2 pi a / sqrt((1 - a^2)(1 - a^2 + a^2 m))]

    with nu = -a^2 m / (1 - a^2).  At u = 0 and u = K the unit vector
    gives a^2 + b^2 = 1 and a^2 (1 - m) + c^2 = 1, so 1 - a^2 = b^2 and
    the square root is b c; the last term is then 2 pi.  Returns -Omega
    on rotating orbits and +Omega on oscillating ones.  oc, when given,
    is orbit_constants(p, eps, family).
    """
    oc = orbit_constants(p, eps, family) if oc is None else oc
    if family is Family.ROTATING:
        a, b, c = oc.amp1, oc.amp2, oc.amp3
    else:
        a, b, c = oc.amp2, oc.amp1, oc.amp3
    try:
        nu = -(a / b) ** 2 * oc.m
    except OverflowError:
        raise ValueError(f"k = {p.k} is too small for the solid angle at "
                         f"eps = {eps}: nu = -(a / b)^2 m overflows") from None
    omega = 2.0 * math.pi + 4.0 * c / a * (b * oc.K
                                           - complete_Pi(nu, oc.m) / b)
    return -omega if family is Family.ROTATING else omega


def _orbit_dynamical(p: TopParameters, eps: float, family: Family) -> float:
    base = tre_initial(p, eps, family)
    return float(2.0 * energy(base, p) * orbit_period(p, eps, family))


def _orbit_phases(p: TopParameters, es, family: Family):
    """(phis, periods): the closed-form rotation of each orbit pulse, one
    orbit_constants per eps in es.

    The drive is the top's own angular velocity, so a pulse's propagator
    is the free top's attitude (Whittaker, Analytical Dynamics, sec. 69):
    it carries L(0) to L(t) and turns about L by 2 E t less the frame's
    connection integral.  Over the full loop that is the rotation about
    the base point L(0) by phi = 2 E T - _orbit_solid_angle, unwrapped and
    continuous in eps, with T the period 4 K / omega.  Over the transfer
    it is P = R_L1(phi / 2 + pi) R_e(-pi), with L1 = L(T / 2) the turning
    point (eps, 0, -C) and e = e1 on rotating orbits, (0, eps, -C) and
    e2 on oscillating ones.  This is the frame product F(L1) R_e(phi / 2
    + pi) F(L(0))^-1, F(L) = R_e(azimuth) R(polar angle), with both ends
    at polar angle acos(eps) about e and azimuth +-pi / 2, and its SU(2)
    lift is the mirror route's pair on both families.  The involution
    axis of P Z3 (_involution_scan) is then (C c, -s, eps c) on rotating
    orbits and (s, C c, eps c) on oscillating ones, c = cos(phi / 4) and
    s = sin(phi / 4), so its projection on v1 = (C, 0, eps), or (0, C,
    eps), is cos(phi / 4).  An eps whose orbit has no closed form
    (orbit_constants or the solid angle refuses it) gets nan.
    """
    phis, periods = [], []
    for eps in map(float, es):
        try:
            oc = orbit_constants(p, eps, family)
            T = 4.0 * oc.K / oc.omega
            phi = 2.0 * oc.energy * T - _orbit_solid_angle(p, eps, family, oc)
        except ValueError:
            phi = T = math.nan
        phis.append(phi)
        periods.append(T)
    return np.array(phis), np.array(periods)


def _closed_budget(p: TopParameters, eps: float,
                   family: Family) -> PhaseBudget:
    """Phase budget of one orbit period in closed form: dynamical is
    2 E T, geometric the solid angle (_orbit_solid_angle), and total
    their difference 2 E T - Omega wrapped to (-pi, pi], the rotation
    about the base point that _orbit_phases gives the loop."""
    dyn = _orbit_dynamical(p, eps, family)
    geo = _orbit_solid_angle(p, eps, family)
    return PhaseBudget(total=_util.wrap_angle(dyn - geo), dynamical=dyn,
                       geometric=geo)


def montgomery_phase(p: TopParameters, eps: float, family: Family,
                     n: int = 65537, closure_tol: float = 1e-6) -> PhaseBudget:
    """Phase budget of one full orbit period.

    total is the signed rotation angle about the starting point of the
    full-period loop's propagator, by the mirror route (_search);
    dynamical and geometric are _closed_budget's, so the budget defect
    measures the propagator alone.  A loop whose end misses its start by
    more than closure_tol raises a ValueError naming n and the gap.
    """
    base = tre_initial(p, eps, family)
    R = _rotations(_scan_finals(p, [eps], family, n, loop=True)[0])
    gap = float(np.linalg.norm(R @ base - base))
    if gap > closure_tol:
        raise ValueError(
            f"the loop does not close at n = {n}: |R L0 - L0| = {gap:.3g} "
            f"exceeds the tolerance {closure_tol:g}; raise n")
    return replace(_closed_budget(p, eps, family),
                   total=_frame_angle(R, base))


# ---------------------------------------------------------------------------
# small rotation / root-finding helpers


def _rotation_about(axis, angle: float) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _cross(a, b) -> np.ndarray:
    """a x b of two float 3-vector arrays, bit for bit np.cross, but cheaper."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _rotation_between(a, b) -> np.ndarray:
    """Proper rotation taking unit vector a onto unit vector b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = _cross(a, b)
    s = np.linalg.norm(w)
    c = float(a @ b)
    if s < 1e-15:
        if c > 0.0:
            return np.eye(3)
        trial = _E1 if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        perp = _cross(a, trial)
        return _rotation_about(perp / np.linalg.norm(perp), math.pi)
    return _rotation_about(w / s, math.atan2(s, c))


def _frame_angle(R, axis) -> float:
    """Signed rotation angle of R about an axis it (nearly) fixes."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    trial = _E3 if abs(a[2]) < 0.9 else _E1
    e = _cross(a, trial)
    e /= np.linalg.norm(e)
    f = _cross(a, e)
    Re = R @ e
    return math.atan2(f @ Re, e @ Re)


def _pi_axis(P) -> np.ndarray:
    """Axis of an involutive rotation, from P + 1 = 2 n n^T."""
    M = P + np.eye(3)
    j = int(np.argmax(np.sum(M * M, axis=0)))
    v = M[:, j]
    return v / np.linalg.norm(v)


def _solve_bracketed(f, lo: float, hi: float, xtol: float = 1e-10,
                     flo: float | None = None, fhi: float | None = None):
    """Root of f on a sign-change bracket by Brent's method (Brent 1973,
    ch. 4): inverse quadratic or secant steps, with a bisection whenever
    they fail to shrink the bracket fast enough.

    The bracket may come in either order; flo and fhi, when given, are
    f(lo) and f(hi) as passed, and f is then never evaluated at lo or hi.
    Returns (x, f(x), converged), x the end of the final bracket with the
    smaller |f|.  converged holds when f(x) == 0, or when the final
    bracket is at most xtol + 4 eps |x| wide and |f(x)| is at most
    1e3 xtol times the secant slope |fhi - flo| / |hi - lo| of the bracket
    as given, so a jump in f is never reported as a root.  Without a
    sign change the endpoint with the smaller |f| is returned unconverged.
    """
    if lo > hi:
        lo, hi, flo, fhi = hi, lo, fhi, flo
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if flo == 0.0:
        return lo, 0.0, True
    if fhi == 0.0:
        return hi, 0.0, True
    if flo * fhi > 0.0:
        return (lo, flo, False) if abs(flo) <= abs(fhi) else (hi, fhi, False)
    ftol = 1e3 * xtol * abs(fhi - flo) / (hi - lo)
    # b is the best iterate, c the other end of the bracket [b, c] and a
    # the previous b; d is the last step and e the one before it
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    d = e = b - a
    for _ in range(_BRENT_STEPS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol or math.isnan(fb):
            return b, fb, fb == 0.0 or abs(fb) <= ftol
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                d, e = p / q, d
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b, fb, False


def _sign_change(a: float, b: float) -> bool:
    """The interval from a to b changes sign: a == 0 or a b < 0."""
    return a == 0.0 or a * b < 0.0


def _angle_crossing(a: float, b: float) -> bool:
    """The interval between two wrapped gaps in (-pi, pi] passes through
    zero: an end is 0, or the sign changes across a jump under pi (a jump
    over pi crosses the cut at +-pi instead).  On a loop-angle scan this
    is the unwrapped angle reaching a level want + 2 pi m."""
    return (a == 0.0 or b == 0.0
            or (a * b < 0.0 and abs(a - b) < math.pi))


def _solve_scanned(f, xs, fs, i):
    """(x, converged): root of f on the scanned bracket xs[i], xs[i + 1],
    by _solve_bracketed to xtol 1e-13 from the scanned values fs = f(xs),
    so f is never evaluated at a grid point.  With i None the grid point
    of smallest |fs| comes back unconverged, and f is not called."""
    if i is None:
        return float(xs[int(np.argmin(np.abs(fs)))]), False
    x, _, converged = _solve_bracketed(f, float(xs[i]), float(xs[i + 1]),
                                       xtol=1e-13, flo=fs[i], fhi=fs[i + 1])
    return x, converged


def _search(xs, approx, spans, n: int, sample, crosses, pick):
    """(x, converged, i): the one scan-and-solve routine of gate design.

    pick chooses one interval i of the grid xs (or None) among those whose
    scanned end values cross (crosses(a, b)), and _solve_scanned solves
    it.  sample(points) is the objective at points of the free parameter,
    one point per solver step, and approx its closed form on the grid.

    With spans None the closed form is the objective: the scan is approx,
    and no grid point is sampled.  Otherwise the sampled objective lies
    within delta = _GAP (span / (n - 1))^2 of approx, wrapped, span the
    length of the pulse sampled at that grid point.  An interval is
    settled when both ends lie more than their delta inside (-pi, pi) and
    crosses answers alike at the four corners of the delta box.  Only the
    ends of unsettled intervals and of the picked one are sampled, each
    checked against its delta, so the scan (approx with those values in
    place) has the crossings, the pick and the bracket bits of the full
    sampled scan.  That full scan is taken instead when more than a
    quarter of the grid is unsettled, a sampled value leaves its delta,
    or nothing is picked.  A nan in approx (no closed form) never settles.

    Samples take the mirror route: transfer and loop pulses are read off
    free-top orbits, which are mirror-symmetric about their midpoints, so
    _scan_finals samples and propagates only the first half of each, and
    the pulse propagates by J A^-1 J^-1 . M . A (propagate._mirror_final):
    A the first half's product, M the middle step (n even only) and J the
    mirror's pi rotation, Z3 = diag(-1, -1, 1) on a transfer.  Rotated,
    offset, concatenated and user pulses never take it.
    """
    _check_n(n)
    m = len(approx)

    def picked(fs):
        return pick([j for j in range(m - 1) if crosses(fs[j], fs[j + 1])])

    def located():
        if spans is None:
            return approx, picked(approx)
        delta = [_GAP * (s / (n - 1)) ** 2 for s in spans]

        def settled(j: int) -> bool:
            a, b, da, db = approx[j], approx[j + 1], delta[j], delta[j + 1]
            if not (abs(a) + da < math.pi and abs(b) + db < math.pi):
                return False
            return len({crosses(a + x, b + y)
                        for x in (-da, da) for y in (-db, db)}) == 1

        def put(fs, js):
            if js:
                for j, f in zip(js, sample(xs[js])):
                    fs[j] = f

        unsettled = sorted({j + d for j in range(m - 1) if not settled(j)
                            for d in (0, 1)})
        if 4 * len(unsettled) <= m:
            fs = list(approx)
            put(fs, unsettled)
            i = picked(fs)
            if i is not None:
                ends = [j for j in (i, i + 1) if j not in unsettled]
                put(fs, ends)
                if all(abs(_util.wrap_angle(fs[j] - approx[j])) <= delta[j]
                       for j in unsettled + ends):
                    return fs, i
        fs = sample(xs)
        return fs, picked(fs)

    fs, i = located()
    x, converged = _solve_scanned(lambda x: sample([x])[0], xs, fs, i)
    return x, converged, i


# ---------------------------------------------------------------------------
# gate reports


@dataclass(frozen=True)
class GateReport:
    """Uniform record shipped with every designed gate."""

    target: str
    parameters: dict
    fidelity: float
    phase_budget: dict | None
    residuals: dict
    converged: bool

    def as_dict(self) -> dict:
        return {"target": self.target,
                "parameters": {k: _plain(v) for k, v in self.parameters.items()},
                "fidelity": float(self.fidelity),
                "phase_budget": self.phase_budget,
                "residuals": {k: _plain(v) for k, v in self.residuals.items()},
                "converged": bool(self.converged)}


def _plain(v):
    if isinstance(v, np.generic):    # numpy floats, ints and bools
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, Family):
        return v.value
    return v


def write_gate_report(report: GateReport, path) -> str:
    """Write the report as JSON; returns the sha256 hex digest of its
    bytes."""
    return _util.dump_json(report.as_dict(), path)


def _coupling_defect(so3_residual: float, fidelity: float) -> float:
    # exact identity between the two metrics: |R - R_t|_F^2 = 8 (1 - F^2)
    return abs(so3_residual**2 - 8.0 * (1.0 - fidelity**2))


# ---------------------------------------------------------------------------
# tuned NOT gate


def _scan_finals(p: TopParameters, xs, family: Family, n: int,
                 loop: bool) -> np.ndarray:
    """Mirror-route final pairs (len(xs), 2) at the points xs, in chunks
    of _chunk_rows(n // 2 + 1) points, a half holding n // 2 + 1 samples:
    one _mirror_half table and one _mirror_final call per chunk.  Row j
    has the bits of the one-point call at xs[j], as a solver step or the
    Montgomery loop makes it."""
    rows = _chunk_rows(n // 2 + 1)
    return np.concatenate([
        _mirror_final(_mirror_half(p, xs[start:start + rows], family, n, loop))
        for start in range(0, len(xs), rows)])


def _involution_scan(p: TopParameters, xs, family: Family,
                     n: int) -> list:
    """Axis of the involutive part P Z3 of the transfer propagator P at
    each scan point: (Re c, Im c, Re a) of P's Cayley-Klein pair (a, c),
    its SU(2) element [[a, -c*], [c, a*]].  The mirror route (_search)
    makes (P Z3)^2 = 1 by construction, exactly for odd n and up to the
    rounding of the middle step's omega3 for even n, and SU(2) fixes the
    axis's sign, so it turns continuously with eps, as its closed form
    (_orbit_phases) does."""
    axes = []
    for a, c in _scan_finals(p, xs, family, n, loop=False):
        axis = np.array([c.real, c.imag, a.real])
        axes.append(axis / np.linalg.norm(axis))
    return axes


def _shipped_final(pulse):
    """(R, U) of a shipped gate pulse from one propagation: the bits of
    so3_final(pulse) and su2_final(pulse), which read the same pair."""
    q = _final(pulse, ErrorParams())
    return _rotations(q), _spinors(q)


def tune_not_gate(p: TopParameters, eps_range, family: Family = Family.ROTATING,
                  n: int = 4096, scan: int = 64):
    """Tune eps inside the bracket until one transfer is a NOT gate.

    The objective s(eps) is the projection of the involution axis
    (_involution_scan) on v1, cos(phi / 4) in closed form
    (_orbit_phases).  _search solves its last sign change (the largest
    eps, the shortest pulse) on a log grid of scan points.  Returns (eps,
    pulse, report); a missing sign change is reported via
    report.converged, never raised.
    """
    lo, hi = float(eps_range[0]), float(eps_range[1])
    if not 0.0 < lo < hi < 1.0:
        raise ValueError("eps_range must satisfy 0 < lo < hi < 1")
    if scan < 2:
        raise ValueError(f"scan must be at least 2, got {scan}")

    def v1_of(e: float) -> np.ndarray:
        c = math.sqrt(1.0 - e * e)
        if family is Family.ROTATING:
            return np.array([c, 0.0, e])
        return np.array([0.0, c, e])

    def s(es) -> list:
        return [float(ax @ v1_of(float(e)))
                for e, ax in zip(es, _involution_scan(p, es, family, n))]

    xs = np.geomspace(lo, hi, scan)
    phis, periods = _orbit_phases(p, xs, family)
    eps_star, bracketed, _ = _search(
        xs, np.cos(0.25 * phis).tolist(), 0.5 * periods, n, s, _sign_change,
        lambda changes: changes[-1] if changes else None)

    pulse = tre_pulse(p, eps_star, family, n=n)
    R, U = _shipped_final(pulse)
    if family is Family.ROTATING:
        target_R, target_U = NOT_SO3, NOT_SU2
    else:
        target_R, target_U = np.diag([-1.0, 1.0, -1.0]), -1.0j * _SY
    resid = float(np.linalg.norm(R - target_R))
    fid = gate_fidelity(U, target_U)
    report = GateReport(
        target="not",
        parameters={"k": p.k, "eps": eps_star, "family": family, "n": n},
        fidelity=fid,
        phase_budget=None,
        residuals={"so3": resid, "coupling": _coupling_defect(resid, fid)},
        converged=bracketed and resid <= 1e-6)
    return eps_star, pulse, report


# ---------------------------------------------------------------------------
# composite NOT (dynamical phase cancelled by construction)


def composite_bir_not(p: TopParameters, eps: float, n: int = 4096,
                      scan: int = 81) -> ControlPulse:
    """Two-segment NOT: a transfer followed by its phase-inverted reverse.

    The second segment runs the drive backwards with flipped sign, so the
    dynamical accumulation of the pair cancels identically.  eps seeds a
    log scan of g = 2 a1^2 - 1, a1 the e1 component of the involution
    axis, 2 (1 - eps^2) cos(phi / 4)^2 - 1 in closed form
    (_orbit_phases); _search solves the sign change nearest eps, where
    the pair closes into an exact pi rotation.  The composite is then
    rotated as a whole to put that axis on e1.  Search diagnostics land
    in the returned pulse's meta.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if scan < 2:
        raise ValueError(f"scan must be at least 2, got {scan}")

    def g(es) -> list:
        # axis-sign free: only the e1 component's magnitude enters
        axes = _involution_scan(p, es, Family.ROTATING, n)
        return [2.0 * a * a - 1.0 for a in (float(ax[0]) for ax in axes)]

    def nearest(changes):
        # nearest log-midpoint to the seed; a tie keeps the first
        return min(changes, default=None, key=lambda j: abs(
            math.log(math.sqrt(xs[j] * xs[j + 1]) / eps)))

    lo = max(1e-3, eps / 4.0)
    hi = min(0.97, eps * 4.0)
    xs = np.geomspace(lo, hi, scan)
    phis, periods = _orbit_phases(p, xs, Family.ROTATING)
    approx = 2.0 * (1.0 - xs * xs) * np.cos(0.25 * phis) ** 2 - 1.0
    eps_star, converged, _ = _search(xs, approx.tolist(), 0.5 * periods, n,
                                     g, _sign_change, nearest)

    seg = tre_pulse(p, eps_star, Family.ROTATING, n=n)
    mate = transform_pulse(seg, reverse=True, s1=-1)
    comp = concat([seg, mate])
    R = so3_final(comp)
    axis = _pi_axis(R)
    if axis[1] < 0.0:
        axis = -axis
    W = _rotation_between(axis, _E1)
    aligned = rotate_pulse(comp, W)
    R_aligned, U = _shipped_final(aligned)
    fid = gate_fidelity(U, _SX)
    resid = float(np.linalg.norm(R_aligned - NOT_SO3))
    meta = {"kind": "composite_bir_not", "k": p.k, "eps": eps_star,
            "eps_seed": eps, "n": n, "fidelity": fid, "so3_residual": resid,
            "converged": bool(converged and fid >= 1.0 - 1e-4)}
    return replace(aligned, meta=meta)


# ---------------------------------------------------------------------------
# two-orbit geometric phase gate


@dataclass(frozen=True)
class PhaseGateDesign:
    """Loop pair realizing a target relative phase at zero dynamical cost.

    budget_a and budget_b are the loops' _closed_budget; the fidelity and
    residuals are read off the propagator of the shipped pulse.
    """

    target_phase: float
    achieved_phase: float
    k_a: float
    eps_a: float
    k_b: float
    eps_b: float
    base_point: tuple
    orientation: str
    budget_a: PhaseBudget
    budget_b: PhaseBudget
    fidelity: float
    residuals: dict
    converged: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _match_dynamical(p_b: TopParameters, dyn_target: float):
    """(eps, residual, converged): eps on the second (rotating) orbit with
    the same dynamical phase per loop, by a safeguarded Newton solve.

    The phase is D(eps) = 2 E T = 4 A K(m) / k' with A^2 = k^2 + eps^2
    k'^2 and m = (k C / A)^2, C^2 = 1 - eps^2 (topdyn.orbit_constants),
    so 1 - m = eps^2 / A^2, dm/deps = -2 eps k^2 / A^4, and DLMF 19.4.1
    gives dK/dm = (E - (1 - m) K) / (2 m (1 - m)); one AGM pass yields D
    and D'.  D runs from +inf at eps = 0 to 2 pi / k' at eps = 1, falling
    where a phase design matches it (small k dips below 2 pi / k' first),
    so the sign of each residual moves one end of the bracket [1e-6,
    0.999999], and a step that leaves the bracket bisects it instead.
    The start is the small-eps asymptote D ~ (4 k / k') log(4 k / eps).  converged
    follows _solve_bracketed: the last step is at most xtol + 4 eps |x|
    (xtol 1e-13) and |residual| is at most 1e3 xtol |D'|.  A target
    outside D's range is never converged.
    """
    k = p_b.k
    kp2 = 1.0 - k**2
    kp = math.sqrt(kp2)
    xtol = 1e-13

    def residual_and_slope(e: float):
        # A and m round as in orbit_constants, so D tracks _orbit_dynamical
        A = math.sqrt(k**2 + e**2 * kp2)
        C2 = 1.0 - e**2
        K, E = _complete_KE((k * math.sqrt(C2) / A) ** 2)
        # dK/deps = dK/dm dm/deps, which k^2 / (A^2 m) = 1 / C^2 reduces
        # to -(E - (1 - m) K) / (eps C^2)
        dK = -(E - (e / A) ** 2 * K) / (e * C2)
        return (4.0 * A * K / kp - dyn_target,
                4.0 * (e * kp2 / A * K + A * dK) / kp)

    lo, hi = 1e-6, 0.999999
    x = min(max(4.0 * k * math.exp(-dyn_target * kp / (4.0 * k)), lo), hi)
    h, dh = residual_and_slope(x)
    for _ in range(_BRENT_STEPS):
        if h == 0.0:
            return x, 0.0, True
        if h > 0.0:
            lo = x
        else:
            hi = x
        step = -h / dh
        x_new = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        step, x = x_new - x, x_new
        h, dh = residual_and_slope(x)
        if abs(step) <= xtol + 4.0 * _EPS * abs(x):
            return x, h, abs(h) <= 1e3 * xtol * abs(dh)
    return x, h, False


def design_phase_gate(target_phase: float, p_a: TopParameters, *,
                      eps_a: float = 0.01, n: int = 8193,
                      k_margin: float = 0.015, identity_tol: float = 1e-6):
    """Concatenate two opposed orbit loops into a diagonal phase gate.

    The second loop is rigidly reoriented so both loops wind about the
    same base point and carry equal dynamical phases; one is traversed
    backwards, so only the geometric difference survives.  The free
    knobs are k of the second orbit (the outer root, setting the
    geometric sum) and its eps (the inner root, cancelling the dynamical
    sum), solved by _search at the first sign change of the closed-form
    spread's k scan, per orientation.  The orientation is a sign s: +1
    runs loop a backwards ("reverse_first"), -1 loop b ("reverse_second"),
    and 0 is a target within identity_tol of 0 or 2 pi, one loop against
    itself ("degenerate", budget_b is budget_a).  The returned budget's
    dynamical and geometric sums are s b - s a of the loops' closed-form
    budgets, and its total is the rotation angle about e3 propagated
    through the shipped pulse.  The composite is rotated so the base
    point sits on e3, making the gate diagonal with relative phase equal
    to the geometric sum.  Returns (design, pulse, budget); infeasible
    targets come back with converged False and the achieved budget.
    """
    phi = float(target_phase)
    if not 0.0 < phi < 2.0 * math.pi:
        raise ValueError("target_phase must lie in (0, 2 pi)")

    k_a = p_a.k
    base = tre_initial(p_a, eps_a, Family.ROTATING)
    loop_a = tre_loop_pulse(p_a, eps_a, Family.ROTATING, n=n)
    budget_a = _closed_budget(p_a, eps_a, Family.ROTATING)
    if phi <= identity_tol or 2.0 * math.pi - phi <= identity_tol:
        s, p_b, eps_b, converged = 0, p_a, eps_a, True
        budget_b = budget_a
        comp, W = concat([inverse_pulse(loop_a), loop_a]), np.eye(3)
    else:
        dyn_a = budget_a.dynamical
        area_a = -budget_a.geometric
        kp_min = 2.0 * math.pi / dyn_a
        if kp_min >= 1.0:
            raise ValueError("eps_a leaves no dynamical headroom; reduce it")
        k_max = math.sqrt(1.0 - kp_min**2) - k_margin
        if k_max <= k_a + k_margin:
            raise ValueError("no k range above k_a matches this dynamical "
                             "phase; reduce eps_a")

        def spread(kb: float) -> float:
            pb = TopParameters(kb)
            eb, _, _ = _match_dynamical(pb, dyn_a)
            return area_a + _orbit_solid_angle(pb, eb, Family.ROTATING)

        ks = np.linspace(k_a + k_margin, k_max, 33)
        ds = [spread(float(x)) for x in ks]
        for s, phi_eff in ((1, phi), (-1, 2.0 * math.pi - phi)):
            k_b, converged, i = _search(
                ks, [d - phi_eff for d in ds], None, n,
                lambda kbs: [spread(float(x)) - phi_eff for x in kbs],
                _sign_change, lambda changes: changes[0] if changes else None)
            if i is not None:
                break
        else:
            # report the closest achievable spread instead of failing
            gaps = [min(abs(d - phi), abs(d - (2.0 * math.pi - phi)))
                    for d in ds]
            j = int(np.argmin(gaps))
            s = 1 if abs(ds[j] - phi) <= abs(ds[j] - (2.0 * math.pi - phi)) \
                else -1
            k_b, converged = float(ks[j]), False

        p_b = TopParameters(k_b)
        eps_b, _, matched = _match_dynamical(p_b, dyn_a)
        converged = converged and matched
        budget_b = _closed_budget(p_b, eps_b, Family.ROTATING)
        V = _rotation_between(tre_initial(p_b, eps_b, Family.ROTATING), base)
        loop_b = rotate_pulse(tre_loop_pulse(p_b, eps_b, Family.ROTATING, n=n),
                              V)
        comp = concat([inverse_pulse(loop_a), loop_b] if s > 0
                      else [loop_a, inverse_pulse(loop_b)])
        W = _rotation_between(base, _E3)

    orientation = {1: "reverse_first", -1: "reverse_second",
                   0: "degenerate"}[s]
    aligned = rotate_pulse(comp, W)
    R, U = _shipped_final(aligned)
    off_diag = float(max(abs(U[0, 1]), abs(U[1, 0])))
    achieved = float((np.angle(U[0, 0]) - np.angle(U[1, 1])) % (2.0 * math.pi))
    # s b - s a, not s (b - a): it keeps the signed zero of b - a or a - b
    dyn_sum = s * budget_b.dynamical - s * budget_a.dynamical
    geo_sum = s * budget_b.geometric - s * budget_a.geometric
    total = _frame_angle(R, _E3)
    budget = PhaseBudget(total=total, dynamical=dyn_sum, geometric=geo_sum)
    target_U = np.diag([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    fid = gate_fidelity(U, target_U)
    resid = float(np.linalg.norm(R - _rotation_about(_E3, -phi)))
    phase_gap = abs(_util.wrap_angle(achieved - phi))
    residuals = {"off_diagonal": off_diag,
                 "dynamical_cancellation": abs(dyn_sum),
                 "geometric_mismatch": abs(_util.wrap_angle(geo_sum - phi)),
                 "phase": phase_gap,
                 "so3": resid,
                 "coupling": _coupling_defect(resid, fid)}
    design = PhaseGateDesign(
        target_phase=phi, achieved_phase=achieved,
        k_a=k_a, eps_a=eps_a, k_b=p_b.k, eps_b=eps_b,
        base_point=tuple(float(x) for x in base), orientation=orientation,
        budget_a=budget_a, budget_b=budget_b, fidelity=fid,
        residuals=residuals,
        converged=bool(converged and phase_gap <= 1e-3
                       and abs(dyn_sum) <= 1e-4))
    meta = {"kind": "phase_gate", "k": k_a, "eps": eps_a,
            "k_b": p_b.k, "eps_b": eps_b, "target_phase": phi,
            "orientation": orientation}
    return design, replace(aligned, meta=meta), budget


# ---------------------------------------------------------------------------
# one-qubit synthesis


@dataclass(frozen=True)
class SynthesisProgram:
    """Ordered pulse segments composing to a target unitary."""

    target: np.ndarray
    segments: tuple
    labels: tuple
    fidelity: float

    @property
    def pulse(self) -> ControlPulse | None:
        if not self.segments:
            return None
        return concat(list(self.segments))


def _loop_angles(p: TopParameters, es, n: int) -> list:
    """Rotation angle of each closed loop about its own base point."""
    return [_frame_angle(_rotations(q),
                         tre_initial(p, float(e), Family.ROTATING))
            for e, q in zip(es, _scan_finals(p, es, Family.ROTATING, n,
                                             loop=True))]


def _loop_scan(p: TopParameters):
    """(es, phis, periods): a descending log grid of eps and the
    _orbit_phases of its rotating loops, for any target angle and n."""
    es = np.geomspace(0.9, 5e-3, 96)
    return (es, *_orbit_phases(p, es, Family.ROTATING))


def _solve_loop(p: TopParameters, want: float, table, n: int):
    """(eps, converged, loop, axis): the orbit loop whose rotation angle is
    want, a wrapped angle, and the axis that rotation turns about.

    table is the _loop_scan of p.  The objective is the wrapped gap
    between the sampled loop angle (_loop_angles) and want, wrap(phi -
    want) in closed form; _search solves the first interval of the grid
    where it passes through zero (_angle_crossing).  The axis is signed
    so that the loop turns by want about it.
    """
    es, phis, periods = table

    def gap(xs) -> list:
        return [_util.wrap_angle(v - want) for v in _loop_angles(p, xs, n)]

    eps_star, converged, _ = _search(
        es, [_util.wrap_angle(v - want) for v in phis], periods, n, gap,
        _angle_crossing, lambda crossings: crossings[0] if crossings else None)

    loop = tre_loop_pulse(p, eps_star, Family.ROTATING, n=n)
    q = spinor_quaternion(su2_final(loop))
    s = np.linalg.norm(q[1:])
    axis = q[1:] / s
    # canonicalize to a rotation angle in (0, pi], then match the sign
    if 2.0 * math.atan2(s, q[0]) > math.pi:
        axis = -axis
    if want < 0.0:
        axis = -axis
    return eps_star, converged, loop, axis


def synthesize_one_qubit(U_target, p: TopParameters | None = None,
                         n: int = 4096, angle_tol: float = 1e-9):
    """Euler decomposition of a unitary over loop and NOT primitives.

    Factors the target (up to global phase) as Rz(gamma) Rx(beta)
    Rz(alpha) and realizes each factor with a tuned orbit loop; an exact
    pi about e1 uses the tuned NOT transfer instead.  One closed-form
    loop-angle table (_loop_scan) serves every loop gate of the program,
    and each distinct wrapped angle is solved once (_solve_loop): gates
    that want the same angle share its eps, loop and convergence flag and
    differ only in the rotation that aligns the loop's axis.  Returns a
    SynthesisProgram whose segments apply in time order.
    """
    p = TopParameters(0.5) if p is None else p
    U = np.asarray(U_target, dtype=complex)
    if U.shape != (2, 2) or np.linalg.norm(U @ U.conj().T - np.eye(2)) > 1e-9:
        raise ValueError("target must be a 2x2 unitary")
    V = U / np.sqrt(np.linalg.det(U))

    beta = 2.0 * math.atan2(abs(V[1, 0]), abs(V[0, 0]))
    if beta <= angle_tol:
        gamma, alpha = -2.0 * float(np.angle(V[0, 0])), 0.0
        beta = 0.0
    elif math.pi - beta <= angle_tol:
        gamma = 2.0 * float(np.angle(V[1, 0])) + math.pi
        alpha = 0.0
        beta = math.pi
    else:
        sum_ga = -2.0 * float(np.angle(V[0, 0]))
        diff_ga = -2.0 * float(np.angle(V[0, 1])) - math.pi
        gamma = 0.5 * (sum_ga + diff_ga)
        alpha = 0.5 * (sum_ga - diff_ga)

    steps = []
    if abs(_util.wrap_angle(alpha)) > angle_tol:
        steps.append(("z-loop", _E3, alpha))
    if abs(_util.wrap_angle(beta - math.pi)) <= angle_tol:
        steps.append(("not", None, None))
    elif abs(_util.wrap_angle(beta)) > angle_tol:
        steps.append(("x-loop", _E1, beta))
    if abs(_util.wrap_angle(gamma)) > angle_tol:
        steps.append(("z-loop", _E3, gamma))

    labels = [label for label, _, _ in steps]
    table = _loop_scan(p) if set(labels) - {"not"} else None
    solved = {}
    segments: list[ControlPulse] = []
    for label, axis, angle in steps:
        if label == "not":
            _, pulse, report = tune_not_gate(p, (0.001, 0.5), n=n)
            segments.append(replace(pulse, meta=dict(
                pulse.meta, converged=report.converged)))
        else:
            want = _util.wrap_angle(angle)
            if want not in solved:
                solved[want] = _solve_loop(p, want, table, n)
            eps_star, converged, loop, loop_axis = solved[want]
            # the loop rigidly rotated so that its axis is this gate's
            segments.append(replace(
                rotate_pulse(loop, _rotation_between(loop_axis, axis)),
                meta={"kind": "loop_gate", "k": p.k, "eps": eps_star,
                      "angle": want, "n": n, "converged": bool(converged)}))

    comp = np.eye(2, dtype=complex)
    for seg in segments:
        comp = su2_final(seg) @ comp
    fid = gate_fidelity(comp, U)
    return SynthesisProgram(target=U, segments=tuple(segments),
                            labels=tuple(labels), fidelity=fid)
