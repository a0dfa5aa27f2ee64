"""Complete elliptic integrals and Jacobi elliptic functions.

Everything here uses the parameter convention m = k**2, so sn(u, m)
has real quarter period K(m); m = 1 exactly takes the hyperbolic forms.
One arithmetic-geometric mean sequence, _agm, feeds the integrals and
the descending Landen transformation of the functions, each stopping
it at its own test; it converges quadratically, so a handful of
iterations reaches double precision for any m < 1.
"""

from __future__ import annotations

import math

import numpy as np

_AGM_TOL = 1e-16
_AGM_MAX = 64

# The Landen chain stops at |a - b| <= tol * a; the truncation error in
# the results scales like tol**2.
_LANDEN_TOL = 1e-8


def _agm(m: float):
    """The AGM pairs (a_j, b_j) from (1, sqrt(1 - m)), at most _AGM_MAX."""
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(_AGM_MAX):
        yield a, b
        a, b = 0.5 * (a + b), math.sqrt(a * b)


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind K(m)."""
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise ValueError(f"m must lie in [0, 1), got {m}")
    return _complete_KE(m)[0]


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind E(m)."""
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m}")
    if m == 1.0:
        return 1.0
    return _complete_KE(m)[1]


def _complete_KE(m: float):
    """(K(m), E(m)) from one AGM pass, for 0 <= m < 1 (unchecked);
    K is complete_K's value."""
    c2sum = 0.5 * m
    w = 0.5
    last = None
    for pair in _agm(m):
        # a pair that repeats is a one-ulp fixed point of the rounded AGM:
        # its c never reaches the stop test, and w c^2 would only add junk
        if pair == last:
            break
        last = pair
        a, b = pair
        c = 0.5 * (a - b)
        a = 0.5 * (a + b)
        w *= 2.0
        c2sum += w * c * c
        if c <= _AGM_TOL * a:
            break
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - c2sum)


def complete_Pi(nu: float, m: float) -> float:
    """Complete elliptic integral of the third kind Pi(nu | m).

    Pi(nu | m) = int_0^{pi/2} dt / ((1 - nu sin^2 t) sqrt(1 - m sin^2 t)),
    for finite nu < 1 and 0 <= m < 1, by the AGM recurrence of DLMF
    19.8.6-19.8.8: alongside a_j, g_j run p_j (p_0 = sqrt(1 - nu)) and
    Q_j (Q_0 = 1), with e_j = (p_j^2 - a_j g_j) / (p_j^2 + a_j g_j),
    p_{j+1} = (p_j^2 + a_j g_j) / (2 p_j) and Q_{j+1} = Q_j e_j / 2; then
    Pi = pi / (4 M) (2 + nu / (1 - nu) S), S = sum_j Q_j, M the AGM limit.

    The bracket is summed as D + S / (1 - nu), D = 2 - S: for nu << 0 it
    is a small difference of terms near 2.  With P_j = e_0 ... e_{j-1},
    Q_j = P_j / 2^j and D = sum_{j>=1} (1 - P_j) / 2^j, and 1 - P_j
    accumulates the terms P_i (1 - e_i), which are >= 0 up to rounding
    for nu <= 0.
    """
    nu, m = float(nu), float(m)
    if not -math.inf < nu < 1.0:
        raise ValueError(f"nu must be finite and below 1, got {nu}")
    if not 0.0 <= m < 1.0:
        raise ValueError(f"m must lie in [0, 1), got {m}")
    p = math.sqrt(1.0 - nu)
    P, one_minus_P = 1.0, 0.0
    S, D, w = 1.0, 0.0, 1.0
    last = None
    for a, g in _agm(m):
        # a repeated pair is a one-ulp fixed point that |a - g| may never pass
        if ((abs(a - g) <= _AGM_TOL * a or (a, g) == last)
                and abs(w * P) <= _AGM_TOL * S):
            break
        last = a, g
        p2, ag = p * p, a * g
        q = p2 + ag
        one_minus_P += P * (2.0 * ag / q)
        P *= (p2 - ag) / q
        w *= 0.5
        S += w * P
        D += w * one_minus_P
        p = 0.5 * q / p
    else:
        a = 0.5 * (a + g)
    # the terms past the last, (1 - P_j) / 2^j with P_j ~ 0, sum to w
    return math.pi / (4.0 * a) * (D + w + S / (1.0 - nu))


def jacobi_sn_cn_dn(u, m: float):
    """Jacobi elliptic functions sn, cn, dn of argument u and parameter m.

    u may be a scalar or an array; the three outputs match its shape.
    Valid for 0 <= m <= 1.  There is no argument reduction: the Landen
    scaling maps the real period onto the trig period exactly, so large
    |u| loses no accuracy beyond ordinary sin/cos conditioning.
    """
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m}")
    scalar = np.ndim(u) == 0
    arr = np.atleast_1d(np.asarray(u, dtype=float))

    if m == 1.0:
        # cosh overflows past |u| ~ 710, where sech is 0 to double precision
        with np.errstate(over="ignore"):
            cn = 1.0 / np.cosh(arr)
        sn, dn = np.tanh(arr), cn.copy()
    else:
        # Descending Landen chain, shared by every element of u.
        chain = []
        for a, b in _agm(m):
            chain.append((a, b))
            if abs(a - b) <= _LANDEN_TOL * a:
                break
        c = 0.5 * (a + b)

        # the chain runs in place in per-call buffers, each operation on
        # the operands of the textbook form (so each rounds as it does);
        # sin and cos write to buffers apart from their input w, which
        # then serves as scratch
        w = c * arr
        sn0 = np.sin(w)
        zero = sn0 == 0.0
        safe = np.where(zero, 1.0, sn0) if zero.any() else sn0
        # cot(w)**2 overflows for 0 < |u| below about 1e-154 and leaves dd
        # NaN; such finite u take the small-u limits sn = u, cn = dn = 1
        with np.errstate(over="ignore", invalid="ignore"):
            aa = np.cos(w)
            np.divide(aa, safe, out=aa)
            cc = aa * c
            dd = np.ones_like(w)
            t, s = np.empty_like(w), w
            for b_em, b_en in reversed(chain):
                np.multiply(aa, cc, out=t)
                np.multiply(cc, dd, out=cc)
                np.add(b_en, t, out=dd)
                np.add(b_em, t, out=s)
                np.divide(dd, s, out=dd)
                np.divide(cc, b_em, out=aa)
            # amp = 1 / sqrt(cc cc + 1), and sn = amp where sn0 >= 0, else
            # -amp, written over sn0
            np.multiply(cc, cc, out=s)
            np.add(s, 1.0, out=s)
            np.sqrt(s, out=s)
            np.divide(1.0, s, out=s)
            positive = sn0 >= 0.0
            sn = np.negative(s, out=sn0)
            np.copyto(sn, s, where=positive)
            cn = np.multiply(cc, sn, out=t)
        dn = dd
        nan = np.isnan(dd)
        if zero.any() or nan.any():
            tiny = nan & (np.abs(arr) < 1.0)
            sn = np.where(zero, 0.0, np.where(tiny, arr, sn))
            cn = np.where(zero | tiny, 1.0, cn)
            dn = np.where(zero | tiny, 1.0, dd)

    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn
