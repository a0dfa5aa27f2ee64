"""Complete elliptic integrals and Jacobi elliptic functions.

Everything here uses the parameter convention m = k**2, so sn(u, m)
has real quarter period K(m) and the m -> 1 limit is hyperbolic.
The integrals come from the arithmetic-geometric mean, the functions
from a descending Landen transformation; both converge quadratically,
so a handful of iterations reaches double precision.
"""

from __future__ import annotations

import math

import numpy as np

_AGM_TOL = 1e-16
_AGM_MAX = 64

# Forward Landen chain stops at |a - b| <= tol * a; the truncation
# error in the results scales like tol**2.
_LANDEN_TOL = 1e-8
_LANDEN_MAX = 16

# Below this distance from m = 1 the chain cannot resolve the modulus
# and the exact m = 1 hyperbolic forms are used instead.
_HYPERBOLIC_SWITCH = 1e-12


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind K(m)."""
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise ValueError(f"m must lie in [0, 1), got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(_AGM_MAX):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind E(m)."""
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m}")
    if m == 1.0:
        return 1.0
    return _complete_KE(m)[1]


def _complete_KE(m: float):
    """(K(m), E(m)) from one AGM pass, for 0 <= m < 1 (unchecked).

    E carries the bits of complete_E, and K is pi / (2 a) of the same
    pass; complete_K stops its AGM one step earlier, so the two K may
    differ in the last bit.
    """
    a, b = 1.0, math.sqrt(1.0 - m)
    c2sum = 0.5 * m
    w = 0.5
    for _ in range(_AGM_MAX):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
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
    a, g = 1.0, math.sqrt(1.0 - m)
    p = math.sqrt(1.0 - nu)
    P, one_minus_P = 1.0, 0.0
    S, D, w = 1.0, 0.0, 1.0
    for _ in range(_AGM_MAX):
        if abs(a - g) <= _AGM_TOL * a and abs(w * P) <= _AGM_TOL * S:
            break
        p2, ag = p * p, a * g
        q = p2 + ag
        one_minus_P += P * (2.0 * ag / q)
        P *= (p2 - ag) / q
        w *= 0.5
        S += w * P
        D += w * one_minus_P
        p = 0.5 * q / p
        a, g = 0.5 * (a + g), math.sqrt(ag)
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
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)

    if 1.0 - m < _HYPERBOLIC_SWITCH:
        cn = 1.0 / np.cosh(arr)
        sn, dn = np.tanh(arr), cn.copy()
    else:
        # Scalar descending Landen chain, shared by every element of u.
        em: list[float] = []
        en: list[float] = []
        a, emc = 1.0, 1.0 - m
        c = 0.5 * (a + math.sqrt(emc))
        for _ in range(_LANDEN_MAX):
            em.append(a)
            emc = math.sqrt(emc)
            en.append(emc)
            c = 0.5 * (a + emc)
            if abs(a - emc) <= _LANDEN_TOL * a:
                break
            emc *= a
            a = c

        w = c * arr
        sn0 = np.sin(w)
        cn0 = np.cos(w)
        zero = sn0 == 0.0
        safe = np.where(zero, 1.0, sn0)
        aa = cn0 / safe
        cc = aa * c
        dd = np.ones_like(w)
        for b_em, b_en in zip(reversed(em), reversed(en)):
            t = aa * cc
            cc = cc * dd
            dd = (b_en + t) / (b_em + t)
            aa = cc / b_em
        amp = 1.0 / np.sqrt(cc * cc + 1.0)
        sn = np.where(sn0 >= 0.0, amp, -amp)
        cn = cc * sn
        sn = np.where(zero, 0.0, sn)
        cn = np.where(zero, cn0, cn)
        dn = np.where(zero, 1.0, dd)

    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn
