"""Free rigid-body (Euler top) dynamics on the unit angular-momentum sphere.

The body is parametrized by a single asymmetry 0 < k < 1.  In scaled
body-frame coordinates the angular momentum L obeys

    dL1/dt = -k**2 L2 L3
    dL2/dt = (k**2 - 1) L1 L3
    dL3/dt = L1 L2

which is L' = Omega x L with Omega = (L1, 0, k**2 L3).  Both |L| and
the energy E = (L1**2 + k**2 L3**2) / 2 are conserved.  Level sets of
E foliate the sphere into two families of closed orbits separated by
the separatrix E = k**2 / 2 through the unstable poles +-e3: rotating
orbits (E above, circling +-e1) and oscillating orbits (E below,
circling +-e2).  Closed orbits are Jacobi elliptic functions and the
separatrix is hyperbolic; both closed forms live here.  A closed orbit's
constants (orbit_constants) are computed once; _orbit_point evaluates its
Jacobi closed form for a caller that already holds them, so the pulse
sampler reads L1 and L3 without rebuilding the constants per block, and
analytic_trajectory is the stack of its three components.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elliptic import complete_K, jacobi_sn_cn_dn


@dataclass(frozen=True)
class TopParameters:
    """Body asymmetry parameter, 0 < k < 1."""

    k: float

    def __post_init__(self):
        if not 0.0 < self.k < 1.0:
            raise ValueError(f"k must lie in (0, 1), got {self.k}")

    @property
    def separatrix_energy(self) -> float:
        return 0.5 * self.k**2


class Family(enum.Enum):
    """Which closed-orbit family a trajectory belongs to."""

    ROTATING = "rotating"
    OSCILLATING = "oscillating"


class TrajectoryClass(enum.Enum):
    ROTATING = "rotating"
    OSCILLATING = "oscillating"
    SEPARATRIX = "separatrix"
    STABLE_FIXED_POINT = "stable fixed point"
    UNSTABLE_FIXED_POINT = "unstable fixed point"


def euler_rhs(L, p: TopParameters):
    """Time derivative of L.  Batched: L has shape (..., 3)."""
    L = np.asarray(L, dtype=float)
    k2 = p.k**2
    return np.stack(
        [
            -k2 * L[..., 1] * L[..., 2],
            (k2 - 1.0) * L[..., 0] * L[..., 2],
            L[..., 0] * L[..., 1],
        ],
        axis=-1,
    )


def energy(L, p: TopParameters):
    """Conserved energy (L1**2 + k**2 L3**2) / 2.  Batched like euler_rhs."""
    L = np.asarray(L, dtype=float)
    return 0.5 * (L[..., 0] ** 2 + p.k**2 * L[..., 2] ** 2)


def classify(L, p: TopParameters, tol: float = 1e-12) -> TrajectoryClass:
    """Orbit class of the trajectory through unit vector L."""
    L = np.asarray(L, dtype=float)
    if L.shape != (3,):
        raise ValueError("classify expects a single unit vector of shape (3,)")
    if np.max(np.abs(euler_rhs(L, p))) <= tol:
        if abs(L[2]) >= abs(L[0]) and abs(L[2]) >= abs(L[1]):
            return TrajectoryClass.UNSTABLE_FIXED_POINT
        return TrajectoryClass.STABLE_FIXED_POINT
    dE = float(energy(L, p)) - p.separatrix_energy
    if abs(dE) <= tol:
        return TrajectoryClass.SEPARATRIX
    if dE > 0.0:
        return TrajectoryClass.ROTATING
    return TrajectoryClass.OSCILLATING


class OrbitConstants(NamedTuple):
    """Closed-form constants of one orbit.

    amp1..amp3 multiply the Jacobi functions on body axes 1..3; the
    rotating family carries (dn, cn, sn), the oscillating family
    (cn, dn, sn).  The argument is u = omega * t + u0 with parameter m,
    and K is the quarter period K(m).  energy is that of the base point
    tre_initial, with the bits of topdyn.energy there.
    """

    amp1: float
    amp2: float
    amp3: float
    m: float
    omega: float
    u0: float
    energy: float
    K: float


def _check_eps(eps: float):
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def tre_initial(p: TopParameters, eps: float, family: Family):
    """Starting point a distance ~eps from the unstable pole +e3.

    The offset sits on body axis 1 for the rotating family and on
    axis 2 for the oscillating family.
    """
    _check_eps(eps)
    c = math.sqrt(1.0 - eps**2)
    if family is Family.ROTATING:
        return np.array([eps, 0.0, c])
    return np.array([0.0, eps, c])


def orbit_constants(p: TopParameters, eps: float, family: Family) -> OrbitConstants:
    """Constants of the closed orbit through tre_initial(p, eps, family)."""
    _check_eps(eps)
    k = p.k
    C = math.sqrt(1.0 - eps**2)
    if family is Family.ROTATING:
        A = math.sqrt(k**2 + eps**2 * (1.0 - k**2))
        if A == 0.0:
            raise ValueError(f"k = {k}, eps = {eps}: the amplitude A is 0")
        B = C * math.sqrt(1.0 - k**2)
        m = (k * C / A) ** 2
        omega = A * math.sqrt(1.0 - k**2)
        L1 = eps
        amps = (A, B, C)
    else:
        A = math.sqrt(1.0 - k**2 + (k * eps) ** 2)
        B = k * C
        m = (1.0 - k**2) * (C / A) ** 2
        omega = k * A
        L1 = 0.0
        amps = (B, A, C)
    if m >= 1.0:
        raise ValueError(f"eps = {eps} is too close to the separatrix at "
                         f"k = {k}: the orbit's parameter m rounds to 1")
    K = complete_K(m)
    if not 4.0 * K / omega < math.inf:
        raise ValueError(f"k = {k}, eps = {eps}: the orbit's period overflows")
    # the base point's energy with the bits of energy(tre_initial(...)):
    # numpy squares L1 and L3 by multiplying, which x**2 need not match,
    # and energy takes k**2 as here
    E = 0.5 * (L1 * L1 + k**2 * (C * C))
    return OrbitConstants(*amps, m=m, omega=omega, u0=K, energy=E, K=K)


def _orbit_point(oc: OrbitConstants, family: Family, t):
    """(L1, L2, L3) at times t on the orbit whose constants oc the caller
    holds: the Jacobi closed form at u = omega t + u0, each component of
    shape t.shape."""
    u = oc.omega * np.asarray(t, dtype=float) + oc.u0
    sn, cn, dn = jacobi_sn_cn_dn(u, oc.m)
    if family is Family.ROTATING:
        return oc.amp1 * dn, oc.amp2 * cn, oc.amp3 * sn
    return oc.amp1 * cn, oc.amp2 * dn, oc.amp3 * sn


def analytic_trajectory(p: TopParameters, eps: float, family: Family, t):
    """Closed-form L(t) on the orbit through tre_initial.  Shape t.shape + (3,)."""
    comps = _orbit_point(orbit_constants(p, eps, family), family, t)
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def transfer_period(p: TopParameters, eps: float, family: Family) -> float:
    """Pole-to-pole time: from near +e3 to the turning point near -e3."""
    oc = orbit_constants(p, eps, family)
    return 2.0 * oc.K / oc.omega


def orbit_period(p: TopParameters, eps: float, family: Family) -> float:
    """Full period of the closed orbit (twice the transfer time)."""
    oc = orbit_constants(p, eps, family)
    return 4.0 * oc.K / oc.omega


def separatrix_trajectory(p: TopParameters, t, branch: int = +1):
    """Heteroclinic orbit connecting the unstable poles.

    branch=+1 runs south to north, branch=-1 north to south.  Passes
    closest to the poles' midpoint at t = 0.  Energy equals the
    separatrix value exactly.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    k = p.k
    kp = math.sqrt(1.0 - k**2)
    u = k * kp * np.asarray(t, dtype=float)
    sech = 1.0 / np.cosh(u)
    comps = (k * sech, branch * kp * sech, branch * np.tanh(u))
    return np.stack(np.broadcast_arrays(*comps), axis=-1)
