"""Euler-top dynamics against direct numerical integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from blochtop.topdyn import (
    Family,
    TopParameters,
    TrajectoryClass,
    analytic_trajectory,
    classify,
    energy,
    euler_rhs,
    orbit_constants,
    orbit_period,
    separatrix_trajectory,
    transfer_period,
    tre_initial,
)

FAMILIES = [Family.ROTATING, Family.OSCILLATING]
CASES = [(0.2, 0.3), (0.5, 0.01), (0.5, 0.7), (0.9, 0.1), (0.99, 0.5)]


def integrate(p, L0, t_span, t_eval=None, events=None):
    return solve_ivp(lambda t, y: euler_rhs(y, p), t_span, L0, method="DOP853",
                     rtol=1e-12, atol=1e-12, t_eval=t_eval, events=events)


def test_euler_rhs_value():
    p = TopParameters(0.7)
    rhs = euler_rhs([0.3, 0.4, 0.5], p)
    assert_allclose(rhs, [-0.098, -0.0765, 0.12], atol=1e-15)


def test_euler_rhs_batched_shape():
    p = TopParameters(0.5)
    L = np.zeros((4, 7, 3))
    assert euler_rhs(L, p).shape == (4, 7, 3)


def test_invariants_annihilate_rhs():
    p = TopParameters(0.6)
    rng = np.random.default_rng(11)
    L = rng.normal(size=(10000, 3))
    L /= np.linalg.norm(L, axis=-1, keepdims=True)
    rhs = euler_rhs(L, p)
    assert np.max(np.abs(np.sum(L * rhs, axis=-1))) < 1e-15
    gradE = np.stack([L[:, 0], np.zeros(len(L)), p.k**2 * L[:, 2]], axis=-1)
    assert np.max(np.abs(np.sum(gradE * rhs, axis=-1))) < 1e-15


def test_energy_landscape():
    p = TopParameters(0.5)
    assert energy([1.0, 0.0, 0.0], p) == 0.5
    assert energy([0.0, 1.0, 0.0], p) == 0.0
    assert_allclose(energy([0.0, 0.0, 1.0], p), p.separatrix_energy, rtol=1e-15)
    assert p.separatrix_energy == 0.125


def test_parameter_validation():
    with pytest.raises(ValueError):
        TopParameters(0.0)
    with pytest.raises(ValueError):
        TopParameters(1.0)
    with pytest.raises(ValueError):
        tre_initial(TopParameters(0.5), 0.0, Family.ROTATING)
    with pytest.raises(ValueError):
        orbit_constants(TopParameters(0.5), 1.0, Family.ROTATING)


def test_classify_all_classes():
    p = TopParameters(0.6)
    assert classify(np.array([1.0, 0, 0]), p) is TrajectoryClass.STABLE_FIXED_POINT
    assert classify(np.array([0, 1.0, 0]), p) is TrajectoryClass.STABLE_FIXED_POINT
    assert classify(np.array([0, 0, 1.0]), p) is TrajectoryClass.UNSTABLE_FIXED_POINT
    assert classify(separatrix_trajectory(p, 0.7), p) is TrajectoryClass.SEPARATRIX
    rot = tre_initial(p, 0.3, Family.ROTATING)
    osc = tre_initial(p, 0.3, Family.OSCILLATING)
    assert classify(rot, p) is TrajectoryClass.ROTATING
    assert classify(osc, p) is TrajectoryClass.OSCILLATING
    # antipodal points lie on the same kind of orbit
    for L in (rot, osc, np.array([0, 0, 1.0]), separatrix_trajectory(p, 0.7)):
        assert classify(-L, p) is classify(L, p)


def test_classify_rejects_batch():
    with pytest.raises(ValueError):
        classify(np.zeros((2, 3)), TopParameters(0.5))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k,eps", CASES)
def test_orbit_family_energy(k, eps, family):
    p = TopParameters(k)
    oc = orbit_constants(p, eps, family)
    E0 = float(energy(tre_initial(p, eps, family), p))
    assert_allclose(oc.energy, E0, rtol=1e-14)
    if family is Family.ROTATING:
        assert oc.energy > p.separatrix_energy
    else:
        assert oc.energy < p.separatrix_energy
    assert 0.0 < oc.m < 1.0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k,eps", CASES)
def test_analytic_starts_at_tre_initial(k, eps, family):
    p = TopParameters(k)
    L0 = analytic_trajectory(p, eps, family, 0.0)
    assert_allclose(L0, tre_initial(p, eps, family), atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k,eps", CASES)
def test_analytic_conserves_norm_and_energy(k, eps, family):
    p = TopParameters(k)
    t = np.linspace(0.0, orbit_period(p, eps, family), 400)
    L = analytic_trajectory(p, eps, family, t)
    assert_allclose(np.linalg.norm(L, axis=-1), 1.0, atol=1e-13)
    oc = orbit_constants(p, eps, family)
    assert_allclose(energy(L, p), oc.energy, atol=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k,eps", CASES)
def test_analytic_matches_ode(k, eps, family):
    p = TopParameters(k)
    T = orbit_period(p, eps, family)
    t = np.linspace(0.0, T, 300)
    sol = integrate(p, tre_initial(p, eps, family), (0.0, T), t_eval=t)
    assert np.max(np.abs(sol.y.T - analytic_trajectory(p, eps, family, t))) < 1e-8


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k,eps", [(0.5, 0.1), (0.8, 0.4)])
def test_transfer_period_against_event_oracle(k, eps, family):
    # L3 starts near +1 and hits zero halfway through the transfer
    p = TopParameters(k)
    T = transfer_period(p, eps, family)
    hit = lambda t, y: y[2]
    hit.terminal = True
    sol = integrate(p, tre_initial(p, eps, family), (0.0, 2.0 * T), events=hit)
    assert_allclose(2.0 * sol.t_events[0][0], T, rtol=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_orbit_closes(family):
    p = TopParameters(0.7)
    T = orbit_period(p, 0.2, family)
    assert_allclose(transfer_period(p, 0.2, family), 0.5 * T, rtol=1e-15)
    L = analytic_trajectory(p, 0.2, family, np.array([0.0, T]))
    assert_allclose(L[1], L[0], atol=1e-9)


def test_transfer_period_grows_toward_pole():
    p = TopParameters(0.5)
    Ts = [transfer_period(p, e, Family.ROTATING) for e in (0.5, 1e-2, 1e-4)]
    assert Ts[0] < Ts[1] < Ts[2]


def test_transfer_reaches_far_pole():
    p = TopParameters(0.5)
    for family in FAMILIES:
        eps = 0.05
        T = transfer_period(p, eps, family)
        L = analytic_trajectory(p, eps, family, T)
        assert_allclose(L[2], -math.sqrt(1.0 - eps**2), atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.floats(math.log(1e-7), math.log(0.9)), st.floats(0.05, 0.95),
       st.sampled_from(FAMILIES))
def test_transfer_ends_at_turning_point_near_separatrix(log_eps, k, family):
    eps = math.exp(log_eps)
    p = TopParameters(k)
    L = analytic_trajectory(p, eps, family, transfer_period(p, eps, family))
    turn = [eps, 0.0, -math.sqrt(1.0 - eps**2)]
    if family is Family.OSCILLATING:
        turn[:2] = turn[1::-1]
    assert_allclose(L, turn, rtol=0, atol=1e-8)


@pytest.mark.parametrize("family", FAMILIES)
def test_eps_whose_m_rounds_to_one_is_refused(family):
    with pytest.raises(ValueError, match="eps = 1e-09 .* k = 0.5"):
        orbit_constants(TopParameters(0.5), 1e-9, family)


def test_separatrix_exact_energy_and_limits():
    p = TopParameters(0.8)
    t = np.linspace(-60.0, 60.0, 101)
    L = separatrix_trajectory(p, t)
    assert_allclose(np.linalg.norm(L, axis=-1), 1.0, atol=1e-15)
    assert_allclose(energy(L, p), p.separatrix_energy, atol=1e-16)
    assert_allclose(L[0], [0.0, 0.0, -1.0], atol=1e-10)
    assert_allclose(L[-1], [0.0, 0.0, 1.0], atol=1e-10)
    down = separatrix_trajectory(p, t, branch=-1)
    assert_allclose(down[0], [0.0, 0.0, 1.0], atol=1e-10)
    assert down[50, 1] < 0.0
    with pytest.raises(ValueError):
        separatrix_trajectory(p, 0.0, branch=0)


@pytest.mark.parametrize("branch", [+1, -1])
def test_separatrix_solves_euler(branch):
    p = TopParameters(0.55)
    c = p.k * math.sqrt(1.0 - p.k**2)
    t = np.linspace(-6.0 / c, 6.0 / c, 80)
    h = 1e-5
    deriv = (separatrix_trajectory(p, t + h, branch)
             - separatrix_trajectory(p, t - h, branch)) / (2.0 * h)
    rhs = euler_rhs(separatrix_trajectory(p, t, branch), p)
    assert_allclose(deriv, rhs, atol=1e-9)


def test_separatrix_matches_ode_over_window():
    # ten e-folds on each side of the waist
    for k in (0.3, 0.5, 0.9):
        p = TopParameters(k)
        c = k * math.sqrt(1.0 - k**2)
        t0, t1 = -10.0 / c, 10.0 / c
        ts = np.linspace(t0, t1, 201)
        sol = solve_ivp(lambda t, y: euler_rhs(y, p), (t0, t1),
                        separatrix_trajectory(p, t0), method="DOP853",
                        rtol=1e-13, atol=1e-13, t_eval=ts)
        assert np.max(np.abs(sol.y.T - separatrix_trajectory(p, ts))) < 1e-8
