"""Propagator correctness against closed forms and direct integration."""

import math
import os
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from blochtop import propagate
from blochtop.propagate import (
    ErrorParams,
    _averages,
    _final,
    _final_pairs,
    _final_states,
    _fold,
    _last,
    _mirror_final,
    _mul,
    _pairs,
    _path,
    _rotations,
    _scan,
    _steps,
    _unit,
    adjoint_map,
    axis_angle_path,
    bloch_propagate,
    gate_fidelity,
    so3_final,
    so3_propagate,
    spinor_quaternion,
    su2_final,
    su2_propagate,
)
from blochtop.pulsegen import (
    ControlPulse,
    _MirrorHalf,
    _mirror_half,
    concat,
    inverse_pulse,
    nmr_frame,
    rect_pi_pulse,
    tre_loop_pulse,
    tre_pulse,
)
from blochtop.robustness import merit_J2, merit_J3, sweep
from blochtop.topdyn import Family, TopParameters, analytic_trajectory, tre_initial

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def rodrigues(axis, angle):
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def su2_of(axis, angle):
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return (math.cos(0.5 * angle) * np.eye(2)
            - 1.0j * math.sin(0.5 * angle) * (n[0] * SX + n[1] * SY + n[2] * SZ))


def test_rect_pi_pulse_is_exact_not():
    pulse = rect_pi_pulse(1.0, n=100)
    assert_allclose(su2_final(pulse), -1.0j * SX, atol=1e-13)
    assert_allclose(so3_final(pulse), np.diag([1.0, -1.0, -1.0]), atol=1e-13)
    traj = bloch_propagate(pulse, np.array([0.0, 0.0, 1.0]))
    assert_allclose(traj.M[-1], [0.0, 0.0, -1.0], atol=1e-13)


@pytest.mark.parametrize("propagator", [
    lambda p, e: bloch_propagate(p, np.array([0.0, 0.0, 1.0]), e),
    so3_propagate, su2_propagate, so3_final, su2_final],
    ids=["bloch_propagate", "so3_propagate", "su2_propagate", "so3_final",
         "su2_final"])
@pytest.mark.parametrize("err, named", [
    (ErrorParams(alpha=1e308), "alpha = 1e+308"),
    (ErrorParams(delta=1e308), "delta = 1e+308")])
def test_overflowing_step_is_refused_by_every_propagator(propagator, err,
                                                         named):
    # paths and final propagators alike raise, with no numpy warning and
    # no NaN result
    pulse = rect_pi_pulse(1.0, n=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(named) + ".*overflows"):
            propagator(pulse, err)


def test_gate_fidelity_phase_invariance():
    U = su2_final(rect_pi_pulse(1.0, n=16))
    assert_allclose(gate_fidelity(U, U), 1.0, rtol=1e-14)
    assert_allclose(gate_fidelity(U, np.exp(0.73j) * U), 1.0, rtol=1e-14)
    assert_allclose(gate_fidelity(np.eye(2), SX), 0.0, atol=1e-14)


def _turned(t, n, theta):
    """t R(theta), R(theta) = exp(-i theta n . sigma / 2) from its entries."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    n1, n2, n3 = (float(x) for x in n)
    R = np.array([[complex(c, -s * n3), complex(-s * n2, -s * n1)],
                  [complex(s * n2, -s * n1), complex(c, s * n3)]])
    return t @ R


def _mp_infidelity(U, V):
    """_gate_error's infidelity of the float entries of U and V, evaluated
    in 200-bit arithmetic."""
    with mpmath.workprec(200):
        u = [[mpmath.mpc(complex(x)) for x in row] for row in U]
        v = [[mpmath.mpc(complex(x)) for x in row] for row in V]
        w = [[mpmath.conj(u[0][i]) * v[0][j] + mpmath.conj(u[1][i]) * v[1][j]
              for j in range(2)] for i in range(2)]
        v2 = ((abs(w[0][1]) ** 2 + abs(w[1][0]) ** 2) / 2
              + abs(w[0][0] - w[1][1]) ** 2 / 4)
        return v2 / (1 + abs(w[0][0] + w[1][1]) / 2)


def _unit_axes():
    return st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(
        np.array).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: v / np.linalg.norm(v))


_SMALL_TURNS = st.floats(math.log(1e-12), math.log(1e-3)).map(math.exp)
_PHASES = st.tuples(st.floats(-math.pi, math.pi), st.booleans()).map(
    lambda x: (complex(math.cos(x[0]), math.sin(x[0])), x[1]))


def _phased(U, V, phase):
    """U and V with the global phase on U (True) or on V (False)."""
    z, on_u = phase
    return (z * U, V) if on_u else (U, z * V)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from([np.eye(2, dtype=complex), -1.0j * SX, -1.0j * SY]),
       _unit_axes(), _SMALL_TURNS, _PHASES)
def test_gate_error_of_exact_targets_is_2_sin_squared_of_a_quarter_turn(
        t, n, theta, phase):
    # targets with entries in {0, +-1, +-i} add no rounding to t R(theta):
    # the infidelity is 1 - cos(theta / 2) to a few ulps at any theta
    with mpmath.workprec(200):
        exact = 2 * mpmath.sin(mpmath.mpf(theta) / 4) ** 2
        root = mpmath.sqrt(exact)
    U = _turned(t, n, theta)
    infidelity, so3 = propagate._gate_error(U, t)
    assert 0.0 < infidelity and gate_fidelity(U, t) <= 1.0
    assert abs(infidelity - exact) <= 2e-15 * exact
    assert abs(so3 - 2.0 * math.sqrt(2.0) * math.sin(0.5 * theta)) \
        <= 4e-15 * so3
    # a global phase rounds the entries: sqrt(1 - F) keeps 2^-52
    U, V = _phased(U, t, phase)
    infidelity, _ = propagate._gate_error(U, V)
    assert 0.0 <= infidelity and gate_fidelity(U, V) <= 1.0
    assert abs(math.sqrt(infidelity) - root) <= 2.0 ** -52


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_unit_axes(), _unit_axes(), st.floats(-math.pi, math.pi),
       _SMALL_TURNS, _PHASES)
def test_gate_error_of_random_targets_keeps_2_to_the_minus_52(
        axis, n, angle, theta, phase):
    # conj(t) t R(theta) cancels to O(theta) in floating point, so the
    # relative error of 1 - F grows like 1e-16 / theta; sqrt(1 - F) keeps
    # an absolute 2^-52 of the same float inputs, and of 2 sin^2(theta / 4)
    t = _turned(np.eye(2, dtype=complex), axis, angle)
    with mpmath.workprec(200):
        root = mpmath.sqrt(2 * mpmath.sin(mpmath.mpf(theta) / 4) ** 2)
    for U, V in ((_turned(t, n, theta), t),
                 _phased(_turned(t, n, theta), t, phase)):
        infidelity, _ = propagate._gate_error(U, V)
        assert 0.0 <= infidelity and gate_fidelity(U, V) <= 1.0
        assert abs(math.sqrt(infidelity)
                   - mpmath.sqrt(_mp_infidelity(U, V))) <= 2.0 ** -52
        assert abs(math.sqrt(infidelity) - root) <= 2.0 ** -52


def test_error_model_shifts_rotation_axis():
    # constant drive (1,0,0) with alpha and delta precesses about
    # ((1+alpha), 0, delta) for the full duration pi
    err = ErrorParams(alpha=0.2, delta=0.3)
    R = so3_final(rect_pi_pulse(1.0, n=2000), err)
    ax = np.array([1.2, 0.0, 0.3])
    assert_allclose(R, rodrigues(ax, np.linalg.norm(ax) * math.pi), atol=1e-12)
    # delta leaves the drive components alone, alpha leaves the sweep alone
    nominal = so3_final(rect_pi_pulse(1.0, n=2000))
    assert_allclose(so3_final(rect_pi_pulse(1.0, n=2000), ErrorParams()),
                    nominal, atol=0)


@pytest.mark.parametrize("family", [Family.ROTATING, Family.OSCILLATING])
def test_bloch_follows_closed_form_orbit(family):
    p = TopParameters(0.5)
    pulse = tre_pulse(p, 0.1, family, n=4096)
    M0 = tre_initial(p, 0.1, family)
    traj = bloch_propagate(pulse, M0)
    ref = analytic_trajectory(p, 0.1, family, pulse.times)
    assert np.max(np.abs(traj.M - ref)) < 1e-6


def test_midpoint_rule_is_second_order():
    p = TopParameters(0.5)
    M0 = tre_initial(p, 0.1, Family.ROTATING)
    errs = []
    for n in (1024, 2048, 4096):
        pulse = tre_pulse(p, 0.1, Family.ROTATING, n=n)
        ref = analytic_trajectory(p, 0.1, Family.ROTATING, pulse.times)
        errs.append(np.max(np.abs(bloch_propagate(pulse, M0).M - ref)))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_bloch_matches_interpolated_ode_with_errors():
    p = TopParameters(0.5)
    pulse = nmr_frame(tre_pulse(p, 0.1, Family.ROTATING, n=4096))
    err = ErrorParams(alpha=0.1, delta=0.05)
    W = np.stack([(1 + err.alpha) * pulse.omega1,
                  (1 + err.alpha) * pulse.omega2,
                  pulse.omega3 + err.delta], axis=-1)
    t = pulse.times

    def rhs(tt, y):
        w = np.array([np.interp(tt, t, W[:, j]) for j in range(3)])
        return np.cross(w, y)

    M0 = np.array([0.0, 1.0, 0.0])
    sol = solve_ivp(rhs, (t[0], t[-1]), M0, method="DOP853", rtol=1e-12,
                    atol=1e-12, t_eval=t, max_step=float(t[1] - t[0]))
    traj = bloch_propagate(pulse, M0, err)
    assert np.max(np.abs(traj.M - sol.y.T)) < 1e-6


def test_norm_and_group_structure_drift():
    p = TopParameters(0.7)
    pulse = tre_pulse(p, 0.05, Family.ROTATING, n=10001)
    err = ErrorParams(alpha=0.13, delta=-0.07)
    traj = bloch_propagate(pulse, np.array([0.0, 0.0, 1.0]), err)
    assert np.max(np.abs(np.linalg.norm(traj.M, axis=1) - 1.0)) < 1e-12
    R = so3_propagate(pulse, err).R
    assert np.max(np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(3))) < 1e-12
    U = su2_propagate(pulse, err).U
    assert np.max(np.abs(np.conj(np.swapaxes(U, 1, 2)) @ U - np.eye(2))) < 1e-12


def test_su2_path_covers_so3_path():
    p = TopParameters(0.6)
    pulse = tre_pulse(p, 0.2, Family.OSCILLATING, n=500)
    err = ErrorParams(alpha=0.05, delta=0.02)
    up = su2_propagate(pulse, err)
    rp = so3_propagate(pulse, err)
    assert np.max(np.abs(adjoint_map(up.U) - rp.R)) < 1e-12
    assert_allclose(adjoint_map(su2_final(pulse, err)), so3_final(pulse, err),
                    atol=1e-12)


def test_adjoint_map_closed_forms():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        assert_allclose(adjoint_map(su2_of(n, ang)), rodrigues(n, ang),
                        atol=1e-13)
    U = su2_of([0.0, 0.0, 1.0], 0.4)
    V = su2_of([1.0, 0.0, 0.0], 1.1)
    assert_allclose(adjoint_map(U @ V), adjoint_map(U) @ adjoint_map(V),
                    atol=1e-14)


def test_concat_propagator_is_segment_product():
    p = TopParameters(0.5)
    a = tre_pulse(p, 0.1, Family.ROTATING, n=300)
    b = rect_pi_pulse(0.7, n=200)
    assert_allclose(so3_final(concat([a, b])), so3_final(b) @ so3_final(a),
                    atol=1e-12)
    assert_allclose(su2_final(concat([a, b])), su2_final(b) @ su2_final(a),
                    atol=1e-12)


def test_inverse_pulse_cancels_exactly():
    p = TopParameters(0.5)
    a = tre_pulse(p, 0.1, Family.ROTATING, n=300)
    both = concat([a, inverse_pulse(a)])
    assert_allclose(so3_final(both), np.eye(3), atol=1e-12)
    assert_allclose(su2_final(both), np.eye(2), atol=1e-12)


def test_single_sample_pulse_is_identity():
    pulse = ControlPulse([2.0], [0.5], [0.0], [0.1])
    traj = bloch_propagate(pulse, np.array([0.0, 1.0, 0.0]))
    assert traj.M.shape == (1, 3)
    assert_allclose(traj.M[0], [0.0, 1.0, 0.0], atol=0)
    assert_allclose(so3_propagate(pulse).R, [np.eye(3)], atol=0)
    assert_allclose(su2_propagate(pulse).U, [np.eye(2)], atol=0)


def test_bloch_rejects_bad_m0():
    with pytest.raises(ValueError):
        bloch_propagate(rect_pi_pulse(1.0, n=8), np.zeros(4))


@pytest.mark.parametrize("M0", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0),
                                (0.0, 0.0, -math.inf)])
def test_bloch_rejects_non_finite_m0(M0):
    with pytest.raises(ValueError, match="finite"):
        bloch_propagate(rect_pi_pulse(1.0, n=8), M0)


def test_axis_angle_path_rect_pulse():
    pulse = rect_pi_pulse(2.0, n=2001)
    ap = axis_angle_path(su2_propagate(pulse))
    assert ap.degenerate[0]
    live = ~ap.degenerate
    assert np.all(np.abs(ap.axis[live][:, 0]) > 0.999999)
    ramp = 2.0 * pulse.times[live]
    assert_allclose(ap.angle[live], ramp, atol=1e-9)


def test_axis_angle_reconstructs_rotation_past_full_turn():
    # three half turns: the angle folds back after passing 2 pi but the
    # axis-angle pair must keep reproducing the accumulated rotation
    pulse = ControlPulse(np.linspace(0.0, 3.0 * math.pi, 3001),
                         np.ones(3001), np.zeros(3001), np.zeros(3001))
    up = su2_propagate(pulse)
    ap = axis_angle_path(up)
    R = so3_propagate(pulse).R
    for i in range(0, 3001, 250):
        assert_allclose(rodrigues(ap.axis[i], ap.angle[i]), R[i], atol=1e-9)
    assert np.max(ap.angle) <= 2.0 * math.pi + 1e-12
    assert ap.angle[-1] == pytest.approx(math.pi, abs=1e-9)


def test_axis_angle_needs_su2():
    rp = so3_propagate(rect_pi_pulse(1.0, n=8))
    with pytest.raises(ValueError):
        axis_angle_path(rp)


def test_transfer_axis_starts_on_y_and_visits_z_in_lab_frame():
    p = TopParameters(0.5)
    lab = nmr_frame(tre_pulse(p, 0.01, Family.ROTATING, n=4096))
    ap = axis_angle_path(su2_propagate(lab))
    first = np.argmax(~ap.degenerate)
    assert abs(ap.axis[first, 1]) > 0.99
    assert np.max(np.abs(ap.axis[:, 2])) > 0.95


def test_planar_pulse_polar_angle_is_scaled_area():
    # with only omega1 active every step rotates about e1, so the total
    # angle is exactly (1+alpha) times the trapezoid area of the drive
    times = np.linspace(0.0, 3.0, 57)
    w1 = 0.8 + 0.3 * np.sin(times) ** 2
    pulse = ControlPulse(times, w1, np.zeros_like(w1), np.zeros_like(w1))
    alpha = 0.17
    traj = bloch_propagate(pulse, np.array([0.0, 1.0, 0.0]),
                           ErrorParams(alpha=alpha))
    theta = (1.0 + alpha) * np.trapezoid(w1, times)
    assert_allclose(traj.M[-1], [0.0, math.cos(theta), math.sin(theta)],
                    atol=1e-13)


def test_trajectory_csv(tmp_path):
    pulse = rect_pi_pulse(1.0, n=9)
    traj = bloch_propagate(pulse, np.array([0.0, 0.0, 1.0]))
    path = tmp_path / "traj.csv"
    from blochtop.propagate import write_trajectory_csv

    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,M1,M2,M3"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.M)


def test_propagator_csv(tmp_path):
    from blochtop.propagate import write_propagator_csv

    pulse = rect_pi_pulse(1.0, n=5)
    path = tmp_path / "prop.csv"
    write_propagator_csv(so3_propagate(pulse), path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t"] + [f"R{i}{j}" for i in "123" for j in "123"]
    upath = su2_propagate(pulse)
    write_propagator_csv(upath, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (5, 9)
    assert_allclose(data[-1, 1], np.real(upath.U[-1, 0, 0]), atol=0)
    assert_allclose(data[-1, 4], np.imag(upath.U[-1, 0, 1]), atol=0)


@pytest.mark.parametrize("alpha,delta", [(math.nan, 0.0), (0.0, math.inf),
                                         (-math.inf, 0.1), (math.nan, math.nan)])
def test_error_params_reject_non_finite(alpha, delta):
    with pytest.raises(ValueError):
        ErrorParams(alpha=alpha, delta=delta)


# ---------------------------------------------------------------------------
# properties over random pulses, checked against plain per-step loops

TOL = 1e-12
PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)

_field = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
_step = st.one_of(st.just(0.0), st.floats(0.0, 0.5))


@st.composite
def pulses(draw, max_n=24):
    """Random sampled drives, with repeated times and zero fields."""
    n = draw(st.integers(1, max_n))
    dts = draw(st.lists(_step, min_size=n - 1, max_size=n - 1))
    w = np.array(draw(st.lists(st.tuples(_field, _field, _field),
                               min_size=n, max_size=n)))
    times = draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(dts)])
    return ControlPulse(times, w[:, 0], w[:, 1], w[:, 2])


errors = st.builds(ErrorParams, alpha=st.floats(-0.5, 0.5),
                   delta=st.floats(-1.0, 1.0))


def stepwise_reference(pulse, M0, err):
    """Rodrigues and spinor step matrices multiplied one interval at a
    time, with the Bloch vector carried along by the same steps."""
    w = np.stack([(1.0 + err.alpha) * pulse.omega1,
                  (1.0 + err.alpha) * pulse.omega2,
                  pulse.omega3 + err.delta], axis=-1)
    R = [np.eye(3)]
    U = [np.eye(2, dtype=complex)]
    M = [np.asarray(M0, dtype=float)]
    for i in range(pulse.n_samples - 1):
        phi_vec = 0.5 * (w[i] + w[i + 1]) * (pulse.times[i + 1] - pulse.times[i])
        phi = np.linalg.norm(phi_vec)
        if phi == 0.0:
            r, u = np.eye(3), np.eye(2)
        else:
            r, u = rodrigues(phi_vec, phi), su2_of(phi_vec, phi)
        R.append(r @ R[-1])
        U.append(u @ U[-1])
        M.append(r @ M[-1])
    return np.array(R), np.array(U), np.array(M)


def axis_angle_loop_reference(U, tol):
    """Axis-angle reading that carries the last live axis forward in a
    Python loop, sample by sample."""
    q = np.empty((len(U), 4))
    q[:, 0] = 0.5 * np.real(U[:, 0, 0] + U[:, 1, 1])
    q[:, 1] = 0.5 * np.real(1.0j * (U[:, 0, 1] + U[:, 1, 0]))
    q[:, 2] = 0.5 * np.real(U[:, 1, 0] - U[:, 0, 1])
    q[:, 3] = 0.5 * np.real(1.0j * (U[:, 0, 0] - U[:, 1, 1]))
    flips = np.cumprod(np.where(np.sum(q[1:] * q[:-1], axis=1) < 0.0, -1.0, 1.0))
    q[1:] *= flips[:, None]
    s = np.linalg.norm(q[:, 1:], axis=1)
    angle = 2.0 * np.arctan2(s, q[:, 0])
    degenerate = s < tol
    axis = np.empty((len(U), 3))
    axis[0] = (0.0, 0.0, 1.0) if degenerate[0] else q[0, 1:] / s[0]
    for i in range(1, len(U)):
        axis[i] = axis[i - 1] if degenerate[i] else q[i, 1:] / s[i]
    return axis, angle, degenerate


@PROPERTY
@given(pulses(), errors)
def test_path_elements_are_rotations_and_unitaries(pulse, err):
    R = so3_propagate(pulse, err).R
    U = su2_propagate(pulse, err).U
    assert np.max(np.abs(np.swapaxes(R, 1, 2) @ R - np.eye(3))) <= TOL
    assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= TOL
    assert np.max(np.abs(np.conj(np.swapaxes(U, 1, 2)) @ U - np.eye(2))) <= TOL


@PROPERTY
@given(pulses(), errors)
def test_adjoint_map_covers_rotation_path(pulse, err):
    R = so3_propagate(pulse, err).R
    U = su2_propagate(pulse, err).U
    assert np.max(np.abs(adjoint_map(U) - R)) <= TOL
    assert np.max(np.abs(adjoint_map(su2_final(pulse, err))
                         - so3_final(pulse, err))) <= TOL


@PROPERTY
@given(pulses(), st.floats(-0.5, 0.5))
def test_pulse_then_inverse_is_identity(pulse, alpha):
    # alpha scales every field alike, so the inverse still cancels
    both = concat([pulse, inverse_pulse(pulse)])
    err = ErrorParams(alpha=alpha)
    assert np.max(np.abs(so3_final(both, err) - np.eye(3))) <= TOL
    assert np.max(np.abs(su2_final(both, err) - np.eye(2))) <= TOL


@PROPERTY
@given(pulses(), pulses(), errors)
def test_concat_product_law(a, b, err):
    ab = concat([a, b])
    assert np.max(np.abs(so3_final(ab, err)
                         - so3_final(b, err) @ so3_final(a, err))) <= TOL
    assert np.max(np.abs(su2_final(ab, err)
                         - su2_final(b, err) @ su2_final(a, err))) <= TOL


@PROPERTY
@given(pulses(), errors)
def test_kernel_matches_stepwise_loop(pulse, err):
    M0 = np.array([0.6, 0.0, 0.8])
    R, U, M = stepwise_reference(pulse, M0, err)
    assert np.max(np.abs(so3_propagate(pulse, err).R - R)) <= TOL
    assert np.max(np.abs(su2_propagate(pulse, err).U - U)) <= TOL
    assert np.max(np.abs(bloch_propagate(pulse, M0, err).M - M)) <= TOL
    assert np.max(np.abs(so3_final(pulse, err) - R[-1])) <= TOL
    assert np.max(np.abs(su2_final(pulse, err) - U[-1])) <= TOL


@PROPERTY
@given(pulses(max_n=12), st.data())
def test_sweep_cell_is_direct_propagation_bit_for_bit(pulse, data):
    grid = st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4)
    alphas = np.array(data.draw(grid))
    deltas = np.array(data.draw(grid))
    merit = data.draw(st.sampled_from([merit_J3, merit_J2]))
    M0 = (0.0, 0.6, 0.8)
    rmap = sweep(pulse, M0, alphas, deltas, merit=merit)
    i = data.draw(st.integers(0, len(alphas) - 1))
    j = data.draw(st.integers(0, len(deltas) - 1))
    direct = merit(bloch_propagate(
        pulse, M0, ErrorParams(alpha=alphas[i], delta=deltas[j])))
    assert rmap.values[i, j] == direct
    assert rmap.flags[i, j] == 0


_offsets = st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-1.0, 1.0)),
                   min_size=1, max_size=5)


@PROPERTY
@given(pulses(), _offsets)
def test_reduce_is_last_scan_entry_bit_for_bit(pulse, pairs):
    alpha, delta = np.array(pairs).T
    assert np.array_equal(
        _last(averaged_step_planes(pulse, alpha, delta)),
        _pairs(_unit(_scan(averaged_step_planes(pulse, alpha, delta))))[:, -1])


def contiguous_step_planes(pulse, alpha, delta):
    """Step planes built apart in the textbook order, the error pair
    applied to the field samples before they are averaged, as contiguous
    (2, B, n - 1) planes, and copied behind the identity."""
    gain = 1.0 + np.asarray(alpha, dtype=float)[:, None]
    delta = np.asarray(delta, dtype=float)[:, None]
    dt = np.diff(pulse.times)

    def interval(w):
        return 0.5 * (w[:, 1:] + w[:, :-1]) * dt

    v1 = interval(pulse.omega1 * gain)
    v2 = interval(pulse.omega2 * gain)
    v3 = interval(pulse.omega3 + delta)
    phi = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    half = 0.5 * phi
    s = np.sin(half) / np.where(phi == 0.0, 1.0, phi)
    S = np.empty((2,) + phi.shape, dtype=complex)
    np.cos(half, out=S[0].real)
    np.multiply(s, v2, out=S[1].real)
    np.negative(s, out=s)
    np.multiply(s, v3, out=S[0].imag)
    np.multiply(s, v1, out=S[1].imag)
    P = np.empty(S.shape[:-1] + (S.shape[-1] + 1,), dtype=complex)
    P[0, ..., 0] = 1.0
    P[1, ..., 0] = 0.0
    P[..., 1:] = S
    return P


def averaged_step_planes(pulse, alpha, delta):
    """Step planes built apart in the order of the step stage: the pulse's
    interval averages, then one row per error pair, with g = 1 + alpha
    scaling A1^2 + A2^2 by g^2 and s by g, and 2 delta added to the
    endpoint sum of the third component."""
    g = 1.0 + np.asarray(alpha, dtype=float)[:, None]
    delta = np.asarray(delta, dtype=float)[:, None]
    dt = np.diff(pulse.times)
    a1 = 0.5 * (pulse.omega1[1:] + pulse.omega1[:-1]) * dt
    a2 = 0.5 * (pulse.omega2[1:] + pulse.omega2[:-1]) * dt
    v3 = (pulse.omega3[1:] + pulse.omega3[:-1] + 2.0 * delta) * 0.5 * dt
    phi = np.sqrt(g * g * (a1 * a1 + a2 * a2) + v3 * v3)
    s = np.sin(0.5 * phi) / np.where(phi == 0.0, 1.0, phi)
    P = np.empty((2,) + phi.shape[:-1] + (phi.shape[-1] + 1,), dtype=complex)
    P[0, ..., 0] = 1.0
    P[1, ..., 0] = 0.0
    np.cos(0.5 * phi, out=P[0, ..., 1:].real)
    np.multiply(-s, v3, out=P[0, ..., 1:].imag)
    np.multiply(s * g, a2, out=P[1, ..., 1:].real)
    np.multiply(-(s * g), a1, out=P[1, ..., 1:].imag)
    return P


def stage_planes(pulse, alpha, delta):
    """Planes (2, B, n) from the shared stages, as the finals driver runs
    them on a shared table: the pulse's interval averages (_averages)
    once, then one step-stage row per error pair (_steps)."""
    n, B = pulse.n_samples, len(alpha)
    avg = _averages(propagate._sampler(pulse)(None, 0, n),
                    np.empty((6, n - 1)))
    return _steps(avg, alpha, delta, np.empty((4, B, n - 1)),
                  np.empty((2, B, n), dtype=complex))


@PROPERTY
@given(pulses(), _offsets)
def test_step_planes_are_built_in_place_bit_for_bit(pulse, pairs):
    # a zero-error row among the drawn ones
    alpha, delta = np.array(pairs + [(0.0, 0.0)]).T
    S = stage_planes(pulse, alpha, delta)
    assert S.shape == (2, len(alpha), pulse.n_samples)
    assert S.tobytes() == averaged_step_planes(pulse, alpha, delta).tobytes()
    # rows without error keep the bits of the textbook order
    zero = (alpha == 0.0) & (delta == 0.0)
    assert (S[:, zero].tobytes()
            == contiguous_step_planes(pulse, alpha, delta)[:, zero].tobytes())


@PROPERTY
@given(pulses(), _offsets)
def test_step_pairs_are_textbook_steps_to_roundoff(pulse, pairs):
    alpha, delta = np.array(pairs).T
    S = stage_planes(pulse, alpha, delta)
    eps = np.finfo(float).eps
    textbook = contiguous_step_planes(pulse, alpha, delta)
    assert np.max(np.abs(S - textbook)) <= 4 * eps
    x = S.view(float)
    norm = np.sum(x.reshape(2, len(alpha), -1, 2) ** 2, axis=(0, 3))
    assert np.max(np.abs(norm - 1.0)) <= 4 * eps


@PROPERTY
@given(pulses(), errors)
def test_path_is_the_scan_of_the_stage_steps_bit_for_bit(pulse, err):
    # every sample of the path, not only its endpoint
    S = averaged_step_planes(pulse, [err.alpha], [err.delta])
    assert (_path(pulse, err).tobytes()
            == _pairs(_unit(_scan(S)))[0].tobytes())


def mirror_final_reference(pulse, middle, axis):
    """_mirror_final of the one half whose samples the pulse holds,
    composed from the contiguous reference planes."""
    S = contiguous_step_planes(pulse, [0.0], [0.0])[:, 0]
    A = _unit(_fold(S[..., :-1] if middle else S))
    mirror = A.copy()
    if axis == 3:
        np.conj(mirror[0], out=mirror[0])
    else:
        np.conj(mirror[1], out=mirror[1])
        if axis == 2:
            np.negative(mirror[1], out=mirror[1])
    if middle:
        A = _mul(S[..., -1:], A, np.empty_like(A))
    return _pairs(_unit(_mul(mirror, A, np.empty_like(A))))[0]


def table_fields(table):
    """The sampler over a field table (times, omega1, omega2, omega3) of
    (B, m) arrays, one row each."""
    return lambda rows, lo, hi: [f[rows, lo:hi] for f in table]


def table_half(table, middle, axis):
    """The _MirrorHalf of a field table of (B, m) arrays."""
    return _MirrorHalf(table_fields(table), len(table[0]), table[0].shape[1],
                       middle, axis)


def row_pulse(table, b):
    """Row b of a field table of (B, m) arrays as a pulse."""
    return ControlPulse(*(f[b] for f in table))


@st.composite
def stacked_halves(draw):
    """1..5 rows of random m-sample tables on one grid length m >= 2, so
    a half may hold a single step, with zero-width samples and fields:
    the table (times, omega1, omega2, omega3), middle and axis."""
    rows = draw(st.integers(1, 5))
    m = draw(st.integers(2, 12))

    def table(elements, size):
        return np.array(draw(st.lists(
            st.lists(elements, min_size=size, max_size=size),
            min_size=rows, max_size=rows)))

    times = np.cumsum(table(_step, m - 1), axis=1)
    w = table(_field, 3 * m).reshape(rows, 3, m)
    return ((np.column_stack([np.zeros(rows), times]), w[:, 0], w[:, 1],
             w[:, 2]), draw(st.booleans()), draw(st.sampled_from([1, 2, 3])))


@PROPERTY
@given(stacked_halves())
def test_stacked_mirror_final_matches_planes_reference_bit_for_bit(half):
    table, middle, axis = half
    batch = _mirror_final(table_half(table, middle, axis))
    for b, row in enumerate(batch):
        assert row.tobytes() == mirror_final_reference(
            row_pulse(table, b), middle, axis).tobytes()


@PROPERTY
@given(pulses(), errors)
def test_finals_are_path_endpoints_bit_for_bit(pulse, err):
    assert np.array_equal(so3_final(pulse, err), so3_propagate(pulse, err).R[-1])
    assert np.array_equal(su2_final(pulse, err), su2_propagate(pulse, err).U[-1])


def short_table(n):
    """A fixed random field table of n samples, with zero-width samples
    once there are at least three intervals."""
    rng = np.random.default_rng(n)
    dts = rng.uniform(0.0, 0.5, n - 1)
    dts[rng.integers(0, n - 1, size=(n - 1) // 3)] = 0.0
    w = rng.uniform(-3.0, 3.0, (3, n))
    return ControlPulse(np.concatenate([[0.0], np.cumsum(dts)]), *w)


# n = 2..17 reaches every reduction depth up to five levels, with and
# without an odd carry; the last products have one element and must round
# like the long ones.  255 carries at its first level only, 256 at none,
# and 257 and 1025 at every level above two elements
@pytest.mark.parametrize("n", [*range(2, 18), 255, 256, 257, 1025])
def test_short_finals_are_path_endpoints_bit_for_bit(n):
    pulse = short_table(n)
    err = ErrorParams(alpha=0.3, delta=-0.7)
    R, U = so3_propagate(pulse, err).R, su2_propagate(pulse, err).U
    assert np.array_equal(so3_final(pulse, err), R[-1])
    assert np.array_equal(su2_final(pulse, err), U[-1])
    # every entry of the scan, not only the fold's endpoint
    R_ref, U_ref, _ = stepwise_reference(pulse, np.zeros(3), err)
    assert np.max(np.abs(R - R_ref)) <= TOL
    assert np.max(np.abs(U - U_ref)) <= TOL
    alpha = np.array([-0.4, -0.1, 0.0, 0.2, 0.5])
    delta = np.array([0.9, -0.3, 0.0, 0.6, -1.0])
    scans = _pairs(_unit(_scan(averaged_step_planes(pulse, alpha, delta))))
    for b in range(5):
        alone = _pairs(_unit(_scan(averaged_step_planes(
            pulse, alpha[b:b + 1], delta[b:b + 1]))))
        assert scans[b].tobytes() == alone[0].tobytes()
    M0 = np.array([0.6, 0.0, 0.8])
    batch = _final_states(pulse, M0, alpha, delta)
    for b in range(5):
        alone = _final_states(pulse, M0, alpha[b:b + 1], delta[b:b + 1])
        assert np.array_equal(batch[b], alone[0])
        err = ErrorParams(alpha=alpha[b], delta=delta[b])
        assert np.array_equal(batch[b], bloch_propagate(pulse, M0, err).M[-1])


# odd and even n, and n - 1 a multiple of 4 (the orbit-geometric grids)
_mirror_n = st.one_of(st.integers(16, 4097), st.sampled_from([513, 4096, 4097]))


@PROPERTY
@given(st.floats(0.2, 0.95), st.floats(1e-3, 0.8), _mirror_n,
       st.sampled_from(Family), st.booleans())
def test_mirror_final_matches_full_product(k, eps, n, family, loop):
    p = TopParameters(k)
    q = _mirror_final(_mirror_half(p, [eps], family, n, loop))[0]
    pulse = (tre_loop_pulse if loop else tre_pulse)(p, eps, family, n=n)
    assert np.max(np.abs(q - _final(pulse, ErrorParams()))) <= 1e-13
    if not loop:
        # the transfer involution (P Z3)^2 = 1
        PZ = _rotations(q) @ np.diag([-1.0, -1.0, 1.0])
        assert np.max(np.abs(PZ @ PZ - np.eye(3))) <= 1e-14


@pytest.mark.parametrize("n", [257, 512])
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("loop", [False, True])
def test_stacked_mirror_final_rows_are_single_calls_bit_for_bit(n, family,
                                                                 loop):
    p = TopParameters(0.55)
    es = np.geomspace(2e-3, 0.7, 5)
    batch = _mirror_final(_mirror_half(p, es, family, n, loop))
    assert batch.shape == (5, 2)
    for row, eps in zip(batch, es):
        single = _mirror_final(_mirror_half(p, [eps], family, n, loop))
        assert row.tobytes() == single[0].tobytes()


@pytest.mark.parametrize("n", [257, 512])
@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("loop", [False, True])
def test_scan_finals_in_short_chunks_are_single_calls_bit_for_bit(
        monkeypatch, n, family, loop):
    # 3 rows per chunk over 7 points: chunks of 3, 3 and 1
    monkeypatch.setattr(propagate, "_CHUNK_SAMPLES", 3 * (n // 2 + 1) + 2)
    p = TopParameters(0.8)
    xs = np.geomspace(1e-3, 0.6, 7)
    finals = _mirror_final(_mirror_half(p, xs, family, n, loop))
    assert finals.shape == (7, 2)
    for x, row in zip(xs, finals):
        single = _mirror_final(_mirror_half(p, [x], family, n, loop))
        assert row.tobytes() == single[0].tobytes()


@st.composite
def chunked_grids(draw):
    """A grid of 3..5 x 3..5 cells and a chunk of k cells that splits it
    into at least 3 chunks, the last one short."""
    alphas = draw(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=5))
    deltas = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=5))
    cells = len(alphas) * len(deltas)
    k = draw(st.sampled_from([k for k in range(2, cells)
                              if cells % k and -(-cells // k) >= 3]))
    return np.array(alphas), np.array(deltas), k


@PROPERTY
@given(pulses(max_n=12), chunked_grids(), st.sampled_from([merit_J3, merit_J2]))
def test_sweep_cell_alone_matches_cell_in_chunked_grid(pulse, grid, merit):
    alphas, deltas, k = grid
    M0 = (0.6, 0.0, 0.8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_CHUNK_SAMPLES", k * pulse.n_samples)
        rmap = sweep(pulse, M0, alphas, deltas, merit=merit)
    whole = sweep(pulse, M0, alphas, deltas, merit=merit)
    assert np.array_equal(whole.values, rmap.values)
    for i, a in enumerate(alphas):
        for j, d in enumerate(deltas):
            alone = sweep(pulse, M0, [a], [d], merit=merit)
            assert alone.values[0, 0] == rmap.values[i, j]
    assert not rmap.flags.any()


def fold_length(n, stop):
    """The first length <= stop of n's halving sequence n, ceil(n / 2), ..."""
    while n > max(stop, 1):
        n -= n // 2
    return n


def random_table(n, seed):
    """A random field table of n samples, with zero-width samples."""
    rng = np.random.default_rng(seed)
    dts = rng.uniform(0.0, 0.5, n - 1)
    dts[rng.random(n - 1) < 0.2] = 0.0
    w = rng.uniform(-3.0, 3.0, (3, n))
    return ControlPulse(np.concatenate([[0.0], np.cumsum(dts)]), *w)


# n = 1 and n = 2 have no fold, or a single level of it
_fold_n = st.one_of(st.sampled_from([1, 2]), st.integers(1, 600))


@st.composite
def two_stage_grids(draw):
    """A pulse of 1..600 samples and 7..24 error pairs; a chunk of k
    pairs that splits them into at least 3 chunks, the last one short; a
    per-chunk fold bound; and a tail of t rows of the common fold length
    m that gathers them into at least 2 tails, the last one short."""
    n = draw(_fold_n)
    cells = draw(st.integers(7, 24))
    k = draw(st.sampled_from([k for k in range(1, cells)
                              if cells % k and -(-cells // k) >= 3]))
    fold_pairs = draw(st.sampled_from([1, 16, 128, 1024]))
    # the first length m of n's halving sequence with k * m <= fold_pairs
    m = fold_length(n, fold_pairs // k)
    t = draw(st.sampled_from([t for t in range(1, cells) if cells % t]))
    pairs = draw(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-1.0, 1.0)),
                          min_size=cells, max_size=cells))
    alpha, delta = np.array(pairs).T
    return (random_table(n, draw(st.integers(0, 2 ** 32 - 1))), alpha, delta,
            k, fold_pairs, t * m)


@PROPERTY
@given(two_stage_grids())
def test_two_stage_finals_are_single_cell_endpoints_bit_for_bit(grid):
    pulse, alpha, delta, k, fold_pairs, tail_cap = grid
    M0 = np.array([0.6, 0.0, 0.8])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_FOLD_PAIRS", fold_pairs)
        mp.setattr(propagate, "_CHUNK_SAMPLES", tail_cap)
        # chunks of k pairs, whatever the tail cap
        mp.setattr(propagate, "_chunk_rows", lambda samples: k)
        finals = _final_states(pulse, M0, alpha, delta)
    assert finals.shape == (len(alpha), 3)
    for row, a, d in zip(finals, alpha, delta):
        end = bloch_propagate(pulse, M0, ErrorParams(alpha=a, delta=d)).M[-1]
        assert row.tobytes() == end.tobytes()


@PROPERTY
@given(_fold_n, st.integers(0, 2 ** 32 - 1), _offsets)
def test_fold_stopped_and_resumed_is_one_pass_bit_for_bit(n, seed, pairs):
    alpha, delta = np.array(pairs).T
    S = averaged_step_planes(random_table(n, seed), alpha, delta)
    whole = _fold(S.copy())
    assert whole.shape == (2, len(alpha), 1)
    for stop in range(1, n + 1):
        part = _fold(S.copy(), stop)
        assert part.shape == (2, len(alpha), fold_length(n, stop))
        assert _fold(part).tobytes() == whole.tobytes()


def test_final_states_of_no_pairs_allocate_no_workspace():
    pulse = random_table(4097, 7)
    M0 = np.array([0.0, 0.0, 1.0])

    def traced_peak(alpha, delta):
        tracemalloc.start()
        try:
            finals = _final_states(pulse, M0, alpha, delta)
            return finals, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    finals, peak = traced_peak([], [])
    assert finals.shape == (0, 3)
    # one row's planes alone take 4 n floats
    one, one_peak = traced_peak([0.1], [0.2])
    assert one.shape == (1, 3) and one_peak >= 4 * 8 * pulse.n_samples
    assert peak < 8 * pulse.n_samples


def fields(pulse, stop=None):
    """The field table (times, omega1, omega2, omega3) of a pulse as one
    row, (1, stop) each."""
    return [np.asarray(getattr(pulse, name))[None, :stop]
            for name in ("times", "omega1", "omega2", "omega3")]


@PROPERTY
@given(st.integers(4, 64), st.integers(0, 2 ** 32 - 1), errors, st.data())
def test_finals_in_spans_are_path_endpoints_bit_for_bit(chunk, seed, err,
                                                        data):
    # a row longer than _CHUNK_SAMPLES goes in spans.  With n <= _FOLD_PAIRS
    # a span is _CHUNK_SAMPLES samples, so k _CHUNK_SAMPLES + 1 samples
    # leave the identity alone in the leading span; a smaller fold bound
    # makes spans of several blocks and leading spans of part of one
    cases = [(data.draw(st.integers(1, 599 // chunk)) * chunk + 1, 1024),
             (data.draw(st.integers(2, 600)),
              data.draw(st.sampled_from([1, 16, 1024])))]
    for n, fold_pairs in cases:
        pulse = random_table(n, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagate, "_CHUNK_SAMPLES", chunk)
            mp.setattr(propagate, "_FOLD_PAIRS", fold_pairs)
            R, U = so3_final(pulse, err), su2_final(pulse, err)
        assert R.tobytes() == so3_propagate(pulse, err).R[-1].tobytes()
        assert U.tobytes() == su2_propagate(pulse, err).U[-1].tobytes()


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([4, 64, 2 ** 14]))
def test_per_row_table_finals_are_one_row_calls_bit_for_bit(B, n, seed,
                                                            chunk):
    rng = np.random.default_rng(seed)
    pulses_ = [random_table(n, s) for s in rng.integers(0, 2 ** 32, B)]
    table = [np.concatenate(f) for f in zip(*map(fields, pulses_))]
    alpha, delta = rng.uniform(-0.5, 0.5, B), rng.uniform(-1.0, 1.0, B)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_CHUNK_SAMPLES", chunk)
        q = _final_pairs(table_fields(table), n, alpha, delta,
                         np.empty((B, 2), complex))
        for b in range(B):
            one = _final_pairs(table_fields([f[b:b + 1] for f in table]), n,
                               alpha[b:b + 1], delta[b:b + 1],
                               np.empty((1, 2), complex))
            assert q[b].tobytes() == one[0].tobytes()
    # and the shared table of the same row
    for b, pulse in enumerate(pulses_):
        err = ErrorParams(alpha=alpha[b], delta=delta[b])
        assert q[b].tobytes() == _final(pulse, err).tobytes()


@PROPERTY
@given(st.integers(4, 64), _fold_n, st.sampled_from([1, 16, 1024]),
       st.integers(0, 2 ** 32 - 1), _offsets, st.booleans())
def test_held_back_step_is_the_step_stage_step_bit_for_bit(
        chunk, n, fold_pairs, seed, pairs, shared):
    alpha, delta = np.array(pairs).T
    B = len(alpha)
    rng = np.random.default_rng(seed)
    pulses_ = [random_table(n + 1, s)
               for s in rng.integers(0, 2 ** 32, 1 if shared else B)]
    if shared:
        sampler, pulses_ = propagate._sampler(pulses_[0]), pulses_ * B
    else:
        sampler = table_fields(
            [np.concatenate(f) for f in zip(*map(fields, pulses_))])
    last = np.empty((B, 2), complex)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_CHUNK_SAMPLES", chunk)
        mp.setattr(propagate, "_FOLD_PAIRS", fold_pairs)
        q = _final_pairs(sampler, n, alpha, delta, np.empty((B, 2), complex))
        held = _final_pairs(sampler, n, alpha, delta,
                            np.empty((B, 2), complex), last)
    assert held.tobytes() == q.tobytes()
    for b, pulse in enumerate(pulses_):
        two = ControlPulse(pulse.times[n - 1:], pulse.omega1[n - 1:],
                           pulse.omega2[n - 1:], pulse.omega3[n - 1:])
        step = averaged_step_planes(two, alpha[b:b + 1],
                                    delta[b:b + 1])[:, 0, 1]
        assert last[b].tobytes() == step.tobytes()


@PROPERTY
@given(stacked_halves(), st.integers(1, 8))
def test_stacked_mirror_final_in_spans_matches_planes_reference_bit_for_bit(
        half, chunk):
    table, middle, axis = half
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_CHUNK_SAMPLES", chunk)
        batch = _mirror_final(table_half(table, middle, axis))
    for b, row in enumerate(batch):
        assert row.tobytes() == mirror_final_reference(
            row_pulse(table, b), middle, axis).tobytes()


# 16,385 leaves the identity alone in the leading span, 16,386 two
# samples, and 100,001 part of a block
@pytest.mark.parametrize("n", [16385, 16386, 100001])
def test_long_finals_are_scan_endpoints_bit_for_bit(n):
    pulse = random_table(n, n)
    S = averaged_step_planes(pulse, [0.3], [-0.7])
    final = _final(pulse, ErrorParams(alpha=0.3, delta=-0.7))
    assert final.tobytes() == _pairs(_unit(_scan(S)))[0, -1].tobytes()


@pytest.mark.parametrize("middle", [False, True])
def test_long_mirror_final_matches_planes_reference_bit_for_bit(middle):
    pulse = random_table(131073, 5)
    half = table_half(fields(pulse), middle, 2)
    assert (_mirror_final(half)[0].tobytes()
            == mirror_final_reference(pulse, middle, 2).tobytes())


def traced_peak(call):
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finals_take_one_fixed_size_workspace():
    bound = 18 * propagate._CHUNK_SAMPLES * 8 + 64 * 1024
    peaks = []
    for n in (65537, 262145):
        pulse = random_table(n, 3)
        half = table_half(fields(pulse, n // 2 + 1), False, 3)
        peaks.append((
            traced_peak(lambda: _final(pulse, ErrorParams(0.1, 0.2))),
            traced_peak(lambda: _mirror_final(half))))
        assert max(peaks[-1]) <= bound
    # flat in n, up to a few Python objects
    for short, long in zip(*peaks):
        assert abs(short - long) <= 4096


def test_paths_take_their_output_and_one_scan_workspace():
    # a path's planes are 32 bytes a sample and the scan's workspace 64;
    # the stage's arrays are released before the scan and the workspace
    # before the rescale, which would otherwise add 48 bytes a sample
    for n in (65537, 262145):
        pulse = random_table(n, 3)
        peak = traced_peak(lambda: _path(pulse, ErrorParams(0.1, 0.2)))
        assert peak <= 100 * n


@st.composite
def forked_grids(draw):
    """A pulse of 1..300 samples, 1..40 error pairs (odd counts and a
    single pair included), and a chunk of rows pairs that need not divide
    them."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 300)))
    cells = draw(st.one_of(st.sampled_from([1, 2, 3, 39]),
                           st.integers(1, 40)))
    rows = draw(st.integers(1, cells + 1))
    pairs = draw(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-1.0, 1.0)),
                          min_size=cells, max_size=cells))
    alpha, delta = np.array(pairs).T
    return (random_table(n, draw(st.integers(0, 2 ** 32 - 1))), alpha, delta,
            rows)


@PROPERTY
@given(forked_grids(), st.sampled_from([1, 16, 64]))
def test_forked_final_states_are_the_serial_bits(grid, tail_cap):
    pulse, alpha, delta, rows = grid
    M0 = np.array([0.6, 0.0, 0.8])
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    with pytest.MonkeyPatch.context() as mp:
        # small tails, so that either half spans several of them
        mp.setattr(propagate, "_CHUNK_SAMPLES", tail_cap)
        mp.setattr(propagate, "_chunk_rows", lambda samples: rows)
        mp.setattr(propagate, "_FORK_SAMPLES", math.inf)
        serial = _final_states(pulse, M0, alpha, delta)
        mp.setattr(propagate, "_FORK_SAMPLES", 0)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                   raising=False)
        mp.setattr(os, "fork", fork)
        forked = _final_states(pulse, M0, alpha, delta)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # one fork whenever the pairs make two chunks; a single pair never does
    assert len(forks) == (len(alpha) > rows)
    assert forked.shape == (len(alpha), 3)
    assert forked.tobytes() == serial.tobytes()


@PROPERTY
@given(pulses(), errors, st.sampled_from([1e-12, 1e-2, 0.5]))
def test_axis_angle_path_matches_carry_forward_loop(pulse, err, tol):
    upath = su2_propagate(pulse, err)
    axis, angle, degenerate = axis_angle_loop_reference(upath.U, tol)
    ap = axis_angle_path(upath, tol)
    assert np.array_equal(ap.axis, axis)
    assert np.array_equal(ap.angle, angle)
    assert np.array_equal(ap.degenerate, degenerate)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


_signed_axes = st.sampled_from([tuple(sign * e) for e in np.eye(3)
                                for sign in (1.0, -1.0)])
_unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 0.1).map(
        lambda v: tuple(np.divide(v, math.hypot(*v))))


@PROPERTY
@given(pulses(), errors, st.one_of(_signed_axes, _unit_vectors),
       st.sampled_from([1e-12, 1e-2, 0.5]))
def test_trajectory_and_axis_angle_are_the_public_calls_byte_for_byte(
        pulse, err, M0, tol):
    axis_angle = propagate._axis_angle
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_axis_angle",
                   lambda times, q, _: axis_angle(times, q, tol))
        traj, aap = propagate._trajectory_and_axis_angle(pulse, M0, err)
    ref = axis_angle_path(su2_propagate(pulse, err), tol)
    assert same_bytes(traj.M, bloch_propagate(pulse, M0, err).M)
    for name in ("axis", "angle", "degenerate"):
        assert same_bytes(getattr(aap, name), getattr(ref, name))


@PROPERTY
@given(pulses(), errors, st.integers(0, 2), st.sampled_from([1.0, -1.0]))
def test_states_of_a_signed_axis_are_columns_of_R_bit_for_bit(pulse, err, j,
                                                               sign):
    M = bloch_propagate(pulse, sign * np.eye(3)[j], err).M
    R = so3_propagate(pulse, err).R
    # a zero reads +0, as it does in a BLAS product
    assert same_bytes(M, sign * R[:, :, j] + 0.0)


@PROPERTY
@given(pulses(), errors, _unit_vectors)
def test_states_of_a_general_vector_are_R_M0_to_roundoff(pulse, err, M0):
    M = bloch_propagate(pulse, M0, err).M
    assert np.max(np.abs(M - so3_propagate(pulse, err).R @ M0)) <= 4.5e-16


# fields four times as strong: many steps turn by more than pi
_strong_pulses = pulses().map(lambda p: ControlPulse(
    p.times, 4.0 * p.omega1, 4.0 * p.omega2, 4.0 * p.omega3))


@PROPERTY
@given(_strong_pulses, errors, st.sampled_from([1e-12, 1e-2, 0.5]))
def test_axis_angle_keeps_the_double_cover_continuous(pulse, err, tol):
    upath = su2_propagate(pulse, err)
    ap = axis_angle_path(upath, tol)
    half = 0.5 * ap.angle
    w = np.column_stack([np.cos(half), np.sin(half)[:, None] * ap.axis])
    live = ~ap.degenerate
    # a live reading is the propagator's quaternion up to sign, and the
    # sign turns only where consecutive quaternions point apart
    dots = np.sum(w * spinor_quaternion(upath.U), axis=1)
    assert np.all(np.abs(np.abs(dots[live]) - 1.0) <= TOL)
    steps = np.sum(w[1:] * w[:-1], axis=1)
    assert np.all(steps[live[1:] & live[:-1]] >= -TOL)
