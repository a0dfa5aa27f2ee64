import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blochtop import cli, gates, propagate, pulsegen, topdyn
from blochtop._util import wrap_angle
from blochtop.gates import (
    NOT_SU2,
    PhaseBudget,
    _cross,
    _solve_bracketed,
    budget_defect,
    composite_bir_not,
    design_phase_gate,
    dynamical_phase,
    geometric_phase,
    montgomery_phase,
    synthesize_one_qubit,
    tune_not_gate,
    write_gate_report,
)
from blochtop.propagate import ErrorParams, _mirror_final, bloch_propagate, \
    gate_fidelity, so3_final, spinor_quaternion, su2_final
from blochtop.pulsegen import ControlPulse, _mirror_half, concat, \
    inverse_pulse, nmr_frame, rect_pi_pulse, tre_loop_pulse, tre_pulse
from blochtop.topdyn import Family, TopParameters, analytic_trajectory, \
    energy, orbit_constants, orbit_period, tre_initial

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def test_budget_identity_random_parameters():
    rng = np.random.default_rng(42)
    for i in range(10):
        k = float(rng.uniform(0.15, 0.92))
        eps = float(rng.uniform(0.02, 0.9))
        fam = Family.ROTATING if i % 2 == 0 else Family.OSCILLATING
        budget = montgomery_phase(TopParameters(k), eps, fam)
        assert budget_defect(budget) <= 1e-6


def test_budget_matches_frozen_example():
    # regression pin for the sign convention: total = dynamical - geometric
    b = montgomery_phase(TopParameters(0.5), 0.1, Family.ROTATING)
    assert_allclose(b.total, -1.3957982922507668, atol=1e-6)
    assert_allclose(b.dynamical, 7.102686133345121, rtol=1e-10)
    assert_allclose(b.geometric, -4.06788620121358, atol=1e-6)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.floats(0.05, 0.95), st.floats(math.log(1e-6), math.log(0.98)),
       st.sampled_from(list(Family)))
def test_orbit_energy_is_the_base_point_energy_bit_for_bit(k, log_eps, family):
    # one reading of 2 E T: the locator's closed-form phase and the loop
    # budget take E from orbit_constants, with the bits of energy(L0)
    p, eps = TopParameters(k), math.exp(log_eps)
    oc = orbit_constants(p, eps, family)
    assert oc.energy == float(energy(tre_initial(p, eps, family), p))
    budget = gates._closed_budget(p, eps, family)
    phi = float(gates._orbit_phases(p, [eps], family)[0][0])
    assert phi == budget.dynamical - budget.geometric


def test_geometric_shrinks_toward_small_loops():
    p = TopParameters(0.5)
    g99 = montgomery_phase(p, 0.99, Family.ROTATING).geometric
    g999 = montgomery_phase(p, 0.999, Family.ROTATING).geometric
    assert abs(g999) < abs(g99) < 0.06


def test_montgomery_rejects_unclosed_loop():
    with pytest.raises(ValueError):
        montgomery_phase(TopParameters(0.5), 0.1, Family.ROTATING, n=33)
    # no gap meets a NaN tolerance; an infinite one accepts every loop
    with pytest.raises(ValueError, match="^the loop does not close at n = 3"):
        montgomery_phase(TopParameters(0.5), 0.1, Family.ROTATING, n=3,
                         closure_tol=math.nan)
    montgomery_phase(TopParameters(0.5), 0.1, Family.ROTATING, n=3,
                     closure_tol=math.inf)


# a few samples leave the loop open by far (rotating n = 5 misses by
# 0.338); even n takes the held-back middle step
@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("family", list(Family))
def test_montgomery_refusal_names_n(n, family):
    with pytest.raises(ValueError,
                       match=f"^the loop does not close at n = {n}: "):
        montgomery_phase(TopParameters(0.5), 0.5, family, n)


def test_montgomery_memory_is_flat_in_n():
    # a whole 131,073-sample mirror half took 14.0 MiB at n = 262,145
    peaks = []
    for n in (65537, 262145):
        tracemalloc.start()
        try:
            montgomery_phase(TopParameters(0.6), 0.01, Family.ROTATING, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 5 * 2 ** 20
    assert abs(peaks[0] - peaks[1]) <= 64 * 1024


def test_mirror_finals_sample_one_span_of_one_chunk_at_a_time(monkeypatch):
    calls = []
    orbit_fields = pulsegen._orbit_fields

    def recorded(p, es, family, n, *args):
        fields = orbit_fields(p, es, family, n, *args)

        def sample(rows, lo, hi):
            block = fields(rows, lo, hi)
            calls.append((n, block.shape[1], block.shape[2]))
            return block

        return sample

    monkeypatch.setattr(pulsegen, "_orbit_fields", recorded)
    p = TopParameters(0.6)
    montgomery_phase(p, 0.01, Family.ROTATING, 262145)
    gates._loop_angles(p, np.geomspace(0.9, 5e-3, 96), 4096)
    assert sum(rows for n, rows, _ in calls if n == 4096) == 96
    for n, rows, samples in calls:
        assert samples <= propagate._CHUNK_SAMPLES + 2
        assert rows <= propagate._chunk_rows(n // 2 + 1)


def test_great_circle_solid_angle():
    # constant -e3 drive pushes e1 clockwise around the equator
    n = 4097
    times = np.linspace(0.0, 2.0 * math.pi, n)
    zeros = np.zeros(n)
    pulse = ControlPulse(times, zeros, zeros, np.full(n, -1.0),
                         {"kind": "constant"})
    traj = bloch_propagate(pulse, (1.0, 0.0, 0.0))
    assert_allclose(geometric_phase(traj.M), 2.0 * math.pi, atol=1e-9)


def test_geometric_phase_parametrization_invariance():
    p = TopParameters(0.5)
    T = orbit_period(p, 0.1, Family.ROTATING)
    n = 1 << 17
    u = np.linspace(0.0, 1.0, n + 1)
    t_uniform = T * u
    t_warped = np.sort(T * (u + 0.32 * np.sin(2.0 * np.pi * u) * u * (1 - u)))
    S1 = geometric_phase(analytic_trajectory(p, 0.1, Family.ROTATING, t_uniform))
    S2 = geometric_phase(analytic_trajectory(p, 0.1, Family.ROTATING, t_warped))
    assert abs(S1 - S2) <= 1e-8


def test_orientation_reversal_flips_both_terms():
    p = TopParameters(0.6)
    pulse = tre_loop_pulse(p, 0.2, Family.ROTATING, n=4097)
    M0 = tre_initial(p, 0.2, Family.ROTATING)
    fwd = bloch_propagate(pulse, M0)
    assert abs(geometric_phase(fwd.M[::-1]) + geometric_phase(fwd.M)) <= 1e-12
    inv = inverse_pulse(pulse)
    bwd = bloch_propagate(inv, fwd.M[-1])
    assert abs(dynamical_phase(inv, bwd.M)
               + dynamical_phase(pulse, fwd.M)) <= 1e-12


def test_dynamical_phase_is_2ET_on_the_orbit():
    p = TopParameters(0.5)
    eps = 0.1
    T = orbit_period(p, eps, Family.ROTATING)
    pulse = tre_loop_pulse(p, eps, Family.ROTATING, n=4097)
    L = analytic_trajectory(p, eps, Family.ROTATING, pulse.times)
    E = energy(tre_initial(p, eps, Family.ROTATING), p)
    # the integrand Omega . L is constant on the orbit, so trapezoid is exact
    assert_allclose(dynamical_phase(pulse, L), 2.0 * E * T, rtol=1e-12)


def test_budget_defect_helper_wraps():
    b = PhaseBudget(total=0.1, dynamical=0.1 + 2.0 * math.pi, geometric=0.0)
    assert budget_defect(b) <= 1e-12


# ---------------------------------------------------------------------------
# tuned NOT


def test_tuned_not_gate_quality():
    p = TopParameters(0.5)
    eps, pulse, report = tune_not_gate(p, (0.001, 0.5))
    assert report.converged
    assert 0.001 < eps < 0.01
    assert report.fidelity >= 1.0 - 1e-6
    assert report.residuals["so3"] <= 1e-6
    U = su2_final(pulse)
    assert gate_fidelity(U, NOT_SU2) >= 1.0 - 1e-6


def test_tuned_not_concatenations_wind_through_minus_one():
    p = TopParameters(0.5)
    _, pulse, _ = tune_not_gate(p, (0.001, 0.5))
    two = su2_final(concat([pulse, pulse]))
    four = su2_final(concat([pulse, pulse, pulse, pulse]))
    assert np.linalg.norm(two + np.eye(2)) <= 1e-5
    assert np.linalg.norm(four - np.eye(2)) <= 1e-5


def test_tuned_not_other_k():
    eps, _, report = tune_not_gate(TopParameters(0.7), (0.001, 0.5))
    assert report.converged
    assert report.fidelity >= 1.0 - 1e-6


def test_tuned_not_no_root_reports_not_raises():
    _, _, report = tune_not_gate(TopParameters(0.5), (0.3, 0.5))
    assert not report.converged


@pytest.mark.parametrize("k", [0.3, 0.5, 0.7])
def test_tuned_not_on_the_oscillating_family(k):
    # the oscillating transfer is a pi rotation about e2, diag(-1, 1, -1)
    _, pulse, report = tune_not_gate(TopParameters(k), (1e-3, 0.5),
                                     Family.OSCILLATING)
    assert report.converged
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert report.parameters["family"] is Family.OSCILLATING
    assert_allclose(so3_final(pulse), np.diag([-1.0, 1.0, -1.0]), atol=1e-6)


@pytest.mark.parametrize("a", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                               (0.6, 0.0, -0.8), (0.95, 0.0, 0.3122498999)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rotation_between_parallel_and_antiparallel(a, sign):
    a = np.array(a)
    R = gates._rotation_between(a, sign * a)
    assert_allclose(R @ a, sign * a, atol=1e-15)
    assert_allclose(R @ R.T, np.eye(3), atol=1e-15)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-15)
    if sign > 0:
        assert np.array_equal(R, np.eye(3))
    else:
        # a half turn about an axis perpendicular to a
        assert np.trace(R) == pytest.approx(-1.0, abs=1e-15)


def _unit_vectors():
    return st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(
        np.array).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: v / np.linalg.norm(v))


@st.composite
def _vector_pairs(draw):
    """Unit vectors (a, b): unrelated, exactly parallel, exactly
    antiparallel, or antiparallel up to |a x b| in [1e-14, 1e-6]."""
    a = draw(_unit_vectors())
    kind = draw(st.sampled_from(["any", "parallel", "antiparallel", "near"]))
    if kind == "any":
        return a, draw(_unit_vectors())
    if kind != "near":
        return a, a if kind == "parallel" else -a
    p = draw(_unit_vectors())
    p = p - (p @ a) * a
    assume(np.linalg.norm(p) > 1e-3)
    s = 10.0 ** draw(st.floats(-14.0, -6.0))
    b = s * p / np.linalg.norm(p) - math.sqrt(1.0 - s * s) * a
    return a, b / np.linalg.norm(b)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_vector_pairs())
def test_rotation_between_takes_a_onto_b(pair):
    a, b = pair
    R = gates._rotation_between(a, b)
    assert np.max(np.abs(R @ a - b)) <= 2e-15
    assert np.max(np.abs(R @ R.T - np.eye(3))) <= 4e-15
    assert abs(np.linalg.det(R) - 1.0) <= 4e-15


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_unit_vectors(), st.floats(-4.0 * math.pi, 4.0 * math.pi))
def test_twist_reads_the_angle_of_a_rotation_about_its_axis(n, theta):
    # away from the cut at +-pi, where either end is the same turn
    assume(math.pi - abs(wrap_angle(theta)) > 1e-12)
    q0, q1, q2, q3 = _quaternion(n, theta)
    pair = np.array([complex(q0, -q3), complex(q2, -q1)])
    assert abs(gates._twist(pair, n) - wrap_angle(theta)) <= 1e-14


def _frame_angle(R, axis) -> float:
    """The loop angle as gate design read it through a 3 x 3 matrix before
    the pair's twist (gates._twist): the signed rotation angle of R about
    an axis it (nearly) fixes, from the image of a unit vector normal to
    the axis."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    trial = gates._E3 if abs(a[2]) < 0.9 else gates._E1
    e = _cross(a, trial)
    e /= np.linalg.norm(e)
    f = _cross(a, e)
    Re = R @ e
    return math.atan2(f @ Re, e @ Re)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(list(Family)), st.floats(0.02, 0.99),
       st.floats(math.log(5e-3), math.log(0.9)), st.integers(2048, 8192))
def test_twist_reads_mirror_route_loops_as_the_frame_did(family, k, log_eps,
                                                          n):
    # the loop nearly fixes its base point; the two readings part by the
    # square of the miss, about 1e-12 at n = 2048
    p, eps = TopParameters(k), math.exp(log_eps)
    q = _mirror_final(_mirror_half(p, [eps], family, n, loop=True))[0]
    base = tre_initial(p, eps, family)
    frame = _frame_angle(propagate._rotations(q), base)
    assert abs(wrap_angle(gates._twist(q, base) - frame)) <= 1e-11


def test_solve_bracketed_exits_at_a_zero_or_without_a_sign_change():
    def never(x):
        raise AssertionError("f evaluated")

    assert _solve_bracketed(never, 0.0, 1.0, flo=0.0, fhi=2.0) == \
        (0.0, 0.0, True)
    assert _solve_bracketed(never, 0.0, 1.0, flo=-2.0, fhi=0.0) == \
        (1.0, 0.0, True)
    # given in reverse order, flo and fhi stay with their endpoints
    assert _solve_bracketed(never, 1.0, 0.0, flo=0.0, fhi=2.0) == \
        (1.0, 0.0, True)
    # no sign change: the endpoint with the smaller |f|, unconverged
    assert _solve_bracketed(lambda x: x * x + 1.0, -0.5, 2.0) == \
        (-0.5, 1.25, False)
    assert _solve_bracketed(never, 0.0, 1.0, flo=-3.0, fhi=-2.0) == \
        (1.0, -2.0, False)


def test_plain_turns_numpy_values_into_json_values():
    cases = [(np.float64(1.5), 1.5, float), (np.int64(3), 3, int),
             (np.float32(0.25), 0.25, float), (np.bool_(True), True, bool),
             (np.array([[1.0, 2.0]]), [[1.0, 2.0]], list),
             (Family.OSCILLATING, "oscillating", str), ("x", "x", str),
             (None, None, type(None))]
    for value, want, kind in cases:
        got = gates._plain(value)
        assert got == want and type(got) is kind, value
    json.dumps([gates._plain(v) for v, _, _ in cases])


def test_gate_report_with_numpy_bools_round_trips_through_json(tmp_path):
    report = gates.GateReport(
        target="not", parameters={"mirror": np.bool_(True), "k": 0.5},
        fidelity=1.0, phase_budget=None,
        residuals={"bracketed": np.bool_(False)}, converged=np.bool_(True))
    path = tmp_path / "report.json"
    gates.write_gate_report(report, path)
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded["parameters"] == {"mirror": True, "k": 0.5}
    assert loaded["residuals"] == {"bracketed": False}
    assert loaded["converged"] is True


def test_solve_bracketed_reports_stalled_secant_unconverged():
    # a step function stalls the secant polish with the bracket still
    # about 2e-7 wide, far above xtol
    x, fx, converged = _solve_bracketed(
        lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0)
    assert abs(x - 0.3) < 1e-6 and abs(fx) == 1.0
    assert converged is False
    x, fx, converged = _solve_bracketed(lambda x: x * x - 0.09, 0.0, 1.0)
    assert converged is True and abs(x - 0.3) <= 1e-10


def test_solve_bracketed_accepts_reversed_bracket():
    # hi < lo must behave as the ordered bracket, not pass the final
    # "bracket within xtol" check on a negative width
    x, fx, converged = _solve_bracketed(
        lambda x: -1.0 if x < 0.3 else 1.0, 1.0, 0.0)
    assert abs(x - 0.3) < 1e-6 and abs(fx) == 1.0
    assert converged is False
    x, fx, converged = _solve_bracketed(lambda x: x * x - 0.09, 1.0, 0.0)
    assert converged is True and abs(x - 0.3) <= 1e-10
    x, fx, converged = _solve_bracketed(lambda x: x * x - 0.09, 1.0, 0.0,
                                        flo=0.91, fhi=-0.09)
    assert converged is True and abs(x - 0.3) <= 1e-10


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 0.0)])
def test_solve_bracketed_never_evaluates_given_endpoints(lo, hi):
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 0.09

    x, _, converged = _solve_bracketed(f, lo, hi, flo=lo * lo - 0.09,
                                       fhi=hi * hi - 0.09)
    assert converged and abs(x - 0.3) <= 1e-10
    assert seen and lo not in seen and hi not in seen


def _cubic(x):
    return x**3 - 0.2


def _sign_changes(fs) -> list[int]:
    """Intervals i, in grid order, with fs[i] == 0 or fs[i] fs[i + 1] < 0:
    the full-scan reference of the locator properties."""
    return [i for i in range(len(fs) - 1)
            if gates._sign_change(fs[i], fs[i + 1])]


def test_solve_scanned_never_evaluates_a_grid_point():
    xs = np.linspace(0.0, 1.0, 11)
    fs = [_cubic(float(x)) for x in xs]
    seen = []

    def f(x):
        seen.append(x)
        return _cubic(x)

    i = _sign_changes(fs)[0]
    x, converged = gates._solve_scanned(f, xs, fs, i)
    assert converged and abs(x - 0.2 ** (1.0 / 3.0)) <= 1e-10
    assert seen and not set(seen) & set(xs.tolist())


def test_solve_scanned_without_bracket_keeps_smallest_scan_point():
    def f(x):
        raise AssertionError("f must not be called without a bracket")

    xs = np.array([0.1, 0.2, 0.3, 0.4])
    x, converged = gates._solve_scanned(f, xs, [3.0, -0.5, 0.25, 2.0], None)
    assert x == 0.3 and type(x) is float and converged is False


def test_solve_scanned_descending_bracket_same_bits():
    xs = np.geomspace(0.05, 0.9, 17)
    fs = [_cubic(float(x)) for x in xs]
    i = _sign_changes(fs)[0]
    up = gates._solve_scanned(_cubic, xs, fs, i)
    down = gates._solve_scanned(_cubic, xs[::-1], fs[::-1], len(xs) - 2 - i)
    assert up[1] and down == up


def test_sign_changes_zero_counts_at_left_end_only():
    assert _sign_changes([0.0, 1.0, 2.0]) == [0]
    assert _sign_changes([1.0, 2.0, 0.0]) == []
    assert _sign_changes([1.0, 0.0, 2.0]) == [1]
    assert _sign_changes([1.0, -1.0, 2.0, 3.0, -4.0]) == [0, 1, 3]
    assert _sign_changes([1.0]) == []


@st.composite
def not_scans(draw):
    """(p, family, n, xs): the default 64-point NOT scan of a bracket
    inside [1e-6, 0.999]."""
    lo, hi = sorted(draw(st.lists(st.floats(math.log(1e-6), math.log(0.999)),
                                  min_size=2, max_size=2, unique=True)))
    return (TopParameters(draw(st.floats(0.02, 0.99))),
            draw(st.sampled_from(list(Family))), draw(st.integers(2, 4096)),
            np.geomspace(math.exp(lo), math.exp(hi), 64))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(not_scans())
def test_involution_axis_is_unit_and_continuous_along_the_scan(case):
    # the NOT objective needs no sign gauge: the SU(2) pair fixes the
    # axis sign, and the axis turns by less than 90 degrees between scan
    # points and between a point and its log-midpoint
    p, family, n, xs = case
    raw = np.array([[c.real, c.imag, a.real]
                    for a, c in _mirror_final(
                        _mirror_half(p, xs, family, n, False))])
    assert_allclose(np.linalg.norm(raw, axis=1), 1.0, rtol=0, atol=1e-15)
    axes = gates._involution_scan(p, xs, family, n)
    assert all(u @ v > 0.0 for u, v in zip(axes, axes[1:]))
    for j in range(len(xs) - 1):
        mid = gates._involution_scan(
            p, [math.sqrt(xs[j] * xs[j + 1])], family, n)[0]
        assert mid @ axes[j] > 0.0 and mid @ axes[j + 1] > 0.0


def test_tune_not_rejects_bad_range():
    with pytest.raises(ValueError):
        tune_not_gate(TopParameters(0.5), (0.5, 0.1))


def test_not_report_reads_its_infidelity_from_the_so3_residual():
    # one reading of U^dag V: |R - R_t|_F^2 = 8 |v|^2 and 1 - F = |v|^2 /
    # (1 + F), so a residual of 1e-12 is an infidelity of about 6e-26,
    # below what |tr(U^dag V)| / 2 can resolve
    _, _, report = tune_not_gate(TopParameters(0.5), (0.001, 0.5))
    infidelity, so3 = report.residuals["infidelity"], report.residuals["so3"]
    assert set(report.residuals) == {"infidelity", "so3"}
    assert infidelity > 0.0
    assert infidelity == pytest.approx(
        so3 ** 2 / (8.0 * (1.0 + report.fidelity)), rel=1e-12)


@pytest.mark.parametrize("gate, target, theta", [
    # the NOT's earlier rule: an so3 residual 2 sqrt(2) sin(theta / 2) of
    # at most 1e-6
    ("not", NOT_SU2, 2.0 * math.asin(1e-6 / math.sqrt(8.0))),
    # the phase gate's: a relative phase, a turn about e3, off by 1e-3
    ("phase", np.diag([np.exp(0.65j), np.exp(-0.65j)]), 1e-3),
    # the composite NOT's and the Hadamard's: 1 - F = 2 sin^2(theta / 4)
    ("composite_not", SX, 4.0 * math.asin(math.sqrt(0.5e-4))),
    ("synthesis", HADAMARD, 4.0 * math.asin(math.sqrt(0.5e-6)))])
def test_each_gate_is_judged_by_its_earlier_rule(gate, target, theta):
    # a solved design 1% inside that bound converges and one 1% outside
    # it does not; an unsolved design never converges
    def turned(angle):
        return target @ np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])

    assert gates._judged(gate, True, turned(0.99 * theta), target)[2] is True
    assert gates._judged(gate, True, turned(1.01 * theta), target)[2] is False
    assert gates._judged(gate, False, target, target)[2] is False


def test_gate_report_json_round_trip(tmp_path):
    _, _, report = tune_not_gate(TopParameters(0.5), (0.001, 0.5))
    path = tmp_path / "not.json"
    write_gate_report(report, path)
    loaded = json.loads(path.read_text())
    assert loaded["target"] == "not"
    assert loaded["converged"] is True
    assert set(loaded) == {"target", "parameters", "fidelity", "phase_budget",
                           "residuals", "converged"}


# ---------------------------------------------------------------------------
# composite NOT


def test_composite_not_exact_at_zero_error():
    comp = composite_bir_not(TopParameters(0.5), 0.07)
    assert comp.meta["converged"]
    assert gate_fidelity(su2_final(comp), SX) >= 1.0 - 1e-4
    assert comp.meta["fidelity"] >= 1.0 - 1e-4


def test_composite_followed_by_inverse_is_identity():
    comp = composite_bir_not(TopParameters(0.5), 0.07)
    round_trip = concat([comp, inverse_pulse(comp)])
    assert np.linalg.norm(so3_final(round_trip) - np.eye(3)) <= 1e-9


def test_composite_alpha_window_not_narrower_than_tuned():
    # drive-amplitude error scales the full transverse field in the lab
    # frame, which is where the two NOT constructions are compared
    p = TopParameters(0.5)
    _, tuned, _ = tune_not_gate(p, (0.001, 0.5))
    comp = composite_bir_not(p, 0.07)
    alphas = np.linspace(-0.2, 0.2, 41)

    def width(pulse):
        lab = nmr_frame(pulse)
        fid = np.array([gate_fidelity(su2_final(lab, ErrorParams(alpha=a)), SX)
                        for a in alphas])
        ok = fid >= 0.99
        c = len(alphas) // 2
        lo = hi = c
        while lo > 0 and ok[lo - 1]:
            lo -= 1
        while hi < len(alphas) - 1 and ok[hi + 1]:
            hi += 1
        return alphas[hi] - alphas[lo]

    assert width(comp) >= width(tuned)


def test_composite_rejects_bad_eps():
    with pytest.raises(ValueError):
        composite_bir_not(TopParameters(0.5), 1.5)


def test_composite_not_does_not_depend_on_the_sign_of_the_pi_axis(
        monkeypatch):
    # the pair's axis may come with either sign; the composite is
    # rotated about the one with a nonnegative e2 component
    p = TopParameters(0.6)
    before = composite_bir_not(p, 0.01, n=1024)
    real = gates._axis
    monkeypatch.setattr(gates, "_axis", lambda q: -real(q))
    after = composite_bir_not(p, 0.01, n=1024)
    assert after.meta == before.meta
    for field in ("times", "omega1", "omega2", "omega3"):
        assert getattr(after, field).tobytes() == \
            getattr(before, field).tobytes()


# ---------------------------------------------------------------------------
# phase gate


def test_phase_gate_pi_over_two():
    design, pulse, budget = design_phase_gate(math.pi / 2.0, TopParameters(0.5))
    assert design.converged
    U = su2_final(pulse)
    assert max(abs(U[0, 1]), abs(U[1, 0])) <= 1e-3
    assert abs(design.achieved_phase - math.pi / 2.0) <= 1e-3
    assert design.residuals["dynamical_cancellation"] <= 1e-4
    assert abs(budget.geometric - math.pi / 2.0) <= 1e-4
    assert budget_defect(design.budget_a) <= 1e-6
    assert budget_defect(design.budget_b) <= 1e-6
    assert design.fidelity >= 1.0 - 1e-6


def test_phase_gate_reversed_orientation_target():
    design, pulse, _ = design_phase_gate(4.0, TopParameters(0.5))
    assert design.converged
    assert design.orientation == "reverse_second"
    assert abs(design.achieved_phase - 4.0) <= 1e-3
    U = su2_final(pulse)
    assert max(abs(U[0, 1]), abs(U[1, 0])) <= 1e-3


def test_phase_gate_tiny_target_collapses_to_identity():
    design, pulse, _ = design_phase_gate(1e-9, TopParameters(0.5))
    U = su2_final(pulse)
    assert gate_fidelity(U, np.eye(2, dtype=complex)) >= 1.0 - 1e-9
    assert design.residuals["dynamical_cancellation"] <= 1e-4


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("target", [1e-7, 2.0 * math.pi - 1e-7])
def test_phase_gate_degenerate_target_sums_are_plus_zero(target):
    design, pulse, budget = design_phase_gate(target, TopParameters(0.5),
                                              n=1025)
    assert design.orientation == pulse.meta["orientation"] == "degenerate"
    assert design.converged
    assert _bits(budget.dynamical) == _bits(budget.geometric) == _bits(0.0)


def test_phase_gate_budget_sums_keep_their_signed_bits():
    # 3.3 at k = 0.45 cancels exactly: both loops carry a dynamical phase
    # of 10.470492835275785, and a - b is +0.0, not -0.0
    sums = {"reverse_first": lambda a, b: -a + b,
            "reverse_second": lambda a, b: a - b}
    seen = set()
    for k in (0.45, 0.55):
        for target in (1.3, 3.3):
            design, pulse, budget = design_phase_gate(
                target, TopParameters(k), n=1025)
            seen.add(design.orientation)
            total = sums[design.orientation]
            for part in ("dynamical", "geometric"):
                assert _bits(getattr(budget, part)) == _bits(total(
                    getattr(design.budget_a, part),
                    getattr(design.budget_b, part)))
    assert seen == set(sums)


@pytest.mark.parametrize("k, target, orientation", [
    (0.45, 1.3, "reverse_first"),
    (0.5, 1e-7, "degenerate"),
    (0.55, 4.0, "reverse_second"),
    (0.6, 5.0, "reverse_second"),
    (0.65, 2.0, "reverse_first"),
])
def test_phase_gate_loop_budgets_match_the_propagated_budget(k, target,
                                                             orientation):
    # the design's loop budgets are closed forms; montgomery_phase
    # propagates each loop at n = 65537, and its total carries the
    # midpoint rule's O(h^2) error
    design, _, _ = design_phase_gate(target, TopParameters(k), n=1025)
    assert design.orientation == orientation
    if orientation == "degenerate":
        assert design.budget_b is design.budget_a
    for kx, eps, budget in ((design.k_a, design.eps_a, design.budget_a),
                            (design.k_b, design.eps_b, design.budget_b)):
        ref = montgomery_phase(TopParameters(kx), eps, Family.ROTATING)
        assert _bits(budget.dynamical) == _bits(ref.dynamical)
        assert _bits(budget.geometric) == _bits(ref.geometric)
        assert abs(budget.total - ref.total) <= 1e-6


@pytest.mark.parametrize("target", [1.3, 4.0, 1e-7])
def test_phase_gate_propagates_no_reference_loop(monkeypatch, target):
    calls = []
    final = gates._mirror_final

    def counted(*args, **kwargs):
        calls.append(args)
        return final(*args, **kwargs)

    monkeypatch.setattr(gates, "_mirror_final", counted)
    design, _, _ = design_phase_gate(target, TopParameters(0.55), n=4096)
    assert design.converged
    assert calls == []


def test_phase_gate_rejects_out_of_range_target():
    with pytest.raises(ValueError):
        design_phase_gate(0.0, TopParameters(0.5))
    with pytest.raises(ValueError):
        design_phase_gate(7.0, TopParameters(0.5))


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_identity_is_empty():
    prog = synthesize_one_qubit(np.eye(2))
    assert prog.segments == ()
    assert prog.pulse is None
    assert prog.fidelity >= 1.0 - 1e-12


def test_synthesize_sigma_x_uses_not_primitive():
    prog = synthesize_one_qubit(SX)
    assert prog.labels == ("not",)
    assert prog.fidelity >= 1.0 - 1e-6


@pytest.mark.parametrize("k, converged", [(0.3, False), (0.5, True)])
def test_synthesized_not_segment_carries_its_convergence(k, converged):
    # at k = 0.3 the NOT objective has no root in the bracket, and the
    # segment reaches a fidelity of only 0.989
    prog = synthesize_one_qubit(SX, TopParameters(k), n=1024)
    assert prog.labels == ("not",)
    assert prog.segments[0].meta["converged"] is converged


def test_synthesize_hadamard():
    H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    prog = synthesize_one_qubit(H)
    assert prog.fidelity >= 1.0 - 1e-3
    assert prog.pulse is not None
    assert prog.pulse.duration > 0.0


@pytest.mark.parametrize("k, n", [(0.3, 1024), (0.35, 512), (0.5, 1024),
                                  (0.6, 512), (0.6, 2048), (0.65, 2048),
                                  (0.65, 4096)])
def test_synthesized_hadamard_fidelity_never_exceeds_one(k, n):
    # designs whose |tr(U^dag H)| / 2 rounded above 1, and whose
    # infidelity 1 - F then read negative
    prog = synthesize_one_qubit(HADAMARD, TopParameters(k), n=n)
    assert prog.fidelity <= 1.0
    assert prog.residuals["infidelity"] >= 0.0
    assert prog.converged


def test_synthesis_reports_an_unconverged_segment(monkeypatch):
    solve = gates._solve_scanned

    def unconverged(*args):
        return solve(*args)[0], False

    # same roots, so the fidelity alone would pass; the segment flags fail
    monkeypatch.setattr(gates, "_solve_scanned", unconverged)
    prog = synthesize_one_qubit(HADAMARD, TopParameters(0.6), n=512)
    assert prog.converged is False
    assert prog.residuals["infidelity"] <= gates._TOLERANCE["synthesis"]


def test_synthesis_propagates_each_scan_point_once(monkeypatch):
    built = []
    finals = []
    half, final = gates._mirror_half, gates._mirror_final

    def counting_half(p, es, *args, **kwargs):
        built.extend(float(e) for e in es)
        return half(p, es, *args, **kwargs)

    def counting_final(*args, **kwargs):
        finals.append(1)
        return final(*args, **kwargs)

    monkeypatch.setattr(gates, "_mirror_half", counting_half)
    monkeypatch.setattr(gates, "_mirror_final", counting_final)
    H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    prog = synthesize_one_qubit(H, TopParameters(0.6), n=512)
    assert prog.labels == ("z-loop", "x-loop", "z-loop")
    assert len(built) == len(set(built))
    # the three gates want one angle, solved once: at most two sampled
    # chunks to locate its bracket, then at most 20 bisections and 40
    # secant steps; none of it re-runs a scan point
    assert len(finals) <= 2 + 60


def _orbit_geometric(p, eps, family, n=4097):
    """The polygon reference of gates._orbit_solid_angle: a Richardson pair
    on uniform samples kills the h^2 polygon deficit.

    The orbit is symmetric about its midpoint under the reflection in a
    vertical plane through e3 (L2 -> -L2 rotating, L1 -> -L1 oscillating),
    which maps each edge of the second half onto a reversed edge of the
    first with the same fan term: both sums run over the first half and
    double (-4 = 2 x the -2 of geometric_phase), which needs the midpoint
    on the every-other-sample grid too."""
    if n < 5 or (n - 1) % 4:
        raise ValueError(f"n - 1 must be a positive multiple of 4, got n = {n}")
    T = orbit_period(p, eps, family)
    t = np.linspace(0.0, T, n)[:n // 2 + 1]
    L = analytic_trajectory(p, eps, family, t)
    fine = -4.0 * gates._fan(L[:-1], L[1:])
    coarse = -4.0 * gates._fan(L[:-2:2], L[2::2])
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("n", [4097, 32769])
@pytest.mark.parametrize("family", list(Family))
def test_orbit_geometric_half_fan_matches_full_loop(n, family):
    for k, eps in ((0.35, 0.002), (0.6, 0.05), (0.9, 0.5)):
        p = TopParameters(k)
        L = analytic_trajectory(p, eps, family,
                                np.linspace(0.0, orbit_period(p, eps, family), n))
        full = (4.0 * geometric_phase(L) - geometric_phase(L[::2])) / 3.0
        assert abs(_orbit_geometric(p, eps, family, n=n) - full) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 4096, 4098, 4099])
def test_orbit_geometric_needs_n_minus_1_multiple_of_4(n):
    with pytest.raises(ValueError):
        _orbit_geometric(TopParameters(0.5), 0.1, Family.ROTATING, n=n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.floats(-1e100, 1e100), min_size=6, max_size=6))
def test_cross_is_np_cross_bit_for_bit(xs):
    a, b = np.array(xs[:3]), np.array(xs[3:])
    assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()


def test_synthesize_random_unitary():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Q, _ = np.linalg.qr(A)
    prog = synthesize_one_qubit(Q)
    assert prog.fidelity >= 1.0 - 1e-3


def _random_su2_times_phase(seed: int) -> np.ndarray:
    """e^(i chi) [[a, -c*], [c, a*]] from a normal 4-vector and a uniform
    chi: a uniformly random unitary up to its global phase."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= math.sqrt(sum(x * x for x in q))
    a, c = complex(q[0], q[1]), complex(q[2], q[3])
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * np.array(
        [[a, -c.conjugate()], [c, a.conjugate()]])


@pytest.mark.parametrize("k, n", [(0.6, 1024), (0.5, 4096)])
@pytest.mark.parametrize("target", ["hadamard", "sx", 1, 2, 3])
def test_synthesized_report_is_its_shipped_pulse_reading(k, n, target):
    U = {"hadamard": HADAMARD, "sx": SX}.get(target)
    U = _random_su2_times_phase(target) if U is None else U
    prog = synthesize_one_qubit(U, TopParameters(k), n=n)
    V = su2_final(prog.pulse)
    infidelity, so3 = propagate._gate_error(V, U)
    assert _bits(prog.residuals["infidelity"]) == _bits(infidelity)
    assert _bits(prog.residuals["so3"]) == _bits(so3)
    assert _bits(prog.fidelity) == _bits(gate_fidelity(V, U))


def test_synthesize_rejects_non_unitary():
    with pytest.raises(ValueError):
        synthesize_one_qubit(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # a NaN norm would pass a test of norm > tolerance
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="2x2 unitary"):
            synthesize_one_qubit(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_geometric_phase_input_validation():
    with pytest.raises(ValueError):
        geometric_phase(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        geometric_phase(np.zeros((5, 2)))
    loop = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for bad in (np.nan, np.inf):
        loop[1, 2] = bad
        with pytest.raises(ValueError):
            geometric_phase(loop)


def test_dynamical_phase_input_validation():
    pulse = rect_pi_pulse(1.0, n=5)
    M = np.tile([1.0, 0.0, 0.0], (5, 1))
    assert_allclose(dynamical_phase(pulse, M), math.pi, rtol=1e-12)
    for bad in (M[0], M[:4], np.full((5, 3), np.nan)):
        with pytest.raises(ValueError):
            dynamical_phase(pulse, bad)


# ---------------------------------------------------------------------------
# Brent solver properties


@st.composite
def smooth_roots(draw):
    """A smooth monotone f with its root r inside a bracket (lo, hi)."""
    r = draw(st.floats(-10.0, 10.0))
    width = draw(st.floats(1e-3, 10.0))
    u = draw(st.floats(0.001, 0.999))
    lo, hi = r - u * width, r + (1.0 - u) * width
    kind = draw(st.sampled_from(["cubic", "exp", "atan"]))
    # steepness s keeps s * width <= 20: smooth on the scale of the bracket
    s = draw(st.floats(0.01, 20.0)) / width
    amp = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    if kind == "cubic":
        def f(x):
            return amp * (x - r) * (1.0 + (s * (x - r)) ** 2)
    elif kind == "exp":
        def f(x):
            return amp * math.expm1(s * (x - r))
    else:
        def f(x):
            return amp * math.atan(s * (x - r))
    assume(f(lo) * f(hi) < 0.0)
    return f, r, lo, hi


@settings(derandomize=True, deadline=None, max_examples=300)
@given(smooth_roots(), st.floats(1e-13, 1e-6), st.booleans())
def test_brent_converges_on_smooth_monotone_roots(case, xtol, reverse):
    f, r, lo, hi = case
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    a, b = (hi, lo) if reverse else (lo, hi)
    x, fx, converged = _solve_bracketed(g, a, b, xtol=xtol, flo=f(a), fhi=f(b))
    assert converged
    assert fx == f(x)
    assert abs(x - r) <= xtol + 4.0 * np.finfo(float).eps * abs(r)
    assert lo not in seen and hi not in seen
    assert len(seen) <= 2 * math.ceil(math.log2((hi - lo) / xtol)) + 4


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0), st.floats(0.001, 0.999),
       st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.booleans())
def test_brent_leaves_a_jump_unconverged(jump, width, u, below, above, rising):
    lo, hi = jump - u * width, jump + (1.0 - u) * width
    sign = 1.0 if rising else -1.0

    def f(x):
        return sign * (-below if x < jump else above)

    assert f(lo) * f(hi) < 0.0
    x, fx, converged = _solve_bracketed(f, lo, hi, flo=f(lo), fhi=f(hi))
    assert converged is False
    assert abs(x - jump) < 1e-6
    assert fx == f(x)


# ---------------------------------------------------------------------------
# batched scans and the phase gate's solves


@pytest.mark.parametrize("n", [511, 512])
def test_scan_tables_equal_per_point_values_bit_for_bit(n):
    p = TopParameters(0.6)
    for family in Family:
        xs = np.geomspace(0.001, 0.5, 64)
        for x, axis in zip(xs, gates._involution_scan(p, xs, family, n)):
            single = gates._involution_scan(p, [x], family, n)[0]
            assert axis.tobytes() == single.tobytes()
    es = np.geomspace(0.9, 5e-3, 96)
    assert gates._loop_angles(p, es, n) == [gates._loop_angles(p, [e], n)[0]
                                            for e in es]


def test_phase_gate_reports_unconverged_inner_solve(monkeypatch):
    p = TopParameters(0.5)
    design, _, _ = design_phase_gate(math.pi / 2.0, p, n=2049)
    assert design.converged
    match = gates._match_dynamical

    def unconverged(p_b, dyn_target):
        return match(p_b, dyn_target)[:2] + (False,)

    monkeypatch.setattr(gates, "_match_dynamical", unconverged)
    design, _, _ = design_phase_gate(math.pi / 2.0, p, n=2049)
    assert design.converged is False


def test_phase_gate_outer_solve_lands_on_the_root():
    # a solve that stops anywhere within 1e-10 of the root in k leaves a
    # geometric mismatch near 6e-10 on this target
    design, _, _ = design_phase_gate(1.45002, TopParameters(0.643546), n=4096)
    assert design.converged
    assert design.residuals["geometric_mismatch"] <= 1e-11


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(list(Family)), st.floats(0.2, 0.95),
       st.floats(math.log(1e-3), math.log(0.9)))
def test_closed_form_solid_angle_matches_polygon(family, k, log_eps):
    p, eps = TopParameters(k), math.exp(log_eps)
    assert abs(gates._orbit_solid_angle(p, eps, family)
               - _orbit_geometric(p, eps, family, n=32769)) <= 1e-10


# near eps -> 0 the rotating orbit runs close to -e3, where the fan's
# denominator 1 + a3 + b3 + a . b cancels
@pytest.mark.parametrize("k", [0.2, 0.9])
def test_orbit_geometric_near_minus_e3_matches_closed_form(k):
    p = TopParameters(k)
    assert abs(_orbit_geometric(p, 1e-4, Family.ROTATING, n=32769)
               - gates._orbit_solid_angle(p, 1e-4, Family.ROTATING)) <= 1e-12


def test_geometric_phase_near_minus_e3_is_rotation_invariant():
    # a small loop 1e-3 from -e3, not around it, and the same loop turned
    # towards the equator: the geodesic polygon's area is the same
    t = np.linspace(0.0, 2.0 * math.pi, 257)[:-1]
    r, theta = 4e-4, math.pi - 1e-3
    loop = np.column_stack([r * np.cos(t), r * np.sin(t),
                            np.full_like(t, math.sqrt(1.0 - r * r))])
    tilt = np.array([[math.cos(theta), 0.0, math.sin(theta)],
                     [0.0, 1.0, 0.0],
                     [-math.sin(theta), 0.0, math.cos(theta)]])
    near = loop @ tilt.T
    beta = 1.2
    turn = np.array([[1.0, 0.0, 0.0],
                     [0.0, math.cos(beta), -math.sin(beta)],
                     [0.0, math.sin(beta), math.cos(beta)]])
    assert near[:, 2].max() < -1.0 + 2e-6
    away = near @ turn.T
    assert abs(geometric_phase(near) - geometric_phase(away)) <= 1e-12
    # the loop encloses about a cap of area pi r^2, with the fan's sign
    assert abs(abs(geometric_phase(away)) - math.pi * r * r) <= 1e-9


@pytest.mark.parametrize("k_a", [0.4, 0.5, 0.6, 0.7, 0.8])
def test_match_dynamical_newton_agrees_with_brent(k_a):
    # k_b over the range a phase design scans: above k_a, and below the
    # k where a loop at eps -> 1 still carries the target phase
    target = gates._closed_budget(TopParameters(k_a), 0.01,
                                  Family.ROTATING).dynamical
    k_max = math.sqrt(1.0 - (2.0 * math.pi / target) ** 2)
    for k_b in np.linspace(k_a + 0.015, k_max - 0.015, 9):
        p_b = TopParameters(float(k_b))

        def h(e):
            return gates._closed_budget(p_b, e,
                                        Family.ROTATING).dynamical - target

        ref, _, _ = _solve_bracketed(h, 1e-6, 0.999999, xtol=1e-16)
        eps, residual, converged = gates._match_dynamical(p_b, target)
        assert converged
        assert abs(eps - ref) <= 1e-12 * ref
        assert abs(residual) <= 1e-9


def test_match_dynamical_infeasible_target_is_unconverged():
    target = gates._closed_budget(TopParameters(0.4526), 0.01,
                                  Family.ROTATING).dynamical
    eps, residual, converged = gates._match_dynamical(TopParameters(0.8716),
                                                      target)
    assert converged is False
    assert abs(residual) > 1.0


def test_solvers_out_of_steps_report_unconverged(monkeypatch):
    # one step leaves Brent's bracket and the Newton solve short of
    # their tolerances
    monkeypatch.setattr(gates, "_BRENT_STEPS", 1)
    x, fx, converged = _solve_bracketed(lambda x: x ** 3 - 0.3, 0.0, 1.0)
    assert converged is False
    assert (x, fx) == (0.3, 0.3 ** 3 - 0.3)
    eps, residual, converged = gates._match_dynamical(TopParameters(0.6),
                                                      20.0)
    assert converged is False
    assert 1e-6 < eps < 0.999999 and residual != 0.0


def test_phase_design_samples_no_orbit(monkeypatch):
    # every orbit table, the shipped pulses' and the mirror route's, is
    # sampled through pulsegen's _orbit_point, one call per orbit
    orbits = []
    point = pulsegen._orbit_point

    def counting_point(oc, *args):
        orbits.append(oc)
        return point(oc, *args)

    monkeypatch.setattr(pulsegen, "_orbit_point", counting_point)
    passes = []
    ke, match = gates._complete_KE, gates._match_dynamical

    def counting_ke(m):
        passes[-1] += 1
        return ke(m)

    def counting_match(p_b, dyn_target):
        passes.append(0)
        return match(p_b, dyn_target)

    monkeypatch.setattr(gates, "_complete_KE", counting_ke)
    monkeypatch.setattr(gates, "_match_dynamical", counting_match)
    design, _, _ = design_phase_gate(1.45002, TopParameters(0.643546), n=4096)
    assert design.converged
    # the two shipped loops, and no other orbit
    assert orbits == [
        orbit_constants(TopParameters(design.k_a), design.eps_a,
                        Family.ROTATING),
        orbit_constants(TopParameters(design.k_b), design.eps_b,
                        Family.ROTATING)]
    # a 33-point k scan, its Brent steps and the final match
    assert 34 <= len(passes) <= 80
    assert max(passes) <= 8


# ---------------------------------------------------------------------------
# closed-form orbit propagators: the oracle of the mirror route, and the
# locator of the NOT, composite-NOT and loop-gate scans


def _quaternion(axis, angle):
    return np.concatenate([[math.cos(0.5 * angle)],
                           math.sin(0.5 * angle) * np.asarray(axis, float)])


def _hamilton(p, q):
    return np.concatenate([[p[0] * q[0] - p[1:] @ q[1:]],
                           p[0] * q[1:] + q[0] * p[1:]
                           + np.cross(p[1:], q[1:])])


def _closed_quaternion(p, eps, family, loop, zero=0.0):
    """Closed-form propagator of the unrotated transfer or full loop, as
    the quaternion (q0, q1, q2, q3) of its SU(2) pair: the loop turns by
    phi about its base point, and the transfer is R_L1(phi / 2 + pi)
    R_e(-pi), L1 the turning point and e the pole (_orbit_phases).  zero
    fills the turning point's zero slot."""
    phi = float(gates._orbit_phases(p, [eps], family)[0][0])
    if loop:
        return _quaternion(tre_initial(p, eps, family), phi)
    C = math.sqrt(1.0 - eps * eps)
    if family is Family.ROTATING:
        L1, e = np.array([eps, zero, -C]), np.array([1.0, 0.0, 0.0])
    else:
        L1, e = np.array([zero, eps, -C]), np.array([0.0, 1.0, 0.0])
    return _hamilton(_quaternion(L1, 0.5 * phi + math.pi),
                     _quaternion(e, -math.pi))


def _mirror_quaternion(p, eps, family, n, loop):
    a, c = _mirror_final(_mirror_half(p, [eps], family, n, loop))[0]
    return np.array([a.real, -c.imag, c.real, -a.imag])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(list(Family)), st.floats(0.2, 0.95),
       st.floats(math.log(1e-3), math.log(0.9)), st.booleans())
def test_mirror_finals_converge_to_the_closed_form(family, k, log_eps, loop):
    # the lift is the mirror route's pair itself on both families, with no
    # axis gauge, and the midpoint rule's error is O(h^2): halving h cuts
    # it by 4
    p, eps = TopParameters(k), math.exp(log_eps)
    q = _closed_quaternion(p, eps, family, loop)
    err = [np.linalg.norm(_mirror_quaternion(p, eps, family, n, loop) - q)
           for n in (1025, 2049)]
    assert err[0] <= 1e-3
    assert 3.5 <= err[0] / err[1] <= 4.5
    if not loop:
        # the two-factor product has no atan2 cut: a turning point with a
        # -0.0 component gives the same pair
        assert np.array_equal(
            _closed_quaternion(p, eps, family, loop, zero=-0.0), q)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(list(Family)), st.floats(0.02, 0.999),
       st.floats(math.log(1e-6), math.log(0.999)), st.integers(2, 4096))
def test_sampled_objectives_lie_within_a_tenth_of_the_locator_gap(
        family, k, log_eps, n):
    # _locate trusts the closed form beyond delta = _GAP h^2, h the pulse
    # length over n - 1; every sampled objective sits within a tenth of it
    p, eps = TopParameters(k), math.exp(log_eps)
    phis, periods = gates._orbit_phases(p, [eps], family)
    phi, T = float(phis[0]), float(periods[0])
    bound = 0.1 * gates._GAP * (T / (n - 1)) ** 2
    C = math.sqrt(1.0 - eps * eps)
    v1 = np.array([C, 0.0, eps] if family is Family.ROTATING
                  else [0.0, C, eps])
    axis = gates._involution_scan(p, [eps], family, n)[0]
    assert abs(axis @ v1 - math.cos(0.25 * phi)) <= 0.25 * bound
    if family is Family.ROTATING:
        g = 2.0 * axis[0] ** 2 - 1.0
        assert abs(g - (2.0 * C * C * math.cos(0.25 * phi) ** 2 - 1.0)) \
            <= 0.25 * bound
        angle = gates._loop_angles(p, [eps], n)[0]
        assert abs(wrap_angle(angle - phi)) <= bound


class _Located(Exception):
    """Raised by a stand-in for _solve_scanned to hand back its scan."""


def _located(design, *args, skip=0, **kwargs):
    """(xs, fs, i) as design hands them to its first _solve_scanned, or
    to the one after skip others, which the real one solves."""
    solve, seen = gates._solve_scanned, []

    def capture(f, xs, fs, i):
        if len(seen) == skip:
            raise _Located(list(xs), fs, i)
        seen.append(i)
        return solve(f, xs, fs, i)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "_solve_scanned", capture)
        with pytest.raises(_Located) as info:
            design(*args, **kwargs)
    return info.value.args


def _assert_same_bracket(got, xs, full, i):
    lxs, fs, li = got
    assert lxs == list(xs)
    assert li == i
    if i is None:
        assert [struct.pack("d", f) for f in fs] \
            == [struct.pack("d", f) for f in full]
    else:
        assert struct.pack("2d", fs[i], fs[i + 1]) \
            == struct.pack("2d", full[i], full[i + 1])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.floats(0.3, 0.99), st.sampled_from(list(Family)),
       st.integers(2, 4096), st.floats(math.log(1e-6), math.log(1e-2)),
       st.floats(math.log(0.02), math.log(0.999)))
# at k = 1e-170 the oscillating solid angle's nu overflows: no closed
# form, so the locator takes the full scan
@example(1e-170, Family.OSCILLATING, 4096, math.log(1e-3), math.log(0.5))
def test_not_locator_brackets_as_the_full_scan(k, family, n, log_lo, log_hi):
    # brackets that mostly hold a root, some of them several
    p = TopParameters(k)
    lo, hi = math.exp(log_lo), math.exp(log_hi)
    xs = np.geomspace(lo, hi, 64)
    full = []
    for e, axis in zip(xs, gates._involution_scan(p, xs, family, n)):
        c = math.sqrt(1.0 - e * e)
        v1 = [c, 0.0, e] if family is Family.ROTATING else [0.0, c, e]
        full.append(float((axis[0] * v1[0] + axis[1] * v1[1])
                          + axis[2] * v1[2]))
    changes = _sign_changes(full)
    _assert_same_bracket(_located(tune_not_gate, p, (lo, hi), family, n=n),
                         xs, full, changes[-1] if changes else None)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.floats(0.4, 0.99), st.floats(math.log(1e-3), math.log(0.5)),
       st.integers(2, 4096))
def test_composite_locator_brackets_as_the_full_scan(k, log_eps, n):
    p, eps = TopParameters(k), math.exp(log_eps)
    xs = np.geomspace(max(1e-3, eps / 4.0), min(0.97, eps * 4.0), 81)
    a1 = [float(axis[0])
          for axis in gates._involution_scan(p, xs, Family.ROTATING, n)]
    full = [2.0 * a * a - 1.0 for a in a1]
    i = min(_sign_changes(full), default=None, key=lambda j: abs(
        math.log(math.sqrt(xs[j] * xs[j + 1]) / eps)))
    _assert_same_bracket(_located(composite_bir_not, p, eps, n=n), xs, full, i)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.floats(0.02, 0.99), st.floats(-math.pi, math.pi),
       st.integers(2, 4096))
def test_loop_locator_brackets_as_the_unwrapped_full_scan(k, angle, n):
    # the full scan as it was solved before the closed form located it:
    # the first interval whose angles, unwrapped along the grid, pass a
    # level want + 2 pi m
    p, want = TopParameters(k), wrap_angle(angle)
    es = np.geomspace(0.9, 5e-3, 96)
    raw = gates._loop_angles(p, es, n)
    tots = [raw[0]]
    for v in raw[1:]:
        tots.append(tots[-1] + wrap_angle(v - tots[-1]))
    lv = [(t - want) / (2.0 * math.pi) for t in tots]
    i = next((j for j, (a, b) in enumerate(zip(lv, lv[1:]))
              if math.ceil(min(a, b)) <= math.floor(max(a, b))), None)
    full = [wrap_angle(v - want) for v in raw]
    _assert_same_bracket(
        _located(gates._solve_loop, p, want, gates._loop_scan(p), n),
        es, full, i)


def _phase_scans(target, p_a, eps_a=0.01, k_margin=0.015):
    """The (ks, spread - phi_eff, first sign change) that design_phase_gate
    scans per orientation, up to the first with a sign change: the spread
    in closed form on its 33-point k grid."""
    budget_a = gates._closed_budget(p_a, eps_a, Family.ROTATING)
    dyn_a = budget_a.dynamical
    k_max = math.sqrt(1.0 - (2.0 * math.pi / dyn_a) ** 2) - k_margin
    ks = np.linspace(p_a.k + k_margin, k_max, 33)
    ds = []
    for kb in ks:
        pb = TopParameters(float(kb))
        eb, _, _ = gates._match_dynamical(pb, dyn_a)
        ds.append(-budget_a.geometric
                  + gates._orbit_solid_angle(pb, eb, Family.ROTATING))
    scans = []
    for phi_eff in (target, 2.0 * math.pi - target):
        fs = [d - phi_eff for d in ds]
        changes = _sign_changes(fs)
        scans.append((list(ks), fs, changes[0] if changes else None))
        if changes:
            break
    return scans


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(0.4, 0.9),
       st.floats(0.0, 2.0 * math.pi, exclude_min=True, exclude_max=True))
@example(0.5, 1.3)      # a reverse_first bracket
@example(0.5, 4.5)      # a reverse_second bracket
@example(0.9, 3.0)      # no crossing on either orientation: the fallback
@example(0.5, 1e-7)     # degenerate: one loop against itself, no scan
def test_phase_locator_scans_the_closed_form_spread(k_a, target):
    p_a = TopParameters(k_a)
    degenerate = target <= 1e-6 or 2.0 * math.pi - target <= 1e-6
    scans = [] if degenerate else _phase_scans(target, p_a)
    search, solve = gates._search, gates._solve_scanned

    def unsampled(xs, approx, spans, n, sample, crosses, pick):
        # the closed form is the objective: no grid point is sampled, and
        # a captured solve never starts
        assert spans is None

        def never(points):
            raise AssertionError(f"sampled {list(points)}")

        return search(xs, approx, spans, n, never, crosses, pick)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "_search", unsampled)
        for skip, (ks, fs, i) in enumerate(scans):
            got_ks, got_fs, got_i = _located(design_phase_gate, target, p_a,
                                             n=65, skip=skip)
            assert got_ks == ks and got_i == i
            assert [struct.pack("d", f) for f in got_fs] \
                == [struct.pack("d", f) for f in fs]
    solved = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "_solve_scanned",
                   lambda f, xs, fs, i: solved.append(i) or solve(f, xs, fs, i))
        design, _, _ = design_phase_gate(target, p_a, n=65)
    assert solved == [i for _, _, i in scans]
    if degenerate:
        assert design.orientation == "degenerate"
    elif scans[-1][2] is None:
        assert design.converged is False
        assert design.k_b in scans[0][0]
    else:
        assert design.orientation == ("reverse_first", "reverse_second")[
            len(scans) - 1]


def test_gate_designs_refuse_one_sample_before_any_scan(tmp_path):
    p = TopParameters(0.6)
    H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    designs = (lambda: tune_not_gate(p, (1e-3, 0.5), n=1),
               lambda: composite_bir_not(p, 0.01, n=1),
               lambda: design_phase_gate(1.3, p, n=1),
               lambda: synthesize_one_qubit(H, p, n=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for design in designs:
            with pytest.raises(ValueError, match="need at least 2 samples"):
                design()
        for gate in ("not", "hadamard"):
            assert cli.main(["gate", gate, "--n", "1",
                             "--out", str(tmp_path / gate)]) == 2
    assert not any(tmp_path.iterdir())


def test_not_design_samples_few_scan_points(monkeypatch):
    built = []
    half = gates._mirror_half

    def counting_half(p, es, *args, **kwargs):
        built.extend(float(e) for e in es)
        return half(p, es, *args, **kwargs)

    monkeypatch.setattr(gates, "_mirror_half", counting_half)
    _, _, report = tune_not_gate(TopParameters(0.7), (1e-3, 0.5), n=4096)
    assert report.converged
    # the two bracket ends and the Brent steps, not the 64-point scan
    assert len(built) <= 10


def test_synthesis_solves_each_loop_angle_once(monkeypatch):
    solves = []
    solve = gates._solve_loop

    def counting(p, want, table, n):
        solves.append(want)
        return solve(p, want, table, n)

    monkeypatch.setattr(gates, "_solve_loop", counting)
    H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    prog = synthesize_one_qubit(H, TopParameters(0.6), n=512)
    assert prog.labels == ("z-loop", "x-loop", "z-loop")
    assert len(solves) == 1 and abs(solves[0] - math.pi / 2.0) <= 1e-12
    assert len({seg.meta["eps"] for seg in prog.segments}) == 1
    assert prog.fidelity >= 1.0 - 1e-3


@pytest.mark.parametrize("scan", [-1, 0, 1])
def test_scans_shorter_than_two_points_are_refused(scan):
    with pytest.raises(ValueError, match="scan"):
        tune_not_gate(TopParameters(0.5), (0.001, 0.5), scan=scan)
    with pytest.raises(ValueError, match="scan"):
        composite_bir_not(TopParameters(0.5), 0.01, scan=scan)


def test_each_shipped_gate_pulse_is_propagated_once(monkeypatch):
    finals = []
    final = propagate._final

    def counting(pulse, err):
        finals.append(pulse)
        return final(pulse, err)

    def propagated(pulse) -> list:
        return [all(np.array_equal(getattr(q, f), getattr(pulse, f))
                    for f in ("times", "omega1", "omega2", "omega3"))
                for q in finals]

    # so3_final and su2_final reach propagate._final; gates imports it too
    monkeypatch.setattr(propagate, "_final", counting)
    monkeypatch.setattr(gates, "_final", counting)

    _, pulse, report = tune_not_gate(TopParameters(0.7), (1e-3, 0.5), n=4096)
    assert report.converged
    assert propagated(pulse) == [True]

    finals.clear()
    comp = composite_bir_not(TopParameters(0.6), 0.01, n=2048)
    # the unaligned pair once for its pi axis, the shipped pulse once
    assert propagated(comp) == [False, True]

    finals.clear()
    design, pulse, budget = design_phase_gate(1.3, TopParameters(0.55),
                                              n=2048)
    assert design.converged
    assert propagated(pulse) == [True]
    # the budget and fidelity of the one propagation carry the bits of
    # the public pair
    U = su2_final(pulse)
    q = spinor_quaternion(U)
    assert budget.total == wrap_angle(2.0 * math.atan2(q[3], q[0]))
    assert design.fidelity == gate_fidelity(
        U, np.diag([np.exp(0.65j), np.exp(-0.65j)]))

    finals.clear()
    prog = synthesize_one_qubit(HADAMARD, TopParameters(0.6), n=1024)
    assert prog.converged
    # the one solved loop once for its axis, the shipped concat once
    assert propagated(prog.pulse).count(True) == 1


@pytest.mark.parametrize("n", [16385, 262145])
def test_each_orbit_constants_is_built_once(monkeypatch, n):
    calls = []
    build = topdyn.orbit_constants

    def counting(*args):
        calls.append(args)
        return build(*args)

    for module in (topdyn, pulsegen, gates):
        monkeypatch.setattr(module, "orbit_constants", counting)
    p = TopParameters(0.6)
    montgomery_phase(p, 0.01, Family.ROTATING, n=n)
    # the mirror half's sampler and the closed-form budget, once each
    assert len(calls) == 2
    calls.clear()
    tre_pulse(p, 0.01, Family.ROTATING, n=65537)
    assert len(calls) == 1
