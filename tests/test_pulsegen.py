"""Pulse construction, transforms and serialization."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blochtop.pulsegen import (
    ControlPulse,
    allen_eberly_pulse,
    concat,
    inverse_pulse,
    nmr_frame,
    pulse_area,
    read_pulse_csv,
    rect_pi_pulse,
    rotate_pulse,
    transform_pulse,
    tre_loop_pulse,
    tre_pulse,
    write_pulse_csv,
)
from blochtop.topdyn import (
    Family,
    TopParameters,
    analytic_trajectory,
    orbit_constants,
    orbit_period,
    separatrix_trajectory,
    transfer_period,
)


def test_control_pulse_validation():
    t = np.linspace(0.0, 1.0, 5)
    z = np.zeros(5)
    with pytest.raises(ValueError):
        ControlPulse(t, z[:4], z, z)
    with pytest.raises(ValueError):
        ControlPulse(t[::-1], z, z, z)
    with pytest.raises(ValueError):
        ControlPulse(t, z + np.nan, z, z)
    with pytest.raises(ValueError):
        ControlPulse(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                     np.zeros((2, 2)))


def test_control_pulse_is_read_only():
    pulse = rect_pi_pulse(1.0, n=8)
    with pytest.raises(ValueError):
        pulse.times[0] = 5.0
    with pytest.raises(ValueError):
        pulse.omega1[2] = 5.0


def test_control_pulse_basics():
    pulse = ControlPulse([0.0, 0.5, 0.5, 2.0], [1, 2, 3, 4.0],
                         np.zeros(4), np.zeros(4))
    assert pulse.n_samples == 4
    assert pulse.duration == 2.0
    assert pulse.fields.shape == (4, 3)
    assert pulse.meta == {}
    single = ControlPulse([1.0], [0.3], [0.0], [0.0])
    assert single.duration == 0.0


def test_generators_reject_bad_arguments():
    p = TopParameters(0.5)
    with pytest.raises(ValueError):
        tre_pulse(p, 0.1, Family.ROTATING, n=1)
    with pytest.raises(ValueError):
        allen_eberly_pulse(p, half_width=0.0)
    with pytest.raises(ValueError):
        rect_pi_pulse(-2.0)


@pytest.mark.parametrize("family", [Family.ROTATING, Family.OSCILLATING])
@pytest.mark.parametrize("k,eps", [(0.3, 0.2), (0.5, 0.01), (0.9, 0.6)])
def test_tre_pulse_fields_follow_trajectory(k, eps, family):
    p = TopParameters(k)
    pulse = tre_pulse(p, eps, family, n=257)
    assert_allclose(pulse.duration, transfer_period(p, eps, family), rtol=1e-14)
    L = analytic_trajectory(p, eps, family, pulse.times)
    assert_allclose(pulse.omega1, L[:, 0], atol=1e-14)
    assert np.all(pulse.omega2 == 0.0)
    assert_allclose(pulse.omega3, k**2 * L[:, 2], atol=1e-14)
    # drive and sweep trace one energy contour
    oc = orbit_constants(p, eps, family)
    assert_allclose(pulse.omega1**2 + pulse.omega3**2 / k**2,
                    2.0 * oc.energy, atol=1e-12)


def test_tre_pulse_endpoints():
    p = TopParameters(0.5)
    pulse = tre_pulse(p, 0.05, Family.ROTATING, n=64)
    assert_allclose(pulse.omega1[0], 0.05, atol=1e-14)
    assert_allclose(pulse.omega1[-1], 0.05, atol=1e-12)
    assert_allclose(pulse.omega3[0], 0.25 * math.sqrt(1 - 0.05**2), atol=1e-14)
    assert_allclose(pulse.omega3[-1], -pulse.omega3[0], atol=1e-12)


def test_tre_loop_pulse_closes():
    p = TopParameters(0.7)
    pulse = tre_loop_pulse(p, 0.2, Family.OSCILLATING, n=129)
    assert_allclose(pulse.duration, orbit_period(p, 0.2, Family.OSCILLATING),
                    rtol=1e-14)
    assert_allclose(pulse.fields[0], pulse.fields[-1], atol=1e-9)
    shifted = tre_loop_pulse(p, 0.2, Family.OSCILLATING, n=129, u_offset=1.3)
    assert shifted.meta["u_offset"] == 1.3
    assert not np.allclose(shifted.omega1[0], pulse.omega1[0])


def test_allen_eberly_is_rescaled_separatrix():
    # the sech/tanh fields are the separatrix fields of the top in the
    # time unit s = k*kp*t, amplitudes divided by the same factor
    p = TopParameters(0.6)
    c = p.k * math.sqrt(1.0 - p.k**2)
    pulse = allen_eberly_pulse(p, half_width=9.0, n=301)
    L = separatrix_trajectory(p, (pulse.times - 9.0) / c)
    assert_allclose(pulse.omega1, L[:, 0] / c, atol=1e-14)
    assert_allclose(pulse.omega3, p.k**2 * L[:, 2] / c, atol=1e-14)
    assert np.all(pulse.omega2 == 0.0)


def test_allen_eberly_shape_and_signs():
    k = 0.5
    p = TopParameters(k)
    kp = math.sqrt(1.0 - k**2)
    pulse = allen_eberly_pulse(p, half_width=12.0, n=4097)
    assert pulse.times[0] == 0.0
    assert_allclose(pulse.duration, 24.0, rtol=1e-15)
    assert_allclose(pulse.omega1[2048], 1.1547005383792515, rtol=1e-15)
    assert_allclose(pulse.omega3[-1], k * math.tanh(12.0) / kp, rtol=1e-12)
    assert_allclose(pulse.omega3[0], -pulse.omega3[-1], atol=1e-15)
    flipped = allen_eberly_pulse(p, half_width=12.0, n=4097, sign1=-1, sign3=-1)
    assert_allclose(flipped.omega1, -pulse.omega1, atol=1e-15)
    assert_allclose(flipped.omega3, -pulse.omega3, atol=1e-15)
    with pytest.raises(ValueError):
        allen_eberly_pulse(p, sign1=2)


def test_allen_eberly_center_offset():
    k = 0.8
    p = TopParameters(k)
    kp = math.sqrt(1.0 - k**2)
    pulse = allen_eberly_pulse(p, t0=2.0, half_width=6.0, n=101)
    s = pulse.times - 6.0 + 2.0
    assert_allclose(pulse.omega1, (1.0 / kp) / np.cosh(s), atol=1e-15)
    assert_allclose(pulse.omega3, (k / kp) * np.tanh(s), atol=1e-15)


def test_tre_near_pi_pulse_limit():
    # eps -> 1 parks the trajectory at the stable e1 pole: the drive
    # flattens to a constant pi pulse and the sweep shrinks with it
    k = 0.5
    pulse = tre_pulse(TopParameters(k), 0.999, Family.ROTATING, n=512)
    assert np.max(np.abs(pulse.omega1 - 1.0)) <= 0.05
    assert np.max(np.abs(pulse.omega3)) <= 0.05 * k**2
    # the drive area stays pinned at pi/kp, so the limit is a clean pi
    # pulse only for small k where that approaches pi
    assert_allclose(pulse_area(pulse), math.pi / math.sqrt(1.0 - k**2),
                    rtol=1e-3)


def test_rect_pi_pulse_area():
    pulse = rect_pi_pulse(2.0, n=33)
    assert_allclose(pulse.duration, math.pi / 2.0, rtol=1e-15)
    assert_allclose(pulse_area(pulse), math.pi, rtol=1e-13)
    assert pulse_area(pulse, component=2) == 0.0


@pytest.mark.parametrize("k", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("eps", [0.01, 0.3, 0.7])
def test_transfer_area_theorem(k, eps):
    # the drive area of a rotating transfer is pi/sqrt(1-k^2), whatever eps
    p = TopParameters(k)
    pulse = tre_pulse(p, eps, Family.ROTATING, n=4096)
    assert_allclose(pulse_area(pulse), math.pi / math.sqrt(1.0 - k**2),
                    rtol=1e-6)


def test_allen_eberly_area_matches_transfer_area():
    k = 0.5
    p = TopParameters(k)
    pulse = allen_eberly_pulse(p, half_width=14.0, n=8192)
    assert_allclose(pulse_area(pulse), math.pi / math.sqrt(1.0 - k**2),
                    atol=1e-4)


def test_concat_structure():
    a = rect_pi_pulse(1.0, n=5)
    b = rect_pi_pulse(2.0, n=4)
    c = concat([a, b])
    assert c.n_samples == 9
    assert_allclose(c.duration, a.duration + b.duration, rtol=1e-15)
    assert c.times[4] == c.times[5]
    assert_allclose(c.omega1, np.concatenate([a.omega1, b.omega1]), atol=0)
    assert c.meta["kind"] == "concat"
    with pytest.raises(ValueError):
        concat([])


def test_transform_pulse_round_trip():
    p = TopParameters(0.4)
    pulse = tre_pulse(p, 0.2, Family.ROTATING, n=33)
    rev = transform_pulse(pulse, reverse=True, s2=-1)
    assert_allclose(rev.times[0], pulse.times[0], atol=0)
    assert_allclose(rev.duration, pulse.duration, rtol=1e-15)
    assert_allclose(rev.omega1, pulse.omega1[::-1], atol=0)
    back = transform_pulse(rev, reverse=True, s2=-1)
    assert_allclose(back.times, pulse.times, atol=1e-12)
    assert_allclose(back.omega1, pulse.omega1, atol=0)
    with pytest.raises(ValueError):
        transform_pulse(pulse, s1=2)


def test_inverse_pulse_fields():
    p = TopParameters(0.4)
    pulse = tre_pulse(p, 0.2, Family.ROTATING, n=33)
    inv = inverse_pulse(pulse)
    assert_allclose(inv.omega1, -pulse.omega1[::-1], atol=0)
    assert_allclose(inv.omega3, -pulse.omega3[::-1], atol=0)
    again = inverse_pulse(inv)
    assert_allclose(again.omega1, pulse.omega1, atol=0)
    assert_allclose(again.times, pulse.times, atol=1e-12)


def test_rotate_pulse_validation_and_action():
    pulse = rect_pi_pulse(1.0, n=4)
    with pytest.raises(ValueError):
        rotate_pulse(pulse, np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        rotate_pulse(pulse, np.ones((3, 3)))
    with pytest.raises(ValueError, match="proper rotation"):
        rotate_pulse(pulse, np.full((3, 3), np.nan))
    Rz90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rot = rotate_pulse(pulse, Rz90)
    assert_allclose(rot.omega2, pulse.omega1, atol=1e-15)
    assert_allclose(rot.omega1, 0.0, atol=1e-15)


def test_nmr_frame_moves_sweep_to_transverse_plane():
    p = TopParameters(0.5)
    pulse = tre_pulse(p, 0.1, Family.ROTATING, n=65)
    lab = nmr_frame(pulse)
    assert_allclose(lab.omega1, pulse.omega1, atol=0)
    assert_allclose(lab.omega2, pulse.omega3, atol=0)
    assert_allclose(lab.omega3, 0.0, atol=0)


def test_csv_round_trip_is_bit_exact(tmp_path):
    p = TopParameters(0.7)
    pulse = concat([tre_pulse(p, 0.15, Family.ROTATING, n=40),
                    rect_pi_pulse(0.9, n=17)])
    path = tmp_path / "pulse.csv"
    write_pulse_csv(pulse, path)
    assert path.read_text().splitlines()[0] == "t,omega1,omega2,omega3"
    back = read_pulse_csv(path)
    assert np.array_equal(back.times, pulse.times)
    assert np.array_equal(back.omega1, pulse.omega1)
    assert np.array_equal(back.omega2, pulse.omega2)
    assert np.array_equal(back.omega3, pulse.omega3)
    again = tmp_path / "again.csv"
    write_pulse_csv(back, again, sidecar=False)
    assert again.read_bytes() == path.read_bytes()


def test_csv_sidecar_meta(tmp_path):
    p = TopParameters(0.7)
    pulse = tre_pulse(p, 0.15, Family.OSCILLATING, n=40)
    path = tmp_path / "pulse.csv"
    write_pulse_csv(pulse, path)
    meta = json.loads((tmp_path / "pulse.csv.json").read_text())
    assert meta["family"] == "tre"
    assert meta["k"] == 0.7
    assert meta["eps"] == 0.15
    assert meta["n"] == 40
    assert meta["duration"] == pulse.duration


def test_read_pulse_csv_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,omega1\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_pulse_csv(path)
