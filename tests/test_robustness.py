import json
import math
import os
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blochtop import propagate, robustness
from blochtop.propagate import ErrorParams, bloch_propagate
from blochtop.pulsegen import ControlPulse, rect_pi_pulse, tre_pulse
from blochtop.robustness import (
    RobustnessMap,
    default_alpha_grid,
    default_delta_grid,
    fit_log_period,
    merit_J2,
    merit_J3,
    sweep,
    write_map_csv,
)
from blochtop.topdyn import Family, TopParameters


def test_rect_pi_amplitude_error_is_cosine():
    # a resonant pi pulse on M0 = e2 gives J2(alpha) = cos(pi alpha) exactly
    pulse = rect_pi_pulse(1.0, n=2001)
    alphas = np.linspace(-0.5, 0.5, 11)
    rmap = sweep(pulse, (0.0, 1.0, 0.0), alpha_grid=alphas,
                 delta_grid=np.array([0.0]), merit=merit_J2)
    expected = np.cos(np.pi * alphas)
    assert np.max(np.abs(rmap.values[:, 0] - expected)) <= 1e-9


def test_zero_pulse_leaves_state_alone():
    pulse = ControlPulse(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2),
                         np.zeros(2), {"kind": "null"})
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([0.0]),
                 delta_grid=np.array([0.0]))
    assert rmap.values[0, 0] == -1.0


def test_worker_count_does_not_change_results(tmp_path):
    pulse = tre_pulse(TopParameters(0.5), 0.05, Family.ROTATING, n=257)
    alphas = np.linspace(-0.3, 0.3, 5)
    deltas = np.linspace(-0.2, 0.2, 5)
    serial = sweep(pulse, (0.0, 0.0, 1.0), alphas, deltas)
    parallel = sweep(pulse, (0.0, 0.0, 1.0), alphas, deltas, workers=4)
    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.flags, parallel.flags)

    p1 = tmp_path / "serial.csv"
    p2 = tmp_path / "parallel.csv"
    write_map_csv(serial, p1)
    write_map_csv(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_center_cell_matches_direct_propagation():
    pulse = tre_pulse(TopParameters(0.5), 0.05, Family.ROTATING, n=257)
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([0.0]),
                 delta_grid=np.array([0.0]))
    direct = merit_J3(bloch_propagate(pulse, (0.0, 0.0, 1.0), ErrorParams()))
    assert rmap.values[0, 0] == direct


def test_detuning_symmetry_when_omega2_vanishes():
    # with Omega2 = 0 the dynamics maps delta -> -delta onto a conjugate
    # trajectory with the same M3 history
    pulse = tre_pulse(TopParameters(0.5), 0.05, Family.ROTATING, n=513)
    deltas = np.linspace(-0.3, 0.3, 7)
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([0.0]),
                 delta_grid=deltas)
    row = rmap.values[0]
    assert np.max(np.abs(row - row[::-1])) <= 1e-8


def test_failed_cell_flagged_not_fatal():
    calls = {"n": 0}

    def flaky(traj):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("probe fault")
        return merit_J3(traj)

    pulse = tre_pulse(TopParameters(0.5), 0.05, Family.ROTATING, n=129)
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([-0.1, 0.1]),
                 delta_grid=np.array([0.0, 0.1]), merit=flaky)
    assert int(rmap.flags.sum()) == 1
    assert int(np.isnan(rmap.values).sum()) == 1
    bad = np.argwhere(rmap.flags == 1)[0]
    assert np.isnan(rmap.values[bad[0], bad[1]])


def test_non_finite_cells_flagged():
    pulse = rect_pi_pulse(1.0, n=33)
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([0.0, 0.1]),
                 delta_grid=np.array([0.0]),
                 merit=lambda traj: math.inf if traj.M[-1, 2] < -0.999
                 else merit_J3(traj))
    assert rmap.flags[:, 0].tolist() == [1, 0]
    assert np.isnan(rmap.values[0, 0]) and np.isfinite(rmap.values[1, 0])
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([math.nan]),
                 delta_grid=np.array([0.0, math.inf]))
    assert rmap.flags.tolist() == [[1, 1]]
    assert np.all(np.isnan(rmap.values))


def test_overflowing_cell_does_not_poison_its_chunk():
    # RuntimeWarnings are errors under the test config
    rmap = sweep(rect_pi_pulse(1.0, n=65), (0.0, 0.0, 1.0),
                 alpha_grid=[0.0, 0.1, 1e308], delta_grid=[0.0])
    assert rmap.flags[:, 0].tolist() == [0, 0, 1]
    assert_allclose(rmap.values[:2, 0], [1.0, math.cos(0.1 * math.pi)],
                    rtol=1e-12)
    alone = sweep(rect_pi_pulse(1.0, n=65), (0.0, 0.0, 1.0),
                  alpha_grid=[0.0, 0.1], delta_grid=[0.0])
    assert rmap.values[:2].tolist() == alone.values.tolist()
    assert rmap.meta["failed_cells"] == [{"index": [2, 0],
                                          "reason": "non-finite merit"}]


def test_transfer_quality_across_k():
    for k in (0.2, 0.6, 0.9, 0.99):
        pulse = tre_pulse(TopParameters(k), 0.01, Family.ROTATING, n=2048)
        rmap = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([0.0]),
                     delta_grid=np.array([0.0]))
        assert rmap.values[0, 0] >= 0.99


def test_duration_scales_with_log_precision():
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    for k in (0.3, 0.5, 0.7):
        a, b, r2 = fit_log_period(TopParameters(k), eps)
        assert r2 >= 0.999
        kp = math.sqrt(1.0 - k * k)
        assert_allclose(a, 2.0 / (k * kp), rtol=5e-3)
        assert b > 0.0


def test_fit_input_validation():
    p = TopParameters(0.5)
    with pytest.raises(ValueError):
        fit_log_period(p, np.array([1e-2, 1e-3]))
    with pytest.raises(ValueError):
        fit_log_period(p, np.array([1e-2, 5e-3, 2e-3]))
    with pytest.raises(ValueError):
        fit_log_period(p, np.array([1e-2, 1e-3, 1.5]))


def test_map_csv_layout(tmp_path):
    pulse = tre_pulse(TopParameters(0.5), 0.05, Family.ROTATING, n=129)
    alphas = np.array([-0.1, 0.0, 0.1])
    deltas = np.array([-0.2, 0.2])
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alphas, deltas)
    path = tmp_path / "map.csv"
    write_map_csv(rmap, path)

    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,delta,J,flag"
    assert len(lines) == 1 + len(alphas) * len(deltas)
    # row-major: delta varies fastest
    first = [line.split(",") for line in lines[1:1 + len(deltas)]]
    assert all(float(row[0]) == alphas[0] for row in first)
    assert [float(row[1]) for row in first] == list(deltas)
    assert float(lines[1].split(",")[2]) == rmap.values[0, 0]

    sidecar = json.loads((tmp_path / "map.csv.json").read_text())
    assert sidecar["alpha_grid"] == list(alphas)
    assert sidecar["delta_grid"] == list(deltas)
    assert "pulse" in sidecar["meta"]


def test_grid_refinement_is_consistent():
    # every cell of a coarse sweep reappears bitwise in a finer sweep that
    # contains the same nodes
    pulse = tre_pulse(TopParameters(0.5), 0.05, Family.ROTATING, n=129)
    coarse = np.linspace(-0.5, 0.5, 11)
    fine = np.linspace(-0.5, 0.5, 21)
    d = np.array([0.0])
    m_c = sweep(pulse, (0.0, 0.0, 1.0), coarse, d)
    m_f = sweep(pulse, (0.0, 0.0, 1.0), fine, d)
    assert np.array_equal(m_c.values[:, 0], m_f.values[::2, 0])


def test_default_grids():
    pulse = rect_pi_pulse(2.0, n=101)
    a = default_alpha_grid()
    d = default_delta_grid(pulse)
    assert a.shape == (21,) and a[0] == -0.5 and a[-1] == 0.5
    assert d.shape == (21,) and d[0] == -2.0 and d[-1] == 2.0


def test_sweep_rejects_empty_grid():
    pulse = rect_pi_pulse(1.0, n=11)
    with pytest.raises(ValueError):
        sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([]),
              delta_grid=np.array([0.0]))


@pytest.mark.parametrize("M0", [(0.0, 1.0), (math.nan, 0.0, 1.0),
                                (0.0, 0.0, math.inf)])
def test_sweep_rejects_bad_m0_before_propagating(M0, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a cell was propagated")

    monkeypatch.setattr(robustness, "_final_states", unreachable)
    with pytest.raises(ValueError, match="M0"):
        sweep(rect_pi_pulse(1.0, n=11), M0, alpha_grid=np.array([0.0]),
              delta_grid=np.array([0.0]))


def test_map_shape_guard():
    with pytest.raises(ValueError):
        RobustnessMap(np.zeros(3), np.zeros(2), np.zeros((2, 3)),
                      np.zeros((3, 2), dtype=int), {})


def test_failed_cells_record_index_and_reason():
    def picky(traj):
        if traj.M[-1, 2] > 0.9:
            raise TypeError("probe fault")
        return math.nan if traj.M[-1, 2] < -0.999 else merit_J3(traj)

    pulse = rect_pi_pulse(1.0, n=33)
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([0.0, 0.1, -1.0]),
                 delta_grid=np.array([0.0, math.inf]), merit=picky)
    bad = "non-finite error parameter"
    assert rmap.meta["failed_cells"] == [
        {"index": [0, 0], "reason": "non-finite merit"},
        {"index": [0, 1], "reason": bad},
        {"index": [1, 1], "reason": bad},
        {"index": [2, 0], "reason": "TypeError"},
        {"index": [2, 1], "reason": bad}]
    assert rmap.flags.tolist() == [[1, 1], [0, 1], [1, 1]]

    clean = sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([0.0, 0.1]),
                  delta_grid=np.array([0.0]))
    assert "failed_cells" not in clean.meta


def test_kernel_failure_flags_every_live_cell_with_its_class(monkeypatch):
    class KernelFault(Exception):
        pass

    def failing(*args, **kwargs):
        raise KernelFault("workspace")

    seen = []

    def merit(traj):
        seen.append(traj)
        return merit_J3(traj)

    monkeypatch.setattr(robustness, "_final_states", failing)
    alphas = np.array([0.0, math.nan, 0.2])
    deltas = np.array([0.0, math.inf, -0.3])
    rmap = sweep(rect_pi_pulse(1.0, n=33), (0.0, 0.0, 1.0), alphas, deltas,
                 merit=merit)
    assert not seen
    assert rmap.flags.all() and np.isnan(rmap.values).all()
    assert rmap.meta["failed_cells"] == [
        {"index": [i, j],
         "reason": ("KernelFault" if math.isfinite(a) and math.isfinite(d)
                    else "non-finite error parameter")}
        for i, a in enumerate(alphas) for j, d in enumerate(deltas)]


def test_sweep_without_live_cells_propagates_nothing(monkeypatch):
    kernel = robustness._final_states
    results = []

    def watched(*args, **kwargs):
        try:
            finals = kernel(*args, **kwargs)
        except BaseException as exc:
            results.append(exc)
            raise
        results.append(finals)
        return finals

    monkeypatch.setattr(robustness, "_final_states", watched)
    rmap = sweep(rect_pi_pulse(1.0, n=33), (0.0, 0.0, 1.0),
                 np.array([math.nan, -math.inf]), np.array([math.inf, 0.0]))
    (finals,) = results
    assert isinstance(finals, np.ndarray) and finals.shape == (0, 3)
    assert rmap.flags.all()
    assert {cell["reason"] for cell in rmap.meta["failed_cells"]} == {
        "non-finite error parameter"}


# the forked sweep: a child propagates the cells after the split


class ChildFault(Exception):
    """A fault of one half of a forked sweep, or of both."""


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forking_sweeps(monkeypatch, cpus=(0, 1)) -> list:
    """Every sweep of two or more cells forks on a host with the given
    usable CPUs, a chunk holding one cell of a 33-sample pulse; returns
    the list that counts the forks."""
    monkeypatch.setattr(propagate, "_FORK_SAMPLES", 0)
    monkeypatch.setattr(propagate, "_CHUNK_SAMPLES", 33)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("fault, reason", [
    (ChildFault, "ChildFault"), (MemoryError, "MemoryError")])
def test_failing_forked_half_flags_every_live_cell_with_its_class(
        monkeypatch, fault, reason):
    alphas = np.array([0.0, math.nan, 0.2, -0.1])
    deltas = np.array([0.0, math.inf, -0.3])
    pulse = rect_pi_pulse(1.0, n=33)
    seen = []

    def merit(traj):
        seen.append(traj)
        return merit_J3(traj)

    serial = sweep(pulse, (0.0, 0.0, 1.0), alphas, deltas, merit=merit)
    forks = _forking_sweeps(monkeypatch)
    parent = os.getpid()
    real = propagate._final_pairs
    faulty = []

    def pairs(*args):
        if os.getpid() != parent or faulty:
            raise fault("child" if os.getpid() != parent else "parent")
        return real(*args)

    monkeypatch.setattr(propagate, "_final_pairs", pairs)
    # a fault in the child alone: this process propagates its cells
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alphas, deltas, merit=merit)
    _assert_no_child()
    assert forks == [1]
    assert rmap.values.tobytes() == serial.values.tobytes()
    assert np.array_equal(rmap.flags, serial.flags)
    assert rmap.meta == serial.meta
    # a fault in both halves flags every live cell with its class
    faulty.append(1)
    seen.clear()
    rmap = sweep(pulse, (0.0, 0.0, 1.0), alphas, deltas, merit=merit)
    _assert_no_child()
    assert forks == [1, 1]
    assert not seen
    assert rmap.flags.all() and np.isnan(rmap.values).all()
    assert rmap.meta["failed_cells"] == [
        {"index": [i, j],
         "reason": (reason if math.isfinite(a) and math.isfinite(d)
                    else "non-finite error parameter")}
        for i, a in enumerate(alphas) for j, d in enumerate(deltas)]


def test_parent_failure_after_the_fork_kills_and_reaps_the_child(
        monkeypatch):
    forks = _forking_sweeps(monkeypatch)
    parent = os.getpid()

    def pairs(*args):
        if os.getpid() == parent:
            raise ChildFault("parent")
        time.sleep(60)    # only a kill ends the child in time

    monkeypatch.setattr(propagate, "_final_pairs", pairs)
    start = time.monotonic()
    with pytest.raises(ChildFault):
        propagate._final_states(rect_pi_pulse(1.0, n=33), (0.0, 0.0, 1.0),
                                np.zeros(4), np.linspace(-0.3, 0.3, 4))
    assert time.monotonic() - start < 30.0
    _assert_no_child()
    assert forks == [1]


def test_one_usable_cpu_sweeps_without_forking(monkeypatch):
    pulse = tre_pulse(TopParameters(0.6), 0.05, Family.ROTATING, n=33)
    alphas, deltas = np.linspace(-0.3, 0.3, 5), np.linspace(-0.4, 0.4, 3)
    before = sweep(pulse, (0.6, 0.0, 0.8), alphas, deltas)
    forks = _forking_sweeps(monkeypatch, cpus=(0,))
    rmap = sweep(pulse, (0.6, 0.0, 0.8), alphas, deltas)
    assert not forks
    assert rmap.values.tobytes() == before.values.tobytes()
    assert not rmap.flags.any()


def test_merit_sees_one_sample_final_state():
    pulse = tre_pulse(TopParameters(0.5), 0.05, Family.ROTATING, n=129)
    seen = []

    def probe(traj):
        seen.append(traj)
        return merit_J3(traj)

    sweep(pulse, (0.0, 0.0, 1.0), alpha_grid=np.array([0.1]),
          delta_grid=np.array([-0.2]), merit=probe)
    direct = bloch_propagate(pulse, (0.0, 0.0, 1.0),
                             ErrorParams(alpha=0.1, delta=-0.2))
    (traj,) = seen
    assert traj.times.tolist() == [pulse.times[-1]]
    assert np.array_equal(traj.M, direct.M[-1:])


def test_default_delta_grid_of_a_zero_drive_spans_unit_detunings():
    # a drive with no omega1 has no peak to scale the grid by
    pulse = ControlPulse(np.linspace(0.0, 1.0, 5), np.zeros(5), np.ones(5),
                         np.zeros(5), {})
    grid = robustness.default_delta_grid(pulse, n=5)
    assert grid.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert robustness.default_delta_grid(rect_pi_pulse(2.5, n=11))[-1] == 2.5
