"""tools/artdiff.py: the CSV and JSON comparers on small crafted files,
and one replay of two short job lists."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("artdiff",
                                               ROOT / "tools" / "artdiff.py")
artdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artdiff)


def write_map(path, J, flag=0):
    path.mkdir(parents=True, exist_ok=True)
    rows = [f"{a!r},{d!r},{float(j)!r},{flag}"
            for a, d, j in zip([-0.1, 0.0, 0.1], [0.2, 0.0, -0.2], J)]
    (path / "sweep.csv").write_text("alpha,delta,J,flag\n"
                                    + "\n".join(rows) + "\n")


def write_report(path, converged, infidelity=1e-9, sha="ab"):
    path.mkdir(parents=True, exist_ok=True)
    (path / "gate_not.json").write_text(json.dumps({
        "converged": converged, "residuals": {"infidelity": infidelity},
        "segments": [{"converged": converged, "eps": 0.25}], "sha256": sha}))


def compare(a, b):
    return artdiff.compare_dirs(a, b, artdiff.Report())


def test_identical_files_are_reported_identical(tmp_path):
    write_map(tmp_path / "a", [0.5, 1.0, -0.25])
    write_map(tmp_path / "b", [0.5, 1.0, -0.25])
    report = compare(tmp_path / "a", tmp_path / "b")
    assert report.lines == ["identical  sweep.csv"]
    assert not report.failures and not report.moves
    assert artdiff.summary(report)[-1] == ("files 1, identical 1, differ 0, "
                                           "failures 0")


def test_one_ulp_move_is_reported_without_a_failure(tmp_path):
    J = [0.5, 1.0, -0.25]
    write_map(tmp_path / "a", J)
    write_map(tmp_path / "b", [J[0], np.nextafter(J[1], 2.0), J[2]])
    write_report(tmp_path / "a", True, infidelity=3e-9)
    write_report(tmp_path / "b", True,
                 infidelity=float(np.nextafter(3e-9, 0.0)), sha="cd")
    report = compare(tmp_path / "a", tmp_path / "b")
    assert not report.failures
    assert report.differ == 2
    count, d, rel, ulps = report.moves[("sweep.csv", "J")][1:]
    assert (count, ulps) == (1, 1)
    assert d == np.spacing(1.0) and rel == d / np.nextafter(1.0, 2.0)
    assert report.moves[("gate_not.json", "residuals.infidelity")][-1] == 1
    assert report.changed == {("gate_not.json", "sha256"): 1}
    assert "differs    sweep.csv" in report.lines


def test_ulps_count_across_zero_and_between_zeros():
    x = np.array([0.0, -0.0, np.nextafter(0.0, 1.0), 1.0])
    y = np.array([-0.0, np.nextafter(0.0, -1.0), np.nextafter(0.0, -1.0),
                  np.nextafter(1.0, 0.0)])
    assert artdiff._ulps(x, y).tolist() == [0, 1, 2, 1]
    # opposite ends of the doubles: the distance needs all 64 bits
    big = np.array([np.finfo(float).max]), np.array([-np.finfo(float).max])
    assert int(artdiff._ulps(*big)[0]) == 2 * 0x7FEFFFFFFFFFFFFF
    assert artdiff.value_moves([np.nan, 1.0], [np.nan, 1.0]) is None


def test_flipped_converged_flag_fails(tmp_path):
    write_report(tmp_path / "a", True)
    write_report(tmp_path / "b", False)
    report = compare(tmp_path / "a", tmp_path / "b")
    assert report.failures == ["gate_not.json: converged differs",
                               "gate_not.json: segments[].converged differs"]


def test_changed_sweep_flag_fails(tmp_path):
    write_map(tmp_path / "a", [0.5, 1.0, -0.25])
    write_map(tmp_path / "b", [0.5, 1.0, -0.25], flag=1)
    report = compare(tmp_path / "a", tmp_path / "b")
    assert report.failures == ["sweep.csv: a sweep flag differs"]


def test_missing_file_fails(tmp_path):
    write_map(tmp_path / "a", [0.5, 1.0, -0.25])
    write_map(tmp_path / "b", [0.5, 1.0, -0.25])
    write_report(tmp_path / "a", True)
    report = compare(tmp_path / "a", tmp_path / "b")
    assert len(report.failures) == 1
    assert "only in A ['gate_not.json']" in report.failures[0]


def test_changed_shape_and_json_structure_fail(tmp_path):
    write_map(tmp_path / "a", [0.5, 1.0, -0.25])
    write_map(tmp_path / "b", [0.5, 1.0])
    (tmp_path / "a" / "x.json").write_text('{"a": [1, 2]}')
    (tmp_path / "b" / "x.json").write_text('{"a": [1, 2, 3]}')
    report = compare(tmp_path / "a", tmp_path / "b")
    assert [f.split(":")[0] for f in report.failures] == ["sweep.csv",
                                                          "x.json"]


def test_differing_keys_are_named_and_shared_keys_still_compared(tmp_path):
    # a declared schema change: the residual keys differ, and a move and
    # a flipped flag under the shared keys are still reported
    so3 = 3e-12
    for side, converged, extra, x in (("a", True, {"coupling": 0.0}, so3),
                                      ("b", False, {"infidelity": 6e-25},
                                       float(np.nextafter(so3, 1.0)))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "gate_not.json").write_text(json.dumps({
            "converged": converged, "residuals": dict(extra, so3=x)}))
    report = compare(tmp_path / "a", tmp_path / "b")
    assert report.failures == [
        "gate_not.json: residuals: keys differ: only in A ['coupling'], "
        "only in B ['infidelity']",
        "gate_not.json: converged differs"]
    assert report.moves[("gate_not.json", "residuals.so3")][-1] == 1


def test_exit_code_and_stderr_differences_fail():
    runs = [{"argv": ["gate", "not"], "rc": 0, "stderr": ""}]
    other = [{"argv": ["gate", "not"], "rc": 3,
              "stderr": "warning: gate design did not converge"}]
    report = artdiff.compare_runs(runs, other, artdiff.Report(), "w")
    assert len(report.failures) == 2
    assert not artdiff.compare_runs(runs, runs, artdiff.Report()).failures


def test_two_replays_of_one_tree_are_identical(tmp_path):
    jobs = [["pulse", "--family", "rect", "--n", "5"],
            ["sweep", "--family", "rect", "--n", "9",
             "--alpha-grid=-0.1,0.1,2", "--delta-grid=-0.1,0.1,2"],
            ["pulse", "--family", "tre", "--n", "5"]]
    a = artdiff.run_tree(ROOT, jobs, tmp_path / "A")
    b = artdiff.run_tree(ROOT, jobs, tmp_path / "B")
    assert [r["rc"] for r in a] == [0, 0, 2]
    assert "<out>" not in a[2]["stderr"] and "--k" in a[2]["stderr"]
    report = artdiff.compare_runs(a, b, artdiff.Report())
    for i in range(len(jobs)):
        artdiff.compare_dirs(tmp_path / "A" / f"job-{i:04d}",
                             tmp_path / "B" / f"job-{i:04d}", report)
    assert not report.failures
    assert report.identical == 4 and report.differ == 0
