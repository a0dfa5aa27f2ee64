#!/usr/bin/env python3
"""Artifact diff of two source trees over the benchmark's job streams.

    python tools/artdiff.py TREE_A TREE_B --workload NAME [--workload ...]
        --seed N [--seed ...]

For every workload and seed, each tree replays the job list
make_jobs(workload, seed, cycle_count(workload)) of perfbench/jobs.py
(the copy next to this script, read and not edited) through
blochtop.cli.main, in a subprocess of its own with PYTHONPATH=<tree>/src
and every job in a directory of its own under a temporary directory,
removed at the end.  The two trees' artifacts are
then compared file by file, and each file is reported as identical or
not.  Where the bytes differ:

- a CSV gets, per column, the count of values that moved, the largest
  |d|, the largest relative d (|d| / max(|a|, |b|)) and the largest
  distance in ulps, read through an int64 view;
- a JSON file gets the same for every numeric leaf, with list indices
  folded into one path, and every other leaf that differs is listed.

A table of the largest moves by file name and column closes the report,
then a summary line.  The exit status is 1 when a job's exit code or
stderr differs, when a ``converged`` flag or a sweep ``flag`` differs,
when the set of artifact names differs, or when a CSV or JSON file
cannot be compared value by value (its header, shape or structure
differs); otherwise 0.  A JSON dict whose keys differ is such a failure
that names the keys found on one side only, and the values under the
keys both sides share are still compared.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


def _jobs_module():
    spec = importlib.util.spec_from_file_location("_artdiff_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# replay: one tree, one job list


def _replay(spec_file: str) -> int:
    """Run a spec's jobs through blochtop.cli.main, in this process; the
    exit code and stderr of each go to runs.json beside the job
    directories."""
    spec = json.loads(Path(spec_file).read_text())
    src, root = Path(spec["src"]).resolve(), Path(spec["out"])
    from blochtop import cli
    origin = Path(cli.__file__).resolve()
    if src not in origin.parents:
        print(f"blochtop imported from {origin}, not from {src}",
              file=sys.stderr)
        return 2
    runs = []
    for i, argv in enumerate(spec["jobs"]):
        out = root / f"job-{i:04d}"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv) + ["--out", str(out)])
            except Exception as exc:   # recorded, and compared like an exit
                rc = f"raised {type(exc).__name__}"
                print(exc, file=sys.stderr)
        runs.append({"argv": argv, "rc": rc,
                     "stderr": err.getvalue().replace(str(out), "<out>")})
    (root / "runs.json").write_text(json.dumps(runs))
    return 0


def run_tree(tree: Path, jobs: list, out: Path) -> list:
    """Replay jobs (argv lists) on tree's src/ into out/job-NNNN in a
    subprocess; returns its runs (argv, rc, stderr), one per job."""
    out.mkdir(parents=True)
    spec = out / "spec.json"
    spec.write_text(json.dumps({"src": str(tree / "src"), "out": str(out),
                                "jobs": jobs}))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--replay", str(spec)], env=env, cwd=out, check=True)
    return json.loads((out / "runs.json").read_text())


# ---------------------------------------------------------------------------
# comparison


def _keys(x):
    """int64 keys of doubles, in the order of the doubles: +0 and -0 both
    map to 0, and neighbouring doubles to neighbouring integers."""
    i = x.view(np.int64)
    return np.where(i < 0, np.int64(-2 ** 63) - i, i)


def _ulps(x, y):
    """Distance in ulps between doubles x and y, as uint64."""
    kx, ky = _keys(x), _keys(y)
    same_sign = (kx < 0) == (ky < 0)
    # a difference of keys of one sign fits in int64; of opposite signs
    # it is the sum of two magnitudes below 2 ** 63, which fits in uint64
    with np.errstate(over="ignore"):
        apart = np.abs(kx).astype(np.uint64) + np.abs(ky).astype(np.uint64)
        return np.where(same_sign, np.abs(kx - ky).astype(np.uint64), apart)


def value_moves(x, y):
    """(count, max |d|, max relative d, max ulps) of the values of x and y
    whose bits differ, a NaN matching any NaN; None when none does."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    moved = (x.view(np.int64) != y.view(np.int64)) & ~(np.isnan(x)
                                                       & np.isnan(y))
    if not moved.any():
        return None
    x, y = x[moved], y[moved]
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.abs(x - y)
        d[np.isnan(d)] = np.inf
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.where(d == 0.0, 0.0, d / np.where(scale == 0.0, 1.0, scale))
    ulps = np.where(np.isnan(x) | np.isnan(y), np.iinfo(np.uint64).max,
                    _ulps(x, y))
    return int(moved.sum()), float(d.max()), float(rel.max()), int(ulps.max())


class Report:
    """Lines, failures and the largest moves of one comparison."""

    def __init__(self):
        self.lines, self.failures = [], []
        self.identical = self.differ = 0
        # (file name, column) -> [files, values, max |d|, max rel, max ulps]
        self.moves = {}
        # (file name, path) -> files in which a non-numeric leaf changed
        self.changed = {}

    def fail(self, what):
        self.failures.append(what)
        self.lines.append(f"  FAIL: {what}")

    def move(self, name, column, stats):
        count, d, rel, ulps = stats
        self.lines.append(f"  {column}: {count} values moved, "
                          f"max |d| {d:.3g}, max rel {rel:.3g}, "
                          f"max {ulps} ulps")
        m = self.moves.setdefault((name, column), [0, 0, 0.0, 0.0, 0])
        m[0] += 1
        m[1] += count
        m[2:] = max(m[2], d), max(m[3], rel), max(m[4], ulps)

    def change(self, name, path, a, b):
        self.lines.append(f"  {path}: {a!r} -> {b!r}")
        self.changed[(name, path)] = self.changed.get((name, path), 0) + 1


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, table.reshape(-1, len(header))


def _diff_csv(a, b, name, report):
    try:
        (ha, ta), (hb, tb) = _read_csv(a), _read_csv(b)
    except ValueError as exc:
        report.fail(f"{name}: not a numeric table ({exc})")
        return
    if ha != hb or ta.shape != tb.shape:
        report.fail(f"{name}: header or shape differs ({ha} {ta.shape} "
                    f"against {hb} {tb.shape})")
        return
    for j, column in enumerate(ha):
        stats = value_moves(ta[:, j], tb[:, j])
        if stats is not None:
            report.move(name, column, stats)
            if column == "flag":
                report.fail(f"{name}: a sweep flag differs")


def _leaves(x, y, path, numeric, other, broken):
    """Walk two JSON values side by side: numeric leaf pairs are
    collected under their path with list indices folded to [], other
    leaves that differ go to other, and structure that differs (keys,
    lengths, types) to broken.  Keys found in one dict only are named,
    and the keys the two share are still walked."""
    if isinstance(x, dict) and isinstance(y, dict):
        if x.keys() != y.keys():
            broken.append(f"{path or '.'}: keys differ: only in A "
                          f"{sorted(x.keys() - y.keys())}, only in B "
                          f"{sorted(y.keys() - x.keys())}")
        for k in x:
            if k in y:
                _leaves(x[k], y[k], f"{path}.{k}" if path else k, numeric,
                        other, broken)
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            broken.append(f"{path}: lengths {len(x)} and {len(y)}")
            return
        for u, v in zip(x, y):
            _leaves(u, v, path + "[]", numeric, other, broken)
    elif (isinstance(x, (int, float)) and isinstance(y, (int, float))
          and not isinstance(x, bool) and not isinstance(y, bool)):
        numeric.setdefault(path, []).append((x, y))
    elif type(x) is not type(y) or x != y:
        other.append((path, x, y))


def _diff_json(a, b, name, report):
    numeric, other, broken = {}, [], []
    _leaves(json.loads(a.read_text()), json.loads(b.read_text()), "",
            numeric, other, broken)
    for what in broken:
        report.fail(f"{name}: {what}")
    for path, pairs in numeric.items():
        stats = value_moves(*np.array(pairs, dtype=float).T)
        if stats is not None:
            report.move(name, path, stats)
    for path, x, y in other:
        report.change(name, path, x, y)
        if path.rsplit(".", 1)[-1].removesuffix("[]") == "converged":
            report.fail(f"{name}: {path} differs")


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def compare_dirs(a: Path, b: Path, report: Report, label: str = "") -> Report:
    """Compare the artifacts under directories a and b into report."""
    fa, fb = _files(a), _files(b)
    if fa != fb:
        report.fail(f"{label or '.'}: artifact names differ: only in A "
                    f"{sorted(fa - fb)}, only in B {sorted(fb - fa)}")
    for rel in sorted(fa & fb):
        shown = f"{label}/{rel}" if label else rel
        pa, pb = a / rel, b / rel
        if pa.read_bytes() == pb.read_bytes():
            report.identical += 1
            report.lines.append(f"identical  {shown}")
            continue
        report.differ += 1
        report.lines.append(f"differs    {shown}")
        name = pa.name
        if name.endswith(".csv"):
            _diff_csv(pa, pb, name, report)
        elif name.endswith(".json"):
            _diff_json(pa, pb, name, report)
    return report


def compare_runs(runs_a, runs_b, report: Report, label: str = "") -> Report:
    """Compare the exit codes and stderr of two replays of one job list."""
    for i, (ra, rb) in enumerate(zip(runs_a, runs_b)):
        for key in ("rc", "stderr"):
            if ra[key] != rb[key]:
                report.fail(f"{label}/job-{i:04d} {' '.join(ra['argv'])}: "
                            f"{key} {ra[key]!r} against {rb[key]!r}")
    return report


def summary(report: Report) -> list:
    lines = ["largest moves, by file name and column:"]
    for (name, column), (files, count, d, rel, ulps) in sorted(
            report.moves.items()):
        lines.append(f"  {name} {column}: {count} values in {files} files, "
                     f"max |d| {d:.3g}, max rel {rel:.3g}, max {ulps} ulps")
    for (name, path), files in sorted(report.changed.items()):
        lines.append(f"  {name} {path}: changed in {files} files")
    if len(lines) == 1:
        lines.append("  none")
    total = report.identical + report.differ
    lines.append(f"files {total}, identical {report.identical}, differ "
                 f"{report.differ}, failures {len(report.failures)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", type=Path, metavar="TREE",
                    help="two checkouts, each holding src/blochtop")
    ap.add_argument("--workload", action="append", default=[],
                    help="a workload of perfbench/jobs.py (repeatable)")
    ap.add_argument("--seed", action="append", type=int, default=[],
                    help="a job-stream seed (repeatable)")
    ap.add_argument("--replay", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.replay:
        return _replay(args.replay)
    if len(args.trees) != 2 or not args.workload or not args.seed:
        ap.error("give two trees, and at least one --workload and --seed")
    jobs = _jobs_module()
    report = Report()
    with tempfile.TemporaryDirectory(prefix="artdiff-") as tmp:
        work = Path(tmp)
        for workload in args.workload:
            for seed in args.seed:
                argvs = [job["argv"] for job in jobs.make_jobs(
                    workload, seed, jobs.cycle_count(workload))]
                label = f"{workload}/seed{seed}"
                side = [work / label / tag for tag in ("A", "B")]
                runs = [run_tree(tree.resolve(), argvs, out)
                        for tree, out in zip(args.trees, side)]
                compare_runs(*runs, report, label)
                for i in range(len(argvs)):
                    job = f"job-{i:04d}"
                    compare_dirs(side[0] / job, side[1] / job, report,
                                 f"{label}/{job}")
    print("\n".join(report.lines + summary(report)))
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
