"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

- the job list is a pure function of the seed (same seed, same argv, in
  this process and in a fresh one; another seed, another argv), and that
  a full run holds enough jobs for p90;
- every workload runs at a tiny size with tracing off and on, and prints
  every metric named in BENCHMARK.json with its unit;
- a traced job writes the same artifact bytes as the untraced job;
- without the package sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as jobmod  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _argvs(workload, seed, cycles=1):
    return [j["argv"] for j in jobmod.make_jobs(workload, seed, cycles)]


def check_job_lists():
    for w in jobmod.WORKLOADS:
        assert _argvs(w, 7) == _argvs(w, 7), w
        assert _argvs(w, 7) != _argvs(w, 8), w
        per_cycle = len(_argvs(w, 0))
        assert jobmod.cycle_count(w) * per_cycle >= jobmod.MIN_JOBS, w
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import jobs; "
            "print(json.dumps({w: [j['argv'] for j in jobs.make_jobs(w, 7, 1)]"
            " for w in jobs.WORKLOADS}))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    fresh = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                           capture_output=True, text=True, check=True).stdout
    assert json.loads(fresh) == {w: _argvs(w, 7) for w in jobmod.WORKLOADS}
    print("ok  job lists are a pure function of the seed")


def _run(workload, trace, cwd=ROOT, max_jobs=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--max-jobs", str(max_jobs)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_tiny_runs():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in jobmod.WORKLOADS:
            proc = _run(w, trace)
            assert proc.returncode == 0, proc.stderr
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, (w, trace, proc.stderr)
            assert res["attempted"] == 3, res["attempted"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w, trace, set(got) ^ set(want))
            print(f"ok  {w} trace={trace}: {len(got)} metrics with units")


def check_traced_bytes():
    """One job per workload, untraced then traced, compared byte for byte."""
    import checks
    import worker
    blochtop = worker._import_blochtop(ROOT)
    runner = worker.Runner(blochtop, ROOT / ".perfbench_out" / "selftest")
    for w in jobmod.WORKLOADS:
        job = jobmod.make_jobs(w, 5, 1)[0]
        a = runner.fresh("a")
        rc, _, _, _ = runner.timed(job["argv"], a)
        b = runner.fresh("b")
        trc, _, _ = runner.traced(job["argv"], b)
        assert rc == trc == 0, (w, rc, trc)
        assert checks.digest_files(a) == checks.digest_files(b), w
        print(f"ok  {w}: traced artifacts equal untraced ({job['argv'][0]})")
    shutil.rmtree(runner.scratch, ignore_errors=True)


def check_refuses_without_sources():
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("gate-design", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    print("ok  without sources: exit", proc.returncode, "and no result")


if __name__ == "__main__":
    check_job_lists()
    check_tiny_runs()
    check_traced_bytes()
    check_refuses_without_sources()
    print("selftest passed")
