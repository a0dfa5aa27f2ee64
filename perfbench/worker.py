"""The workload process: import blochtop, warm up, replay the job list.

    python3 perfbench/worker.py {probe|run} --root DIR --workload NAME
        --seed N --cycles N --trace {0|1} [--max-jobs N] [--result FILE]

``probe`` stops after printing READY; ``run.py`` starts several probes
to measure set-up time.  ``run`` goes on to replay the job list in a
closed loop with one client, calling ``blochtop.cli.main(argv)``
in-process and timing only that call.  Every job's artifacts are checked
after the call returns.  With ``--trace 1`` every job runs untraced and
then traced, and the two runs' artifacts are compared byte for byte.
The raw figures go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import jobs as jobmod
import spans
import speed


def _import_blochtop(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import blochtop
    import blochtop.cli
    origin = Path(blochtop.__file__).resolve()
    if src not in origin.parents:
        raise SystemExit(f"blochtop imported from {origin}, not from {src}")
    return blochtop


def _call(cli, argv, out: Path):
    """One CLI command; returns (exit code or None if it raised, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv) + ["--out", str(out)])
        except Exception as exc:          # a job that raises is recorded
            return None, f"raised {type(exc).__name__}: {exc}"
    return rc, err.getvalue()[-300:].strip()


class Runner:
    def __init__(self, blochtop, scratch: Path):
        self.cli = blochtop.cli
        self.package = blochtop
        self.scratch = scratch
        self.tracer = spans.Tracer()
        self.layers = spans.LayerStats()
        self.trace_log = []

    def fresh(self, name: str) -> Path:
        out = self.scratch / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def timed(self, argv, out):
        """Untraced run: (rc, error, wall seconds, cpu seconds)."""
        c0, t0 = time.process_time(), time.perf_counter()
        rc, error = _call(self.cli, argv, out)
        wall = time.perf_counter() - t0
        return rc, error, wall, time.process_time() - c0

    def traced(self, argv, out):
        self.tracer.spans = []
        self.tracer.install(self.package)
        try:
            root, t0 = self.tracer.begin_job()
            rc, error = self.tracer.span("cli", "main", _call, self.cli,
                                         argv, out)
            wall = self.tracer.end_job(root, t0)
        finally:
            self.tracer.uninstall()
        self.layers.add_job(self.tracer.spans, wall)
        self.trace_log.append(self.tracer.spans)
        return rc, error, wall

    def settle(self, job, out, rc, error):
        """Check a finished job; returns (problems, err, digests, bytes)."""
        if rc is None:
            return [error], None, {}, 0
        digests = checks.digest_files(out)
        size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        problems, err = checks.check_job(job, out, rc, digests)
        if problems and error:
            problems.append(error)
        return problems, err, digests, size


def _other_workers(argv):
    if "--workers" in argv:
        i = argv.index("--workers")
        return argv[:i] + argv[i + 2:]
    return argv + ["--workers", "2"]


def _determinism_subset(job_list):
    """Fixed subset: the first six sweep jobs of at most 121 x 513 cell-steps."""
    picked = [i for i, j in enumerate(job_list)
              if j["kind"] == "sweep"
              and j["params"]["cells"] * j["params"]["n"] <= 121 * 513]
    return picked[:6]


def run(args, blochtop, root: Path):
    scratch = root / ".perfbench_out" / args.workload
    runner = Runner(blochtop, scratch)
    job_list = jobmod.make_jobs(args.workload, args.seed, args.cycles)
    if args.max_jobs:
        job_list = job_list[:args.max_jobs]
    records = []
    walls, cpus, traced_walls, errs = [], [], [], []
    io_bytes = 0
    deadline = time.monotonic() + args.budget_s
    before = speed.probe()
    for i, job in enumerate(job_list):
        if time.monotonic() > deadline:
            print(f"warning: time budget spent after {i} jobs",
                  file=sys.stderr)
            break
        rec = {"argv": job["argv"], "problems": []}
        out = runner.fresh("untraced")
        rc, error, wall, cpu = runner.timed(job["argv"], out)
        problems, err, digests, size = runner.settle(job, out, rc, error)
        after = speed.probe()
        rec.update(wall_s=wall, scaled_s=speed.scaled(wall, before, after),
                   cpu_s=cpu, err=err)
        before = after
        walls.append(wall)
        cpus.append(cpu)
        if args.trace:
            tout = runner.fresh("traced")
            trc, terror, twall = runner.traced(job["argv"], tout)
            tproblems, _, tdigests, io_size = runner.settle(job, tout, trc,
                                                            terror)
            problems += [f"traced: {p}" for p in tproblems]
            if not tproblems and tdigests != digests:
                problems.append("traced artifacts differ from untraced")
            traced_walls.append(twall)
            rec["traced_wall_s"] = twall
            io_bytes += io_size
        rec["problems"] = problems
        if err is not None:
            errs.append(err)
        records.append(rec)

    determinism = []
    if args.workload == "sweep-maps" and not args.trace:
        for i in _determinism_subset(job_list[:len(records)]):
            job = job_list[i]
            out = runner.fresh("untraced")
            rc, error, _, _ = runner.timed(job["argv"], out)
            base = checks.digest_files(out).get("sweep.csv")
            out2 = runner.fresh("workers")
            rc2, _, _, _ = runner.timed(_other_workers(job["argv"]), out2)
            other = checks.digest_files(out2).get("sweep.csv")
            same = rc == rc2 == 0 and base is not None and base == other
            determinism.append({"job": i, "identical": same})
            if not same:
                records[i]["problems"].append(
                    "sweep.csv differs between worker counts")
    shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "jobs": records,
        "err_max": max(errs) if errs else None,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "determinism": determinism,
        "numpy": sys.modules["numpy"].__version__,
    }
    if args.trace:
        untraced = sum(walls)
        layer = runner.layers.metrics()
        layer["io.bytes_written"] = (io_bytes, "B")
        layer["process.cpu_per_wall"] = (sum(cpus) / untraced, "ratio")
        layer["trace.overhead_frac"] = (
            (sum(traced_walls) - untraced) / untraced, "ratio")
        result["layers"] = layer
        trace_file = root / ".perfbench_out" / f"trace-{args.workload}.jsonl"
        with open(trace_file, "w") as fh:
            for job_spans in runner.trace_log:
                fh.write(json.dumps(job_spans) + "\n")
        result["trace_file"] = str(trace_file.relative_to(root))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "run"))
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(jobmod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-jobs", type=int, default=0)
    ap.add_argument("--budget-s", type=float, default=140.0)
    ap.add_argument("--result")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    blochtop = _import_blochtop(root)
    warm = root / ".perfbench_out" / args.workload / f"warmup-{args.mode}"
    shutil.rmtree(warm, ignore_errors=True)
    warm.mkdir(parents=True)
    rc, error = _call(blochtop.cli, jobmod.WARMUP[args.workload], warm)
    shutil.rmtree(warm, ignore_errors=True)
    if rc != 0:
        raise SystemExit(f"warm-up job failed: exit {rc} {error or ''}")
    print("READY", flush=True)
    if args.mode == "probe":
        return 0

    result = run(args, blochtop, root)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
