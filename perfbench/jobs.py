"""Seeded job streams for the three workloads.

A job is one ``blochtop`` command line plus the parameters its artifact
check needs.  Each workload is a *cycle*: a fixed multiset of job shapes
(command, sample count, grid size) whose order and continuous parameters
(k, eps, targets, grid spans) are drawn from the seed.  A run replays a
whole number of cycles, so every seed runs the same mix of shapes and the
end-to-end figures compare across seeds; the seed only moves the inputs.
The job list is a pure function of (workload, seed, cycles).

The ranges stay inside the region where the commands are designed to
succeed, and the reasons are given next to each range.  Any job that
still fails its check counts as failed.
"""

from __future__ import annotations

import math
import random

# Jobs per run are at least this many, so that p90 has ten jobs above it.
MIN_JOBS = 100

SWEEP_FAMILIES = ("tre:rotating", "tre:oscillating", "tre-loop", "allen-eberly",
                  "rect")
PULSE_FAMILIES = ("tre-loop", "tre", "allen-eberly")


def _g(x: float) -> str:
    return f"{x:.6g}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _balanced(rng: random.Random, values, count: int) -> list:
    """count items that cycle through values from a seeded offset and order."""
    order = list(values)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def _pulse_args(rng: random.Random, family: str) -> tuple[list, dict]:
    """Pulse flags for one family.  k in [0.2, 0.95], eps in [1e-3, 0.1]."""
    fam, _, branch = family.partition(":")
    params = {"family": fam}
    argv = ["--family", fam]
    if fam in ("tre", "tre-loop"):
        branch = branch or rng.choice(("rotating", "oscillating"))
        k, eps = rng.uniform(0.2, 0.95), _log_uniform(rng, 1e-3, 0.1)
        argv += ["--k", _g(k), "--eps", _g(eps), "--branch", branch]
    elif fam == "allen-eberly":
        argv += ["--k", _g(rng.uniform(0.2, 0.95))]
    else:
        amp = float(_g(rng.uniform(0.5, 2.0)))
        argv += ["--amplitude", _g(amp)]
        params["amplitude"] = amp
    return argv, params


# ---------------------------------------------------------------------------
# sweep-maps: robustness maps, one bloch_propagate per cell

# (grid side, n, jobs per cycle); 21x21 at n=8193 (about 10 s a job) is
# left out.  Job cost goes with cells x n, and the shapes fall into four
# cost clusters about 3x apart: 5@513 (40 ms); 5@2049, 11@513 (150 ms);
# 5@8193, 11@2049, 21@513 (600 ms); 11@8193, 21@2049 (2.3 s).  The counts
# put the median in the middle of the 11@513 block and p90 in the middle of
# the 600 ms cluster, so neither sits on a boundary between clusters, and
# keep a run at MIN_JOBS jobs in about 30 s.
_SWEEP_SHAPES = ((5, 513, 7), (5, 2049, 8), (11, 513, 22), (5, 8193, 1),
                 (11, 2049, 2), (21, 513, 3), (11, 8193, 1), (21, 2049, 1))
# --preset experiment jobs per cycle, by n: one job in ten.
_EXPERIMENT_NS = (513, 2049, 8193, 8193, 8193)


def _sweep_cycle(rng: random.Random) -> list:
    shapes = [(side, n) for side, n, count in _SWEEP_SHAPES
              for _ in range(count)]
    # the jobs of each n value cycle through the families, rect first, so
    # every n has a rect map (the err_max reference), the largest included
    families = {}
    for n in sorted({n for _, n in shapes}):
        idx = [i for i, s in enumerate(shapes) if s[1] == n]
        rng.shuffle(idx)
        order = ["rect"] + _balanced(rng, SWEEP_FAMILIES[:-1], 4)
        for j, i in enumerate(idx):
            families[i] = order[j % len(order)]
    workers = _balanced(rng, (1, 2), len(shapes) + len(_EXPERIMENT_NS))
    jobs = []
    for i, (side, n) in enumerate(shapes):
        pargv, params = _pulse_args(rng, families[i])
        merit = rng.choice(("J3", "J2"))
        a, d = rng.uniform(0.05, 0.5), rng.uniform(0.05, 1.0)
        argv = ["sweep", *pargv, "--n", str(n), "--merit", merit,
                f"--alpha-grid=-{_g(a)},{_g(a)},{side}",
                f"--delta-grid=-{_g(d)},{_g(d)},{side}"]
        if workers[i] == 2:
            argv += ["--workers", "2"]
        params.update(merit=merit, cells=side * side, n=n)
        jobs.append({"kind": "sweep", "argv": argv, "params": params})
    for j, n in enumerate(_EXPERIMENT_NS):
        k, eps = rng.uniform(0.2, 0.95), _log_uniform(rng, 1e-3, 0.1)
        argv = ["sweep", "--preset", "experiment", "--k", _g(k),
                "--eps", _g(eps), "--n", str(n)]
        if workers[len(shapes) + j] == 2:
            argv += ["--workers", "2"]
        jobs.append({"kind": "sweep", "argv": argv,
                     "params": {"family": "experiment", "cells": 11, "n": n}})
    return jobs


# ---------------------------------------------------------------------------
# gate-design: root-finding loops over many small propagations

def _gate_cycle(rng: random.Random) -> list:
    jobs = []
    # NOT: the tuning objective has no root in the default eps bracket
    # below k = 0.44 (reported as exit 3 by design), so k starts at 0.45.
    for n in (2048, 2048, 4096, 4096):
        k = rng.uniform(0.45, 0.95)
        jobs.append(["not", "--k", _g(k), "--n", str(n)])
    # phase: at eps_a = 0.01 the two-loop geometric spread tops out between
    # 2.8 (k = 0.65) and 3.06 (k = 0.6), so targets within 0.44 of pi are
    # infeasible and exit 3 by design; targets keep 0.2 from 0 and 2 pi.
    for n in (2048, 2048, 4096, 4096, 4096):
        k = rng.uniform(0.45, 0.65)
        t = rng.uniform(0.2, 2.7)
        if rng.random() < 0.5:
            t = 2.0 * math.pi - t
        jobs.append(["phase", "--k", _g(k), "--target", _g(t), "--n", str(n)])
    # two of three at n=4096, which puts p90 inside that block
    for n in (2048, 4096, 4096):
        k = rng.uniform(0.3, 0.95)
        jobs.append(["hadamard", "--k", _g(k), "--n", str(n)])
    return [{"kind": "gate", "argv": ["gate", *a], "params": {"name": a[0]}}
            for a in jobs]


# ---------------------------------------------------------------------------
# long-pulse: one long pulse per job, no batching and no solver loop

def _long_cycle(rng: random.Random) -> list:
    jobs = []
    for n in (16385, 16385, 65537, 65537, 262145):
        k, eps = rng.uniform(0.3, 0.9), _log_uniform(rng, 1e-3, 0.1)
        branch = rng.choice(("rotating", "oscillating"))
        jobs.append({"kind": "montgomery", "params": {"n": n},
                     "argv": ["montgomery", "--k", _g(k), "--eps", _g(eps),
                              "--branch", branch, "--n", str(n)]})
    emits = ("trajectory", "trajectory", "axis-angle")
    pulse_ns = (16385, 16385, 16385, 65537)
    fams = _balanced(rng, PULSE_FAMILIES, len(emits) + len(pulse_ns))
    for emit, fam in zip(emits, fams):
        pargv, params = _pulse_args(rng, fam)
        params.update(n=65537, emit=emit)
        jobs.append({"kind": "simulate", "params": params,
                     "argv": ["simulate", *pargv, "--n", "65537",
                              "--emit", emit]})
    for n, fam in zip(pulse_ns, fams[len(emits):]):
        pargv, params = _pulse_args(rng, fam)
        params.update(n=n)
        jobs.append({"kind": "pulse", "params": params,
                     "argv": ["pulse", *pargv, "--n", str(n)]})
    return jobs


WORKLOADS = {
    "sweep-maps": _sweep_cycle,
    "gate-design": _gate_cycle,
    "long-pulse": _long_cycle,
}

# One small job of the workload's command, run untimed before the first
# timed job so that imports and first-call costs land in setup_s.
WARMUP = {
    "sweep-maps": ["sweep", "--family", "tre", "--k", "0.5", "--eps", "0.01",
                   "--n", "257", "--alpha-grid=-0.1,0.1,3",
                   "--delta-grid=-0.1,0.1,3"],
    "gate-design": ["gate", "not", "--k", "0.6", "--n", "512"],
    "long-pulse": ["simulate", "--family", "tre-loop", "--k", "0.5", "--eps",
                   "0.01", "--n", "1025", "--emit", "axis-angle"],
}


def cycle_count(workload: str) -> int:
    """Cycles per run: the fewest whole cycles holding MIN_JOBS jobs."""
    per_cycle = len(WORKLOADS[workload](random.Random(0)))
    return -(-MIN_JOBS // per_cycle)


def make_jobs(workload: str, seed: int, cycles: int) -> list:
    """The run's job list; each cycle is shuffled on its own."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for _ in range(cycles):
        cycle = WORKLOADS[workload](rng)
        rng.shuffle(cycle)
        jobs.extend(cycle)
    return jobs
