"""Span tracing of blochtop from outside the package.

``Tracer.install`` replaces, for the duration of a traced job, the
public names each module imports from another package module (for
example ``blochtop.gates.so3_final`` or ``blochtop.topdyn.jacobi_sn_cn_dn``)
with wrappers that record a span: layer, name, start, end and parent.
The layer is the module that defines the callee.  The ``write_*``
functions the CLI imports form their own layer, ``io``.  Pulse
construction is caught through ``ControlPulse.__post_init__``, so every
pulse built anywhere is counted.

Calls inside one module (``gates._orbit_geometric``, ``topdyn.orbit_constants``
called by ``topdyn.analytic_trajectory``) are not wrapped and are charged
to the caller; so is work done in a callee's module through an attribute
of a passed object (``ControlPulse.fields`` inside ``propagate``).

Self time apportions wall time: at every instant the job's wall time is
split evenly over the innermost open spans (a span is innermost while
none of its children is open).  With one thread that is span time minus
child time; with the sweep's thread pool it keeps the layer self times
plus the un-spanned remainder equal to the job wall time.  Spans started
on a pool thread take the innermost open span of the job's own thread
as parent.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
import types

LAYERS = ("cli", "robustness", "gates", "pulsegen", "propagate", "topdyn",
          "elliptic")
_LOWER = LAYERS[1:]
_IMPORTERS = ("cli", "robustness", "gates", "pulsegen", "propagate", "topdyn")

_PATH_PROPAGATORS = ("bloch_propagate", "so3_propagate", "su2_propagate")
_FINAL_PROPAGATORS = ("so3_final", "su2_final")
# bytes of one step matrix: 3x3 float64 rotations, 2x2 complex128 spinors
_STEP_BYTES = {"bloch_propagate": 72, "so3_propagate": 72, "so3_final": 72,
               "su2_propagate": 64, "su2_final": 64}
_DESIGNS = ("tune_not_gate", "design_phase_gate", "synthesize_one_qubit")


def _propagation_info(name, args, result):
    n = int(args[0].n_samples)
    if name == "bloch_propagate":
        out = result.M.nbytes
    elif name in _FINAL_PROPAGATORS:
        out = result.nbytes
    else:
        out = (result.R if result.R is not None else result.U).nbytes
    return {"samples": n, "bytes": _STEP_BYTES[name] * max(n - 1, 0) + out}


def _design_converged(name, result) -> bool:
    if name == "tune_not_gate":
        return bool(result[2].converged)
    if name == "design_phase_gate":
        return bool(result[0].converged)
    # the CLI's own acceptance rule for a synthesized gate
    return bool(result.fidelity >= 1.0 - 1e-3)


class Tracer:
    """Spans of one traced job at a time, kept in memory."""

    def __init__(self):
        self.spans = []        # (sid, parent, layer, name, t0, t1, info)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = None
        self._patched = []

    # -- recording --------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, stack):
        if stack:
            return stack[-1]
        owner = self._owner_stack
        return owner[-1] if owner else None

    def _wrap(self, fn, layer, name, info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            result, done = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                # a call that raised keeps its span but has no counts
                extra = info(name, args, result) if info and done else None
                tracer.spans.append((sid, parent, layer, name, t0, t1, extra))

        return wrapper

    def span(self, layer, name, fn, *args):
        """Run fn(*args) inside a span opened by the caller's thread."""
        return self._wrap(fn, layer, name)(*args)

    def begin_job(self):
        """Make the calling thread the job's thread; returns the root id."""
        self._owner_stack = self._stack()
        root = next(self._ids)
        self._owner_stack.append(root)
        return root, time.perf_counter()

    def end_job(self, root, t0):
        t1 = time.perf_counter()
        self._owner_stack.pop()
        self.spans.append((root, None, None, "job", t0, t1, None))
        return t1 - t0

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every cross-module import inside the package."""
        mods = {name: getattr(package, name) for name in _IMPORTERS}
        for importer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner == importer or owner not in _LOWER:
                    continue
                if importer == "cli" and attr.startswith("write_"):
                    layer = "io"
                else:
                    layer = owner
                info = None
                if attr in _STEP_BYTES:
                    info = _propagation_info
                elif importer == "cli" and attr in _DESIGNS:
                    info = lambda name, args, res: {
                        "converged": _design_converged(name, res)}
                elif attr == "jacobi_sn_cn_dn":
                    info = lambda name, args, res: {
                        "points": int(math.prod(getattr(args[0], "shape", ())))}
                elif attr == "sweep":
                    info = lambda name, args, res: {
                        "cells": int(res.values.size),
                        "failed": int(res.flags.sum())}
                self._patch(mod, attr, self._wrap(obj, layer, attr, info))
        cls = package.pulsegen.ControlPulse
        self._patch(cls, "__post_init__", self._wrap(
            cls.__post_init__, "pulsegen", "ControlPulse",
            lambda name, args, res: {"samples": int(args[0].times.size)}))

    def _patch(self, target, attr, value):
        self._patched.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        while self._patched:
            target, attr, value = self._patched.pop()
            setattr(target, attr, value)


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans):
    """Wall-apportioned self time per layer for the spans of one job.

    Returns {layer: seconds}; the root's own share is under None.
    """
    by_id = {s[0]: s for s in spans}

    def depth_of(sid):
        d = 0
        while sid in by_id and by_id[sid][1] is not None:
            sid = by_id[sid][1]
            d += 1
        return d

    events = []
    for s in spans:
        d = depth_of(s[0])
        events.append((s[4], 1, d, s[0]))
        events.append((s[5], 0, -d, s[0]))
    events.sort()
    out = {}
    open_children = {}
    leaves = set()
    last = None
    for t, starting, _, sid in events:
        if leaves and last is not None and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                layer = by_id[leaf][2]
                out[layer] = out.get(layer, 0.0) + share
        last = t
        parent = by_id[sid][1]
        if starting:
            open_children[sid] = 0
            leaves.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[sid]
            leaves.discard(sid)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def _in_design(sid, by_id):
    while sid is not None:
        s = by_id[sid]
        if s[3] in _DESIGNS and s[2] == "gates":
            return True
        sid = s[1]
    return False


class LayerStats:
    """Per-layer totals over the traced jobs of one run."""

    def __init__(self):
        self.calls = {layer: 0 for layer in LAYERS + ("io",)}
        self.self_s = {layer: 0.0 for layer in LAYERS + ("io",)}
        self.unspanned_s = 0.0
        self.wall_s = 0.0
        self.c = dict(propagations=0, samples=0, path_samples=0,
                      final_samples=0, bytes_computed=0, points=0, pulses=0,
                      pulse_samples=0, designs=0, converged=0,
                      design_propagations=0, cells=0, cells_failed=0)
        self.sweep_s = 0.0

    def add_job(self, spans, wall):
        self.wall_s += wall
        for layer, secs in self_times(spans).items():
            if layer is None:
                self.unspanned_s += secs
            else:
                self.self_s[layer] += secs
        by_id = {s[0]: s for s in spans}
        c = self.c
        for sid, parent, layer, name, t0, t1, info in spans:
            if layer is None:
                continue
            self.calls[layer] += 1
            if name in _DESIGNS and layer == "gates":
                c["designs"] += 1
                c["converged"] += bool(info and info["converged"])
            if info is None:
                continue
            if name in _STEP_BYTES:
                c["propagations"] += 1
                c["samples"] += info["samples"]
                c["bytes_computed"] += info["bytes"]
                key = "path_samples" if name in _PATH_PROPAGATORS \
                    else "final_samples"
                c[key] += info["samples"]
                if _in_design(parent, by_id):
                    c["design_propagations"] += 1
            elif name == "jacobi_sn_cn_dn":
                c["points"] += info["points"]
            elif name == "ControlPulse":
                c["pulses"] += 1
                c["pulse_samples"] += info["samples"]
            elif name == "sweep":
                c["cells"] += info["cells"]
                c["cells_failed"] += info["failed"]
                self.sweep_s += t1 - t0

    def metrics(self):
        """Flat {name: (value, unit)} of every per-layer figure."""
        c = self.c
        wall = self.wall_s or float("nan")
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.share"] = (self.self_s[layer] / wall, "ratio")

        def ratio(num, den):
            return num / den if den else 0.0

        out.update({
            "propagate.propagations": (c["propagations"], "count"),
            "propagate.samples": (c["samples"], "count"),
            "propagate.path_samples": (c["path_samples"], "count"),
            "propagate.final_samples": (c["final_samples"], "count"),
            "propagate.ns_per_sample": (
                ratio(1e9 * self.self_s["propagate"], c["samples"]), "ns"),
            "propagate.bytes_computed": (c["bytes_computed"], "B"),
            "elliptic.points": (c["points"], "count"),
            "elliptic.ns_per_point": (
                ratio(1e9 * self.self_s["elliptic"], c["points"]), "ns"),
            "pulsegen.pulses": (c["pulses"], "count"),
            "pulsegen.samples": (c["pulse_samples"], "count"),
            "gates.designs": (c["designs"], "count"),
            "gates.converged_ratio": (ratio(c["converged"], c["designs"]),
                                      "ratio"),
            "gates.propagations_per_design": (
                ratio(c["design_propagations"], c["designs"]), "count"),
            "robustness.cells": (c["cells"], "count"),
            "robustness.cells_failed": (c["cells_failed"], "count"),
            "robustness.cells_per_s": (ratio(c["cells"], self.sweep_s), "1/s"),
            "io.calls": (self.calls["io"], "count"),
            "io.write_s": (self.self_s["io"], "s"),
            "trace.unspanned_s": (self.unspanned_s, "s"),
            "trace.wall_s": (self.wall_s, "s"),
        })
        return out
