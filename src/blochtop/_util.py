"""Small shared helpers: CSV and JSON writing, digests, angle wrapping."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import signal

import numpy as np


# rows per formatted block: from 128 to 4096 rows the write time is flat,
# and the peak memory of long-pulse runs is 0.1 MiB higher above 512
_CSV_BLOCK_ROWS = 512
# values (rows x columns) from which write_csv forks.  The fork, the
# child's start and its exit cost about 4 ms on a shared 2-CPU host, what
# the child's half of the formatting saves at about 12k values: at
# 4096 x 4 both ways took 14-15 ms (best of 25), at 2048 x 4 the fork
# lost 1 ms
_CSV_FORK_VALUES = 16384


def _blocks(data, row: str, start: int, stop: int):
    """The text of rows start:stop, one string per block of
    _CSV_BLOCK_ROWS rows, each formatted by one string % tuple."""
    for i in range(start, stop, _CSV_BLOCK_ROWS):
        block = data[i:min(i + _CSV_BLOCK_ROWS, stop)]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _write_rows(path, header: str, data, row: str, stop: int) -> None:
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for text in _blocks(data, row, 0, stop):
            fh.write(text)


def _two_cpus() -> bool:
    """True where os.fork exists and this process may run on two CPUs
    or more."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


@contextlib.contextmanager
def _forked(child, error):
    """Fork once, for the body of a with statement.

    The child runs child(r, w) on the two ends of a fresh pipe and must
    leave through os._exit; it never runs the caller's code.  This
    process gets the ends as unbuffered binary files (reader, writer),
    and both are closed when the body ends.  The child is then reaped,
    and an exit status other than 0 raises error().  A body that raises
    kills and reaps the child first, so no child outlives the statement.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            child(r, w)
        finally:
            os._exit(1)
    reaped = False
    try:
        with open(r, "rb", buffering=0) as reader, \
                open(w, "wb", buffering=0) as writer:
            yield reader, writer
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status):
        raise error()


def _write_all(fd: int, data) -> None:
    """Write the bytes of data (any contiguous buffer) to fd."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _split(items: int, step: int, work: int, cutoff: int) -> int:
    """The first of items, taken step at a time, that a forked child
    handles, or 0 for one process: work under cutoff, a single step, no
    os.fork or one usable CPU.  The split falls on a step boundary, and
    the parent takes the middle step of an odd count: the child's start,
    its hand-back and its exit are on the path the parent waits for."""
    steps = -(-items // step)
    if work < cutoff or steps < 2 or not _two_cpus():
        return 0
    return (steps + 1) // 2 * step


def _child(r: int, w: int, path, data, row: str, split: int):
    """The forked writer of rows split: onwards; never returns.

    It formats its rows while the parent writes the header and the rows
    before split, waits for the parent's go byte, appends and leaves
    through os._exit, so no exception, atexit hook or inherited buffer
    runs here.  A pipe closed without the go byte (the parent raised or
    died) exits 1 without writing.

    Python 3.12 warns at os.fork when the process has other threads, as
    OpenBLAS's pool is: a fork can copy a lock that such a thread held.
    This child takes none that matters.  glibc resets its malloc locks in
    the child, CPython its interpreter state, and the child only slices,
    calls tolist, % formats, encodes and uses os.read, os.open and
    os.write: no import, no logging, no BLAS call.
    """
    code = 1
    try:
        os.close(w)
        text = "".join(_blocks(data, row, split, len(data))).encode("ascii")
        if os.read(r, 1):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            _write_all(fd, text)
            os.close(fd)
            code = 0
    finally:
        os._exit(code)


def write_csv(path, header: str, data) -> None:
    """Header line, then the rows of a 2-D float array, comma separated.

    The bytes are fixed: every value is written as "%.17g" % value, the
    bytes numpy's savetxt writes with fmt="%.17g", delimiter=",",
    comments="" and this header.  Each block of _CSV_BLOCK_ROWS rows is
    formatted by one string % tuple.  A table of _CSV_FORK_VALUES values
    or more, on a host with two usable CPUs, is written by two processes
    with the same bytes: a forked child formats the blocks after the
    middle one while this process writes the header and the rows before
    them, then appends its text once this process has closed the file.
    No child outlives the call, and a child that fails raises OSError.
    """
    data = np.asarray(data, dtype=float)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    rows, cols = data.shape
    split = _split(rows, _CSV_BLOCK_ROWS, rows * cols, _CSV_FORK_VALUES)
    if not split:
        _write_rows(path, header, data, row, len(data))
        return
    with _forked(lambda r, w: _child(r, w, path, data, row, split),
                 lambda: OSError(f"{path} is incomplete: the forked writer "
                                 f"of its rows from {split} on failed")) \
            as (reader, writer):
        reader.close()
        _write_rows(path, header, data, row, split)
        try:
            writer.write(b"g")
        except BrokenPipeError:  # the child exited early; its status says how
            pass


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    y = math.fmod(x, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    elif y > math.pi:
        y -= 2.0 * math.pi
    return y


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
