"""Small shared helpers: CSV and JSON writing, digests, angle wrapping."""

from __future__ import annotations

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


def _split_row(rows: int, cols: int) -> int:
    """The first row the forked child formats, or 0 for one process: a
    small table, a single block, no os.fork or one usable CPU."""
    blocks = -(-rows // _CSV_BLOCK_ROWS)
    if rows * cols < _CSV_FORK_VALUES or blocks < 2 \
            or not hasattr(os, "fork"):
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity call on this platform
        cpus = os.cpu_count() or 1
    # the parent takes the middle block of an odd count: the child's
    # start, append and exit are on the path the parent waits for
    return (blocks + 1) // 2 * _CSV_BLOCK_ROWS if cpus > 1 else 0


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
            view = memoryview(text)
            while view:
                view = view[os.write(fd, view):]
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
    split = _split_row(*data.shape)
    if not split:
        _write_rows(path, header, data, row, len(data))
        return
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(r, w, path, data, row, split)
    os.close(r)
    reaped = False
    try:
        try:
            _write_rows(path, header, data, row, split)
            try:
                os.write(w, b"g")
            except BrokenPipeError:  # the child exited early; waitpid says how
                pass
        finally:
            os.close(w)
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status):
        raise OSError(f"{path} is incomplete: the forked writer of its rows "
                      f"from {split} on failed")


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
