"""Small shared helpers: CSV and JSON writing, digests, angle wrapping.

Every CSV value is written as "%.17g" % value, and a sha256 sidecar pins
the bytes.  write_csv and dump_json return the sha256 of the bytes they
wrote, hashed as they write them, so no artifact is read back for its
digest.  Formatting is most of a long table's write, so write_csv
formats every block of rows with numpy (_format17: Dekker's exact
product against a double-double table of 10**k, then a fixed-width byte
layout that one bytes.translate compacts) and hands the few values it
cannot round exactly to CPython's "%.17g".  Tables of _CSV_FORK_VALUES
values or more are split with one forked child (_forked, _split), whose
skeleton the sweep kernel shares.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import signal
import types

import numpy as np


# rows per formatted block.  Each block costs _format17 about 0.1 ms of
# fixed work, and one workspace of 48 bytes a value serves all full
# blocks of a table.  Gate-design job streams ran 77.7 jobs/s with 1024
# rows against 73.7 with 512 and 74.2 with 2048 (medians of 4
# fresh-process replays on a shared 2-CPU host)
_CSV_BLOCK_ROWS = 1024
# values (rows x columns) from which write_csv forks.  On a shared 2-CPU
# host the fork lost at 16,385 x 4 (three pulse jobs, 77.6 against 73.6
# ms in one process, one process faster on 21 of 25 alternations) and
# won at 24,577 x 4 (65.7 against 71.8 ms, 16 of 25) and above
_CSV_FORK_VALUES = 98304
# bytes read at a time when the forked child's tail is hashed
_READ_CHUNK = 1 << 16

# _format17 lays each value out in 48 bytes, six little-endian words:
#   0       sign, the "0.000" prefix of 1e-4 <= |x| < 1, digit 0, point slot
#   1 to 4  digits 1-16, four to a word, each followed by a point slot
#   5       "e", the exponent's sign and three digits, the separator
# and leaves every byte it does not use NUL
_LE64 = np.dtype("<u8")
_POW10_MIN, _POW10_MAX = -280, 308
_EXP_MIN = -300              # the exponent of the first layout row


def _pow10():
    """(hi, lo) for 10**k, k from _POW10_MIN to _POW10_MAX: hi is 10**k
    correctly rounded and lo the remainder 10**k - hi correctly rounded,
    so hi + lo is 10**k to 2**-106 relative.  Both come from exact
    integers, since 1 / 10**j and int / int are correctly rounded."""
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        if k >= 0:
            h = float(10 ** k)
            lo.append(float(10 ** k - int(h)))
        else:
            d = 10 ** -k
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        hi.append(h)
    return np.array(hi), np.array(lo)


def _word(b: bytes) -> int:
    return int.from_bytes(b.ljust(8, b"\0"), "little")


@functools.cache
def _format17_tables() -> types.SimpleNamespace:
    """_format17's read-only tables, built on its first call."""
    hi, lo = _pow10()
    # Dekker's split of hi: hh keeps its top 26 bits, hh + hl = hi exactly
    m, e = np.frexp(hi)
    hh = np.ldexp(np.floor(np.ldexp(m, 26)), e - 26)
    i = np.arange(10000)
    # the 4 ASCII digits of i, each followed by an empty point slot
    quad = sum((i // 10 ** (3 - j) % 10 + 48).astype(np.uint64) << 16 * j
               for j in range(4))
    zeros = (i % 10 == 0).astype(np.intp) + (i % 100 == 0) + (i % 1000 == 0)
    # last[j][i]: the place among digits 1-16 of the last nonzero digit of
    # i as their group j, 0 for i = 0
    last = [np.where(i == 0, 0, 4 * j + 4 - zeros).astype(np.uint8)
            for j in range(4)]
    # keep[j][c]: the digits of group j at places up to c
    keep = [np.array([_word(b"\xff\0" * min(max(c - 4 * j, 0), 4))
                      for c in range(17)], np.uint64) for j in range(4)]
    # word 0's sign and digit 0, by digit + 10 * sign
    lead = np.array([_word(b"-" * s + b"\0" * (6 - s) + bytes([48 + d]))
                     for s in (0, 1) for d in range(10)], np.uint64)
    # a row per exponent x, point or none, "," or "\n": the prefix, the
    # whole digits after digit 0 as "0" (the ones not zero are or-ed in),
    # the point, the exponent and the separator
    xs = range(_EXP_MIN, -_EXP_MIN + 10)
    point_after = np.zeros(len(xs), np.intp)
    layout = bytearray()
    for r, x in enumerate(xs):
        row = bytearray(48)
        slot = 7
        if 0 <= x < 17:          # d.ddd to ddd.ddd: the point after digit x
            point_after[r] = x
            slot = 7 + 2 * x
            row[8:7 + 2 * x:2] = b"0" * x
        elif -4 <= x < 0:        # 0.000ddd: the point is in the prefix
            point_after[r] = 16
            prefix = b"0." + b"0" * (-x - 1)
            row[1:1 + len(prefix)] = prefix
        else:                    # d.ddde+XX, e-XX, e+XXX or e-XXX
            row[40:45] = b"e%c%03d" % (b"-+"[x > 0], abs(x))
            if abs(x) < 100:
                row[42] = 0
        for point in (0, 1):     # row 4 * r + 2 * point + sep
            row[slot] = ord(".") if point else 0
            for sep in b",\n":
                row[45] = sep
                layout += row
    tables = types.SimpleNamespace(
        hh=hh, hl=hi - hh, lo=lo, quad=quad, last=last, keep=keep,
        lead=lead, point_after=point_after,
        layout=np.frombuffer(bytes(layout), _LE64).reshape(-1, 6))
    for t in vars(tables).values():
        for a in t if isinstance(t, list) else [t]:
            a.flags.writeable = False
    return tables


def _digits17(a, exp, tables):
    """(D, f): D = round(a * 10**(16 - exp)) as int64, and f the distance
    of the exact product from D.

    Dekker's (1971) exact product gives a * hi = p + err, and the
    tail adds a * lo.  p is a whole number of 2**53 or more and
    t = err + a * lo is exact to 4e-15, so D = p + rint(t) is the rounded
    product wherever |f| is not within that of a half."""
    k = 16 - _POW10_MIN - exp
    bh, bl = tables.hh[k], tables.hl[k]
    c = 134217729.0 * a          # 2**27 + 1 splits a
    ah = c - (c - a)
    al = a - ah
    p = a * (bh + bl)
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * tables.lo[k]
    r = np.rint(t)
    return p.astype(np.int64) + r.astype(np.int64), t - r


def _format17(block, buf: bytearray) -> bytearray:
    """The rows of a 2-D float block, every value as "%.17g" % value,
    "," between values and a newline after each row.  buf is the caller's
    workspace, exactly 48 bytes a value: any other size raises ValueError.

    The 17 significant digits of |x| are D = round(|x| * 10**(16 - E)),
    E = floor(log10 |x|) (_digits17).  The estimate of E is one low at
    most, which a D above 10**17 shows; D = 10**17 carries to 10**16 with
    E + 1.  Each value is laid out as "%g" lays out D and E: fixed
    notation for -4 <= E < 17, d.ddde+XX otherwise, trailing zeros
    stripped (the 48-byte layout above), and one bytes.translate deletes
    the NULs.  The values this cannot round exactly go to "%.17g" itself:
    a product within 1e-9 of a tie, |x| outside [1e-290, 1e290]
    (subnormals included), inf and nan.  No numpy warning is raised.
    """
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    slow = ~((a >= 1e-290) & (a <= 1e290) | zero)
    a[slow | zero] = 1.0
    # floor(log10 a), or one less within 1e-12 of a power of ten
    exp = np.floor(np.log10(a) - 1e-12).astype(np.intp)
    tables = _format17_tables()
    D, f = _digits17(a, exp, tables)
    low = np.flatnonzero(D > 10 ** 17)
    if low.size:
        exp[low] += 1
        D[low], f[low] = _digits17(a[low], exp[low], tables)
    slow |= np.abs(f) > 0.5 - 1e-9
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    exp += carry
    D[zero] = 0
    exp[zero] = 0
    # digit 0, then digits 1-16 in four groups of four
    hi8 = D // 10 ** 8
    lo8 = D - hi8 * 10 ** 8
    d0 = hi8 // 10 ** 8
    hi8 -= d0 * 10 ** 8
    g1 = hi8 // 10000
    g3 = lo8 // 10000
    groups = (g1, hi8 - g1 * 10000, g3, lo8 - g3 * 10000)
    place = tables.last[0][g1]
    for j in (1, 2, 3):
        np.maximum(place, tables.last[j][groups[j]], out=place)
    place = place.astype(np.intp)
    r = exp - _EXP_MIN
    row = 4 * r + 2 * (place > tables.point_after[r])
    row.reshape(rows, cols)[:, -1] += 1
    out = np.frombuffer(buf, _LE64).reshape(-1, 6)
    np.take(tables.layout, row, axis=0, out=out)
    out[:, 0] |= tables.lead[d0 + 10 * np.signbit(x)]
    for j in range(4):
        w = tables.quad[groups[j]]
        w &= tables.keep[j][place]
        out[:, j + 1] |= w
    slow = np.flatnonzero(slow)
    if slow.size:
        out.view(np.uint8)[slow, :45] = np.frombuffer(
            _cpython17(x[slow].tolist()), np.uint8).reshape(-1, 45)
    return buf.translate(None, b"\0 ")


def _cpython17(values: list) -> bytes:
    """Each value as "%.17g" padded with spaces to 45 bytes: "%.17g" is
    at most 24 bytes and never holds a space, so the padding goes with
    _format17's NULs."""
    return (("%-45.17g" * len(values)) % tuple(values)).encode("ascii")


def _blocks(data, start: int, stop: int):
    """The bytes of rows start:stop, _format17's for each block of
    _CSV_BLOCK_ROWS rows.  The full blocks share one workspace, and a
    shorter last block gets its own, each exactly 48 bytes a value."""
    buf = bytearray()
    for i in range(start, stop, _CSV_BLOCK_ROWS):
        block = data[i:min(i + _CSV_BLOCK_ROWS, stop)]
        if len(buf) != 48 * block.size:
            buf = bytearray(48 * block.size)
        yield _format17(block, buf)


def _write_rows(path, header: str, data, stop: int, digest) -> int:
    """Write the header and rows :stop to a fresh file at path, update
    digest with each piece as it is written, and return the byte count."""
    size = 0
    with open(path, "wb") as fh:
        pieces = _blocks(data, 0, stop)
        if header:
            pieces = itertools.chain([header.encode() + b"\n"], pieces)
        for text in pieces:
            fh.write(text)
            digest.update(text)
            size += len(text)
    return size


def _hash_tail(path, start: int, digest) -> None:
    """Update digest with the bytes of path from offset start on, read in
    _READ_CHUNK pieces into one buffer."""
    buf = bytearray(_READ_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        fh.seek(start)
        while size := fh.readinto(buf):
            digest.update(view[:size])


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

    The child runs child(r, w) on the two ends of a fresh pipe and exits
    here, the only place a child exits: status 0 when child returns True,
    1 when it returns anything else or raises.  It leaves through
    os._exit, which runs no atexit hook and flushes no inherited buffer,
    and an exception stops there, so the child never runs the caller's
    code.  This process gets the ends as unbuffered binary files
    (reader, writer), and both are closed when the body ends.  The child
    is then reaped, and an exit status other than 0 raises error().  A
    body that raises kills and reaps the child first, so no child
    outlives the statement.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        ok = False
        try:
            ok = child(r, w) is True
        finally:
            os._exit(0 if ok else 1)
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


def _child(r: int, w: int, path, data, split: int) -> bool:
    """The forked writer of rows split: onwards, run by _forked.

    It formats its rows while the parent writes the header and the rows
    before split, waits for the parent's go byte, appends and returns
    True.  A pipe closed without the go byte (the parent raised or died)
    returns False without writing.

    Python 3.12 warns at os.fork when the process has other threads, as
    OpenBLAS's pool is: a fork can copy a lock that such a thread held.
    This child takes none that matters.  glibc resets its malloc locks in
    the child, CPython its interpreter state, and the child only slices,
    runs numpy's elementwise functions and take, calls tolist, % formats
    the values _format17 hands to CPython, translates and uses os.read,
    os.open and os.write: no import, no logging, no BLAS call.
    """
    os.close(w)
    text = b"".join(_blocks(data, split, len(data)))
    if not os.read(r, 1):
        return False
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    _write_all(fd, text)
    os.close(fd)
    return True


def write_csv(path, header: str, data) -> str:
    """Header line, then the rows of a 2-D float array, comma separated;
    returns the sha256 hex digest of the bytes written.

    The bytes are fixed: every value is written as "%.17g" % value, the
    bytes numpy's savetxt writes with fmt="%.17g", delimiter=",",
    comments="" and this header.  Each block of _CSV_BLOCK_ROWS rows is
    formatted at once by _format17.  A table of _CSV_FORK_VALUES values
    or more, on a host with two usable CPUs, is written by two processes
    with the same bytes: a forked child formats the blocks after the
    middle one while this process writes the header and the rows before
    them, then appends its text once this process has closed the file.
    The digest covers every byte as written: this process hashes its own
    bytes as it writes them, before the child may append, and once the
    child has exited with status 0 it reads back and hashes only the
    child's tail.
    No child outlives the call, and a child that fails raises OSError.
    """
    data = np.asarray(data, dtype=float)
    rows, cols = data.shape
    digest = hashlib.sha256()
    split = _split(rows, _CSV_BLOCK_ROWS, rows * cols, _CSV_FORK_VALUES)
    if not split:
        _write_rows(path, header, data, len(data), digest)
        return digest.hexdigest()
    with _forked(lambda r, w: _child(r, w, path, data, split),
                 lambda: OSError(f"{path} is incomplete: the forked writer "
                                 f"of its rows from {split} on failed")) \
            as (reader, writer):
        reader.close()
        size = _write_rows(path, header, data, split, digest)
        try:
            writer.write(b"g")
        except BrokenPipeError:  # the child exited early; its status says how
            pass
    _hash_tail(path, size, digest)
    return digest.hexdigest()


def wrap_angle(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    y = math.fmod(x, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    elif y > math.pi:
        y -= 2.0 * math.pi
    return y


def dump_json(obj, path) -> str:
    """Write obj as indented JSON with sorted keys and a final newline;
    returns the sha256 hex digest of the bytes written.  The text is
    ASCII (json escapes everything else), encoded once."""
    text = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(text)
    return hashlib.sha256(text).hexdigest()


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
