"""Small shared helpers: CSV and JSON writing, digests, angle wrapping.

Every CSV value is written as "%.17g" % value, and a sha256 sidecar pins
the bytes.  write_csv and dump_json return the sha256 of the bytes they
wrote, hashed as they write them, so no artifact is read back for its
digest.  Formatting is most of a long table's write, so write_csv
formats every block of rows with numpy (_format17: Dekker's exact
product against a double-double table of 10**k, then a fixed layout of
32 bytes a value that one bytes.translate compacts) and hands the few
values it cannot round exactly to CPython's "%.17g".  Its tables
(_format17_tables, about 290 KB) hold digit lookups and one column per
exponent E: the layout rows and whole[E], the digits fixed notation
keeps whatever their value; a value's point and the digits it keeps
follow from whole[E] and the place of its last nonzero digit.  Tables of
_CSV_FORK_VALUES values or more are split (_split) with one forked
child (_in_two), which formats its rows into shared memory; this
process writes and hashes every byte.  The sweep kernel forks through
the same two helpers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import mmap
import os
import signal
import types

import numpy as np


# rows per formatted block.  Each block costs _format17 about 0.1 ms of
# fixed work, and one workspace of _VALUE_BYTES a value serves all full
# blocks of a table.  Gate-design job streams ran 77.7 jobs/s with 1024
# rows against 73.7 with 512 and 74.2 with 2048 (medians of 4
# fresh-process replays on a shared 2-CPU host, at 48 bytes a value).
# 1000 rows of four columns are 128,000 bytes, under glibc's 128 KiB
# mmap threshold, but that saved no page faults: an in-process 108-job
# gate-design replay took 659-711 minor faults with 1000-row blocks and
# 572-631 with 1024-row blocks (32 bytes a value)
_CSV_BLOCK_ROWS = 1000
# values (rows x columns) from which write_csv forks.  On a shared 2-CPU
# host the fork lost at 16,385 x 4 (three pulse jobs, 77.6 against 73.6
# ms in one process, one process faster on 21 of 25 alternations) and
# won at 24,577 x 4 (65.7 against 71.8 ms, 16 of 25) and above
_CSV_FORK_VALUES = 98304
# bytes of the forked writer's text written and hashed at a time, and
# then released: this process's RSS grows by one piece, not the text
_PIECE_BYTES = 1 << 16

# _format17 lays each value out in 32 bytes, four little-endian words:
#   0     sign, the "0.000" prefix of 1e-4 <= |x| < 1, digit 0, point slot
#   1, 2  digits 1-16, contiguous; fixed notation with 1 <= E <= 15 and a
#         fraction puts its point after digit E, and the digits after it
#         move up a byte
#   3     the byte digit 16 spills into, "e", the exponent's sign and two
#         or three digits, and the separator in its last byte
# and leaves every byte it does not use NUL
_VALUE_BYTES = 32
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
    """_format17's read-only tables, built on its first call.  The digit
    and layout tables are built as bytes, by slicing, joins and
    translate, and numpy only views them: the build holds few temporaries
    beside the tables and runs no numpy integer arithmetic."""
    hi, lo = _pow10()
    # Dekker's split of hi: hh keeps its top 26 bits, hh + hl = hi exactly
    m, e = np.frexp(hi)
    hh = np.ldexp(np.floor(np.ldexp(m, 26)), e - 26)
    # quad[h][i]: the 4 ASCII digits of i < 10000 in bytes 4 h to 4 h + 3
    # of a word; the digit of place 10**p runs through 0-9, p times each
    quad = []
    for h in (0, 1):
        q = bytearray(8 * 10000)
        for j, p in enumerate((1000, 100, 10, 1)):
            q[4 * h + j::8] = b"".join(bytes([48 + d]) * p
                                       for d in range(10)) * (1000 // p)
        quad.append(np.frombuffer(q, _LE64))
    # kept[i]: how many of the 4 digits of i run up to its last nonzero
    # one, 0 for i = 0.  Level by level, i = 10 q + d keeps what q keeps
    # when d is 0, and all its digits otherwise
    kept = bytes(1)
    for places in range(1, 5):
        kept = b"".join(kept[q:q + 1] + bytes([places]) * 9
                        for q in range(len(kept)))
    # last[j][i]: the place among digits 1-16 of the last nonzero digit of
    # i as their group j, 0 for i = 0
    last = [np.frombuffer(kept.translate(bytes(
        4 * j + k if 0 < k <= 4 else 0 for k in range(256))), np.uint8)
        for j in range(4)]
    # word 0's sign and digit 0, by digit + 11 * sign; digit 10 is the
    # carry D = 10**17, a 1 with the exponent one up
    lead = np.array([_word(b"-" * s + b"\0" * (6 - s)
                           + b"01234567891"[d:d + 1])
                     for s in (0, 1) for d in range(11)], np.uint64)
    # a row per exponent x, point or none, "," or "\n": the prefix, the
    # point, the exponent and the separator
    xs = range(_EXP_MIN, -_EXP_MIN + 10)
    layout = bytearray()
    for x in xs:
        row = bytearray(_VALUE_BYTES)
        slot = 7                 # d.ddd, and d.ddde+XX to d.ddde-XXX
        if 0 < x < 16:           # dd.ddd to ddd.ddd: after digit x
            slot = 8 + x
        elif x == 16:            # 17 whole digits and no fraction
            slot = 0
        elif -4 <= x < 0:        # 0.000ddd: the point is in the prefix
            slot = 0
            prefix = b"0." + b"0" * (-x - 1)
            row[1:1 + len(prefix)] = prefix
        elif x != 0:
            row[25:30] = b"e%c%03d" % (b"-+"[x > 0], abs(x))
            if abs(x) < 100:
                row[27] = 0
        for point in (0, 1):     # row 4 * r + 2 * point + sep
            row[slot] = ord(".") if point and slot else 0
            for sep in b",\n":
                row[31] = sep
                layout += row
    # whole[r]: how many of digits 1-16 fixed notation keeps whatever
    # their value, for the exponent E of layout row r: E for 0 <= E < 17
    # and none otherwise.  ones[w][c]: the bytes of digit word w + 1 that
    # hold digits 1 to c
    ones = [b"\xff" * c + bytes(16 - c) for c in range(17)]
    tables = types.SimpleNamespace(
        hh=hh, hl=hi - hh, lo=lo, quad=quad, last=last, lead=lead,
        layout=np.frombuffer(layout, _LE64).reshape(-1, 4),
        whole=np.frombuffer(bytes(x if 0 <= x < 17 else 0 for x in xs),
                            np.uint8),
        ones=[np.frombuffer(b"".join(m[8 * w:8 * w + 8] for m in ones),
                            _LE64) for w in (0, 1)])
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


def _format17(block, buf: bytearray) -> bytes:
    """The rows of a 2-D float block, every value as "%.17g" % value,
    "," between values and a newline after each row.  buf is the caller's
    workspace, exactly _VALUE_BYTES a value: any other size raises
    ValueError.

    The 17 significant digits of |x| are D = round(|x| * 10**(16 - E)),
    E = floor(log10 |x|) (_digits17).  The estimate of E is one low at
    most, which a D above 10**17 shows; D = 10**17 is a carry, digit 0
    reads 1 and E goes one up.  Each value is laid out as "%g" lays out
    D and E: fixed notation for -4 <= E < 17, d.ddde+XX otherwise,
    trailing zeros stripped.  In the 32-byte layout above, the layout
    row of E, the point and the separator is or-ed with the sign and
    digit 0 (word 0) and with digits 1-16 (words 1 and 2, two 4-digit
    lookups each, masked after the last digit kept), _point_shift puts
    in the point of fixed notation with 1 <= E <= 15, and one
    bytes.translate deletes the NULs.  The values this cannot round
    exactly go to "%.17g" itself: a product within 1e-9 of a tie, |x|
    outside [1e-290, 1e290] (subnormals included), inf and nan.  No
    numpy warning is raised.
    """
    rows, cols = block.shape
    if len(buf) != _VALUE_BYTES * rows * cols:
        raise ValueError(f"workspace of {len(buf)} bytes for {rows * cols} "
                         f"values, not {_VALUE_BYTES} a value")
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    slow = ~((a >= 1e-290) & (a <= 1e290) | zero)
    a[slow | zero] = 1.0
    # floor(log10 a), or one less within 1e-12 of a power of ten; a zero
    # reads as 1.0, whose estimate -1 carries to 0 below
    exp = np.floor(np.log10(a) - 1e-12).astype(np.intp)
    tables = _format17_tables()
    D, f = _digits17(a, exp, tables)
    low = np.flatnonzero(D > 10 ** 17)
    if low.size:
        exp[low] += 1
        D[low], f[low] = _digits17(a[low], exp[low], tables)
    slow |= np.abs(f) > 0.5 - 1e-9
    exp += D == 10 ** 17
    D[zero] = 0
    # digit 0 (10 for D = 10**17), then digits 1-16 in four groups of four
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
    # layout row r = E - _EXP_MIN: row 4 r + 2 point, plus 1 in the last
    # column, with a point if the last nonzero digit is past the whole
    # digits, and digits 1 to max(place, whole) kept
    exp -= _EXP_MIN
    whole = tables.whole[exp]
    point = place > whole
    row = 4 * exp
    row += 2 * point
    row.reshape(rows, cols)[:, -1] += 1
    out = np.frombuffer(buf, _LE64).reshape(-1, 4)
    # every row is in range; mode="raise" would gather through a
    # buffer and copy it into out
    np.take(tables.layout, row, axis=0, out=out, mode="clip")
    d0 += 11 * np.signbit(x)
    out[:, 0] |= tables.lead[d0]
    # an intp index: numpy casts a uint8 one at every gather
    kept = np.maximum(place, whole).astype(np.intp)
    words = []
    for w in (0, 1):
        word = tables.quad[0][groups[2 * w]]
        word |= tables.quad[1][groups[2 * w + 1]]
        word &= tables.ones[w][kept]
        words.append(word)
    _point_shift(words, point & (whole > 0), whole, out, tables)
    out[:, 1] |= words[0]
    out[:, 2] |= words[1]
    slow = np.flatnonzero(slow)
    if slow.size:
        out.view(np.uint8)[slow, :31] = np.frombuffer(
            _cpython17(x[slow].tolist()), np.uint8).reshape(-1, 31)
    # bytes.translate ran about a third faster than bytearray.translate
    # on these rows, the copy included
    return bytes(buf).translate(None, b"\0 ")


def _point_shift(words, moved, whole, out, tables):
    """Make room for the point after digit E of fixed notation with
    1 <= E <= 15 and a fraction, on the moved values, those with a point
    and whole digits: the digits past whole move up a byte, from word 1
    into word 2 and from word 2 into word 3's first byte.  E = 16 keeps
    all 16 digits, so it never has a point.
    Only the values that need it are shifted.  Shifting every value under
    masks ran as fast on pulse tables, 2% faster where a t column from 0
    to 37.5 needs it on 73% of its rows, and slower on sweep maps and
    axis-angle tables, where few values or none need it."""
    at = np.flatnonzero(moved)
    if not at.size:
        return
    c = whole[at].astype(np.intp)
    carry = 0
    for w in (0, 1):
        word = words[w][at]
        kept = word & tables.ones[w][c]
        m = word ^ kept
        kept |= m << 8
        kept |= carry
        carry = m >> 56
        words[w][at] = kept
    out[at, 3] |= carry


def _cpython17(values: list) -> bytes:
    """Each value as "%.17g" padded with spaces to 31 bytes: "%.17g" is
    at most 24 bytes and never holds a space, so the padding goes with
    _format17's NULs."""
    return (("%-31.17g" * len(values)) % tuple(values)).encode("ascii")


def _blocks(data, start: int, stop: int):
    """The bytes of rows start:stop, _format17's for each block of
    _CSV_BLOCK_ROWS rows.  The full blocks share one workspace, and a
    shorter last block gets its own, each exactly _VALUE_BYTES a value."""
    buf = bytearray()
    for i in range(start, stop, _CSV_BLOCK_ROWS):
        block = data[i:min(i + _CSV_BLOCK_ROWS, stop)]
        if len(buf) != _VALUE_BYTES * block.size:
            buf = bytearray(_VALUE_BYTES * block.size)
        yield _format17(block, buf)


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


def _in_two(child, parent) -> bool:
    """Run child() in a forked process while this process runs parent(),
    and return whether child() returned.

    The child exits here, through os._exit, as soon as child() returns
    or raises: it runs no atexit hook, flushes no inherited buffer and
    never runs the caller's code.  It hands its results back only
    through shared memory mapped before the call.  A fork that fails
    returns False once parent() has run.  A parent() that raises kills
    and reaps the child first, so no child outlives the call.  A caller
    that gets False does the child's share itself: nothing it returns
    depends on the fork.

    Python 3.12 warns at os.fork when the process has other threads, as
    OpenBLAS's pool is: a fork can copy a lock that such a thread held.
    The children take none that matters.  glibc resets its malloc locks
    in the child and CPython its interpreter state, and the children run
    numpy's elementwise functions, take, slicing and "%" formatting: no
    import, no logging, no BLAS call.
    """
    try:
        pid = os.fork()
    except (OSError, MemoryError):    # no process or memory left
        parent()
        return False
    if pid == 0:
        ok = False
        try:
            child()
            ok = True
        finally:
            os._exit(0 if ok else 1)
    try:
        parent()
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return status == 0


def _format_into(shared, data, split: int) -> None:
    """The forked writer's share: the text of rows split: into shared
    from its second page on, then its length into the first 8 bytes."""
    at = mmap.PAGESIZE
    for text in _blocks(data, split, len(data)):
        shared[at:at + len(text)] = text
        at += len(text)
    shared[:8] = (at - mmap.PAGESIZE).to_bytes(8, "little")


def _pieces(shared):
    """The text _format_into left in shared, _PIECE_BYTES at a time.
    Each piece's pages are released once it is copied out, so this
    process never holds more than one piece of the mapping."""
    end = mmap.PAGESIZE + int.from_bytes(shared[:8], "little")
    for at in range(mmap.PAGESIZE, end, _PIECE_BYTES):
        piece = shared[at:min(at + _PIECE_BYTES, end)]
        shared.madvise(mmap.MADV_DONTNEED, at, len(piece))
        yield piece


def write_csv(path, header: str, data) -> str:
    """Header line, then the rows of a 2-D float array, comma separated;
    returns the sha256 hex digest of the bytes written.

    The bytes are fixed: every value is written as "%.17g" % value, the
    bytes numpy's savetxt writes with fmt="%.17g", delimiter=",",
    comments="" and this header.  Each block of _CSV_BLOCK_ROWS rows is
    formatted at once by _format17.  A table of _CSV_FORK_VALUES values
    or more, on a host with two usable CPUs, is formatted by two
    processes: a forked child formats the blocks after the middle one
    into shared memory (at most 25 bytes a value: "%.17g" and its
    separator) while this process writes the header and the rows before
    them.  This process then writes and hashes the child's text.  Should
    the child fail, or the fork, this process formats those rows itself,
    so the bytes and the digest never depend on the fork.  No child
    outlives the call.
    """
    data = np.asarray(data, dtype=float)
    rows, cols = data.shape
    digest = hashlib.sha256()
    split = _split(rows, _CSV_BLOCK_ROWS, rows * cols, _CSV_FORK_VALUES)
    with open(path, "wb") as fh:
        def write(pieces):
            for text in pieces:
                fh.write(text)
                digest.update(text)

        if header:
            write([header.encode() + b"\n"])
        if not split:
            write(_blocks(data, 0, rows))
            return digest.hexdigest()
        with mmap.mmap(-1, mmap.PAGESIZE + 25 * (rows - split) * cols) \
                as shared:
            if _in_two(lambda: _format_into(shared, data, split),
                       lambda: write(_blocks(data, 0, split))):
                write(_pieces(shared))
            else:
                write(_blocks(data, split, rows))
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
