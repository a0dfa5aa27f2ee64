"""Small shared helpers: CSV and JSON writing, digests, angle wrapping.

Every CSV value is written as "%.17g" % value, and a sha256 sidecar pins
the bytes.  write_csv and dump_json return the sha256 of the bytes they
wrote, hashed as they write them, so no artifact is read back for its
digest.  Formatting is most of a long table's write, so write_csv
formats every block of _CSV_BLOCK_VALUES values with numpy (_format17:
the decimal exponent read exactly from the exponent field, Dekker's
exact product against a double-double table of 10**k, then a fixed
layout of 32 bytes a value that one bytes.translate compacts) and hands
the few values it cannot round exactly to CPython's "%.17g".  Every
stage writes into one workspace per thread (_workspace), allocated on
first use and never freed.  The tables (_format17_tables, about 270 KB)
hold digit lookups and one row per exponent E: the binade's first row
and the step to the next, the power 10**(16 - E), the layout and
whole[E], the digits fixed notation keeps whatever their value; a
value's point and the digits it keeps follow from whole[E] and the place
of its last nonzero digit.  Tables of
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
import sys
import threading
import types

import numpy as np


# values per formatted block: a table of c columns goes in blocks of
# max(1, _CSV_BLOCK_VALUES // c) rows (_block_rows), so pulses, axis-angle
# and propagator tables fill blocks of one size in one pooled workspace
# (_workspace).  In-process _blocks against the 1,000-row blocks before
# (median ratios of 10 interleaved rounds on a shared 2-CPU host, on
# 16,385 x 4, 65,537 x 4, 65,537 x 6 and 12,288 x 4 tables): 4,096
# values 0.86-0.92, 8,192 values 0.76-0.83, 16,384 values 0.74-0.87
_CSV_BLOCK_VALUES = 8192
# values (rows x columns) from which write_csv forks.  write_csv of a
# tre pulse table on a shared 2-CPU host, one process against forked
# (medians of 30 alternations): 13.61 against 14.83 ms at 16,385 x 4
# (one process faster in 26 of 30), 16.81 against 17.82 at 24,577 x 4
# (18 of 30; with 1,000-row blocks the fork won there, 65.7 against
# 71.8 ms in a slower run) and 51.58 against 38.34 at 65,537 x 4 (2 of 30)
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
# numpy formats |x| in [2**-964, 2**964), the binades that hold
# [1e-290, 1e290]: their exponents E run from -291 to 290, and every
# 10**(16 - E) is in the power tables
_FAST_BINADES = (-964, 963)
_EXP_MIN, _EXP_MAX = -291, 290   # the exponents of the first and last rows
# after the exponent rows, the row of +-0 and the row of the values
# "%.17g" itself formats
_ZERO = _EXP_MAX - _EXP_MIN + 1
_SLOW = _ZERO + 1
# a value's sign bit is copied from the top byte of its double into its
# first byte, and the translate that deletes the NULs turns it into "-"
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0
_SIGN = bytes.maketrans(b"\x80", b"-")


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


def _at_least(num: int, den: int) -> float:
    """The smallest double >= num / den: int / int is correctly
    rounded."""
    h = num / den
    n, d = h.as_integer_ratio()
    return h if n * den >= num * d else math.nextafter(h, math.inf)


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
    # lead[d]: word 0's digit 0, in byte 6
    lead = np.array([_word(bytes(6) + bytes([48 + d])) for d in range(10)],
                    np.uint64)
    # rows r, one per exponent E = _EXP_MIN + r, then the zero row, laid
    # out as E = 0, and the slow row
    Es = range(_EXP_MIN, _EXP_MAX + 1)
    # row_of[e]: the row a value of exponent field e starts on: that of
    # floor(log10 2**(e - 1023)) in the fast binades, the zero row for ±0
    # and the subnormals, and the slow row otherwise.  ten[r]: the
    # smallest double >= 10**(E + 1) - 5 * 10**(E - 17), the first that
    # rounds to 10**(E + 1) in 17 digits, so |x| >= ten[r] moves a value
    # one row up to the exponent "%.17g" writes; it moves a subnormal from
    # the zero row to the slow row, and nothing from there
    # floor(q log10 2) is exact: for 0 < |q| <= 1074, q log10 2 lies at
    # least 4.5e-4 from a whole number (closest at q = 485)
    low, high = _FAST_BINADES
    row_of = np.full(2048, _SLOW, np.intp)
    row_of[0] = _ZERO
    row_of[1023 + low:1024 + high] = np.floor(
        np.arange(low, high + 1) * math.log10(2)) - _EXP_MIN
    ten = np.array([_at_least((10 ** 18 - 5) * 10 ** max(E - 17, 0),
                              10 ** max(17 - E, 0)) for E in Es]
                   + [5e-324, math.inf])
    # the power 10**(16 - E) of each row as hh + hl + lo, and 0 on the
    # zero and slow rows
    k = 16 - _POW10_MIN - np.arange(_EXP_MIN, _EXP_MAX + 1)
    hh, hl, lo = (np.concatenate([v[k], np.zeros(2)])
                  for v in (hh, hi - hh, lo))
    # by row, point or none: the prefix, the point, the exponent and the
    # separator ","; the last column's becomes "\n" in _format17
    layout = bytearray()
    for x in [*Es, 0, None]:
        row = bytearray(_VALUE_BYTES)
        row[31] = ord(",")
        slot = 7                 # d.ddd, and d.ddde+XX to d.ddde-XXX
        if x is None or x == 16:  # the slow row; 17 whole digits
            slot = 0
        elif 0 < x < 16:         # dd.ddd to ddd.ddd: after digit x
            slot = 8 + x
        elif -4 <= x < 0:        # 0.000ddd: the point is in the prefix
            slot = 0
            prefix = b"0." + b"0" * (-x - 1)
            row[1:1 + len(prefix)] = prefix
        elif x != 0:
            row[25:30] = b"e%c%03d" % (b"-+"[x > 0], abs(x))
            if abs(x) < 100:
                row[27] = 0
        for point in (0, 1):     # row 2 * r + point
            row[slot] = ord(".") if point and slot else 0
            layout += row
    # whole[r]: how many of digits 1-16 fixed notation keeps whatever
    # their value, for the exponent E of row r: E for 0 <= E < 17 and
    # none otherwise.  ones[w][c]: the bytes of digit word w + 1 that
    # hold digits 1 to c
    ones = [b"\xff" * c + bytes(16 - c) for c in range(17)]
    tables = types.SimpleNamespace(
        row_of=row_of, ten=ten, hh=hh, hl=hl, lo=lo, quad=quad, last=last,
        lead=lead, layout=np.frombuffer(layout, _LE64).reshape(-1, 4),
        whole=np.frombuffer(bytes(x if 0 <= x < 17 else 0 for x in Es)
                            + bytes(2), np.uint8),
        ones=[np.frombuffer(b"".join(m[8 * w:8 * w + 8] for m in ones),
                            _LE64) for w in (0, 1)])
    for t in vars(tables).values():
        for a in t if isinstance(t, list) else [t]:
            a.flags.writeable = False
    return tables


# _format17's stage arrays by name: the lane, of 8 bytes a value, each
# lies on, and its dtype.  The arrays of one lane are never live at once,
# so a block's stages run in nine lanes, and its bytes and booleans in
# four more of one byte
_LANES = {
    "a": (0, np.float64), "g1": (0, np.intp),
    "e": (1, np.intp), "ah": (1, np.float64), "q": (1, np.intp),
    "w2": (1, np.uint64),
    "r": (2, np.intp), "mask": (2, np.uint64),
    "ten": (3, np.float64), "bh": (3, np.float64), "D": (3, np.intp),
    "kept": (3, np.intp),
    "bl": (4, np.float64), "ri": (4, np.intp), "hi8": (4, np.intp),
    "al": (5, np.float64), "lo8": (5, np.intp),
    "p": (6, np.float64), "d0": (6, np.intp),
    "t": (7, np.float64), "w1": (7, np.uint64),
    "tmp": (8, np.float64), "g3": (8, np.intp)}
_BYTE_LANES = {"place": (0, np.uint8), "whole": (1, np.uint8),
               "step": (2, np.bool_), "slow": (3, np.bool_)}


class _Workspace:
    """The 32-byte layout buffer and _format17's stage lanes for blocks of
    up to `values` values, allocated once."""

    def __init__(self, values: int):
        self.values = values
        self.layout = bytearray(_VALUE_BYTES * values)
        self.lanes = np.empty((1 + max(k for k, _ in _LANES.values()),
                               values), np.uint64)
        self.byte_lanes = np.empty(
            (1 + max(k for k, _ in _BYTE_LANES.values()), values), np.uint8)
        self._cut = None

    def cut(self, n: int) -> types.SimpleNamespace:
        """The stage arrays, n values long; the cut last asked for is
        kept, so the full blocks of a table share one."""
        if self._cut is None or self._cut.n != n:
            self._cut = types.SimpleNamespace(n=n, **{
                name: lanes[lane].view(dtype)[:n]
                for lanes, table in ((self.lanes, _LANES),
                                     (self.byte_lanes, _BYTE_LANES))
                for name, (lane, dtype) in table.items()})
        return self._cut


_POOL = threading.local()


def _workspace(values: int) -> _Workspace:
    """This thread's pooled workspace, of _CSV_BLOCK_VALUES values, made
    on first use and never freed, so no stage's temporaries move glibc's
    mmap threshold; a forked child uses its inherited copy.  One per
    thread, since numpy lets other threads run inside its loops.  A block
    of more values gets a workspace of its own."""
    ws = getattr(_POOL, "ws", None)
    if ws is None:
        ws = _POOL.ws = _Workspace(_CSV_BLOCK_VALUES)
    return ws if values <= ws.values else _Workspace(values)


def _rows(x, tables, s):
    """|x| into s.a, and into s.r the row of the exponent E of its 17
    significant digits, the zero row for ±0 or the slow row.  The
    exponent field picks the row of its binade's lowest exponent, and one
    compare moves a value up a row.  |x| is capped at 2**964 before the
    compare, so the slow values' inf and nan meet no arithmetic."""
    a = np.abs(x, out=s.a)
    np.right_shift(a.view(np.intp), 52, out=s.e)
    tables.row_of.take(s.e, out=s.r, mode="clip")
    np.fmin(a, 2.0 ** (_FAST_BINADES[1] + 1), out=a)
    tables.ten.take(s.r, out=s.ten, mode="clip")
    np.greater_equal(a, s.ten, out=s.step)
    s.r += s.step


def _digits17(tables, s):
    """D = round(a * 10**(16 - E)) into s.D, and f, the distance of the
    exact product from D, into s.t, for a in s.a and E by its row s.r.

    Dekker's (1971) exact product gives a * hi = p + err, and the
    tail adds a * lo.  p is a whole number of 2**53 or more and
    t = err + a * lo is exact to 4e-15, so D = p + rint(t) is the rounded
    product wherever |f| is not within that of a half.  The zero and
    slow rows give D = 0."""
    a, bh, bl, ah, al, p, t, tmp = (s.a, s.bh, s.bl, s.ah, s.al, s.p, s.t,
                                    s.tmp)
    tables.hh.take(s.r, out=bh, mode="clip")
    tables.hl.take(s.r, out=bl, mode="clip")
    np.multiply(a, 134217729.0, out=ah)      # 2**27 + 1 splits a
    np.subtract(ah, a, out=al)
    np.subtract(ah, al, out=ah)
    np.subtract(a, ah, out=al)
    np.add(bh, bl, out=p)
    p *= a
    np.multiply(ah, bh, out=t)
    t -= p
    for u, v in ((ah, bl), (al, bh), (al, bl)):
        np.multiply(u, v, out=tmp)
        t += tmp
    tables.lo.take(s.r, out=tmp, mode="clip")
    tmp *= a
    t += tmp
    np.rint(t, out=tmp)
    t -= tmp
    np.copyto(s.D, p, casting="unsafe")
    np.copyto(s.ri, tmp, casting="unsafe")
    s.D += s.ri


def _format17(block, buf) -> bytes:
    """The rows of a 2-D float block, every value as "%.17g" % value,
    "," between values and a newline after each row.  buf is the caller's
    32-byte layout buffer, exactly _VALUE_BYTES a value: any other size
    raises ValueError.  The stages write into _workspace's lanes; only
    the values _point_shift moves and the slow values get arrays of their
    own.  Every gather passes mode="clip": each index is in range, and
    the default mode="raise" gathers through a buffer and copies it out.

    "%.17g" writes the 17 significant digits D = round(|x| * 10**(16 - E))
    (_digits17), where E, the exponent of |x| rounded to 17 digits, comes
    exactly from the exponent field and one compare (_rows), so
    10**16 <= D < 10**17.  Each value is laid out as "%g" lays out D and
    E: fixed notation for -4 <= E < 17, d.ddde+XX otherwise, trailing
    zeros stripped.  In the 32-byte layout above, the layout row of E and
    the point is or-ed with the sign and digit 0 (word 0) and with digits
    1-16 (words 1 and 2, two 4-digit lookups each, masked after the last
    digit kept), _point_shift puts in the point of fixed notation with
    1 <= E <= 15, and one bytes.translate deletes the NULs.  The values
    this cannot round exactly go to "%.17g" itself: a product within 1e-9
    of a tie, |x| outside [2**-964, 2**964) but not 0 (subnormals
    included), inf and nan.  No numpy warning is raised.
    """
    rows, cols = block.shape
    n = rows * cols
    if len(buf) != _VALUE_BYTES * n:
        raise ValueError(f"workspace of {len(buf)} bytes for {n} "
                         f"values, not {_VALUE_BYTES} a value")
    tables = _format17_tables()
    s = _workspace(n).cut(n)
    x = block.ravel()
    _rows(x, tables, s)
    _digits17(tables, s)
    np.abs(s.t, out=s.t)
    np.greater(s.t, 0.5 - 1e-9, out=s.slow)
    np.equal(s.r, _SLOW, out=s.step)
    s.slow |= s.step
    slow = s.slow.nonzero()[0]
    # digit 0, then digits 1-16 in four groups of four
    D, hi8, lo8, d0, q = s.D, s.hi8, s.lo8, s.d0, s.q
    np.floor_divide(D, 10 ** 8, out=hi8)
    np.multiply(hi8, 10 ** 8, out=q)
    np.subtract(D, q, out=lo8)
    np.floor_divide(hi8, 10 ** 8, out=d0)
    np.multiply(d0, 10 ** 8, out=q)
    hi8 -= q
    groups = (s.g1, hi8, s.g3, lo8)
    for g, rest in ((s.g1, hi8), (s.g3, lo8)):
        np.floor_divide(rest, 10000, out=g)
        np.multiply(g, 10000, out=q)
        rest -= q
    place = tables.last[0].take(s.g1, out=s.place, mode="clip")
    for j in (1, 2, 3):
        last = tables.last[j].take(groups[j], out=s.whole, mode="clip")
        np.maximum(place, last, out=place)
    # a point if the last nonzero digit is past the whole digits, and
    # digits 1 to max(place, whole) kept
    whole = tables.whole.take(s.r, out=s.whole, mode="clip")
    point = np.greater(place, whole, out=s.step)
    kept = np.maximum(place, whole, out=s.kept)
    out = np.frombuffer(buf, _LE64).reshape(-1, 4)
    # the layout row 2 r + point
    row = s.r
    row <<= 1
    row += point
    tables.layout.take(row, axis=0, out=out, mode="clip")
    out.view(np.uint8).reshape(rows, -1)[:, -1] = ord("\n")
    # byte 0: the sign bit, 0x80 or 0, which the translate below turns
    # into "-"; digit 0 goes in byte 6
    np.bitwise_and(x.view(np.uint8)[_SIGN_BYTE::8], 0x80,
                   out=out.view(np.uint8)[:, 0])
    out[:, 0] |= tables.lead.take(d0, out=s.w1, mode="clip")
    words = (s.w1, s.w2)
    for w, word in enumerate(words):
        tables.quad[0].take(groups[2 * w], out=word, mode="clip")
        word |= tables.quad[1].take(groups[2 * w + 1], out=s.mask,
                                    mode="clip")
        word &= tables.ones[w].take(kept, out=s.mask, mode="clip")
    moved = np.greater(whole, 0, out=s.slow)
    moved &= point
    _point_shift(words, moved, whole, out, tables)
    out[:, 1] |= words[0]
    out[:, 2] |= words[1]
    if slow.size:
        out.view(np.uint8)[slow, :31] = np.frombuffer(
            _cpython17(x[slow].tolist()), np.uint8).reshape(-1, 31)
    # bytes.translate ran about a third faster than bytearray.translate
    # on these rows, the copy included
    return bytes(buf).translate(_SIGN, b"\0 ")


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
    at = moved.nonzero()[0]
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


def _block_rows(cols: int) -> int:
    """Rows per block of a table of cols columns."""
    return max(1, _CSV_BLOCK_VALUES // max(cols, 1))


def _blocks(data, start: int, stop: int):
    """The bytes of rows start:stop, _format17's for each block of
    _block_rows rows, formatted in the pooled workspace's layout buffer
    and stage arrays."""
    step = _block_rows(data.shape[1])
    for i in range(start, stop, step):
        block = data[i:min(i + step, stop)]
        ws = _workspace(block.size)
        yield _format17(block, memoryview(ws.layout)[
            :_VALUE_BYTES * block.size])


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
    comments="" and this header.  Each block of _block_rows rows, about
    _CSV_BLOCK_VALUES values, is formatted at once by _format17 in the
    pooled workspace.  A table of _CSV_FORK_VALUES values
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
    split = _split(rows, _block_rows(cols), rows * cols, _CSV_FORK_VALUES)
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
