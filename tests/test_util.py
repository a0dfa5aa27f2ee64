import decimal
import hashlib
import json
import math
import mmap
import os
import random
import signal
import tempfile
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochtop import _util, propagate
from blochtop.pulsegen import rect_pi_pulse

_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308,
            1.7976931348623157e308, 0.1, 1.0]
_VALUES = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(0, 10), st.integers(1, 6), st.data())
def test_write_csv_matches_per_value_format(rows, cols, data):
    # the sweep-map and axis-angle exports used to join f"{v:.17g}" values
    table = data.draw(arrays(np.float64, (rows, cols), elements=_VALUES))
    header = ",".join(f"c{j}" for j in range(cols))
    expected = "".join(",".join(f"{v:.17g}" for v in r) + "\n"
                       for r in table.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _util.write_csv(path, header, table)
        assert path.read_text() == header + "\n" + expected


def test_write_csv_round_trips_doubles(tmp_path):
    table = np.random.default_rng(3).normal(size=(37, 4))
    _util.write_csv(tmp_path / "t.csv", "a,b,c,d", table)
    back = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
    assert back.tobytes() == table.tobytes()


# rows around the block size of one and of four columns, and 511 to 513,
# 999 to 1,001, 1,023 to 1,027, 2,003 and 2,051: the powers of two and
# the 1,000- and 1,024-row blocks of earlier layouts, each one or a few
# rows from a block edge or a short remainder
@pytest.mark.parametrize("rows", sorted({
    0, 1, 511, 512, 513, 999, 1000, 1001, 1023, 1024, 1025, 1027, 2003,
    2051, *(b + d for b in (_util._block_rows(1), _util._block_rows(4))
            for d in (-1, 0, 1, b + 3))}))
@pytest.mark.parametrize("cols", [1, 4])
def test_write_csv_matches_savetxt_across_blocks(tmp_path, rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(
        -300, 300, size=(rows, cols))
    # a special value on every row, so on the first and last of each block
    table[:, 0] = np.resize(_SPECIAL, rows)
    header = ",".join(f"c{j}" for j in range(cols))
    _util.write_csv(tmp_path / "t.csv", header, table)
    # the reference: the numpy writer that write_csv replaced
    np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",",
               comments="", header=header)
    assert (tmp_path / "t.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


# the forked writer: a child formats the rows from _csv_split on


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _two_cpus(monkeypatch):
    # two usable CPUs whatever the host, so the forked path runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def _count_forks(monkeypatch) -> list:
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _csv_split(rows: int, cols: int) -> int:
    """The first row write_csv's forked child formats, as write_csv
    splits a rows x cols table."""
    return _util._split(rows, _util._block_rows(cols), rows * cols,
                        _util._CSV_FORK_VALUES)


def _first_forked_rows(cols: int) -> int:
    return -(-_util._CSV_FORK_VALUES // cols)


def _odd_block_rows(cols: int) -> int:
    # the fewest rows at or above the fork cutoff with an odd block count
    rows = _first_forked_rows(cols)
    blocks = -(-rows // _util._block_rows(cols))
    return rows if blocks % 2 else blocks * _util._block_rows(cols) + 1


def _special_table(rows: int, cols: int, split: int) -> np.ndarray:
    rng = np.random.default_rng(rows * 10 + cols)
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(
        -300, 300, size=(rows, cols))
    table[:, 0] = np.resize(_SPECIAL, rows)
    # whole rows of special values on either side of the split
    for r in (split - 1, split):
        if 0 <= r < rows:
            table[r] = np.resize(np.roll(_SPECIAL, r), cols)
    return table


def _savetxt_bytes(path, header, table) -> bytes:
    np.savetxt(path, table, fmt="%.17g", delimiter=",", comments="",
               header=header)
    return path.read_bytes()


@pytest.mark.parametrize("cols", [1, 6])
@pytest.mark.parametrize("where", ["cutoff-1", "cutoff", "cutoff+1", "odd"])
def test_forked_write_matches_savetxt(tmp_path, monkeypatch, cols, where):
    rows = {"cutoff-1": _first_forked_rows(cols) - 1,
            "cutoff": _first_forked_rows(cols),
            "cutoff+1": _first_forked_rows(cols) + 1,
            "odd": _odd_block_rows(cols)}[where]
    _two_cpus(monkeypatch)
    forks = _count_forks(monkeypatch)
    split = _csv_split(rows, cols)
    assert (split > 0) == (rows * cols >= _util._CSV_FORK_VALUES)
    assert split % _util._block_rows(cols) == 0 and split < rows
    table = _special_table(rows, cols, split)
    header = ",".join(f"c{j}" for j in range(cols))
    _util.write_csv(tmp_path / "t.csv", header, table)
    _assert_no_child()
    assert len(forks) == (split > 0)
    assert (tmp_path / "t.csv").read_bytes() == \
        _savetxt_bytes(tmp_path / "ref.csv", header, table)


def test_forked_write_parent_failure_leaves_no_child(tmp_path, monkeypatch):
    rows = 4 * _first_forked_rows(4)
    table = _special_table(rows, 4, _csv_split(rows, 4))
    parent = os.getpid()
    real = _util._blocks

    def failing(data, start, stop):
        blocks = real(data, start, stop)
        if os.getpid() == parent:
            yield next(blocks)
            raise RuntimeError("parent failed mid-write")
        yield from blocks

    _two_cpus(monkeypatch)
    monkeypatch.setattr(_util, "_blocks", failing)
    forks = _count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="parent failed"):
        _util.write_csv(tmp_path / "t.csv", "a,b,c,d", table)
    _assert_no_child()
    assert forks == [1]
    # the header and one block, and nothing the child formatted
    written = (tmp_path / "t.csv").read_bytes()
    full = _savetxt_bytes(tmp_path / "ref.csv", "a,b,c,d", table)
    assert full.startswith(written)
    assert written.count(b"\n") == 1 + _util._block_rows(4)


def test_forked_write_child_failure_leaves_the_one_process_bytes(
        tmp_path, monkeypatch):
    rows = 2 * _first_forked_rows(4)
    table = _special_table(rows, 4, _csv_split(rows, 4))
    parent = os.getpid()
    real = _util._blocks

    def failing(data, start, stop):
        if os.getpid() != parent:
            raise RuntimeError("child failed")
        return real(data, start, stop)

    _two_cpus(monkeypatch)
    monkeypatch.setattr(_util, "_blocks", failing)
    forks = _count_forks(monkeypatch)
    path = tmp_path / "t.csv"
    digest = _util.write_csv(path, "a,b,c,d", table)
    _assert_no_child()
    assert forks == [1]
    assert path.read_bytes() == \
        _savetxt_bytes(tmp_path / "ref.csv", "a,b,c,d", table)
    assert digest == _file_sha256(path)


def test_failed_fork_writes_the_one_process_bytes(tmp_path, monkeypatch):
    def pipe():
        raise AssertionError("opened a pipe")

    def fork():
        raise BlockingIOError("no process left")

    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    rows = 2 * _first_forked_rows(4)
    table = _special_table(rows, 4, _csv_split(rows, 4))
    path = tmp_path / "t.csv"
    digest = _util.write_csv(path, "a,b,c,d", table)
    _assert_no_child()
    assert path.read_bytes() == \
        _savetxt_bytes(tmp_path / "ref.csv", "a,b,c,d", table)
    assert digest == _file_sha256(path)


@pytest.mark.parametrize("host", ["one-cpu", "no-affinity", "no-fork"])
def test_one_process_hosts_write_without_forking(tmp_path, monkeypatch,
                                                 host):
    if host in ("one-cpu", "no-affinity"):
        if host == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
        else:    # the CPU count stands in for the affinity mask
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def fork():
            raise AssertionError("forked on a one-CPU host")

        monkeypatch.setattr(os, "fork", fork)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    rows = 2 * _first_forked_rows(4) + 1
    table = _special_table(rows, 4, rows // 2)
    _util.write_csv(tmp_path / "t.csv", "a,b,c,d", table)
    _assert_no_child()
    assert (tmp_path / "t.csv").read_bytes() == \
        _savetxt_bytes(tmp_path / "ref.csv", "a,b,c,d", table)


# _format17, the vectorized "%.17g": the same bytes as CPython's formatter

def _per_value(table) -> bytes:
    return "".join(",".join("%.17g" % v for v in r) + "\n"
                   for r in table.tolist()).encode("ascii")


def _float_bits(u: int) -> float:
    return float(np.array(u, np.uint64).view(np.float64))


_BITS_OR_FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_float_bits),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def _block_crossing(cols: int):
    """(rows, cols): rows around the block size of cols columns, and
    511, 512 and 1025."""
    b = _util._block_rows(cols)
    return st.tuples(st.sampled_from(sorted({b - 1, b, b + 1, 2 * b + 3,
                                             511, 512, 1025})),
                     st.just(cols))


_BLOCK_CROSSING = st.integers(1, 6).flatmap(_block_crossing)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_BLOCK_CROSSING,
       st.lists(_BITS_OR_FLOATS, min_size=1, max_size=300), st.randoms())
def test_write_csv_matches_per_value_format_across_blocks(
        shape, values, rnd):
    rows, cols = shape
    # the drawn values, shuffled over a table of one or more blocks, the
    # last of them full or shorter
    cells = [values[i % len(values)] for i in range(rows * cols)]
    rnd.shuffle(cells)
    table = np.array(cells, dtype=float).reshape(rows, cols)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _util.write_csv(path, "h", table)
        assert path.read_bytes() == b"h\n" + _per_value(table)


@st.composite
def _decimal(draw) -> float:
    """sign * m * 10**(E - 16), parsed from its decimal string: m has 17
    digits, the last `zeros` of them 0 and the one before not, and E, the
    decimal exponent of the value, runs over [-310, 310], half the time
    over the fixed notation's [-5, 17]."""
    zeros = draw(st.integers(0, 16))
    m = draw(st.integers(10 ** 16, 10 ** 17 - 1)) // 10 ** zeros
    m += m % 10 == 0
    E = draw(st.one_of(st.integers(-5, 17), st.integers(-310, 310)))
    return float(f"{draw(st.sampled_from('+-'))}{m}{'0' * zeros}e{E - 16}")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 6), st.lists(_decimal(), min_size=1, max_size=48))
def test_write_csv_matches_per_value_format_in_every_notation(cols, values):
    # fixed notation with the point after each digit E = 0 to 16, the
    # 0.000 prefixes of E = -1 to -4, exponent notation of two and three
    # digits, and trailing zeros stripped at every place
    table = np.resize(np.array(values), (-(-len(values) // cols), cols))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _util.write_csv(path, "h", table)
        assert path.read_bytes() == b"h\n" + _per_value(table)


# the digest write_csv returns is the sha256 of the bytes it wrote, on the
# one-process path and on the forked one, whose tail a child appends


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_BLOCK_CROSSING, st.lists(_BITS_OR_FLOATS, min_size=1, max_size=50),
       st.sampled_from(["", "h", "a,b"]), st.booleans())
def test_write_csv_returns_the_sha256_of_its_bytes(shape, values, header,
                                                   forked):
    rows, cols = shape
    table = np.resize(np.array(values, dtype=float), (rows, cols))
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        forks = _count_forks(mp)
        if forked:
            # every table of two blocks or more forks, whatever the host
            mp.setattr(_util, "_CSV_FORK_VALUES", 1)
            mp.setattr(_util, "_two_cpus", lambda: True)
        path = Path(tmp) / "t.csv"
        digest = _util.write_csv(path, header, table)
        _assert_no_child()
        assert len(forks) == (forked and rows > _util._block_rows(cols))
        assert digest == _file_sha256(path)
        head = header.encode() + b"\n" if header else b""
        assert path.read_bytes() == head + _per_value(table)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from([1, 2, 3, 7]), st.integers(0, 40), st.integers(1, 6),
       st.lists(_BITS_OR_FLOATS, min_size=1, max_size=50), st.booleans())
def test_write_csv_bytes_do_not_depend_on_the_block_size(block_rows, rows,
                                                         cols, values,
                                                         forked):
    # full blocks share one workspace and a shorter last block gets its
    # own, in this process and in the forked child
    table = np.resize(np.array(values, dtype=float), (rows, cols))
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        mp.setattr(_util, "_CSV_BLOCK_VALUES", block_rows * cols)
        forks = _count_forks(mp)
        if forked:
            mp.setattr(_util, "_CSV_FORK_VALUES", 1)
            mp.setattr(_util, "_two_cpus", lambda: True)
        path = Path(tmp) / "t.csv"
        digest = _util.write_csv(path, "h", table)
        _assert_no_child()
        assert len(forks) == (forked and rows > block_rows)
        assert path.read_bytes() == b"h\n" + _per_value(table)
        assert digest == _file_sha256(path)


def test_forked_tail_is_hashed_in_chunks_after_the_child(tmp_path,
                                                          monkeypatch):
    # the child's text of several pieces, written and hashed only once the
    # child is reaped, each piece's pages released before the next
    rows = 2 * _first_forked_rows(4)
    table = np.random.default_rng(9).normal(size=(rows, 4))
    events = []
    real = _util._pieces

    class Shared(mmap.mmap):
        def madvise(self, option, start, length):
            events.append(("release", start, length))
            return super().madvise(option, start, length)

    def pieces(shared):
        _assert_no_child()
        for piece in real(shared):
            events.append(("piece", len(piece)))
            yield piece

    _two_cpus(monkeypatch)
    monkeypatch.setattr(_util.mmap, "mmap", Shared)
    monkeypatch.setattr(_util, "_pieces", pieces)
    digest = _util.write_csv(tmp_path / "t.csv", "a,b,c,d", table)
    assert digest == _file_sha256(tmp_path / "t.csv")
    assert len(events) > 8
    assert [e[0] for e in events] == ["release", "piece"] * (len(events) // 2)
    at = mmap.PAGESIZE
    for (_, start, size), (_, length) in zip(events[0::2], events[1::2]):
        assert start == at and size == length
        assert start % mmap.PAGESIZE == 0
        at += length
    # the pieces are the rows after the split, the last bytes of the file
    assert 0 < at - mmap.PAGESIZE < (tmp_path / "t.csv").stat().st_size


def test_killed_forked_writer_leaves_the_one_process_bytes(tmp_path,
                                                           monkeypatch):
    # a child killed after its first block: none of its text is written
    # and this process formats its rows
    rows = 2 * _first_forked_rows(4)
    table = _special_table(rows, 4, _csv_split(rows, 4))
    parent = os.getpid()
    real = _util._blocks

    def dying(data, start, stop):
        for i, text in enumerate(real(data, start, stop)):
            if i and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            yield text

    def pieces(shared):
        raise AssertionError("wrote the text of a failed child")

    _two_cpus(monkeypatch)
    monkeypatch.setattr(_util, "_blocks", dying)
    monkeypatch.setattr(_util, "_pieces", pieces)
    forks = _count_forks(monkeypatch)
    path = tmp_path / "t.csv"
    digest = _util.write_csv(path, "a,b,c,d", table)
    _assert_no_child()
    assert forks == [1]
    assert path.read_bytes() == \
        _savetxt_bytes(tmp_path / "ref.csv", "a,b,c,d", table)
    assert digest == _file_sha256(path)


# no output depends on the fork: the helper of write_csv and of a sweep
# fails at a drawn block or chunk, by raising or by being killed, or is
# never forked, and this process then does its share itself

# "%.17g" at its longest, 24 bytes: a row of these meets the writer's
# bound of 25 bytes a value exactly
_LONGEST = [-1.2345678901234567e-308, -2.2250738585072014e-308,
            -1.7976931348623157e+308]


def _helper_fate(fate: str, at: int, parent: int):
    """A hook for the child's k-th of count blocks or chunks: it raises or
    kills the child at k == at % count, and does nothing otherwise."""
    def hook(k, count):
        if os.getpid() == parent or k != at % count:
            return
        if fate == "raises":
            raise RuntimeError("helper failed")
        if fate == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
    return hook


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 40), st.integers(1, 6), st.integers(1, 4),
       st.lists(_BITS_OR_FLOATS, min_size=1, max_size=30),
       st.one_of(st.just("all"), st.lists(st.integers(0, 39), max_size=6)),
       st.integers(2, 12), st.integers(1, 5),
       st.sampled_from(["returns", "raises", "killed", "no-fork"]),
       st.integers(0, 40))
def test_no_output_depends_on_the_fork(rows, cols, block_rows, values,
                                       longest, cells, chunk_rows, fate,
                                       at):
    table = np.resize(np.array(values, dtype=float), (rows, cols))
    for r in range(rows) if longest == "all" else longest:
        if r < rows:
            table[r] = np.resize(np.roll(_LONGEST, r), cols)
    pulse = rect_pi_pulse(1.0, n=33)
    M0 = np.array([0.6, 0.0, 0.8])
    alpha = np.linspace(-0.3, 0.3, cells)
    delta = np.linspace(0.4, -0.4, cells)
    parent = os.getpid()
    hook = _helper_fate(fate, at, parent)
    real_blocks, real_steps = _util._blocks, propagate._steps
    formatted, chunks = [], [0]

    def blocks(data, start, stop):
        if os.getpid() == parent:
            formatted.append((start, stop))
            yield from real_blocks(data, start, stop)
            return
        for k, text in enumerate(real_blocks(data, start, stop)):
            hook(k, -(-(stop - start) // block_rows))
            yield text

    def steps(*args):
        if os.getpid() != parent:
            chunks[0] += 1
            hook(chunks[0] - 1, -(-(cells - h) // chunk_rows))
        return real_steps(*args)

    def no_fork():
        raise BlockingIOError("no process left")

    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        mp.setattr(_util, "_CSV_BLOCK_VALUES", block_rows * cols)
        mp.setattr(propagate, "_chunk_rows", lambda samples: chunk_rows)
        mp.setattr(propagate, "_FORK_SAMPLES", math.inf)
        serial = propagate._final_states(pulse, M0, alpha, delta)
        mp.setattr(_util, "_CSV_FORK_VALUES", 1)
        mp.setattr(propagate, "_FORK_SAMPLES", 0)
        mp.setattr(_util, "_two_cpus", lambda: True)
        split = _util._split(rows, block_rows, rows * cols, 1)
        h = _util._split(cells, chunk_rows, cells, 0)
        mp.setattr(_util, "_blocks", blocks)
        mp.setattr(propagate, "_steps", steps)
        forks = _count_forks(mp)
        if fate == "no-fork":
            mp.setattr(os, "fork", no_fork)
        path = Path(tmp) / "t.csv"
        digest = _util.write_csv(path, "h", table)
        _assert_no_child()
        assert path.read_bytes() == b"h\n" + _per_value(table)
        assert digest == _file_sha256(path)
        finals = propagate._final_states(pulse, M0, alpha, delta)
        _assert_no_child()
        assert finals.tobytes() == serial.tobytes()
    assert len(forks) == (fate != "no-fork") * ((split > 0) + (h > 0))
    # this process formats the child's rows only when the child failed
    if not split:
        assert formatted == [(0, rows)]
    elif fate == "returns":
        assert formatted == [(0, split)]
    else:
        assert formatted == [(0, split), (split, rows)]


@pytest.mark.parametrize("obj", [
    {}, {"b": [1.5, float("nan"), -0.0], "a": {"z": None, "y": True}},
    {"text": "\u00e9t\u00e9 \u03c0", "inf": float("inf"), "n": 10 ** 30}])
def test_dump_json_returns_the_sha256_of_its_bytes(tmp_path, obj):
    path = tmp_path / "o.json"
    digest = _util.dump_json(obj, path)
    assert digest == _file_sha256(path)
    # the bytes json.dump writes in text mode
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def _is_tie(x: float) -> bool:
    """The exact decimal expansion of x has 18 significant digits, the
    last one 5: "%.17g" rounds it half to even."""
    digits = "".join(map(str, decimal.Decimal(x).as_tuple().digits))
    digits = digits.rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


def _ties() -> list:
    """Tie doubles m * 2**-e, m odd, which is m * 5**e / 10**e: its digits
    are those of m * 5**e, 18 of them for m from 10**17 / 5**e on."""
    out = []
    for e in range(1, 80):
        first = -(-10 ** 17 // 5 ** e) | 1
        out += [x for m in range(first, first + 400, 2)
                if _is_tie(x := m * 2.0 ** -e)]
    return out


def _corpus() -> np.ndarray:
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-330, 309)])
    edges = np.array([1e290, 1e-290])
    special = np.array([0.0, np.inf, np.nan, 5e-324,
                        1.7976931348623157e308])
    values = np.concatenate([
        twos, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        _ties(), edges, np.nextafter(edges, 0.0),
        np.nextafter(edges, np.inf), special])
    values = np.concatenate([values, -values])
    return np.resize(values, (-(-values.size // 4), 4))


def test_format17_corpus_matches_per_value_format(tmp_path, monkeypatch):
    calls = []
    real = _util._cpython17

    def cpython17(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(_util, "_cpython17", cpython17)
    table = _corpus()
    _util.write_csv(tmp_path / "t.csv", "a,b,c,d", table)
    assert (tmp_path / "t.csv").read_bytes() == \
        b"a,b,c,d\n" + _per_value(table)
    slow = [v for vs in calls for v in vs]
    # the CPython route: ties, subnormals and non-finite values, and none
    # of the other values in [1e-290, 1e290]
    assert 2.0 ** -25 in slow and 3 * 2.0 ** -25 in slow
    assert 5e-324 in slow and -2.0 ** -1074 in slow
    assert math.inf in slow and any(v != v for v in slow)
    assert [v for v in slow if 1e-290 <= abs(v) <= 1e290
            and not _is_tie(v)] == []


def test_format17_ties_round_half_to_even():
    ties = _ties()
    assert len(ties) > 100
    assert "%.17g" % 2.0 ** -25 == "2.9802322387695312e-08"
    block = np.resize(np.array(ties), (-(-len(ties) // 4), 4))
    assert bytes(_util._format17(
        block, bytearray(_util._VALUE_BYTES * block.size))) == \
        _per_value(block)


def test_pow10_table_is_double_double_exact():
    hi, lo = _util._pow10()
    for i, k in enumerate(range(_util._POW10_MIN, _util._POW10_MAX + 1)):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi[i]) + Fraction(lo[i]) - exact) \
            <= exact * Fraction(1, 2 ** 104), k
        assert hi[i] == float(exact)


def test_format17_digit_tables_are_their_arithmetic_definition():
    tables = _util._format17_tables()
    i = np.arange(10000)
    # quad[h]: digit j of i at bits 8 (4 h + j) of its word, in ASCII
    for h in (0, 1):
        quad = sum((i // 10 ** (3 - j) % 10 + 48).astype(np.uint64)
                   << 8 * (4 * h + j) for j in range(4))
        assert np.array_equal(tables.quad[h], quad)
    zeros = (i % 10 == 0).astype(np.intp) + (i % 100 == 0) + (i % 1000 == 0)
    for j in range(4):
        last = np.where(i == 0, 0, 4 * j + 4 - zeros).astype(np.uint8)
        assert tables.last[j].dtype == np.uint8
        assert np.array_equal(tables.last[j], last)
    # two layout rows, point or none, for each exponent row, the zero row
    # and the slow row
    assert _util._SLOW == _util._ZERO + 1
    assert tables.layout.shape == (2 * (_util._SLOW + 1), 4)
    # by row r, for its exponent E: fixed notation keeps digits 1 to E
    # whatever their value, and none outside 0 <= E < 17 or on the zero
    # and slow rows
    E = np.arange(_util._ZERO) + _util._EXP_MIN
    assert E[-1] == _util._EXP_MAX
    assert np.array_equal(tables.whole,
                          np.append(np.where((E >= 0) & (E < 17), E, 0),
                                    [0, 0]))
    # the power 10**(16 - E) of each exponent row, and 0 on the others
    hi, lo = _util._pow10()
    k = 16 - E - _util._POW10_MIN
    assert np.array_equal(tables.hh[:_util._ZERO] + tables.hl[:_util._ZERO],
                          hi[k])
    assert np.array_equal(tables.lo[:_util._ZERO], lo[k])
    for t in (tables.hh, tables.hl, tables.lo):
        assert not t[_util._ZERO:].any()

    def mask(n, w):
        # the bytes of digit word w + 1 that hold digits 1 to n
        b = np.clip(n - 8 * w, 0, 8).astype(np.uint64)
        return np.where(b == 8, np.uint64(2 ** 64 - 1),
                        (np.uint64(1) << 8 * b) - 1)

    for w in (0, 1):
        assert np.array_equal(tables.ones[w], mask(np.arange(17), w))
    arrays = [a for t in vars(tables).values()
              for a in (t if isinstance(t, list) else [t])]
    # no table by 17 E + place: every value's layout follows from whole
    # and ones, and the tables stay under 300 KB
    assert sum(a.nbytes for a in arrays) <= 300_000
    for a in arrays:
        assert not a.flags.writeable


def test_format17_exponent_tables_give_the_exponent_of_17_digits():
    # every exponent field of both signs: the lowest double of the binade,
    # and the doubles at and one ulp either side of the power of ten in
    # it and of its table step.  A value of the fast binades starts on
    # the row of the exponent "%.16e" writes; +-0 on the zero row and
    # every other value on the slow row, whose bytes "%.17g" writes
    tables = _util._format17_tables()
    low, high = _util._FAST_BINADES
    values = [5e-324, 2.225073858507201e-308, math.nan]
    for field in range(2047):
        first = _float_bits(field << 52)
        values.append(first)
        if 1023 + low <= field <= 1023 + high:
            E = int(("%.16e" % first).split("e")[1])
            step = tables.ten[E - _util._EXP_MIN]
            for v in (step, float(f"1e{E + 1}")):
                values += [np.nextafter(v, 0.0), v, np.nextafter(v, math.inf)]
    values.append(math.inf)
    x = np.array(values)
    x = np.concatenate([x, -x])
    s = _util._Workspace(x.size).cut(x.size)
    _util._rows(x, tables, s)
    fast = (np.abs(x) >= 2.0 ** low) & (np.abs(x) < 2.0 ** (high + 1))
    assert fast.sum() > 4 * (high - low)
    for v, r, f in zip(x.tolist(), s.r.tolist(), fast.tolist()):
        if f:
            assert r + _util._EXP_MIN == int(("%.16e" % v).split("e")[1]), v
        else:
            assert r == (_util._ZERO if v == 0 else _util._SLOW), v
    block = x.reshape(-1, 2)
    assert _util._format17(
        block, bytearray(_util._VALUE_BYTES * block.size)) == \
        _per_value(block)


def _cell(v: float) -> tuple:
    """(E, c) of v's "%.17g" digits: its decimal exponent and the place
    among digits 1-16 of the last nonzero one, 0 for none."""
    digits, E = ("%.16e" % abs(v)).split("e")
    return int(E), len(digits.replace(".", "").rstrip("0")) - 1


def test_format17_every_layout_cell_matches_per_value_format(monkeypatch):
    # every exponent E of the fast path, 1e-290 <= |x| <= 1e290, and every
    # last nonzero place c: a value whose digits end at c, until one reads
    # back as (E, c) and is no tie, which "%.17g" itself rounds.  c = 0
    # and c = 1 leave 9 and 81 values, all tried; on 146 and 4 of the
    # exponents none of their doubles reads back so
    rnd = random.Random(1)
    hit = {}
    for E in range(-290, 291):
        for c in range(17) if E < 290 else [0]:
            ks = range(10 ** c, 10 ** (c + 1)) if c < 2 else \
                (rnd.randrange(10 ** c, 10 ** (c + 1)) for _ in range(1000))
            for k in ks:
                v = float(f"{k}e{E - c}")
                if k % 10 and v <= 1e290 and _cell(v) == (E, c) \
                        and not _is_tie(v):
                    hit[E, c] = v
                    break
    assert sum((E, 0) not in hit for E in range(-290, 291)) == 146
    assert [E for E in range(-290, 290) if (E, 1) not in hit] == \
        [-30, 127, 249, 260]
    assert all((E, c) in hit for E in range(-290, 290) for c in range(2, 17))
    # both signs, each in a last and a non-last column; none of them goes
    # to "%.17g" itself
    values = np.array(list(hit.values()))
    table = np.concatenate([np.stack([values, -values], axis=1),
                            np.stack([-values, values], axis=1)])
    calls = []
    monkeypatch.setattr(_util, "_cpython17", calls.append)
    text = b"".join(_util._blocks(table, 0, len(table)))
    assert calls == []
    assert text == _per_value(table)


def test_format17_raises_no_numpy_warning():
    # beside the specials: the fast range's edge binades and the values
    # next to them, the smallest normal and the largest subnormal
    low, high = (2.0 ** b for b in _util._FAST_BINADES)
    block = np.resize(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                                -2.5e-310, 1.5, 1e300, 1e-300,
                                low, -np.nextafter(low, 0.0),
                                np.nextafter(low * 2, 0.0), -low * 2,
                                high, -np.nextafter(high, 0.0),
                                np.nextafter(high * 2, 0.0), -high * 2,
                                2.2250738585072014e-308,
                                -2.225073858507201e-308]),
                      (512, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = _util._format17(block,
                               bytearray(_util._VALUE_BYTES * block.size))
    assert bytes(text) == _per_value(block)


@pytest.mark.parametrize("extra", sorted({
    -48, 48, 192, -_util._VALUE_BYTES, _util._VALUE_BYTES,
    _util._VALUE_BYTES * 4}))
def test_format17_refuses_a_workspace_of_another_size(extra):
    # a workspace not exactly _VALUE_BYTES a value could leak stale bytes:
    # whole values more or fewer, and the sizes of the 48-byte layout
    block = np.ones((3, 4))
    with pytest.raises(ValueError):
        _util._format17(block,
                        bytearray(_util._VALUE_BYTES * block.size + extra))


def test_write_csv_formats_in_one_pooled_workspace(tmp_path, monkeypatch):
    # tables of 1 to 18 columns, written in one process and forked, share
    # one workspace of one size; a forked write gives the one-process
    # bytes, and a one-process write allocates nothing per stage
    monkeypatch.setattr(_util, "_POOL", threading.local())
    _two_cpus(monkeypatch)
    forks = _count_forks(monkeypatch)
    ws = _util._workspace(1)
    arrays = [(a, a.nbytes) for a in (ws.lanes, ws.byte_lanes)]
    layout = (ws.layout, len(ws.layout))
    rng = np.random.default_rng(12)
    for rows, cols in [(1, 1), (25, 4), (8193, 4), (4097, 18), (65537, 6)]:
        table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(
            -20, 20, size=(rows, cols))
        path = tmp_path / f"{rows}x{cols}.csv"
        digest = _util.write_csv(path, "h", table)
        _assert_no_child()
        assert path.read_bytes() == b"h\n" + _per_value(table)
        assert digest == _file_sha256(path)
        if rows * cols >= _util._CSV_FORK_VALUES:
            assert forks == [1]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_util, "_two_cpus", lambda: False)
                one = tmp_path / "one.csv"
                assert _util.write_csv(one, "h", table) == digest
            assert one.read_bytes() == path.read_bytes()
        assert _util._workspace(1) is ws
        assert ws.values == _util._CSV_BLOCK_VALUES
        assert [(a, a.nbytes) for a in (ws.lanes, ws.byte_lanes)] == arrays
        assert (ws.layout, len(ws.layout)) == layout
    # a 65,537-sample pulse table, its t column in fixed notation with a
    # point.  After a warm-up write, the traced peak is one block's bytes
    # copy of the layout buffer, the translate's result, which starts as
    # long as its input, and the text of the block before, still being
    # written; the file's buffer and bookkeeping take less than one stage
    # array of 8 bytes a value
    t = np.linspace(0.0, 37.5, 65537)
    table = np.column_stack([t, np.sin(t), np.cos(t) * 1e-3, t * 1e-9])
    text = max(map(len, _util._blocks(table, 0, len(table))))
    monkeypatch.setattr(_util, "_two_cpus", lambda: False)
    _util.write_csv(tmp_path / "warm.csv", "t,a,b,c", table)
    tracemalloc.start()
    try:
        _util.write_csv(tmp_path / "pulse.csv", "t,a,b,c", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(ws.layout) + text + 8 * ws.values
    assert _util._workspace(1) is ws
