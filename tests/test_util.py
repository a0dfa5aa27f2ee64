import decimal
import hashlib
import json
import math
import os
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochtop import _util

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


# rows around the block size, and 511 to 513 and 1,027: at four columns the
# first three cross the smallest block _format17 takes, the last ends one
# block in a short remainder
@pytest.mark.parametrize("rows", sorted({
    0, 1, 511, 512, 513, 1027, _util._CSV_BLOCK_ROWS - 1,
    _util._CSV_BLOCK_ROWS, _util._CSV_BLOCK_ROWS + 1,
    2 * _util._CSV_BLOCK_ROWS + 3}))
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
    return _util._split(rows, _util._CSV_BLOCK_ROWS, rows * cols,
                        _util._CSV_FORK_VALUES)


def _first_forked_rows(cols: int) -> int:
    return -(-_util._CSV_FORK_VALUES // cols)


def _odd_block_rows(cols: int) -> int:
    # the fewest rows at or above the fork cutoff with an odd block count
    rows = _first_forked_rows(cols)
    blocks = -(-rows // _util._CSV_BLOCK_ROWS)
    return rows if blocks % 2 else blocks * _util._CSV_BLOCK_ROWS + 1


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
    assert split % _util._CSV_BLOCK_ROWS == 0 and split < rows
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
    assert written.count(b"\n") == 1 + _util._CSV_BLOCK_ROWS


def test_forked_write_child_failure_raises(tmp_path, monkeypatch):
    rows = 2 * _first_forked_rows(4)
    table = np.random.default_rng(5).normal(size=(rows, 4))
    parent = os.getpid()
    real = _util._blocks

    def failing(data, start, stop):
        if os.getpid() != parent:
            raise RuntimeError("child failed")
        return real(data, start, stop)

    _two_cpus(monkeypatch)
    monkeypatch.setattr(_util, "_blocks", failing)
    path = tmp_path / "t.csv"
    with pytest.raises(OSError, match=re.escape(str(path))):
        _util.write_csv(path, "a,b,c,d", table)
    _assert_no_child()


def test_failed_fork_closes_the_pipe_and_writes_nothing(tmp_path,
                                                         monkeypatch):
    pipes = []
    real = os.pipe

    def pipe():
        pipes.append(real())
        return pipes[-1]

    def fork():
        raise BlockingIOError("no process left")

    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    path = tmp_path / "t.csv"
    with pytest.raises(BlockingIOError):
        _util.write_csv(path, "a,b,c,d", np.ones((40_000, 4)))
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError):
            os.fstat(fd)
    _assert_no_child()
    assert not path.exists()


def test_forked_writer_without_go_byte_writes_nothing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    table = np.ones((2 * _util._CSV_BLOCK_ROWS, 2))
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the exit _util._forked makes of _child's return; a raise exits
        # 3, so the test never runs on in the child
        try:
            os._exit(0 if _util._child(r, w, path, table,
                                       _util._CSV_BLOCK_ROWS) else 1)
        finally:
            os._exit(3)
    os.close(r)
    os.close(w)            # as a parent that raised or died does
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
    _assert_no_child()
    assert path.read_text() == "a,b\n"


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
# rows around the block size, and 511, 512 and 1025
_BLOCK_CROSSING_ROWS = sorted({
    _util._CSV_BLOCK_ROWS - 1, _util._CSV_BLOCK_ROWS,
    _util._CSV_BLOCK_ROWS + 1, 2 * _util._CSV_BLOCK_ROWS + 3,
    511, 512, 1025})


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(_BLOCK_CROSSING_ROWS), st.integers(1, 6),
       st.lists(_BITS_OR_FLOATS, min_size=1, max_size=300), st.randoms())
def test_write_csv_matches_per_value_format_across_blocks(
        rows, cols, values, rnd):
    # the drawn values, shuffled over a table of one or more blocks, the
    # last of them full or shorter
    cells = [values[i % len(values)] for i in range(rows * cols)]
    rnd.shuffle(cells)
    table = np.array(cells, dtype=float).reshape(rows, cols)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _util.write_csv(path, "h", table)
        assert path.read_bytes() == b"h\n" + _per_value(table)


# the digest write_csv returns is the sha256 of the bytes it wrote, on the
# one-process path and on the forked one, whose tail a child appends


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(_BLOCK_CROSSING_ROWS), st.integers(1, 6),
       st.lists(_BITS_OR_FLOATS, min_size=1, max_size=50),
       st.sampled_from(["", "h", "a,b"]), st.booleans())
def test_write_csv_returns_the_sha256_of_its_bytes(rows, cols, values,
                                                   header, forked):
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
        assert len(forks) == (forked and rows > _util._CSV_BLOCK_ROWS)
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
        mp.setattr(_util, "_CSV_BLOCK_ROWS", block_rows)
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
    # a tail of several read chunks, hashed only once the child has exited
    rows = 2 * _first_forked_rows(4)
    table = np.random.default_rng(9).normal(size=(rows, 4))
    tails = []
    real = _util._hash_tail

    def hash_tail(path, start, digest):
        _assert_no_child()
        tails.append(start)
        real(path, start, digest)

    _two_cpus(monkeypatch)
    monkeypatch.setattr(_util, "_hash_tail", hash_tail)
    digest = _util.write_csv(tmp_path / "t.csv", "a,b,c,d", table)
    size = (tmp_path / "t.csv").stat().st_size
    assert len(tails) == 1 and 0 < tails[0] < size - 4 * _util._READ_CHUNK
    assert digest == _file_sha256(tmp_path / "t.csv")


def test_failed_forked_writer_raises_before_any_digest(tmp_path,
                                                        monkeypatch):
    rows = 2 * _first_forked_rows(4)
    table = np.ones((rows, 4))
    parent = os.getpid()
    real = _util._blocks

    def failing(data, start, stop):
        if os.getpid() != parent:
            raise RuntimeError("child failed")
        return real(data, start, stop)

    def hash_tail(path, start, digest):
        raise AssertionError("hashed the tail of a failed child")

    _two_cpus(monkeypatch)
    monkeypatch.setattr(_util, "_blocks", failing)
    monkeypatch.setattr(_util, "_hash_tail", hash_tail)
    with pytest.raises(OSError, match="forked writer"):
        _util.write_csv(tmp_path / "t.csv", "a,b,c,d", table)
    _assert_no_child()


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
    assert bytes(_util._format17(block, bytearray(48 * block.size))) == \
        _per_value(block)


def test_pow10_table_is_double_double_exact():
    hi, lo = _util._pow10()
    for i, k in enumerate(range(_util._POW10_MIN, _util._POW10_MAX + 1)):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi[i]) + Fraction(lo[i]) - exact) \
            <= exact * Fraction(1, 2 ** 104), k
        assert hi[i] == float(exact)


def test_format17_raises_no_numpy_warning():
    block = np.resize(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                                -2.5e-310, 1.5, 1e300, 1e-300]),
                      (512, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = _util._format17(block, bytearray(48 * block.size))
    assert bytes(text) == _per_value(block)


@pytest.mark.parametrize("extra", [-48, 48, 48 * 4])
def test_format17_refuses_a_workspace_of_another_size(extra):
    # a workspace not exactly 48 bytes a value could leak stale bytes
    block = np.ones((3, 4))
    with pytest.raises(ValueError):
        _util._format17(block, bytearray(48 * block.size + extra))
