import os
import re
import tempfile
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


@pytest.mark.parametrize("rows", [0, 1, _util._CSV_BLOCK_ROWS - 1,
                                  _util._CSV_BLOCK_ROWS,
                                  _util._CSV_BLOCK_ROWS + 1,
                                  2 * _util._CSV_BLOCK_ROWS + 3])
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


# the forked writer: a child formats the rows from _split_row on


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
    split = _util._split_row(rows, cols)
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
    table = _special_table(rows, 4, _util._split_row(rows, 4))
    parent = os.getpid()
    real = _util._blocks

    def failing(data, row, start, stop):
        blocks = real(data, row, start, stop)
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

    def failing(data, row, start, stop):
        if os.getpid() != parent:
            raise RuntimeError("child failed")
        return real(data, row, start, stop)

    _two_cpus(monkeypatch)
    monkeypatch.setattr(_util, "_blocks", failing)
    path = tmp_path / "t.csv"
    with pytest.raises(OSError, match=re.escape(str(path))):
        _util.write_csv(path, "a,b,c,d", table)
    _assert_no_child()


def test_forked_writer_without_go_byte_writes_nothing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    table = np.ones((2 * _util._CSV_BLOCK_ROWS, 2))
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            _util._child(r, w, path, table, "%.17g,%.17g\n",
                         _util._CSV_BLOCK_ROWS)
        finally:
            os._exit(3)    # _child returned: never let the test run on
    os.close(r)
    os.close(w)            # as a parent that raised or died does
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
    _assert_no_child()
    assert path.read_text() == "a,b\n"


@pytest.mark.parametrize("host", ["one-cpu", "no-fork"])
def test_one_process_hosts_write_without_forking(tmp_path, monkeypatch,
                                                 host):
    if host == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
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
