"""Small shared helpers: CSV and JSON writing, digests, angle wrapping."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


# rows per formatted block: from 128 to 4096 rows the write time is flat,
# and the peak memory of long-pulse runs is 0.1 MiB higher above 512
_CSV_BLOCK_ROWS = 512


def write_csv(path, header: str, data) -> None:
    """Header line, then the rows of a 2-D float array, comma separated.

    The bytes are fixed: every value is written as "%.17g" % value, the
    bytes numpy's savetxt writes with fmt="%.17g", delimiter=",",
    comments="" and this header.  Each block of _CSV_BLOCK_ROWS rows is
    formatted by one string % tuple and written at once.
    """
    data = np.asarray(data, dtype=float)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for i in range(0, len(data), _CSV_BLOCK_ROWS):
            block = data[i:i + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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
