"""Small shared helpers: CSV and JSON writing, digests, angle wrapping."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def write_csv(path, header: str, data) -> None:
    """Header line, then the rows of a 2-D float array as %.17g values."""
    np.savetxt(path, data, fmt="%.17g", delimiter=",", comments="",
               header=header)


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
