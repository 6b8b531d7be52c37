"""Binary state snapshots (format WBSNAP1).

Layout, all multi-byte values little endian:

    bytes 0..6   magic "WBSNAP1" (ASCII)
    byte  7      dim (uint8, 1 or 2)
    next         n per axis, uint32 each
    next         L per axis, float64 each
    next         time, float64
    next         the state's (1 + dim, *n) samples (``WaveState.samples``),
                 float64, row major: eta, then one block per velocity
                 component (v in 1D; v1 then v2 in 2D)
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .spectral import Grid, SpectralError
from .state import WaveState

MAGIC = b"WBSNAP1"


class SnapshotError(ValueError):
    pass


def write_snapshot(path, state: WaveState) -> None:
    """Write ``state`` to ``path``, a file name or a binary file open for
    writing."""
    if not hasattr(path, "write"):
        with open(path, "wb") as fh:
            return write_snapshot(fh, state)
    fh, grid = path, state.grid
    fh.write(MAGIC)
    fh.write(struct.pack("<B", grid.dim))
    fh.write(struct.pack(f"<{grid.dim}I", *grid.n))
    fh.write(struct.pack(f"<{grid.dim}d", *grid.length))
    fh.write(struct.pack("<d", state.time))
    fh.write(np.ascontiguousarray(state.samples, dtype="<f8").tobytes())


def read_snapshot(path) -> WaveState:
    """The state stored at ``path``; a file that cannot be read or is not a
    whole snapshot of a valid state is a SnapshotError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if data[:7] != MAGIC:
        raise SnapshotError(f"snapshot {path}: bad magic {data[:7]!r}, expected {MAGIC!r}")
    try:
        (dim,) = struct.unpack_from("<B", data, 7)
        if dim not in (1, 2):
            raise SnapshotError(f"snapshot {path}: bad dimension {dim}")
        n = struct.unpack_from(f"<{dim}I", data, 8)
        length = struct.unpack_from(f"<{dim}d", data, 8 + 4 * dim)
        (time,) = struct.unpack_from("<d", data, 8 + 12 * dim)
    except struct.error:
        raise SnapshotError(f"snapshot {path} ends inside its header") from None
    if not math.isfinite(time):
        raise SnapshotError(f"snapshot {path}: non-finite time {time}")
    try:
        grid = Grid(n, length)
    except SpectralError as exc:
        raise SnapshotError(f"snapshot {path}: invalid grid: {exc}") from exc
    raw = data[8 + 12 * dim + 8 :]  # the payload follows the time
    shape = (1 + dim, *grid.shape)
    expected = math.prod(shape) * 8
    if len(raw) != expected:
        raise SnapshotError(f"snapshot {path}: payload has {len(raw)} bytes, expected {expected}")
    try:
        return WaveState(grid, np.frombuffer(raw, dtype="<f8").reshape(shape), time=time)
    except SpectralError as exc:
        raise SnapshotError(f"snapshot {path} holds an invalid state: {exc}") from exc
