"""Binary state snapshots (format WBSNAP1).

Layout, all multi-byte values little endian:

    bytes 0..6   magic "WBSNAP1" (ASCII)
    byte  7      dim (uint8, 1 or 2)
    next         n per axis, uint32 each
    next         L per axis, float64 each
    next         time, float64
    next         eta samples, float64, row major
    next         velocity component samples, float64, row major,
                 one block per component (v in 1D; v1 then v2 in 2D)
"""

from __future__ import annotations

import struct

import numpy as np

from .spectral import Field, Grid, SpectralError
from .state import WaveState

MAGIC = b"WBSNAP1"


class SnapshotError(ValueError):
    pass


def write_snapshot(path, state: WaveState) -> None:
    grid = state.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *grid.n))
        fh.write(struct.pack(f"<{grid.dim}d", *grid.length))
        fh.write(struct.pack("<d", state.time))
        fh.write(np.ascontiguousarray(state.eta.values, dtype="<f8").tobytes())
        for comp in state.vel:
            fh.write(np.ascontiguousarray(comp.values, dtype="<f8").tobytes())


def read_snapshot(path) -> WaveState:
    """The state stored at ``path``; a file that cannot be read or is not a
    whole snapshot of a valid state is a SnapshotError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if data[:7] != MAGIC:
        raise SnapshotError(f"bad magic {data[:7]!r}, expected {MAGIC!r}")
    try:
        (dim,) = struct.unpack_from("<B", data, 7)
        if dim not in (1, 2):
            raise SnapshotError(f"bad dimension {dim}")
        n = struct.unpack_from(f"<{dim}I", data, 8)
        length = struct.unpack_from(f"<{dim}d", data, 8 + 4 * dim)
        (time,) = struct.unpack_from("<d", data, 8 + 12 * dim)
    except struct.error:
        raise SnapshotError(f"snapshot {path} ends inside its header") from None
    grid = Grid(n, length)
    count = int(np.prod(grid.n))
    raw = data[8 + 12 * dim + 8 :]  # the payload follows the time
    expected = count * (1 + dim) * 8
    if len(raw) != expected:
        raise SnapshotError(f"payload has {len(raw)} bytes, expected {expected}")
    flat = np.frombuffer(raw, dtype="<f8")
    blocks = [flat[i * count : (i + 1) * count].reshape(grid.shape) for i in range(1 + dim)]
    try:
        eta = Field(grid, blocks[0])
        vel = tuple(Field(grid, b) for b in blocks[1:])
        return WaveState(eta, vel, time=time)
    except SpectralError as exc:
        raise SnapshotError(f"snapshot holds an invalid state: {exc}") from exc
