import struct

import numpy as np
import pytest

from wbwaves.presets import random_bandlimited
from wbwaves.snapshot import MAGIC, SnapshotError, read_snapshot, write_snapshot
from wbwaves.spectral import Grid


def test_round_trip_1d(tmp_path):
    g = Grid(64, 5.0)
    st = random_bandlimited(g, seed=1, band=6, amplitude=0.3)
    path = tmp_path / "state.wbsnap"
    write_snapshot(path, st)
    back = read_snapshot(path)
    assert back.grid == g
    assert back.time == st.time
    assert np.array_equal(back.samples, st.samples)


def test_round_trip_2d(tmp_path):
    g = Grid((16, 32), (6.0, 7.0))
    st = random_bandlimited(g, seed=2, band=4, amplitude=0.2)
    path = tmp_path / "state2d.wbsnap"
    write_snapshot(path, st)
    back = read_snapshot(path)
    assert back.grid == g
    assert np.array_equal(back.samples, st.samples)


def test_header_layout(tmp_path):
    g = Grid(16, 3.0)
    st = random_bandlimited(g, seed=3, band=4, amplitude=0.1)
    path = tmp_path / "h.wbsnap"
    write_snapshot(path, st)
    raw = path.read_bytes()
    assert raw[:7] == MAGIC
    assert raw[7] == 1  # dim
    assert struct.unpack("<I", raw[8:12])[0] == 16
    assert struct.unpack("<d", raw[12:20])[0] == 3.0
    assert struct.unpack("<d", raw[20:28])[0] == st.time
    # payload: the (2, 16) float64 samples
    assert len(raw) == 28 + 2 * 16 * 8
    back = read_snapshot(path)
    assert (back.grid.dim, back.grid.n, back.grid.length) == (1, (16,), (3.0,))
    assert back.time == st.time


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.wbsnap"
    path.write_bytes(b"NOTSNAP" + b"\x01" + b"\x00" * 64)
    with pytest.raises(SnapshotError, match="bad.wbsnap: bad magic"):
        read_snapshot(path)


def test_truncated_payload_rejected(tmp_path):
    g = Grid(16)
    st = random_bandlimited(g, seed=4, band=4, amplitude=0.1)
    path = tmp_path / "trunc.wbsnap"
    write_snapshot(path, st)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(SnapshotError, match="trunc.wbsnap: payload"):
        read_snapshot(path)


@pytest.mark.parametrize("offset, fmt, value", [
    (20, "<d", float("nan")), (20, "<d", float("inf")), (8, "<I", 15), (12, "<d", float("nan")),
    (12, "<d", 0.0),
], ids=["time_nan", "time_inf", "odd_n", "length_nan", "length_zero"])
def test_bad_header_is_a_snapshot_error_naming_the_file(tmp_path, offset, fmt, value):
    """A non-finite time or an invalid grid in the header is a SnapshotError
    that names the file, not a state with a NaN time or a SpectralError."""
    path = tmp_path / "bad_header.wbsnap"
    write_snapshot(path, random_bandlimited(Grid(16), seed=5, band=4, amplitude=0.1))
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="bad_header.wbsnap"):
        read_snapshot(path)
