"""Reading and writing point clouds.

Two formats:

* ``xyz``  -- UTF-8 text, one point per line, three whitespace-separated
  floats; lines starting with ``#`` and blank lines are ignored, and so
  is a leading byte-order mark.
* ``bin``  -- magic ``GCPC``, u32 little-endian version (=1), u32
  little-endian point count, then count x 3 little-endian f32 triples.
"""

from __future__ import annotations

import math
import struct
from itertools import chain, compress, repeat
from pathlib import Path

import numpy as np

from .cloud import PointCloud
from .errors import EmptyFileError, ParseError

MAGIC = b"GCPC"
BINARY_VERSION = 1
_HEADER = struct.Struct("<II")  # version, count
F4_MAX = float(np.finfo(np.float32).max)

FORMAT_XYZ = "xyz"
FORMAT_BINARY = "bin"
FORMATS = (FORMAT_XYZ, FORMAT_BINARY)


def sniff_format(path) -> str:
    """Decide the on-disk format from the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    return FORMAT_BINARY if head == MAGIC else FORMAT_XYZ


def read_cloud(path, fmt: str = "auto") -> PointCloud:
    path = Path(path)
    if fmt == "auto":
        fmt = sniff_format(path)
    if fmt == FORMAT_XYZ:
        return _read_xyz(path)
    if fmt == FORMAT_BINARY:
        return _read_binary(path)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def write_cloud(cloud: PointCloud, path, fmt: str = FORMAT_XYZ) -> None:
    path = Path(path)
    if fmt == FORMAT_XYZ:
        lines = [f"{x:.9g} {y:.9g} {z:.9g}" for x, y, z in cloud.points]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == FORMAT_BINARY:
        if np.abs(cloud.points).max() > F4_MAX:
            raise ValueError(f"coordinate beyond float32's largest finite value {F4_MAX:.9g}")
        payload = cloud.points.astype("<f4").tobytes()
        path.write_bytes(MAGIC + _HEADER.pack(BINARY_VERSION, cloud.size) + payload)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _read_xyz(path: Path) -> PointCloud:
    # the file iterator's lines: newlines translated, split on "\n" alone
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    fields = list(map(str.split, lines))
    count = np.fromiter(map(len, fields), np.intp, len(fields))
    comment = np.fromiter(map(str.startswith, map(str.lstrip, lines), repeat("#")), bool, len(lines))
    record = (count > 0) & ~comment
    if not record.any():
        raise EmptyFileError(f"{path}: no point records")
    try:
        if (count[record] != 3).any():
            raise ValueError
        # every token in one pass, by Python's float
        xyz = np.fromiter(map(float, chain.from_iterable(compress(fields, record))), np.float64)
        if not np.isfinite(xyz).all():
            raise ValueError
    except ValueError:
        _raise_first_fault(path, lines)
    return PointCloud(xyz.reshape(-1, 3))


def _raise_first_fault(path: Path, lines: list[str]) -> None:
    """Raise the ParseError of the first faulty record line."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise ParseError(f"expected 3 coordinates, got {len(tokens)}", path=path, line=lineno)
        try:
            xyz = [float(t) for t in tokens]
        except ValueError:
            raise ParseError("non-numeric coordinate", path=path, line=lineno) from None
        if not all(map(math.isfinite, xyz)):
            raise ParseError("non-finite coordinate", path=path, line=lineno)
    raise AssertionError("no faulty line found")


def _read_binary(path: Path) -> PointCloud:
    data = path.read_bytes()
    if len(data) < 4 or data[:4] != MAGIC:
        raise ParseError("bad magic; not a GCPC file", path=path, offset=0)
    if len(data) < 4 + _HEADER.size:
        raise ParseError("truncated header", path=path, offset=len(data))
    version, count = _HEADER.unpack_from(data, 4)
    if version != BINARY_VERSION:
        raise ParseError(f"unsupported version {version}", path=path, offset=4)
    if count == 0:
        raise EmptyFileError(f"{path}: zero point records")
    need = 4 + _HEADER.size + 12 * count
    if len(data) < need:
        raise ParseError(
            f"truncated: header promises {count} points, data ends early",
            path=path,
            offset=len(data),
        )
    if len(data) > need:
        raise ParseError("trailing bytes after point data", path=path, offset=need)
    pts = np.frombuffer(data, dtype="<f4", offset=12, count=3 * count)
    pts = pts.reshape(count, 3).astype(np.float64)
    if not np.isfinite(pts).all():
        raise ParseError("non-finite coordinate in payload", path=path, offset=12)
    return PointCloud(pts)
