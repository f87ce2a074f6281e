"""Reading and writing point clouds.

Two formats:

* ``xyz``  -- UTF-8 text, one point per line, three whitespace-separated
  floats; lines starting with ``#`` and blank lines are ignored, and so
  is a leading byte-order mark. numpy's C reader parses the records; a
  file it does not read as finite x, y, z rows goes through a line loop
  that finds the first faulty line. Either way each token reads as
  Python's ``float`` reads it.
* ``bin``  -- magic ``GCPC``, u32 little-endian version (=1), u32
  little-endian point count, then count x 3 little-endian f32 triples.
"""

from __future__ import annotations

import math
import struct
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
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec's position counts the bytes after any byte-order mark
        line = len(_lines(exc.object[: exc.start].decode("utf-8")))
        byte = exc.object[exc.start]
        raise ParseError(f"not UTF-8 text: byte 0x{byte:02x}", path=path, line=line) from None
    lines = _lines(text)
    records = [line for line in lines if not line.lstrip().startswith("#")] if "#" in text else lines
    xyz = None
    # loadtxt warns on text without data, so it reads only text with a record
    if "".join(records).strip():
        try:
            # numpy's C reader rounds each token as Python's float does
            xyz = np.loadtxt(records, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if xyz is None or xyz.shape[1] != 3 or not xyz.size or not np.isfinite(xyz).all():
        xyz = _parse_lines(path, lines)
    return PointCloud(xyz)


def _lines(text: str) -> list[str]:
    """The lines a text-mode file iterator reads: CR LF and a lone CR end a
    line as LF does, and nothing else does."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _parse_lines(path: Path, lines: list[str]) -> np.ndarray:
    """The points of the record lines, one line at a time by Python's float;
    the EmptyFileError of a file without records, or the ParseError of the
    first faulty record line."""
    rows = []
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
        rows.append(xyz)
    if not rows:
        raise EmptyFileError(f"{path}: no point records")
    return np.array(rows, dtype=np.float64)


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
