import struct

import numpy as np
import pytest

from geocd import EmptyFileError, ParseError, PointCloud, read_cloud, write_cloud
from geocd.io import FORMAT_BINARY, FORMAT_XYZ, MAGIC, sniff_format


def test_basic_xyz_parse(tmp_path):
    f = tmp_path / "two.xyz"
    f.write_text("0 0 0\n1 0 0\n")
    cloud = read_cloud(f)
    assert cloud.size == 2
    assert np.array_equal(cloud.points, [[0, 0, 0], [1, 0, 0]])


def test_xyz_comments_and_blank_lines(tmp_path):
    f = tmp_path / "c.xyz"
    f.write_text("# header\n\n0.5 0.25 -1\n   \n# trailing\n1 2 3\n")
    cloud = read_cloud(f)
    assert cloud.size == 2
    assert np.array_equal(cloud.points, [[0.5, 0.25, -1], [1, 2, 3]])


def test_xyz_wrong_field_count(tmp_path):
    f = tmp_path / "bad.xyz"
    f.write_text("0 0\n")
    with pytest.raises(ParseError) as exc:
        read_cloud(f)
    assert exc.value.line == 1


def test_xyz_non_numeric(tmp_path):
    f = tmp_path / "bad.xyz"
    f.write_text("0 0 0\n1 two 3\n")
    with pytest.raises(ParseError) as exc:
        read_cloud(f)
    assert exc.value.line == 2


def test_xyz_non_finite(tmp_path):
    f = tmp_path / "bad.xyz"
    for value in ("nan", "inf", "-inf", "Infinity", "1e999"):
        f.write_text(f"# header\n0 0 0\n\n0 {value} 0\n1 1 1\n")
        with pytest.raises(ParseError, match="non-finite coordinate") as exc:
            read_cloud(f)
        assert exc.value.line == 4


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("0 0 0\n1 2\n1 x 3\nnan 1 1\n", 2, "expected 3 coordinates, got 2"),
        ("0 0 0\n1 x 3\n1 2\nnan 1 1\n", 2, "non-numeric coordinate"),
        ("# c\n\nnan 1 1\n1 x 3\n1 2\n", 3, "non-finite coordinate"),
        ("0 0 0\n1 2 3 # note\n", 2, "expected 3 coordinates, got 5"),  # no inline comments
        ("0 0 0\r1 2 3\r\n4 5 x\n", 3, "non-numeric coordinate"),  # \r and \r\n end lines
        ("0 0 0\x0b1 2 3\n", 1, "expected 3 coordinates, got 6"),  # \x0b does not
    ],
)
def test_xyz_reports_the_first_faulty_line(tmp_path, text, line, message):
    f = tmp_path / "bad.xyz"
    f.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError, match=message) as exc:
        read_cloud(f)
    assert exc.value.line == line


def test_xyz_byte_order_mark(tmp_path):
    text = "# header\n0.5 0.25 -1\n1 2 3\n"
    plain, bom = tmp_path / "plain.xyz", tmp_path / "bom.xyz"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert np.array_equal(read_cloud(bom).points, read_cloud(plain).points)
    # the mark shifts no line number
    bom.write_text("0 0 0\n1 two 3\n", encoding="utf-8-sig")
    with pytest.raises(ParseError) as exc:
        read_cloud(bom)
    assert exc.value.line == 2


def test_empty_file(tmp_path):
    f = tmp_path / "empty.xyz"
    f.write_text("# only a comment\n")
    with pytest.raises(EmptyFileError):
        read_cloud(f)


def test_binary_roundtrip_bit_identical(tmp_path, rng):
    # coordinates representable in f32, so the payload loses nothing
    pts = rng.random((100, 3)).astype(np.float32).astype(np.float64)
    cloud = PointCloud(pts)
    f = tmp_path / "c.bin"
    write_cloud(cloud, f, FORMAT_BINARY)
    back = read_cloud(f)
    assert np.array_equal(back.points, cloud.points)


def test_text_roundtrip_precision(tmp_path, rng):
    cloud = PointCloud(rng.random((100, 3)))
    f = tmp_path / "c.xyz"
    write_cloud(cloud, f, FORMAT_XYZ)
    back = read_cloud(f)
    assert np.abs(back.points - cloud.points).max() < 1e-8


def test_binary_truncation_offset(tmp_path):
    pts = np.arange(9, dtype=np.float64).reshape(3, 3)
    f = tmp_path / "c.bin"
    write_cloud(PointCloud(pts), f, FORMAT_BINARY)
    data = f.read_bytes()
    # header claims 3 points but only 2 records follow
    truncated = data[: 12 + 2 * 12]
    f.write_bytes(truncated)
    with pytest.raises(ParseError) as exc:
        read_cloud(f)
    assert exc.value.offset == len(truncated)


def test_binary_bad_magic(tmp_path):
    f = tmp_path / "c.bin"
    f.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\0" * 12)
    with pytest.raises(ParseError) as exc:
        read_cloud(f, FORMAT_BINARY)
    assert exc.value.offset == 0


def test_binary_bad_version(tmp_path):
    f = tmp_path / "c.bin"
    f.write_bytes(MAGIC + struct.pack("<II", 9, 1) + b"\0" * 12)
    with pytest.raises(ParseError) as exc:
        read_cloud(f)
    assert exc.value.offset == 4


def test_binary_trailing_bytes(tmp_path):
    f = tmp_path / "c.bin"
    f.write_bytes(MAGIC + struct.pack("<II", 1, 1) + b"\0" * 12 + b"junk")
    with pytest.raises(ParseError):
        read_cloud(f)


def test_binary_zero_points(tmp_path):
    f = tmp_path / "c.bin"
    f.write_bytes(MAGIC + struct.pack("<II", 1, 0))
    with pytest.raises(EmptyFileError):
        read_cloud(f)


def test_write_to_unwritable_path(tmp_path, rng):
    cloud = PointCloud(rng.random((4, 3)))
    # a directory is not a writable file target (works even when run as root,
    # where permission bits would be ignored)
    with pytest.raises(OSError):
        write_cloud(cloud, tmp_path, FORMAT_XYZ)
    with pytest.raises(OSError):
        write_cloud(cloud, tmp_path / "missing" / "c.xyz", FORMAT_XYZ)


def test_sniff_and_auto_format(tmp_path, rng):
    cloud = PointCloud(rng.random((5, 3)).astype(np.float32).astype(np.float64))
    xyz, binary = tmp_path / "c.xyz", tmp_path / "c.bin"
    write_cloud(cloud, xyz, FORMAT_XYZ)
    write_cloud(cloud, binary, FORMAT_BINARY)
    assert sniff_format(xyz) == FORMAT_XYZ
    assert sniff_format(binary) == FORMAT_BINARY
    assert np.array_equal(read_cloud(binary, "auto").points, cloud.points)
