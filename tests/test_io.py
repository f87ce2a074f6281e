import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "data,line,byte",
    [
        (b"0 0 \xff 1\n", 1, "0xff"),
        (b"0 0 0\n1 1 1\n# \xe9t\xe9\n", 3, "0xe9"),  # Latin-1, in a comment
        (b"\xef\xbb\xbf0 0 0\r\n1 1 1\r2 2 \xc3", 3, "0xc3"),  # cut short, after a mark
    ],
)
def test_xyz_that_is_not_utf8(tmp_path, data, line, byte):
    f = tmp_path / "latin.xyz"
    f.write_bytes(data)
    with pytest.raises(ParseError, match=f"latin.xyz:{line}: not UTF-8 text: byte {byte}$") as exc:
        read_cloud(f)
    assert exc.value.line == line


def reference_read(data: bytes):
    """The points of an xyz file, read line by line with ``float`` per
    token, or the (class, line, message) of the error it is."""
    rows = []
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 3:
            return ParseError, lineno, f"expected 3 coordinates, got {len(tokens)}"
        try:
            xyz = [float(t) for t in tokens]
        except ValueError:
            return ParseError, lineno, "non-numeric coordinate"
        if not all(map(math.isfinite, xyz)):
            return ParseError, lineno, "non-finite coordinate"
        rows.append(xyz)
    return np.array(rows) if rows else (EmptyFileError, None, "no point records")


# tokens of well-formed records, and tokens that only float reads, or nothing reads
NUMBERS = ("0", "-0", "+1", "-2.5", ".5", "7.", "1e3", "-4.5E-7", "1e-320")
NUMBERS += ("2.4703282292062328e-324", "9007199254740993")
ODD = ("1_000", "-2_5.0_1", "\u0661\u0662", "\u0663.\u0665e1", "nan", "-inf", "1e999")
ODD += ("x", "0x10", "#", "#3")
SPACE = (" ", "  ", "\t", "\x0b", "\x0c", "\x1f", "\xa0", "\u2003", "\x85")
number = st.one_of(
    st.sampled_from(NUMBERS), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)


@st.composite
def xyz_line(draw):
    """A record, mostly well-formed; an odd line; a comment; or a blank line."""
    kind = draw(st.sampled_from(("record",) * 6 + ("odd", "comment", "blank")))
    lead = draw(st.sampled_from(("",) + SPACE))
    if kind == "blank":
        return lead
    if kind == "comment":
        return lead + "#" + draw(st.sampled_from(("", " header", " 1 2 3")))
    n = 3 if kind == "record" else draw(st.sampled_from((2, 3, 3, 4)))
    tokens = draw(st.lists(number, min_size=n, max_size=n))
    if kind == "odd":
        tokens[draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD))
    gaps = draw(st.lists(st.sampled_from(SPACE), min_size=n - 1, max_size=n - 1))
    line = lead + "".join(t + g for t, g in zip(tokens, gaps + [""]))
    return line + draw(st.sampled_from(("", " ") + (" # note",) * (kind == "odd")))


@st.composite
def xyz_file(draw):
    lines = draw(st.lists(xyz_line(), max_size=10))
    n = len(lines)
    ends = draw(st.lists(st.sampled_from(("\n", "\n", "\r", "\r\n")), min_size=n, max_size=n))
    mark = draw(st.sampled_from(("", "", "\ufeff")))
    return (mark + "".join(a + b for a, b in zip(lines, ends))).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(data=xyz_file())
@example(data=b"1 2 3\n4_0 5 6\n")  # a token that only float reads
@example(data=b"\xef\xbb\xbf1\xc2\xa02\xe2\x80\x833\r\n# c\r\n\r\n4 5 6 ")
@example(data=b"1 2 3\n\xc2\xa0\n")  # a line of Unicode space is blank
def test_xyz_reads_what_float_reads_line_by_line(tmp_path_factory, data):
    f = tmp_path_factory.getbasetemp() / "fuzz.xyz"
    f.write_bytes(data)
    want = reference_read(data)
    if isinstance(want, np.ndarray):
        got = read_cloud(f).points
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        return
    cls, line, message = want
    with pytest.raises(cls) as exc:
        read_cloud(f)
    assert str(exc.value).endswith(message)
    assert getattr(exc.value, "line", None) == line


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
