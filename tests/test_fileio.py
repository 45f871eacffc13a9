"""Round-trip and corruption tests for the file formats."""

import csv
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roisolve.errors import FileFormatError, ParameterError, ShapeError
from roisolve.fileio import (
    PGM_MAXVAL,
    RAW_KIND_COMPLEX,
    RAW_KIND_REAL,
    format_float,
    read_manifest,
    read_pgm16,
    read_raster,
    read_raw_matrix,
    sniff_raster,
    write_manifest,
    write_pgm16,
    write_raw_matrix,
    write_table_csv,
)


# ---------------------------------------------------------------------------
# raw matrices


def test_raw_real_round_trip(tmp_path, rng):
    path = tmp_path / "m.raw"
    m = rng.normal(size=(5, 7)) * 1e3
    write_raw_matrix(path, m)
    back = read_raw_matrix(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, m)


def test_raw_complex_round_trip(tmp_path, rng):
    path = tmp_path / "m.raw"
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    write_raw_matrix(path, m)
    back = read_raw_matrix(path)
    assert back.dtype == np.complex128
    np.testing.assert_array_equal(back, m)


@pytest.mark.parametrize("complex_data", [False, True])
def test_raw_read_gives_writable_arrays(tmp_path, rng, complex_data):
    # the payload is read straight into the array the caller gets
    m = rng.normal(size=(3, 4)) + (1j * rng.normal(size=(3, 4)) if complex_data else 0)
    write_raw_matrix(tmp_path / "m.raw", m)
    write_pgm16(tmp_path / "m.pgm", np.abs(m))
    for back in (read_raw_matrix(tmp_path / "m.raw"), read_pgm16(tmp_path / "m.pgm")):
        assert back.flags.writeable and back.flags.c_contiguous
        back[0, 0] = 1.0
        assert back[0, 0] == 1.0


def test_raw_two_by_three_layout(tmp_path):
    # one ascii header line, then exactly 2*3*8 = 48 payload bytes
    path = tmp_path / "m.raw"
    write_raw_matrix(path, np.arange(6, dtype=float).reshape(2, 3))
    blob = path.read_bytes()
    header, _, payload = blob.partition(b"\n")
    assert header == f"2 3 {RAW_KIND_REAL}".encode()
    assert len(payload) == 48
    assert len(blob) == len(header) + 1 + 48


def test_raw_complex_header_kind(tmp_path):
    path = tmp_path / "m.raw"
    write_raw_matrix(path, np.zeros((1, 2), dtype=complex))
    assert path.read_bytes().startswith(f"1 2 {RAW_KIND_COMPLEX}\n".encode())


def test_raw_empty_matrix(tmp_path):
    path = tmp_path / "m.raw"
    write_raw_matrix(path, np.zeros((0, 3)))
    assert read_raw_matrix(path).shape == (0, 3)


def test_raw_rejects_non_2d(tmp_path):
    with pytest.raises(ShapeError):
        write_raw_matrix(tmp_path / "m.raw", np.zeros(4))


def test_raw_header_errors(tmp_path):
    path = tmp_path / "m.raw"
    path.write_bytes(b"garbage\n")
    with pytest.raises(FileFormatError):
        read_raw_matrix(path)
    path.write_bytes(b"2 3 float32\n" + b"\0" * 24)
    with pytest.raises(FileFormatError, match="unknown raw kind"):
        read_raw_matrix(path)
    path.write_bytes(b"x y real64\n")
    with pytest.raises(FileFormatError, match="not integers"):
        read_raw_matrix(path)
    path.write_bytes(b"-2 3 real64\n")
    with pytest.raises(FileFormatError, match="negative"):
        read_raw_matrix(path)
    path.write_bytes(b"no newline at all")
    with pytest.raises(FileFormatError, match="header line"):
        read_raw_matrix(path)


def test_raw_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "m.raw"
    write_raw_matrix(path, np.ones((2, 3)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError) as err:
        read_raw_matrix(path)
    assert err.value.offset == blob.index(b"\n") + 1


def test_raw_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.raw"
    write_raw_matrix(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FileFormatError, match="payload"):
        read_raw_matrix(path)


# ---------------------------------------------------------------------------
# PGM previews


def test_pgm_round_trip_prescaled(tmp_path):
    # when the peak already sits at the maxval the quantization is exact
    path = tmp_path / "i.pgm"
    img = np.array([[0.0, 32768.0], [16384.0, 65535.0]])
    write_pgm16(path, img)
    np.testing.assert_array_equal(read_pgm16(path), img)


def test_pgm_rescales_to_maxval(tmp_path):
    path = tmp_path / "i.pgm"
    img = np.array([[0.0, 25.0], [50.0, 100.0]])
    write_pgm16(path, img)
    back = read_pgm16(path)
    expect = np.floor(img * (PGM_MAXVAL / 100.0) + 0.5)
    np.testing.assert_array_equal(back, expect)
    assert back.max() == PGM_MAXVAL


def test_pgm_clamps_negatives(tmp_path):
    path = tmp_path / "i.pgm"
    write_pgm16(path, np.array([[-5.0, 10.0]]))
    np.testing.assert_array_equal(read_pgm16(path), [[0.0, PGM_MAXVAL]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pgm_clamps_a_huge_negative_without_overflow(tmp_path):
    # -1e300 times 65535 / 1e-300 overflows; clamped first, it scales to 0
    path = tmp_path / "i.pgm"
    write_pgm16(path, np.array([[1e-300, -1e300]]))
    np.testing.assert_array_equal(read_pgm16(path), [[PGM_MAXVAL, 0.0]])


def test_pgm_maps_a_subnormal_peak_to_maxval(tmp_path):
    # 65535 / peak overflows to inf here; the preview is the ratios to the peak
    path = tmp_path / "i.pgm"
    tiny = 4e-310
    write_pgm16(path, np.array([[-tiny, 0.0], [tiny / 4, tiny]]))
    np.testing.assert_array_equal(read_pgm16(path), [[0.0, 0.0], [16384.0, PGM_MAXVAL]])


def test_pgm_reads_8bit(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 255]))
    np.testing.assert_array_equal(
        read_pgm16(path), [[0.0, 10.0, 20.0], [30.0, 40.0, 255.0]]
    )


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n# anywhere\n255\n" + bytes([7, 9]))
    np.testing.assert_array_equal(read_pgm16(path), [[7.0, 9.0]])


def test_pgm_errors(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\0")
    with pytest.raises(FileFormatError, match="P5"):
        read_pgm16(path)
    path.write_bytes(b"P5\n1 1\n70000\n\0\0")
    with pytest.raises(FileFormatError, match="maxval"):
        read_pgm16(path)
    path.write_bytes(b"P5\n2 2\n255\n\0\0")
    with pytest.raises(FileFormatError, match="payload"):
        read_pgm16(path)
    path.write_bytes(b"P5\n2 ")
    with pytest.raises(FileFormatError, match="end of PGM header"):
        read_pgm16(path)


def test_pgm_rejects_non_2d(tmp_path):
    with pytest.raises(ShapeError):
        write_pgm16(tmp_path / "i.pgm", np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# sniffing


def test_sniff_and_read_raster(tmp_path):
    raw = tmp_path / "a.raw"
    pgm = tmp_path / "b.pgm"
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    write_raw_matrix(raw, img)
    write_pgm16(pgm, np.array([[0.0, PGM_MAXVAL]]))
    assert sniff_raster(raw) == "raw"
    assert sniff_raster(pgm) == "pgm"
    np.testing.assert_array_equal(read_raster(raw), img)
    np.testing.assert_array_equal(read_raster(pgm), [[0.0, PGM_MAXVAL]])


def test_read_raster_rejects_complex(tmp_path):
    path = tmp_path / "c.raw"
    write_raw_matrix(path, np.zeros((2, 2), dtype=complex))
    with pytest.raises(FileFormatError, match="complex"):
        read_raster(path)


# ---------------------------------------------------------------------------
# CSV and floats


def test_format_float_exact():
    for v in (0.1, 1.0 / 3.0, 1e-17, -2.5e300, 123456.789, 5e-324):
        assert float(format_float(v)) == v
    assert format_float(3) == "3"
    assert format_float("keep") == "keep"
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"


def test_csv_round_trip_and_determinism(tmp_path, rng):
    header = ["roi_size", "mean_ae", "note"]
    rows = [[k, rng.normal() * 10.0**k, "ok"] for k in range(2, 7)]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_table_csv(first, header, rows)
    write_table_csv(second, header, rows)
    assert first.read_bytes() == second.read_bytes()
    with open(first, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == header
    for row, (size, value, note) in zip(parsed[1:], rows):
        assert int(row[0]) == size
        assert float(row[1]) == value
        assert row[2] == note
    assert b"\r" not in first.read_bytes()


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    entries = {"domain": "spatial", "cutoff": "6.0", "note": "table run"}
    write_manifest(path, entries)
    assert read_manifest(path) == entries


def test_manifest_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# header\n\nkey = value\n  # indented comment\nother=  spaced  \n")
    assert read_manifest(path) == {"key": "value", "other": "spaced"}


def test_manifest_errors(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("key = value\nnot a pair\n")
    with pytest.raises(FileFormatError, match=":2:"):
        read_manifest(path)
    path.write_text("= nothing\n")
    with pytest.raises(FileFormatError, match="empty key"):
        read_manifest(path)
    with pytest.raises(ParameterError):
        write_manifest(path, {"bad\nkey": "v"})
    with pytest.raises(ParameterError):
        write_manifest(path, {"k": "line\nbreak"})


def test_manifest_refuses_non_utf8_bytes(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"\xff\xfe = 3\n")
    with pytest.raises(FileFormatError, match="not UTF-8"):
        read_manifest(path)


def test_manifest_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("trials = 2\n# comment\nsizes = 2\ntrials = 5\n")
    with pytest.raises(FileFormatError, match=r"m.txt:4: key 'trials' .* line 1\)"):
        read_manifest(path)


# ---------------------------------------------------------------------------
# rewriting in place

_LONGER_THEN_SHORTER = {
    "raw": (write_raw_matrix, (np.arange(12.0).reshape(3, 4),), (np.ones((1, 2)),)),
    "pgm": (write_pgm16, (np.arange(12.0).reshape(3, 4),), (np.ones((1, 2)),)),
    "csv": (write_table_csv, (["a", "b"], [[1, 2.5], [3, 4.5]]), (["a"], [[1]])),
    "manifest": (write_manifest, ({"domain": "spatial", "note": "a longer run"},), ({"k": "v"},)),
}


@pytest.mark.parametrize(
    "writer, longer, shorter", _LONGER_THEN_SHORTER.values(), ids=list(_LONGER_THEN_SHORTER)
)
def test_a_rewrite_keeps_the_file_and_ends_at_what_was_written(tmp_path, writer, longer, shorter):
    # the shorter output over the longer one, written through a symlink: the
    # target keeps its inode and permissions, the link stays a link, and the
    # bytes are those of a fresh write
    path, link, fresh = tmp_path / "out", tmp_path / "link", tmp_path / "fresh"
    writer(path, *longer)
    os.chmod(path, 0o640)
    link.symlink_to(path)
    before = os.stat(path)
    writer(link, *shorter)
    writer(fresh, *shorter)
    after = os.stat(path)
    assert len(fresh.read_bytes()) < before.st_size
    assert path.read_bytes() == fresh.read_bytes()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert link.is_symlink()


@pytest.mark.parametrize(
    "writer, longer, shorter", _LONGER_THEN_SHORTER.values(), ids=list(_LONGER_THEN_SHORTER)
)
def test_a_device_that_cannot_be_cut_takes_every_writer(writer, longer, shorter):
    writer(os.devnull, *longer)


def test_a_refused_manifest_entry_leaves_the_lines_before_it(tmp_path):
    path = tmp_path / "m.txt"
    write_manifest(path, {f"key{i}": "a longer value than the rewrite" for i in range(4)})
    with pytest.raises(ParameterError):
        write_manifest(path, {"good": "1", "bad=key": "2", "never": "3"})
    assert path.read_bytes() == b"good = 1\n"


def _reference_raw_bytes(matrix):
    """The raw file of a 2D matrix, by the format's definition."""
    arr = np.asarray(matrix)
    kind, dtype = (RAW_KIND_COMPLEX, "<c16") if np.iscomplexobj(arr) else (RAW_KIND_REAL, "<f8")
    header = f"{arr.shape[0]} {arr.shape[1]} {kind}\n".encode("ascii")
    return header + arr.astype(dtype).tobytes(order="C")


def _reference_pgm_bytes(image):
    """The PGM preview of a 2D image, one temporary per step."""
    arr = np.asarray(image, dtype=float)
    peak = float(arr.max()) if arr.size else 0.0
    scale = PGM_MAXVAL / peak if peak > 0 else 0.0
    positive = np.maximum(arr, 0.0)
    if math.isfinite(scale):
        scaled = np.minimum(positive * scale, PGM_MAXVAL)
    else:
        scaled = positive / peak * PGM_MAXVAL
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{PGM_MAXVAL}\n".encode("ascii")
    return header + np.floor(scaled + 0.5).astype(">u2").tobytes(order="C")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_VALUES = {
    "mixed": _FINITE,
    "all-negative": st.floats(max_value=-1e-300, allow_infinity=False),
    "zero": st.just(0.0),
    "subnormal-peak": st.floats(min_value=-1e-300, max_value=2e-308, allow_subnormal=True),
}


@st.composite
def _images(draw):
    """2D float arrays, empty ones included, with any sign mix and a
    subnormal peak among them, laid out C-ordered, Fortran-ordered or as a
    strided slice."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    values = _VALUES[draw(st.sampled_from(list(_VALUES)))]
    arr = np.array(draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))
    arr = arr.reshape(rows, cols)
    layout = draw(st.sampled_from(["C", "F", "slice"]))
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "slice":
        wide = np.zeros((rows, 2 * cols))
        wide[:, ::2] = arr
        return wide[:, ::2][::-1]
    return arr


@settings(max_examples=200, deadline=None)
@given(image=_images(), imag=st.booleans())
def test_raster_writers_match_the_reference_bytes(tmp_path_factory, image, imag):
    folder = tmp_path_factory.mktemp("raster")
    write_pgm16(folder / "i.pgm", image)
    assert (folder / "i.pgm").read_bytes() == _reference_pgm_bytes(image)
    matrix = image + 1j * image[::-1] if imag else image
    write_raw_matrix(folder / "m.raw", matrix)
    assert (folder / "m.raw").read_bytes() == _reference_raw_bytes(matrix)


# ---------------------------------------------------------------------------
# formats compose with the physics


def conjugate_symmetry_error(spectrum):
    """Max deviation of S(u, v) from conj(S(-u mod M, -v mod N)); zero (to
    roundoff) exactly when the spectrum came from a real image."""
    mirrored = np.roll(spectrum[::-1, ::-1], (1, 1), axis=(0, 1))
    return float(np.abs(spectrum - np.conj(mirrored)).max())


def test_spectrum_survives_raw_round_trip(tmp_path, rng):
    # conjugate symmetry of a stored spectrum must be bit-preserved
    field = rng.uniform(0, 256, (16, 16))
    spectrum = np.fft.fft2(field) / field.size
    before = conjugate_symmetry_error(spectrum)
    path = tmp_path / "s.raw"
    write_raw_matrix(path, spectrum)
    back = read_raw_matrix(path)
    np.testing.assert_array_equal(back, spectrum)
    assert conjugate_symmetry_error(back) == before
    assert math.isfinite(before) and before < 1e-12


@pytest.mark.parametrize(
    "header",
    [b"10000000000 10000000000 real64\n", b"P5\n100000000000 100000000000\n65535\n"],
)
def test_header_promising_more_than_the_file_holds(tmp_path, header):
    path = tmp_path / "huge"
    path.write_bytes(header)
    with pytest.raises(FileFormatError, match="payload"):
        read_raster(path)


def test_pgm_negative_dimensions_rejected(tmp_path):
    path = tmp_path / "i.pgm"
    path.write_bytes(b"P5\n-2 -3\n255\n" + b"\0" * 6)
    with pytest.raises(FileFormatError, match="negative"):
        read_pgm16(path)


def test_pgm_empty_raster_too_wide_for_float64_rejected(tmp_path):
    # 2**60 one-byte counts fit an address space, 2**60 float64 values do not
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n1152921504606846976 0\n255\n")
    with pytest.raises(FileFormatError, match="exceed any array"):
        read_pgm16(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_raster_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "n.raw"
    image = np.ones((3, 3))
    image[1, 2] = bad
    write_raw_matrix(path, image)
    with pytest.raises(FileFormatError, match="NaN or Inf"):
        read_raster(path)


# ---------------------------------------------------------------------------
# arbitrary bytes

_DIM = st.one_of(
    st.sampled_from([0, 1, 2, -1, 2**31, 2**60, 2**63, 10**30]),
    st.integers(-3, 12),
    st.integers(-(10**30), 10**30),
    st.sampled_from(["-0", "+4", "1_0", "0x10", "1e3", "nan", "", "١", "9" * 5000]),
)


@st.composite
def _raster_bytes(draw):
    """Raw and PGM files with plausible or hostile headers, or plain noise."""
    shape = draw(st.sampled_from(["noise", "raw", "pgm"]))
    if shape == "noise":
        return draw(st.binary(max_size=64))
    rows, cols = draw(_DIM), draw(_DIM)
    if shape == "raw":
        kind = draw(st.sampled_from([RAW_KIND_REAL, RAW_KIND_COMPLEX, "int8", ""]))
        header = f"{rows} {cols} {kind}\n"
        itemsize = 16 if kind == RAW_KIND_COMPLEX else 8
    else:
        maxval = draw(st.sampled_from(["255", "65535", "0", "65536", "-1", "x"]))
        gap = draw(st.sampled_from([" ", "\n", "\t# note\n", ""]))
        header = f"P5\n{cols}{gap} {rows}\n{maxval}\n"
        itemsize = 2 if maxval == "65535" else 1
    exact = rows * cols * itemsize if isinstance(rows, int) and isinstance(cols, int) else -1
    if 0 <= exact <= 64 and draw(st.booleans()):
        payload = draw(st.binary(min_size=exact, max_size=exact))
    else:
        payload = draw(st.binary(max_size=48))
    return header.encode("utf-8") + payload


@settings(max_examples=300, deadline=None)
@given(blob=_raster_bytes())
def test_read_raster_refuses_any_bytes_with_file_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("blob") / "frame"
    path.write_bytes(blob)
    try:
        image = read_raster(str(path))
    except FileFormatError:
        return
    assert image.ndim == 2 and image.dtype == np.float64
    assert np.isfinite(image).all()
