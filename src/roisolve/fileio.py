"""File formats: raw matrices, 16-bit PGM previews, CSV tables, manifests.

The raw matrix format is the authoritative interchange: one ASCII header line
"rows cols kind" (kind is real64 or complex64-pairs) followed by the row-major
little-endian float64 payload; complex values are written as re,im pairs. PGM
output is a lossy rescaled preview for looking at images, never for math.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import stat
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import FileFormatError, ParameterError, ShapeError
from .grid import exceeds_address_space

RAW_KIND_REAL = "real64"
RAW_KIND_COMPLEX = "complex64-pairs"


def format_float(value) -> str:
    """A float in 17 significant digits (0.1 is 0.10000000000000001), which
    read back to the same float; nan, inf and -inf as such. ints and strs
    pass through."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _check_dims(rows: int, cols: int, itemsize: int, what: str, offset: int) -> None:
    """Refuse header dimensions no array can take.

    A dimension must be non-negative, and even for an empty raster (one
    dimension 0, so no payload) numpy refuses a dimension whose byte extent
    overflows the address space.
    """
    if rows < 0 or cols < 0:
        raise FileFormatError(f"{what} dimensions negative: {rows}x{cols}", offset=offset)
    if exceeds_address_space(rows, cols, itemsize):
        raise FileFormatError(f"{what} dimensions {rows}x{cols} exceed any array", offset=offset)


def _read_payload(
    fh: io.BufferedReader, rows: int, cols: int, dtype: np.dtype, what: str
) -> np.ndarray:
    """The payload after a header: a rows x cols array of dtype that fills the
    file to its end, read straight into the array (one copy).

    The size on disk is checked before the array is allocated, so a header
    promising more than the file holds never drives a huge allocation.
    """
    expected = rows * cols * dtype.itemsize
    offset = fh.tell()
    held = os.fstat(fh.fileno()).st_size - offset
    if held == expected:
        data = np.empty((rows, cols), dtype=dtype)
        held = fh.readinto(data.reshape(-1).view(np.uint8)) + len(fh.read(1))
    if held != expected:
        raise FileFormatError(
            f"{what} payload holds {held} bytes, header promises {expected}", offset=offset
        )
    return data


@contextlib.contextmanager
def _rewrite(path: str, mode: str, **text) -> Iterator[io.IOBase]:
    """Open path to write in mode ("wb", or "w" with text's newline and
    encoding) without truncating it, creating it if missing; on leaving, even
    when the writer raised, cut a regular file to what was written.

    The file keeps its inode, permissions and links, and ends holding exactly
    the bytes a truncate-then-write would leave. Reopening a non-empty file
    with O_TRUNC, or renaming a new file over it, is a replace that ext4
    (auto_da_alloc, on by default) forces to disk, at several times the cost
    of the write. A device such as /dev/null cannot be cut and needs no cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, mode, **text) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


# ---------------------------------------------------------------------------
# raw matrices

def write_raw_matrix(path: str, matrix: np.ndarray) -> None:
    """Write a 2D real or complex matrix in the raw format described above.

    path is rewritten in place and cut to length (see _rewrite). The payload
    is written from a C-ordered little-endian view of the matrix, copied only
    when the matrix is not already one.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ShapeError(f"raw format stores 2D matrices, got ndim={arr.ndim}")
    kind, dtype = (RAW_KIND_COMPLEX, "<c16") if np.iscomplexobj(arr) else (RAW_KIND_REAL, "<f8")
    payload = np.ascontiguousarray(arr, dtype=dtype)
    header = f"{arr.shape[0]} {arr.shape[1]} {kind}\n".encode("ascii")
    with _rewrite(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_raw_matrix(path: str) -> np.ndarray:
    """Read the raw matrix format back; returns float64 or complex128."""
    with open(path, "rb") as fh:
        header = fh.readline(256)
        if not header.endswith(b"\n"):
            raise FileFormatError("raw header line missing or too long", offset=0)
        parts = header.decode("ascii", errors="replace").split()
        if len(parts) != 3:
            raise FileFormatError(
                f"raw header needs 'rows cols kind', got {header!r}", offset=0
            )
        try:
            rows, cols = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FileFormatError(f"raw header dimensions not integers: {exc}", offset=0)
        kind = parts[2]
        if kind == RAW_KIND_REAL:
            dtype = np.dtype("<f8")
        elif kind == RAW_KIND_COMPLEX:
            dtype = np.dtype("<c16")
        else:
            raise FileFormatError(f"unknown raw kind {kind!r}", offset=0)
        _check_dims(rows, cols, dtype.itemsize, "raw header", 0)
        data = _read_payload(fh, rows, cols, dtype, "raw")
    # a no-op on little-endian hosts, a byte swap elsewhere
    return data.astype(np.complex128 if kind == RAW_KIND_COMPLEX else np.float64, copy=False)


# ---------------------------------------------------------------------------
# 16-bit PGM previews

PGM_MAXVAL = 65535


def write_pgm16(path: str, image: np.ndarray) -> None:
    """Save a rescaled 16-bit preview (P5, big-endian, maxval 65535).

    The image max maps to 65535 and negatives clamp to 0, so absolute values
    are not preserved; use the raw format when the numbers matter. path is
    rewritten in place and cut to length (see _rewrite); the counts are
    computed in one buffer.
    """
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"PGM stores 2D images, got ndim={arr.ndim}")
    peak = float(arr.max()) if arr.size else 0.0
    scale = PGM_MAXVAL / peak if peak > 0 else 0.0
    # negatives clamp before scaling, so no product overflows
    counts = np.maximum(arr, 0.0)
    if math.isfinite(scale):
        np.minimum(np.multiply(counts, scale, out=counts), PGM_MAXVAL, out=counts)
    else:
        # a subnormal peak: PGM_MAXVAL / peak overflows, the ratios to it do not
        np.multiply(np.divide(counts, peak, out=counts), PGM_MAXVAL, out=counts)
    # counts + 0.5 lies in [0.5, 65535.5], where the cast's truncation rounds down
    np.add(counts, 0.5, out=counts)
    with _rewrite(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(counts.astype(">u2", order="C"))


def _read_pgm_token(fh: io.BufferedReader) -> bytes:
    # PGM allows '#' comments and arbitrary whitespace between header tokens.
    token = b""
    while True:
        ch = fh.read(1)
        if ch == b"":
            raise FileFormatError("unexpected end of PGM header", offset=fh.tell())
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_pgm16(path: str) -> np.ndarray:
    """Read a 8- or 16-bit P5 image; returns the stored counts as float64."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic != b"P5":
            raise FileFormatError(f"not a P5 raster (magic {magic!r})", offset=0)
        try:
            cols = int(_read_pgm_token(fh))
            rows = int(_read_pgm_token(fh))
            maxval = int(_read_pgm_token(fh))
        except ValueError as exc:
            raise FileFormatError(f"PGM header token not an integer: {exc}", offset=fh.tell())
        if not (0 < maxval < 65536):
            raise FileFormatError(f"PGM maxval {maxval} out of range", offset=fh.tell())
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        # the counts come back as float64, so its itemsize bounds the extent
        _check_dims(rows, cols, np.dtype(np.float64).itemsize, "PGM", fh.tell())
        counts = _read_payload(fh, rows, cols, dtype, "PGM")
    return counts.astype(np.float64)


def sniff_raster(path: str) -> str:
    """Return 'pgm' or 'raw' by peeking at the file start."""
    with open(path, "rb") as fh:
        start = fh.read(2)
    return "pgm" if start == b"P5" else "raw"


def read_raster(path: str) -> np.ndarray:
    """Read either raster format; raw payloads must be real and finite for images."""
    if sniff_raster(path) == "pgm":
        return read_pgm16(path)
    arr = read_raw_matrix(path)
    if np.iscomplexobj(arr):
        raise FileFormatError(f"{path} holds complex data, expected an image")
    if not np.isfinite(arr).all():
        raise FileFormatError(f"{path} holds NaN or Inf values, expected an image")
    return arr


# ---------------------------------------------------------------------------
# CSV tables

def write_table_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV with floats in 17 significant digits (format_float),
    which read back to the same floats.

    The rendering is deterministic, so identical data produces identical
    bytes (newline pinned to \\n regardless of platform). path is rewritten
    in place and cut to length (see _rewrite).
    """
    with _rewrite(path, "w", newline="\n", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_float(v) for v in row])


# ---------------------------------------------------------------------------
# manifests (key = value; also the config file format)

def write_manifest(path: str, entries: Mapping[str, str]) -> None:
    """Write 'key = value' lines; values are stored verbatim. path is
    rewritten in place and cut to length (see _rewrite), so a refused entry
    leaves exactly the lines before it."""
    with _rewrite(path, "w", newline="\n", encoding="utf-8") as fh:
        for key, value in entries.items():
            if "=" in key or "\n" in key or "\n" in str(value):
                raise ParameterError(f"manifest key/value must be single-line, got {key!r}")
            fh.write(f"{key} = {value}\n")


def read_manifest(path: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment, blanks are skipped.

    Raises:
        FileFormatError: the file is not UTF-8 text, a line has no '=' or an
            empty key, or a key is given twice.
    """
    name = os.path.basename(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{name}: not UTF-8 text ({exc.reason})")
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FileFormatError(f"{name}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise FileFormatError(f"{name}:{lineno}: empty key")
        if key in first_line:
            raise FileFormatError(
                f"{name}:{lineno}: key {key!r} is given again (first on line {first_line[key]})"
            )
        first_line[key] = lineno
        entries[key] = value.strip()
    return entries
