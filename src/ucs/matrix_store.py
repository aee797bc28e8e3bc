"""Binary matrix store, label files, token bundles, and run manifests.

Matrix files use a fixed little-endian layout:

    bytes 0..3    magic ``UCSM`` (ASCII)
    bytes 4..5    format version, u16 (currently 1)
    byte  6       dtype code: 0 = float32, 1 = float64
    bytes 7..14   row count, u64
    bytes 15..22  column count, u64
    bytes 23..    payload, row-major, little-endian

All matrices are widened to float64 in memory regardless of the stored dtype.
A CSV alternative (header ``c0,c1,...``) is accepted on read for interchange.
Non-finite values are rejected on both read and write.

Every file the package reads or writes goes through open_file, and every
text input is decoded and split into lines by read_lines.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DimensionOverflow,
    IoError,
    MissingInput,
    NonFiniteValue,
    ParseError,
)

MAGIC = b"UCSM"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBQQ")  # magic, version, dtype, rows, cols

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
DTYPE_NAMES = {"f32": 0, "f64": 1}  # write_matrix's dtype -> header code

# Hard cap on declared element count; anything larger is a corrupt header.
_MAX_ELEMENTS = 1 << 40
# Bytes of the float64 result that read_matrix reads and checks at a time.
_READ_BLOCK = 1 << 20


@contextmanager
def open_file(path: str | os.PathLike, mode: str = "rb"):
    """Open `path` in mode "rb", "w" or "wb"; text is written as UTF-8 with
    newline="", and read only by read_lines, which decodes the bytes.

    A write goes to `<path>.tmp`, which replaces `path` only once the body
    finishes, so a failed write leaves the earlier file (or none) and no
    temp file. An OSError becomes IoError naming `path`; reading a path that
    does not exist raises its subclass MissingInput.
    """
    writing = "w" in mode
    tmp = f"{os.fspath(path)}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp if writing else path, mode, **text) as fh:
            yield fh
        if writing:
            os.replace(tmp, path)
    except OSError as exc:  # strerror, because exc names the temp file
        verb = "write" if writing else "read"
        missing = not writing and isinstance(exc, FileNotFoundError)
        error = MissingInput if missing else IoError
        raise error(f"cannot {verb} {path}: {exc.strerror or exc}") from exc
    finally:
        if writing:
            with suppress(FileNotFoundError):
                os.remove(tmp)


def read_lines(path: str | os.PathLike) -> list[str]:
    """The lines of the UTF-8 text file `path`, without their line breaks.

    A line ends at "\n", "\r\n" or "\r", as in file iteration and the csv
    module; no other character (form feed, U+2028, ...) ends one. A final
    line with no break is kept, and an empty file has no lines. An
    undecodable byte raises ParseError naming path:line. This is the one
    place that decodes a text input or splits it into lines.
    """
    with open_file(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]  # ends before the bad byte, so a final \r is a break
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # the text ends with a break, or is empty
        lines.pop()
    return lines


def write_matrix(matrix: np.ndarray, path: str | os.PathLike, dtype: str = "f64") -> None:
    """Write a 2-D array to `path` in the binary layout above.

    dtype is "f64" (default, exact round trip) or "f32" (lossy storage).
    Raises NonFiniteValue, writing nothing, for a NaN or Inf in the stored
    dtype (f32 overflow too), IoError on filesystem failure.
    """
    if dtype not in DTYPE_NAMES:
        raise ValueError(f"unsupported dtype {dtype!r}; expected one of {tuple(DTYPE_NAMES)}")
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    code = DTYPE_NAMES[dtype]
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        payload = arr.astype(_DTYPE_CODES[code], copy=False)
    if not np.isfinite(payload).all():
        row, col = np.argwhere(~np.isfinite(payload))[0]
        raise NonFiniteValue(f"value {float(arr[row, col])!r} at row {row}, col {col} is not "
                             f"finite as {dtype}; refusing to write")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, code, arr.shape[0], arr.shape[1])
    with open_file(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes(order="C"))


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a matrix from `path`, accepting the binary layout or CSV.

    Returns a float64 array. Raises BadMagic / DimensionOverflow /
    NonFiniteValue / ParseError with the offending offset or line.

    The payload is read once, straight into the float64 result, up to
    _READ_BLOCK bytes of the result at a time: a float32 file goes through
    one block-sized buffer and is widened per block, and each block is
    checked for finiteness as it lands. Memory is the result plus at most
    one block.
    """
    with open_file(path, "rb") as fh:
        if fh.read(4) == MAGIC:
            return _read_matrix_binary(fh, path)
    return _read_matrix_csv(path)


def _read_matrix_binary(fh, path: str | os.PathLike) -> np.ndarray:
    # fh is positioned just past the magic
    rest = fh.read(_HEADER.size - 4)
    if len(rest) != _HEADER.size - 4:
        raise DimensionOverflow(f"{path}: truncated header ({4 + len(rest)} bytes)")
    _, version, code, rows, cols = _HEADER.unpack(MAGIC + rest)
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    if code not in _DTYPE_CODES:
        raise ParseError(f"{path}: unknown dtype code {code} at byte 6")
    if cols < 1:
        raise DimensionOverflow(f"{path}: column count must be >= 1, got {cols}")
    if rows * cols > _MAX_ELEMENTS:
        raise DimensionOverflow(f"{path}: declared {rows}x{cols} exceeds element cap")
    dt = _DTYPE_CODES[code]
    expected = rows * cols * dt.itemsize
    size = fh.seek(0, os.SEEK_END) - _HEADER.size
    if size != expected:
        raise DimensionOverflow(f"{path}: payload is {size} bytes, header declares {expected}")
    fh.seek(_HEADER.size)
    arr = np.empty((rows, cols), dtype=np.float64)
    step = max(1, _READ_BLOCK // (8 * cols))  # rows per block of the result
    widen = dt != arr.dtype  # float32, or any file on a big-endian host
    buffer = np.empty((min(step, rows), cols), dtype=dt) if widen else None
    for start in range(0, rows, step):
        block = arr[start:start + step]
        into = buffer[:len(block)] if widen else block
        if fh.readinto(memoryview(into).cast("B")) != into.nbytes:
            raise IoError(f"cannot read {path}: the file shrank while it was read")
        finite = np.isfinite(into)
        if not finite.all():
            offset = _HEADER.size + (start * cols + int(np.argmin(finite))) * dt.itemsize
            raise NonFiniteValue(f"{path}: non-finite value at byte offset {offset}")
        if widen:
            block[...] = into
    return arr


def _read_matrix_csv(path: str | os.PathLike) -> np.ndarray:
    try:
        lines = read_lines(path)
    except ParseError as exc:  # not UTF-8: most likely a binary file
        raise BadMagic(f"{path}: not a UCSM file and not readable as CSV "
                       f"({exc.__cause__})") from exc
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if header != [f"c{i}" for i in range(len(header))]:
        raise BadMagic(f"{path}: bad magic bytes and line 1 is not a c0,c1,... header")
    cols = len(header)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != cols:
            raise ParseError(f"{path}: line {lineno}: expected {cols} fields, got {len(cells)}")
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise NonFiniteValue(f"{path}: non-finite value at line {lineno}")
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(len(rows), cols)


def write_labels(labels: np.ndarray, path: str | os.PathLike) -> None:
    """Write integer labels, one per line."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
    with open_file(path, "w") as fh:
        for v in arr:
            fh.write(f"{int(v)}\n")


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def read_labels(path: str | os.PathLike, noise_label: int | None = None) -> np.ndarray:
    """Read one integer label per line.

    Cluster ids are >= 1 (cluster_pool maps DBSCAN noise to singletons), so
    any other value raises ParseError naming the line, unless it equals
    noise_label. A caller that declares a noise label drops its rows.
    """
    values = []
    for lineno, line in enumerate(read_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = int(text)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: not an integer: {text!r}") from exc
        if value < 1 and value != noise_label:
            raise ParseError(f"{path}: line {lineno}: label {value} below 1")
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ParseError(f"{path}: line {lineno}: label {value} outside the int64 range")
        values.append(value)
    return np.array(values, dtype=np.int64)


# ---------------------------------------------------------------------------
# Token bundles: a directory of per-example (hidden states, mask) pairs.
# Example i is stored as <stem>.tokens.ucsm (T_i x d) and <stem>.mask.ucsm
# (T_i x 1, a weight >= 0 per token); examples are ordered by stem.

TOKENS_SUFFIX = ".tokens.ucsm"
MASK_SUFFIX = ".mask.ucsm"
# Digits of write_token_bundle's stems ex000000, ex000001, ...; the padding
# keeps stem order equal to example order for up to 10**6 examples.
STEM_WIDTH = 6


def write_token_bundle(
    directory: str | os.PathLike,
    examples: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Write (hidden, mask) pairs as a token bundle under `directory`."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for i, (hidden, mask) in enumerate(examples):
        mask_col = np.asarray(mask, dtype=np.float64).reshape(-1, 1)
        if mask_col.shape[0] != np.asarray(hidden).shape[0]:
            raise DimensionOverflow(
                f"example {i}: mask length {mask_col.shape[0]} != token count"
            )
        stem = f"ex{i:0{STEM_WIDTH}d}"
        write_matrix(np.asarray(hidden, dtype=np.float64), d / f"{stem}{TOKENS_SUFFIX}")
        write_matrix(mask_col, d / f"{stem}{MASK_SUFFIX}")


def read_token_bundle(directory: str | os.PathLike) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Read a token bundle; returns (stem, hidden T x d, mask T) sorted by stem,
    every d the first example's."""
    d = Path(directory)
    if not d.is_dir():
        raise MissingInput(f"token bundle directory not found: {directory}")
    stems = sorted(p.name[: -len(TOKENS_SUFFIX)] for p in d.glob(f"*{TOKENS_SUFFIX}"))
    if not stems:
        raise ParseError(f"{directory}: no *{TOKENS_SUFFIX} files found")
    out = []
    for stem in stems:
        hidden = read_matrix(d / f"{stem}{TOKENS_SUFFIX}")
        if out and hidden.shape[1] != out[0][1].shape[1]:
            raise DimensionOverflow(
                f"{directory}/{stem}{TOKENS_SUFFIX}: {hidden.shape[1]} columns, but "
                f"{directory}/{out[0][0]}{TOKENS_SUFFIX} has {out[0][1].shape[1]}"
            )
        mask = read_matrix(d / f"{stem}{MASK_SUFFIX}")
        if mask.shape != (hidden.shape[0], 1):
            raise DimensionOverflow(
                f"{directory}/{stem}{MASK_SUFFIX}: shape {mask.shape} does not match "
                f"the {hidden.shape[0]} tokens of {stem}{TOKENS_SUFFIX}"
            )
        out.append((stem, hidden, mask[:, 0]))
    return out


def bundle_sha256(directory: str | os.PathLike, stems: list[str]) -> str:
    """sha256 over the sorted stems, each followed by the sha256 of its
    tokens file and of its mask file: what a bundle run consumed."""
    h = hashlib.sha256()
    for stem in sorted(stems):
        h.update(os.fsencode(stem) + b"\0")  # no file name holds a NUL
        for suffix in (TOKENS_SUFFIX, MASK_SUFFIX):
            h.update(sha256_file(Path(directory) / f"{stem}{suffix}").encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Run manifests: flat key=value text, keys sorted lexicographically. A stage
# rerun from the same manifest (same config, same input hashes, same seed)
# must emit byte-identical artifacts; the timestamp key is informational and
# is the only field allowed to differ between such reruns.


def write_manifest(path: str | os.PathLike, entries: dict[str, str]) -> None:
    """Write entries as sorted key=value lines. A key holding "=", or a key
    or value holding a line break read_lines splits at, raises ValueError
    naming the key, so read_manifest returns entries as strings."""
    items = []
    for key in sorted(entries):
        value = str(entries[key])
        if "=" in key or any(c in key + value for c in "\r\n"):
            raise ValueError(f"manifest entry {key!r} contains a reserved character")
        items.append(f"{key}={value}\n")
    with open_file(path, "w") as fh:
        fh.writelines(items)


def read_manifest(path: str | os.PathLike) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key] = value
    return out


def sha256_file(path: str | os.PathLike) -> str:
    h = hashlib.sha256()
    with open_file(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
