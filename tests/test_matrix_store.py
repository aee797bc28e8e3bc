import io
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ucs import matrix_store
from ucs.errors import (
    BadMagic,
    DimensionOverflow,
    IoError,
    MissingInput,
    NonFiniteValue,
    ParseError,
)
from ucs.matrix_store import (
    FORMAT_VERSION,
    MAGIC,
    read_labels,
    read_lines,
    read_manifest,
    read_matrix,
    read_token_bundle,
    sha256_file,
    write_labels,
    write_manifest,
    write_matrix,
    write_token_bundle,
)

HEADER = struct.Struct("<4sHBQQ")


def test_identity_round_trip(tmp_path):
    path = tmp_path / "eye.ucsm"
    write_matrix(np.eye(2), path)
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_f64_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4))
    path = tmp_path / "m.ucsm"
    write_matrix(m, path)
    back = read_matrix(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, m)


def test_header_layout_matches_wire_spec(tmp_path):
    # Independent byte-level check: 4-byte magic, u16 version, dtype byte,
    # u64 rows, u64 cols, all little-endian, then the row-major payload.
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path = tmp_path / "m.ucsm"
    write_matrix(m, path)
    blob = path.read_bytes()
    magic, version, code, rows, cols = HEADER.unpack(blob[: HEADER.size])
    assert magic == b"UCSM" == MAGIC
    assert version == 1 == FORMAT_VERSION
    assert code == 1  # f64
    assert (rows, cols) == (3, 2)
    assert blob[HEADER.size:] == m.astype("<f8").tobytes(order="C")


def test_f32_rounds_to_nearest_float32(tmp_path):
    path = tmp_path / "m.ucsm"
    write_matrix(np.array([[0.1]]), path, dtype="f32")
    assert read_matrix(path)[0, 0] == float(np.float32(0.1))


def test_write_rejects_nan(tmp_path):
    with pytest.raises(NonFiniteValue) as err:
        write_matrix(np.array([[1.0, np.nan]]), tmp_path / "bad.ucsm")
    assert "row 0, col 1" in str(err.value)


@pytest.mark.parametrize("value", [1e300, -3.5e38])
def test_write_f32_refuses_a_value_beyond_float32(tmp_path, value):
    # this used to write inf with numpy's overflow warning, and read_matrix
    # then refused the file ("non-finite value at byte offset 23")
    path = tmp_path / "big.ucsm"
    want = re.escape(f"value {value!r} at row 1, col 0 is not finite as f32")
    with pytest.raises(NonFiniteValue, match=f"^{want}"):
        write_matrix(np.array([[1.0, 2.0], [value, 3.0]]), path, dtype="f32")
    assert not path.exists()
    write_matrix(np.array([[value]]), path)  # finite as f64
    assert read_matrix(path)[0, 0] == value


def test_read_rejects_nonfinite_payload_with_offset(tmp_path):
    path = tmp_path / "bad.ucsm"
    payload = np.array([1.0, np.inf, 3.0, 4.0], dtype="<f8").tobytes()
    path.write_bytes(HEADER.pack(MAGIC, 1, 1, 2, 2) + payload)
    with pytest.raises(NonFiniteValue) as err:
        read_matrix(path)
    assert str(HEADER.size + 8) in str(err.value)


def test_payload_one_byte_short_is_dimension_error(tmp_path):
    path = tmp_path / "short.ucsm"
    payload = np.ones(4, dtype="<f8").tobytes()[:-1]
    path.write_bytes(HEADER.pack(MAGIC, 1, 1, 2, 2) + payload)
    with pytest.raises(DimensionOverflow):
        read_matrix(path)


def test_huge_declared_dims_rejected(tmp_path):
    path = tmp_path / "huge.ucsm"
    path.write_bytes(HEADER.pack(MAGIC, 1, 1, 1 << 41, 8))
    with pytest.raises(DimensionOverflow):
        read_matrix(path)


def test_zero_cols_rejected(tmp_path):
    path = tmp_path / "square0.ucsm"
    path.write_bytes(HEADER.pack(MAGIC, 1, 1, 0, 0))
    with pytest.raises(DimensionOverflow):
        read_matrix(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "v2.ucsm"
    path.write_bytes(HEADER.pack(MAGIC, 2, 1, 1, 1) + b"\0" * 8)
    with pytest.raises(ParseError):
        read_matrix(path)


def test_csv_single_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("c0\n1.5\n2.5\n")
    assert np.array_equal(read_matrix(path), np.array([[1.5], [2.5]]))


def test_csv_matches_binary(tmp_path):
    m = np.array([[1.25, -2.0], [0.5, 3.0]])
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("c0,c1\n1.25,-2.0\n0.5,3.0\n")
    bin_path = tmp_path / "m.ucsm"
    write_matrix(m, bin_path)
    assert np.array_equal(read_matrix(csv_path), read_matrix(bin_path))


def test_csv_bad_header_is_bad_magic(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(BadMagic):
        read_matrix(path)


def test_csv_bad_float_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("c0\n1.0\noops\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert "line 3" in str(err.value)


def test_csv_nan_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("c0\nnan\n")
    with pytest.raises(NonFiniteValue) as err:
        read_matrix(path)
    assert "line 2" in str(err.value)


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.txt"
    write_labels(np.array([1, 1, 2]), path)
    assert np.array_equal(read_labels(path), [1, 1, 2])
    assert path.read_text() == "1\n1\n2\n"


def test_labels_allow_noise_marker(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("-1\n2\n")
    assert np.array_equal(read_labels(path, noise_label=-1), [-1, 2])


def test_labels_parse_error_names_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("x\n")
    with pytest.raises(ParseError) as err:
        read_labels(path)
    assert "line 1" in str(err.value)
    path.write_bytes(b"1\n2\x0c3\nx\n")  # a form feed does not end a line
    with pytest.raises(ParseError, match=r": line 2: not an integer: '2\\x0c3'"):
        read_labels(path)


def test_labels_below_noise_rejected(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("2\n0\n-2\n")
    for noise_label in (None, -1, -2):  # ids start at 1, whatever the noise label
        with pytest.raises(ParseError, match="line 2: label 0 below 1"):
            read_labels(path, noise_label=noise_label)


def test_token_bundle_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    examples = [
        (rng.standard_normal((4, 3)), np.array([1.0, 0.0, 1.0, 1.0])),
        (rng.standard_normal((2, 3)), np.array([1.0, 1.0])),
    ]
    write_token_bundle(tmp_path / "bundle", examples)
    back = read_token_bundle(tmp_path / "bundle")
    assert [stem for stem, _, _ in back] == ["ex000000", "ex000001"]
    for (hidden, mask), (_, h, m) in zip(examples, back):
        assert np.array_equal(h, hidden)
        assert np.array_equal(m, mask)


def test_manifest_round_trip_and_sorted_keys(tmp_path):
    path = tmp_path / "run.manifest.txt"
    write_manifest(path, {"zeta": "1", "alpha": "2"})
    assert path.read_text() == "alpha=2\nzeta=1\n"
    assert read_manifest(path) == {"zeta": "1", "alpha": "2"}
    write_manifest(path, {"b": "u\x0cv=w"})  # a form feed does not end a line
    assert read_manifest(path) == {"b": "u\x0cv=w"}


def test_manifest_rejects_reserved_characters(tmp_path):
    with pytest.raises(ValueError):
        write_manifest(tmp_path / "m.txt", {"a=b": "1"})
    with pytest.raises(ValueError):
        write_manifest(tmp_path / "m.txt", {"a": "1\n2"})
    for entries in ({"a": "1\r2"}, {"a\rb": "1"}):
        with pytest.raises(ValueError, match=re.escape(repr(next(iter(entries))))):
            write_manifest(tmp_path / "m.txt", entries)


# Manifest text: anything UTF-8 can hold (no surrogates) but a line break.
_ENTRY_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                      max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_ENTRY_TEXT.filter(lambda key: "=" not in key),
                       st.one_of(_ENTRY_TEXT, st.integers(), st.floats()), max_size=6))
def test_manifest_round_trip_property(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("man") / "m.txt"
    write_manifest(path, entries)
    assert read_manifest(path) == {key: str(value) for key, value in entries.items()}


@settings(max_examples=100, deadline=None)
@given(key=_ENTRY_TEXT, value=_ENTRY_TEXT, bad=st.sampled_from(["\r", "\n", "\r\n", "="]),
       in_key=st.booleans(), at=st.integers(0, 8))
def test_manifest_refuses_a_break_or_an_equals_sign_in_a_key(tmp_path_factory, key, value,
                                                             bad, in_key, at):
    if in_key or bad == "=":
        key = key[:at] + bad + key[at:]
    else:
        value = value[:at] + bad + value[at:]
    path = tmp_path_factory.mktemp("man") / "m.txt"
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        write_manifest(path, {"other": "1", key: value})
    assert not path.exists()


def test_read_lines_splits_only_at_lf_cr_and_crlf(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("a\r\nb\rc\nd\x0be\x0cf\x1cg\x1dh\x1ei\x85j\u2028k\u2029l\n".encode())
    assert read_lines(path) == ["a", "b", "c", "d\x0be\x0cf\x1cg\x1dh\x1ei\x85j\u2028k\u2029l"]
    for data, lines in ((b"", []), (b"\n", [""]), (b"a", ["a"]), (b"a\n\n", ["a", ""]),
                        (b"a\r", ["a"]), (b"\r\r\n", ["", ""])):
        path.write_bytes(data)
        assert read_lines(path) == lines, data


def _iterated_lines(text):
    """text's lines as iterating a file opened with newline="" gives them,
    less each line's break."""
    out = []
    for line in io.StringIO(text, newline=""):
        cut = 2 if line.endswith("\r\n") else 1 if line.endswith(("\r", "\n")) else 0
        out.append(line[:len(line) - cut])
    return out


@settings(max_examples=100, deadline=None)
@given(st.text(st.one_of(st.sampled_from("\r\n\x0b\x0c\x1c\x85\u2028 a1"),
                         st.characters(blacklist_categories=("Cs",))), max_size=30))
def test_read_lines_splits_as_file_iteration(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    assert read_lines(path) == _iterated_lines(text)


@pytest.mark.parametrize("data, line", [
    (b"\xff", 1),
    (b"ok\n\x80\n", 2),
    (b"a\r\nb\rc\nd\xe2\x82", 4),
    (b"a\r\xff", 2),
    (b"a\r\n\n\xe2\x82\xac\xff", 3),
], ids=["0xff", "lone-continuation-byte", "cut-3-byte-sequence", "after-cr",
        "after-a-3-byte-character"])
def test_read_lines_undecodable_byte_names_its_line(tmp_path, data, line):
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: not UTF-8 "):
        read_lines(path)


def test_csv_matrix_that_is_not_utf8_is_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"\x93NUMPY\x01\x00")
    _raises_exactly(BadMagic, f"{path}: not a UCSM file and not readable as CSV ('utf-8' codec "
                              f"can't decode byte 0x93 in position 0: invalid start byte)",
                    lambda: read_matrix(path))


def test_failed_write_keeps_earlier_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "labels.txt"
    write_labels(np.array([4, 5, 6]), path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_labels(np.array([1, 2, "x"], dtype=object), path)  # fails on row 3
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["labels.txt"]


def test_write_into_missing_directory_is_io_error(tmp_path):
    path = tmp_path / "missing" / "m.ucsm"
    with pytest.raises(IoError, match=f"cannot write {path}: ") as info:
        write_matrix(np.eye(2), path)
    assert ".tmp" not in str(info.value)


def test_missing_input_is_an_io_error(tmp_path):
    absent = tmp_path / "absent"
    for read in (read_matrix, read_labels, read_token_bundle):
        with pytest.raises(MissingInput, match=str(absent)) as info:
            read(absent)
        assert isinstance(info.value, IoError)
    with pytest.raises(IoError) as info:  # the file to write is not an input
        write_matrix(np.eye(2), absent / "m.ucsm")
    assert not isinstance(info.value, MissingInput)
    write_token_bundle(tmp_path / "bundle", [(np.eye(2), np.ones(2))])
    mask = tmp_path / "bundle" / "ex000000.mask.ucsm"
    mask.unlink()
    with pytest.raises(MissingInput, match=str(mask)):
        read_token_bundle(tmp_path / "bundle")


def test_sha256_matches_hashlib(tmp_path):
    import hashlib

    path = tmp_path / "blob.bin"
    path.write_bytes(b"spectral")
    assert sha256_file(path) == hashlib.sha256(b"spectral").hexdigest()


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_round_trip_is_identity_for_finite_f64(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("rt") / "m.ucsm"
    write_matrix(m, path)
    assert np.array_equal(read_matrix(path), m)


def _block_rows(cols):
    """Rows per block that read_matrix reads and checks at a time."""
    return max(1, matrix_store._READ_BLOCK // (8 * cols))


@settings(max_examples=40, deadline=None)
@given(dtype=st.sampled_from(["f32", "f64"]), cols=st.integers(1, 300),
       blocks=st.integers(0, 2), shift=st.integers(-1, 1),
       scale=st.sampled_from([1e-30, 1.0, 1e30]), seed=st.integers(0, 2**32 - 1))
def test_round_trip_on_both_sides_of_a_read_block(tmp_path_factory, dtype, cols, blocks,
                                                  shift, scale, seed):
    rows = max(0, blocks * _block_rows(cols) + shift)
    x = np.random.default_rng(seed).standard_normal((rows, cols)) * scale
    path = tmp_path_factory.mktemp("rt") / "m.ucsm"
    write_matrix(x, path, dtype=dtype)
    got = read_matrix(path)
    want = x.astype(np.float32).astype(np.float64) if dtype == "f32" else x
    assert got.dtype == np.float64 and got.shape == (rows, cols)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_zero_row_matrix_round_trip(tmp_path, dtype):
    path = tmp_path / "empty.ucsm"
    write_matrix(np.empty((0, 5)), path, dtype=dtype)
    got = read_matrix(path)
    assert got.shape == (0, 5) and got.dtype == np.float64


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 2**63 - 1), max_size=200))
def test_labels_round_trip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("lab") / "labels.txt"
    write_labels(np.array(values, dtype=np.int64), path)
    got = read_labels(path)
    assert got.dtype == np.int64 and got.tolist() == values


def _raises_exactly(cls, message, fn):
    with pytest.raises(cls) as info:
        fn()
    assert type(info.value) is cls
    assert str(info.value) == message


def test_truncated_header_short_and_long_payload_messages(tmp_path):
    path = tmp_path / "m.ucsm"
    path.write_bytes(MAGIC + b"\x01\x00\x01\x03\x00")
    _raises_exactly(DimensionOverflow, f"{path}: truncated header (9 bytes)",
                    lambda: read_matrix(path))
    header = HEADER.pack(MAGIC, FORMAT_VERSION, 1, 3, 4)
    for size in (95, 97):
        path.write_bytes(header + b"\x00" * size)
        _raises_exactly(DimensionOverflow,
                        f"{path}: payload is {size} bytes, header declares 96",
                        lambda: read_matrix(path))


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_non_finite_offset_in_first_middle_and_last_block(tmp_path, dtype):
    cols = 1000
    step = _block_rows(cols)
    x = np.ones((3 * step, cols))
    itemsize = 4 if dtype == "f32" else 8
    # the first bad value in each block, and a later one that must not be named
    last = (3 * step - 1, cols - 1)
    for row, col, value in ((0, 5, np.nan), (step + step // 2, 7, np.inf), (*last, -np.inf)):
        cells = [(row, col, value)] + ([(*last, np.nan)] if (row, col) != last else [])
        path = tmp_path / f"bad{row}.ucsm"
        write_matrix(x, path, dtype=dtype)
        with open(path, "r+b") as fh:  # write_matrix refuses non-finite values
            for r, c, v in cells:
                fh.seek(HEADER.size + (r * cols + c) * itemsize)
                fh.write(np.array(v, dtype=f"<f{itemsize}").tobytes())
        offset = HEADER.size + (row * cols + col) * itemsize
        _raises_exactly(NonFiniteValue, f"{path}: non-finite value at byte offset {offset}",
                        lambda: read_matrix(path))


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_read_matrix_peak_is_one_result_plus_one_block(tmp_path, dtype):
    x = np.random.default_rng(0).standard_normal((3000, 300))
    path = tmp_path / "big.ucsm"
    write_matrix(x, path, dtype=dtype)
    tracemalloc.start()
    try:
        got = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == x.nbytes
    assert peak <= got.nbytes + matrix_store._READ_BLOCK, peak - got.nbytes
