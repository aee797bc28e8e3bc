"""Mutation fuzz of the readers.

A valid labels file, --subset file, selection CSV and config file have lines
deleted, duplicated, edited, truncated or inserted, an odd break character
(one str.splitlines() breaks at, but a text file's lines do not) put inside
a line, or an invalid UTF-8 sequence put anywhere. A valid pool, dictionary
and codes file (.ucsm) have a header byte flipped, are truncated or extended,
or have a NaN, an infinity or 1e300 (finite, but its square overflows)
written into the payload. Each mutant is fed through cli.main to the
commands that read it. A run either succeeds or exits 2, 3 or 4 with stderr
naming the mutated file; it never raises.
"""

import contextlib
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucs.cli import main
from ucs.matrix_store import write_labels, write_matrix, write_token_bundle
from ucs.synth_oracle import Population, sample_pool

# Line text: integers well past int64, or short arbitrary text without line
# breaks (surrogates cannot be written as UTF-8).
_LINE = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=8),
)
_OPS = ("delete", "duplicate", "edit", "truncate", "insert", "odd_break", "bad_utf8")
# Characters str.splitlines() breaks at besides "\r" and "\n".
_ODD_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# Invalid UTF-8: a byte that starts no sequence, a lone continuation byte,
# and a 3-byte sequence cut short.
_BAD_UTF8 = (b"\xff", b"\x80", b"\xe2\x82")


@st.composite
def _mutants(draw, text: str) -> bytes:
    """text, as UTF-8, with one to three mutations; a truncation ends the
    file partway through a line."""
    lines = text.splitlines()
    end, bad = "\n", 0
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(_OPS))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "bad_utf8":  # put in once the text is bytes
            bad += 1
        elif op == "insert":
            lines.insert(i, draw(_LINE))
        elif not lines:
            continue
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "edit":
            lines[i] = draw(_LINE)
        elif op == "odd_break":
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.sampled_from(_ODD_BREAKS)) + lines[i][j:]
        else:
            lines[i:] = [lines[i][:draw(st.integers(0, len(lines[i])))]]
            end = ""
            break
    data = ("\n".join(lines) + end if lines else "").encode()
    for _ in range(bad):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from(_BAD_UTF8)) + data[k:]
    return data


_UCSM_HEADER = 23  # magic, version, dtype code, rows, cols
_UCSM_OPS = ("flip_header", "truncate", "extend", "non_finite")


@st.composite
def _ucsm_mutants(draw, data: bytes) -> bytes:
    """An f64 .ucsm file's bytes with one header byte flipped, cut short,
    extended, or with one payload value set to NaN, an infinity or 1e300."""
    op = draw(st.sampled_from(_UCSM_OPS))
    if op == "flip_header":
        k = draw(st.integers(0, _UCSM_HEADER - 1))
        return data[:k] + bytes([data[k] ^ draw(st.integers(1, 255))]) + data[k + 1:]
    if op == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if op == "extend":
        return data + draw(st.binary(min_size=1, max_size=16))
    at = _UCSM_HEADER + 8 * draw(st.integers(0, (len(data) - _UCSM_HEADER) // 8 - 1))
    value = draw(st.sampled_from((math.nan, math.inf, -math.inf, 1e300)))
    return data[:at] + struct.pack("<d", value) + data[at + 8:]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A 30-row pool with its labels, a subset file, a selection CSV, a
    config file, and the pool's dictionary and codes."""
    d = tmp_path_factory.mktemp("fuzz")
    x, labels = sample_pool(Population.zipf(8, 1.1), 30, dim=6, spread=0.3, seed=2)
    files = {name: str(d / name) for name in
             ("pool.ucsm", "labels.txt", "subset.txt", "sel.csv", "out.csv", "run.cfg",
              "dict.ucsm", "codes.ucsm", "out.ucsm", "out.txt")}
    write_matrix(x, files["pool.ucsm"])
    write_labels(labels, files["labels.txt"])
    with open(files["subset.txt"], "w", encoding="utf-8") as fh:
        fh.write("0 3 5\n7 9\n\n11 29\n")
    with open(files["run.cfg"], "w", encoding="utf-8") as fh:
        fh.write("# the README quick start's config\ndict_n_components = 32\n"
                 "dbscan_k = 5\ndbscan_q = 0.05\nbudget = 8\nsgt_t = 2.0\nseed = 11\n")
    assert main(["select", "--embeddings", files["pool.ucsm"], "--labels",
                 files["labels.txt"], "--budget", "6", "--out", files["sel.csv"]]) == 0
    assert main(["dict-fit", "--input", files["pool.ucsm"], "--out", files["dict.ucsm"],
                 "--dict-n-components", "3"]) == 0
    assert main(["dict-encode", "--dict", files["dict.ucsm"], "--input", files["pool.ucsm"],
                 "--out", files["codes.ucsm"]]) == 0
    files["mutant"] = str(d / "mutant.txt")
    files["mutant.ucsm"] = str(d / "mutant.ucsm")
    files["joint"] = str(d / "joint")
    return files


def _text(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _run(argv):
    """argv's exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _runs_cleanly(argv, mutant):
    """argv exits 0, or 2, 3 or 4 with stderr naming the mutant."""
    code, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code:
        assert mutant in err, (argv, err)


def _commands(files, name):
    """Each command that reads the file `name`, with its mutant in its place."""
    f = {**files, name: files["mutant.ucsm" if name.endswith(".ucsm") else "mutant"]}
    encode = ["dict-encode", "--dict", f["dict.ucsm"], "--input", f["pool.ucsm"],
              "--out", f["out.ucsm"]]
    cluster = ["cluster", "--input", f[name], "--out", f["out.txt"], "--dbscan-k", "5"]
    select = ["select", "--embeddings", f[name], "--labels", f["labels.txt"],
              "--budget", "4", "--out", f["out.csv"]]
    fit = ["dict-fit", "--input", f["pool.ucsm"], "--out", f["out.ucsm"],
           "--dict-n-components", "3"]
    reduce = ["preprocess", "--input", f["pool.ucsm"], "--out", f["out.ucsm"],
              "--dict-pca-dim", "4"]
    joint = ["joint-fit", "--inputs", f["pool.ucsm"], f["codes.ucsm"],
             "--out-stem", f["joint"], "--dict-n-components", "3"]
    return {
        "labels.txt": [
            ["spectrum", "--labels", f["labels.txt"]],
            ["estimate", "--labels", f["labels.txt"], "--subset", f["subset.txt"]],
            ["select", "--embeddings", f["pool.ucsm"], "--labels", f["labels.txt"],
             "--budget", "4", "--out", f["out.csv"]],
            ["analyze", "--labels", f["labels.txt"], "--selections", f["sel.csv"]],
        ],
        "subset.txt": [
            ["spectrum", "--labels", f["labels.txt"], "--subset", f["subset.txt"]],
            ["estimate", "--labels", f["labels.txt"], "--subset", f["subset.txt"]],
        ],
        "sel.csv": [
            ["analyze", "--labels", f["labels.txt"], "--selections", f["sel.csv"]],
        ],
        "run.cfg": [
            ["spectrum", "--config", f["run.cfg"], "--labels", f["labels.txt"]],
        ],
        "dict.ucsm": [encode],
        "codes.ucsm": [cluster, select, joint],
        "pool.ucsm": [encode, cluster, select, fit, reduce, joint],
    }[name]


@pytest.mark.parametrize("name, examples", [
    ("labels.txt", 40), ("subset.txt", 60), ("sel.csv", 60), ("run.cfg", 60),
])
def test_mutated_text_input_fails_naming_its_file(valid, name, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def run(data):
        with open(valid["mutant"], "wb") as fh:
            fh.write(data.draw(_mutants(_text(valid[name]))))
        for argv in _commands(valid, name):
            _runs_cleanly(argv, valid["mutant"])

    run()


@pytest.mark.parametrize("name", ["dict.ucsm", "codes.ucsm", "pool.ucsm"])
def test_mutated_ucsm_input_fails_naming_its_file(valid, name):
    with open(valid[name], "rb") as fh:
        original = fh.read()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def run(data):
        with open(valid["mutant.ucsm"], "wb") as fh:
            fh.write(data.draw(_ucsm_mutants(original)))
        for argv in _commands(valid, name):
            _runs_cleanly(argv, valid["mutant.ucsm"])

    run()


@pytest.mark.parametrize("suffix", [".tokens.ucsm", ".mask.ucsm"])
def test_mutated_bundle_file_fails_naming_its_example(tmp_path, suffix):
    # six 5 x 8 examples whose masks weigh their tokens 0, 1 or 2, one file
    # of one example mutated at a time
    rng = np.random.default_rng(5)
    examples = [(rng.standard_normal((5, 8)), rng.integers(0, 3, 5).astype(float))
                for _ in range(6)]
    examples = [(h, m if m.any() else np.ones(5)) for h, m in examples]
    bundle = str(tmp_path / "bundle")
    write_token_bundle(bundle, examples)
    out = str(tmp_path / "out.ucsm")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def run(data):
        stem = f"ex{data.draw(st.integers(0, 5)):06d}"
        path = f"{bundle}/{stem}{suffix}"
        with open(path, "rb") as fh:
            original = fh.read()
        mutant = data.draw(_ucsm_mutants(original))
        try:
            with open(path, "wb") as fh:
                fh.write(mutant)
            code, err = _run(["preprocess", "--bundle", bundle, "--out", out,
                              "--dict-pca-dim", "4"])
        finally:
            with open(path, "wb") as fh:
                fh.write(original)
        assert code in (0, 2, 3, 4), err
        if code:
            assert path in err or f"--bundle {bundle}: {stem}" in err, err

    run()


def test_form_feed_in_labels_is_not_a_line_break(valid):
    with open(valid["mutant"], "wb") as fh:
        fh.write(b"1\n2\x0c3\n4\n")
    code, err = _run(["spectrum", "--labels", valid["mutant"]])
    assert code == 2, err
    assert f"{valid['mutant']}: line 2: not an integer: '2\\x0c3'" in err


@pytest.mark.parametrize("name", ["labels.txt", "subset.txt", "run.cfg", "sel.csv"])
def test_undecodable_byte_exits_2_naming_file_and_line(valid, name):
    data = _text(valid[name]).encode()
    at = data.index(b"\n") + 2  # the second character of line 2
    with open(valid["mutant"], "wb") as fh:
        fh.write(data[:at] + b"\xff" + data[at:])
    for argv in _commands(valid, name):
        code, err = _run(argv)
        assert code == 2, (argv, err)
        assert f"{valid['mutant']}:2: not UTF-8 " in err, (argv, err)
        assert "Traceback" not in err
