"""Mutation fuzz of the text readers.

A valid labels file, --subset file and selection CSV have lines deleted,
duplicated, edited, truncated or inserted, and each mutant is fed through
cli.main to every command that reads it. A run either succeeds or exits 2, 3
or 4 with stderr naming the mutated file; it never raises.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucs.cli import main
from ucs.matrix_store import write_labels, write_matrix
from ucs.synth_oracle import Population, sample_pool

# Line text: integers well past int64, or short arbitrary text without line
# breaks (surrogates cannot be written as UTF-8).
_LINE = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=8),
)
_OPS = ("delete", "duplicate", "edit", "truncate", "insert")


@st.composite
def _mutants(draw, text: str) -> str:
    """text with one to three line mutations; a truncation ends the file
    partway through a line."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(_OPS))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert":
            lines.insert(i, draw(_LINE))
        elif not lines:
            continue
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "edit":
            lines[i] = draw(_LINE)
        else:
            cut = lines[i][:draw(st.integers(0, len(lines[i])))]
            return "\n".join(lines[:i] + [cut])
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A 30-row pool with its labels, a subset file and a selection CSV."""
    d = tmp_path_factory.mktemp("fuzz")
    x, labels = sample_pool(Population.zipf(8, 1.1), 30, dim=6, spread=0.3, seed=2)
    files = {name: str(d / name) for name in
             ("pool.ucsm", "labels.txt", "subset.txt", "sel.csv", "out.csv")}
    write_matrix(x, files["pool.ucsm"])
    write_labels(labels, files["labels.txt"])
    with open(files["subset.txt"], "w", encoding="utf-8") as fh:
        fh.write("0 3 5\n7 9\n\n11 29\n")
    assert main(["select", "--embeddings", files["pool.ucsm"], "--labels",
                 files["labels.txt"], "--budget", "6", "--out", files["sel.csv"]]) == 0
    files["mutant"] = str(d / "mutant.txt")
    return files


def _text(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _runs_cleanly(argv, mutant):
    """argv exits 0, or 2, 3 or 4 with stderr naming the mutant."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code:
        assert mutant in err.getvalue(), (argv, err.getvalue())


def _commands(files, name):
    """Each command that reads the file `name`, with the mutant in its place."""
    f = {**files, name: files["mutant"]}
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
    }[name]


@pytest.mark.parametrize("name, examples", [
    ("labels.txt", 40), ("subset.txt", 60), ("sel.csv", 60),
])
def test_mutated_text_input_fails_naming_its_file(valid, name, examples):
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def run(data):
        text = data.draw(_mutants(_text(valid[name])))
        with open(valid["mutant"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for argv in _commands(valid, name):
            _runs_cleanly(argv, valid["mutant"])

    run()
