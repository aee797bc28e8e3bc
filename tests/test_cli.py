import argparse
import csv
import dataclasses
import inspect
import os
import re

import numpy as np
import pytest

import ucs.cli
from ucs.cli import (
    CONFIG_DEFAULTS,
    CONFIG_KEYS,
    PIPELINE_STAGES,
    build_parser,
    check_config,
    load_config,
    main,
    resolve_config,
    run_pipeline,
)
from ucs.clustering import cluster_pool
from ucs.coverage import SgtConfig, coverage_phi, k0_for
from ucs.errors import ConfigError, MissingInput
from ucs.latent_dictionary import fit_dictionary, fit_joint_dictionary
from ucs.matrix_store import read_labels, read_matrix, write_labels, write_matrix
from ucs.preprocess import preprocess_pool
from ucs.selection import SelectionConfig, dpp_kernel
from ucs.synth_oracle import Population, sample_pool


def _manifest(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            out[key] = value
    return out


def _write_pool(tmp_path, n=40, k=6, dim=8, seed=0, name="pool.ucsm"):
    x, labels = sample_pool(Population.uniform(k), n, dim=dim, seed=seed)
    pool_path = str(tmp_path / name)
    write_matrix(x, pool_path)
    labels_path = str(tmp_path / "labels.txt")
    write_labels(labels, labels_path)
    return pool_path, labels_path


def test_load_config_parses_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nbudget = 4\nsgt_t=2.5\nclustering=dbscan\n")
    cfg = load_config(str(path))
    assert cfg == {"budget": 4, "sgt_t": 2.5, "clustering": "dbscan"}
    assert type(cfg["budget"]) is int
    assert type(cfg["sgt_t"]) is float


def test_load_config_unknown_key_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("budget=4\nno_such_key=1\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*no_such_key"):
        load_config(str(path))


def test_load_config_bad_value_and_syntax(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("budget=ten\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(str(path))
    path.write_text("just words\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(MissingInput):
        load_config("/nonexistent/run.cfg")


def test_resolve_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("budget=7\nsgt_lambda=0.9\n")
    args = argparse.Namespace(config=str(path), budget=3)
    cfg = resolve_config(args)
    assert cfg["budget"] == 3  # flag wins over file
    assert cfg["sgt_lambda"] == 0.9  # file wins over default
    assert cfg["votek_k"] == CONFIG_DEFAULTS["votek_k"]


@pytest.mark.parametrize("key", ["budget", "n_runs", "dict_pca_dim", "dict_n_components",
                                 "dbscan_k", "dbscan_min_samples", "sgt_bin_size",
                                 "votek_k", "candidate_num"])
@pytest.mark.parametrize("value", [0, -4])
def test_resolve_config_rejects_count_below_one(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be >= 1, got {value}"):
        resolve_config(argparse.Namespace(**{key: value}))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_load_config_rejects_non_finite_float(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(f"budget=4\nsgt_lambda={text}\n")
    with pytest.raises(ConfigError, match=rf"run\.cfg:2: bad value for sgt_lambda"):
        load_config(str(path))


def test_non_finite_float_flag_exits_2(tmp_path, capsys):
    _, labels_path = _write_pool(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--labels", labels_path, "--sgt-t", "nan"])
    assert info.value.code == 2
    assert "--sgt-t" in capsys.readouterr().err


def test_resolve_config_rejects_bad_clustering():
    with pytest.raises(ConfigError):
        resolve_config(argparse.Namespace(clustering="kmeans"))


# The keys each command read when they were listed by hand in
# COMMAND_CONFIG_KEYS; deriving them from CONFIG_KEYS must not change them.
_LEGACY_COMMAND_KEYS = {
    "ingest": set(),
    "preprocess": {"dict_pca_dim"},
    "dict-fit": {"dict_n_components", "dict_alpha", "seed"},
    "dict-encode": {"dict_alpha"},
    "joint-fit": {"dict_n_components", "dict_alpha", "seed"},
    "cluster": {"clustering", "dbscan_k", "dbscan_q", "dbscan_min_samples"},
    "spectrum": set(),
    "estimate": {"sgt_t", "sgt_bin_size", "sgt_offset"},
    "prior": set(),
    "select": {"budget", "sgt_lambda", "sgt_t", "sgt_bin_size", "sgt_offset",
               "votek_k", "dpp_scale_factor", "candidate_num", "seed"},
    "synth": {"seed", "sgt_t", "sgt_bin_size", "sgt_offset"},
    "analyze": set(),
    "pipeline": set(CONFIG_DEFAULTS),
}


def _subparsers():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


def test_command_config_flags_are_unchanged():
    commands = _subparsers()
    assert set(commands) == set(_LEGACY_COMMAND_KEYS)
    for name, sp in commands.items():
        flags = {a.dest for a in sp._actions if a.dest in CONFIG_DEFAULTS}
        assert flags == _LEGACY_COMMAND_KEYS[name], name


def test_manifest_config_entries_are_unchanged(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=30, k=5, dim=6, seed=5)
    wd = tmp_path / "w"
    assert main(["pipeline", "--input", pool_path, "--workdir", str(wd),
                 "--dict-n-components", "4", "--dict-pca-dim", "5",
                 "--dbscan-k", "3", "--budget", "3", "--n-runs", "1"]) == 0
    assert main(["ingest", "--input", pool_path,
                 "--out", str(tmp_path / "ingested.ucsm")]) == 0
    assert main(["joint-fit", "--inputs", pool_path, pool_path, "--out-stem",
                 str(tmp_path / "joint"), "--dict-n-components", "3",
                 "--max-iter", "2"]) == 0
    assert main(["synth", "--k-types", "3", "--n", "10",
                 "--out-stem", str(tmp_path / "syn")]) == 0
    stages = set()
    for root, _, names in os.walk(tmp_path):
        for name in names:
            if not name.endswith(".manifest.txt"):
                continue
            manifest = _manifest(os.path.join(root, name))
            stage = manifest["stage"]
            stages.add(stage)
            used = {k[len("config."):] for k in manifest if k.startswith("config.")}
            # synth's pool mode reads only the seed; its oracle mode, like
            # spectrum and estimate, writes no manifest.
            expected = {"seed"} if stage == "synth" else _LEGACY_COMMAND_KEYS[stage]
            assert used == expected, name
    assert stages == set(_LEGACY_COMMAND_KEYS) - {"spectrum", "estimate", "pipeline"}
    capsys.readouterr()


@pytest.mark.parametrize("command, flag", [
    ("dict-fit", "--max-iter"), ("joint-fit", "--max-iter"), ("estimate", "--k0"),
], ids=["dict-fit", "joint-fit", "estimate-k0"])
def test_negative_max_iter_is_rejected_by_the_parser(tmp_path, capsys, command,
                                                     flag):
    pool_path, labels_path = _write_pool(tmp_path)
    out = str(tmp_path / "out")
    io = {"dict-fit": ["--input", pool_path, "--out", out],
          "joint-fit": ["--inputs", pool_path, "--out-stem", out],
          "estimate": ["--labels", labels_path, "--out", out]}[command]
    with pytest.raises(SystemExit) as info:
        main([command, *io, flag, "-3"])
    assert info.value.code == 2
    assert f"{flag}: must be >= 0, got -3" in capsys.readouterr().err
    # a non-integer names the flag and the text, not the parser function
    for text in ("abc", "1.5"):
        with pytest.raises(SystemExit) as info:
            main([command, *io, flag, text])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: not an integer: '{text}'" in err
        assert "_non_negative_int" not in err
    assert not any(name.startswith("out") for name in os.listdir(tmp_path))
    # 0 is legal: 0 alternations return the seeded dictionary, and k0 = 0
    # zeroes every weight.
    extra = ["--dict-n-components", "3"] if flag == "--max-iter" else []
    assert main([command, *io, flag, "0", *extra]) == 0
    capsys.readouterr()


def test_library_defaults_match_config_defaults():
    def signature_defaults(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()}

    selection = {f.name: f.default for f in dataclasses.fields(SelectionConfig)}
    sgt = {f.name: f.default for f in dataclasses.fields(SgtConfig)}
    cluster = signature_defaults(cluster_pool)
    fit = signature_defaults(fit_dictionary)
    joint = signature_defaults(fit_joint_dictionary)
    # (library default, config key); seed is left out on purpose: the
    # library's default is 0 and the CLI's is 42.
    pairs = [
        (selection["budget"], "budget"),
        (selection["lam"], "sgt_lambda"),
        (selection["dpp_scale_factor"], "dpp_scale_factor"),
        (selection["votek_k"], "votek_k"),
        (sgt["t"], "sgt_t"),
        (sgt["bin_size"], "sgt_bin_size"),
        (sgt["offset_alpha"], "sgt_offset"),
        (cluster["method"], "clustering"),
        (cluster["dbscan_k"], "dbscan_k"),
        (cluster["dbscan_q"], "dbscan_q"),
        (cluster["min_samples"], "dbscan_min_samples"),
        (fit["n_atoms"], "dict_n_components"),
        (fit["ridge_alpha"], "dict_alpha"),
        (joint["n_atoms"], "dict_n_components"),
        (joint["ridge_alpha"], "dict_alpha"),
        (signature_defaults(preprocess_pool)["d_prime"], "dict_pca_dim"),
        (signature_defaults(dpp_kernel)["scale"], "dpp_scale_factor"),
    ]
    for default, key in pairs:
        assert default == CONFIG_DEFAULTS[key], key
        assert type(default) is type(CONFIG_DEFAULTS[key]), key


def test_readme_config_table_matches_config_keys():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Configuration", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, default, rule = (cell.strip().replace("`", "")
                                  for cell in line.strip("|").split("|")[:3])
            rows[key] = (default, rule)
    assert rows == {key: (str(default), rule)
                    for key, (default, rule, *_) in ucs.cli.CONFIG_KEYS.items()}
    assert list(rows) == list(CONFIG_DEFAULTS)


def test_every_subparser_documents_config_keys():
    for name, sp in _subparsers().items():
        assert "config keys consumed:" in sp.format_help(), name


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery=1\n")
    _, labels_path = _write_pool(tmp_path)
    assert main(["spectrum", "--labels", labels_path, "--config", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--labels", "ABSENT"],
    ["estimate", "--labels", "LABELS", "--subset", "ABSENT"],
    ["spectrum", "--labels", "LABELS", "--config", "ABSENT"],
    ["dict-fit", "--input", "ABSENT", "--out", "OUT"],
    ["dict-encode", "--dict", "ABSENT", "--input", "POOL", "--out", "OUT"],
    ["analyze", "--labels", "LABELS", "--selections", "ABSENT"],
    ["preprocess", "--bundle", "ABSENT", "--out", "OUT"],
    ["pipeline", "--input", "ABSENT", "--workdir", "OUT"],
], ids=["--labels", "--subset", "--config", "--input", "--dict", "--selections",
        "--bundle", "pipeline-input"])
def test_exit_code_missing_input(tmp_path, capsys, argv):
    pool_path, labels_path = _write_pool(tmp_path)
    absent = str(tmp_path / "absent")
    paths = {"ABSENT": absent, "LABELS": labels_path, "POOL": pool_path,
             "OUT": str(tmp_path / "out")}
    assert main([paths.get(arg, arg) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("missing input: ") and absent in err
    assert not os.path.exists(paths["OUT"])


def test_exit_code_numeric_failure(tmp_path):
    zeros = str(tmp_path / "zeros.ucsm")
    write_matrix(np.zeros((10, 4)), zeros)
    out = str(tmp_path / "dict.ucsm")
    assert main(["dict-fit", "--input", zeros, "--out", out,
                 "--dict-n-components", "2"]) == 4


def test_ingest_roundtrip(tmp_path, capsys):
    src = tmp_path / "m.csv"
    src.write_text("c0,c1\n1.5,2.5\n-3.0,4.0\n")
    out = str(tmp_path / "m.ucsm")
    assert main(["ingest", "--input", str(src), "--out", out]) == 0
    assert np.array_equal(read_matrix(out), [[1.5, 2.5], [-3.0, 4.0]])
    manifest = _manifest(out + ".manifest.txt")
    assert manifest["stage"] == "ingest"
    assert "input.matrix.sha256" in manifest
    assert "timestamp" in manifest


def test_spectrum_and_estimate_reports(tmp_path, capsys):
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 1, 2, 3]), labels_path)
    out = str(tmp_path / "spec.txt")
    assert main(["spectrum", "--labels", labels_path, "--out", out]) == 0
    text = open(out).read()
    assert "subset_size  4" in text
    assert "size_1" in text and "size_2" in text

    est = str(tmp_path / "est.txt")
    assert main(["estimate", "--labels", labels_path, "--out", est,
                 "--sgt-t", "2.0"]) == 0
    fields = {}
    for line in open(est):
        name, value = line.split(None, 1)
        fields[name] = value.strip()
    assert fields["k_seen"] == "3"
    phi = float(fields["phi"])
    u_hat = float(fields["u_hat"])
    assert phi == pytest.approx(3 + u_hat, abs=1e-12)
    assert u_hat >= 0.0
    capsys.readouterr()


def test_spectrum_subset_file(tmp_path, capsys):
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 1, 2, 3]), labels_path)
    subset = tmp_path / "subset.txt"
    subset.write_text("0\n1\n")
    out = str(tmp_path / "spec.txt")
    assert main(["spectrum", "--labels", labels_path, "--subset", str(subset),
                 "--out", out]) == 0
    assert "subset_size  2" in open(out).read()
    capsys.readouterr()


def test_prior_csv_mean_one(tmp_path):
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 1, 1, 2, 3, 4]), labels_path)
    out = str(tmp_path / "prior.csv")
    assert main(["prior", "--labels", labels_path, "--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["cluster"] for row in rows] == ["1", "2", "3", "4"]
    weights = [float(row["weight"]) for row in rows]
    assert np.mean(weights) == pytest.approx(1.0, abs=1e-9)
    assert _manifest(out + ".manifest.txt")["stage"] == "prior"


def test_select_csv_schema_and_identity(tmp_path, capsys):
    pool_path, labels_path = _write_pool(tmp_path)
    out = str(tmp_path / "sel.csv")
    lam = 0.4
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", out, "--base", "votek", "--budget", "5",
                 "--sgt-lambda", str(lam), "--votek-k", "3"]) == 0
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["step", "index", "base_gain",
                                     "coverage_term", "total"]
        rows = list(reader)
    assert [int(r["step"]) for r in rows] == [0, 1, 2, 3, 4]
    indices = [int(r["index"]) for r in rows]
    assert len(set(indices)) == 5
    for row in rows:
        total = float(row["total"])
        assert total == pytest.approx(
            float(row["base_gain"]) + lam * float(row["coverage_term"]), abs=1e-9
        )
    manifest = _manifest(out + ".manifest.txt")
    assert manifest["stage"] == "select"
    assert manifest["base"] == "votek"
    assert manifest["config.budget"] == "5"
    capsys.readouterr()


def test_select_all_bases_and_rarity(tmp_path, capsys):
    pool_path, labels_path = _write_pool(tmp_path)
    for extra in (["--base", "dpp"], ["--base", "subset_utility"],
                  ["--base", "votek", "--rarity", "B1"],
                  ["--base", "votek", "--rarity", "B2"]):
        out = str(tmp_path / f"sel_{'_'.join(extra).replace('--', '')}.csv")
        code = main(["select", "--embeddings", pool_path, "--labels",
                     labels_path, "--out", out, "--budget", "4",
                     "--candidate-num", "10"] + extra)
        assert code == 0, extra
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4
    capsys.readouterr()


def test_select_rerun_identical_artifact(tmp_path, capsys):
    pool_path, labels_path = _write_pool(tmp_path)
    outs = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for out in outs:
        assert main(["select", "--embeddings", pool_path, "--labels",
                     labels_path, "--out", out, "--budget", "6"]) == 0
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
    a = _manifest(outs[0] + ".manifest.txt")
    b = _manifest(outs[1] + ".manifest.txt")
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b
    capsys.readouterr()


def _labels_with_noise(tmp_path):
    """Pool plus a labels file whose fourth line is the noise marker -1."""
    pool_path, labels_path = _write_pool(tmp_path)
    with open(labels_path) as fh:
        lines = fh.read().splitlines()
    lines[3] = "-1"
    bad = str(tmp_path / "noisy_labels.txt")
    with open(bad, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return pool_path, labels_path, bad


def _rejects_line_4(capsys, bad):
    err = capsys.readouterr().err
    assert bad in err and "line 4" in err and "label -1 below 1" in err


def test_select_rejects_labels_below_one(tmp_path, capsys):
    pool_path, _, bad = _labels_with_noise(tmp_path)
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", bad,
                 "--out", out, "--base", "dpp", "--budget", "2"]) == 2
    _rejects_line_4(capsys, bad)
    assert not os.path.exists(out)


def test_prior_rejects_labels_below_one_unless_noise(tmp_path, capsys):
    _, _, bad = _labels_with_noise(tmp_path)
    out = str(tmp_path / "prior.csv")
    assert main(["prior", "--labels", bad, "--out", out]) == 2
    _rejects_line_4(capsys, bad)
    assert main(["prior", "--labels", bad, "--out", out, "--noise-label", "-1"]) == 0
    with open(out, newline="") as fh:
        assert "-1" not in [row["cluster"] for row in csv.DictReader(fh)]


def test_analyze_rejects_labels_below_one(tmp_path, capsys):
    pool_path, labels_path, bad = _labels_with_noise(tmp_path)
    sel = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", sel, "--budget", "3"]) == 0
    capsys.readouterr()
    assert main(["analyze", "--labels", bad, "--selections", sel]) == 2
    _rejects_line_4(capsys, bad)


def _fails_writing(capsys, argv, out):
    """argv exits 2 with an error naming the unwritable out, no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and out in err


def test_select_unwritable_out_is_io_error(tmp_path, capsys):
    pool_path, labels_path = _write_pool(tmp_path)
    out = str(tmp_path / "missing" / "sel.csv")
    _fails_writing(capsys, ["select", "--embeddings", pool_path, "--labels",
                            labels_path, "--out", out, "--budget", "3"], out)


def test_prior_unwritable_out_is_io_error(tmp_path, capsys):
    _, labels_path = _write_pool(tmp_path)
    out = str(tmp_path / "missing" / "prior.csv")
    _fails_writing(capsys, ["prior", "--labels", labels_path, "--out", out], out)


def test_table_unwritable_out_is_io_error(tmp_path, capsys):
    _, labels_path = _write_pool(tmp_path)
    out = str(tmp_path / "missing" / "spec.txt")
    _fails_writing(capsys, ["spectrum", "--labels", labels_path, "--out", out], out)


@pytest.mark.parametrize("row", ["40", "-1"])
def test_select_query_row_outside_pool(tmp_path, capsys, row):
    pool_path, labels_path = _write_pool(tmp_path)  # 40 rows
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", out, "--base", "subset_utility", "--budget", "3",
                 "--query-row", row]) == 2
    err = capsys.readouterr().err
    assert f"--query-row {row}" in err and "40 rows" in err
    assert not os.path.exists(out)


def test_subset_file_bad_token_names_file_and_line(tmp_path, capsys):
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 1, 2, 3]), labels_path)
    subset = tmp_path / "subset.txt"
    subset.write_text("0 1\n2\nx3\n")
    for command in ("spectrum", "estimate"):
        assert main([command, "--labels", labels_path,
                     "--subset", str(subset)]) == 2
        err = capsys.readouterr().err
        assert f"{subset}:3" in err and "'x3'" in err


@pytest.mark.parametrize("index", ["-1", "4"])
def test_subset_file_index_outside_pool_names_line(tmp_path, capsys, index):
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 1, 2, 3]), labels_path)
    subset = tmp_path / "subset.txt"
    subset.write_text(f"0 1\n2 {index}\n")
    for command in ("spectrum", "estimate"):
        assert main([command, "--labels", labels_path,
                     "--subset", str(subset)]) == 2
        err = capsys.readouterr().err
        assert f"{subset}:2: index {index} outside 0..3" in err


@pytest.mark.parametrize("flag", ["--config", "--subset", "--selections"])
def test_directory_input_is_io_error(tmp_path, capsys, flag):
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 1, 2]), labels_path)
    d = str(tmp_path / "d")
    os.mkdir(d)
    command = "analyze" if flag == "--selections" else "estimate"
    assert main([command, "--labels", labels_path, flag, d]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and d in err


@pytest.mark.parametrize("text, line, message", [
    ("step,total\n0,1.0\n", 1, "no index column"),
    ("step,index\n0,1\n1,x\n", 3, "not an integer: 'x'"),
    ("step,index\n0,7\n", 2, "index 7 outside 0..2"),
    ("step,index\n0,0\n1,-1\n", 3, "index -1 outside 0..2"),
], ids=["no-index-column", "not-an-integer", "past-the-end", "negative"])
def test_analyze_rejects_bad_selection_csv(tmp_path, capsys, text, line, message):
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 1, 2]), labels_path)
    sel = tmp_path / "sel.csv"
    sel.write_text(text)
    assert main(["analyze", "--labels", labels_path, "--selections", str(sel)]) == 2
    err = capsys.readouterr().err
    assert f"{sel}:{line}: " in err and message in err


def test_synth_pool_and_oracle(tmp_path, capsys):
    stem = str(tmp_path / "syn")
    assert main(["synth", "--mode", "pool", "--k-types", "5", "--n", "30",
                 "--dim", "6", "--out-stem", stem, "--seed", "1"]) == 0
    pool = read_matrix(stem + ".pool.ucsm")
    labels = read_labels(stem + ".labels.txt")
    assert pool.shape == (30, 6)
    assert labels.shape == (30,)
    assert set(np.unique(labels)) <= set(range(1, 6))

    report = str(tmp_path / "oracle.txt")
    assert main(["synth", "--mode", "oracle", "--k-types", "5", "--n", "20",
                 "--trials", "5", "--t", "1.0", "--seed", "3",
                 "--out", report]) == 0
    text = open(report).read()
    for name in ("mean_new", "mean_estimate", "mean_abs_estimator_error"):
        assert name in text
    capsys.readouterr()


def test_synth_oracle_zipf_overflow_is_an_error_not_a_traceback(capsys):
    assert main(["synth", "--mode", "oracle", "--k-types", "50",
                 "--zipf-exponent", "-400", "--n", "20"]) == 2
    err = capsys.readouterr().err
    assert err == "error: zipf exponent -400.0 overflows float64 over 50 types\n"


def test_synth_pool_requires_out_stem(tmp_path):
    assert main(["synth", "--mode", "pool", "--k-types", "3", "--n", "5"]) == 2


def test_cluster_then_analyze(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=30, k=4, dim=5, seed=2)
    labels_out = str(tmp_path / "cl.txt")
    assert main(["cluster", "--input", pool_path, "--out", labels_out,
                 "--clustering", "dbscan", "--dbscan-k", "3",
                 "--dbscan-q", "0.5"]) == 0
    labels = read_labels(labels_out)
    assert labels.min() >= 1
    manifest = _manifest(labels_out + ".manifest.txt")
    assert manifest["stage"] == "cluster"
    assert "eps" in manifest

    sel = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_out,
                 "--out", sel, "--budget", "3"]) == 0
    report = str(tmp_path / "report.txt")
    assert main(["analyze", "--labels", labels_out, "--selections", sel,
                 "--out", report]) == 0
    text = open(report).read()
    assert "uniq_clusters" in text
    assert "mean_inv_size" in text
    capsys.readouterr()


def test_cluster_manifest_singleton_frac(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=30, k=4, dim=5, seed=2)
    out = str(tmp_path / "cl.txt")
    assert main(["cluster", "--input", pool_path, "--out", out,
                 "--clustering", "dbscan", "--dbscan-k", "3"]) == 0
    sizes = np.bincount(read_labels(out))[1:]
    assert 0 < np.count_nonzero(sizes == 1) < sizes.size
    assert float(_manifest(out + ".manifest.txt")["singleton_frac"]) == (
        np.count_nonzero(sizes == 1) / sizes.size)
    capsys.readouterr()


def test_dict_fit_manifest_objective_history(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=30, k=4, dim=6, seed=1)
    out = str(tmp_path / "dict.ucsm")
    assert main(["dict-fit", "--input", pool_path, "--out", out,
                 "--dict-n-components", "4", "--max-iter", "5", "--seed", "2"]) == 0
    book = fit_dictionary(read_matrix(pool_path), n_atoms=4,
                          ridge_alpha=CONFIG_DEFAULTS["dict_alpha"], max_iter=5, seed=2)
    manifest = _manifest(out + ".manifest.txt")
    history = [float(v) for v in manifest["objective_history"].split()]
    assert history == book.objective_history
    assert len(history) == int(manifest["n_iter"]) + 1
    assert history[-1] == float(manifest["objective"])
    capsys.readouterr()


def test_joint_fit_manifest_objective_history(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=30, k=4, dim=6, seed=1)
    stem = str(tmp_path / "joint")
    assert main(["joint-fit", "--inputs", pool_path, pool_path, "--out-stem", stem,
                 "--dict-n-components", "3", "--max-iter", "4", "--seed", "2"]) == 0
    source = read_matrix(pool_path)
    book = fit_joint_dictionary([source, source], n_atoms=3,
                                ridge_alpha=CONFIG_DEFAULTS["dict_alpha"],
                                max_iter=4, seed=2)
    manifest = _manifest(stem + ".dict.ucsm.manifest.txt")
    history = [float(v) for v in manifest["objective_history"].split()]
    assert history == book.objective_history
    assert len(history) == int(manifest["n_iter"]) + 1
    assert history[-1] == float(manifest["objective"])
    capsys.readouterr()


@pytest.mark.parametrize("base", ["votek", "dpp", "subset_utility"])
def test_select_manifest_u_hat_and_k0(tmp_path, capsys, base):
    pool_path, labels_path = _write_pool(tmp_path, n=40, k=6)
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", out, "--base", base, "--budget", "7",
                 "--sgt-t", "3.0", "--votek-k", "3"]) == 0
    with open(out, newline="") as fh:
        indices = [int(row["index"]) for row in csv.DictReader(fh)]
    manifest = _manifest(out + ".manifest.txt")
    phi, _, u_hat = coverage_phi(read_labels(labels_path), indices, SgtConfig(t=3.0))
    assert float(manifest["u_hat"]) == u_hat
    assert float(manifest["phi"]) == phi
    assert int(manifest["k0"]) == k0_for(3.0, len(indices)) == 2
    capsys.readouterr()


def test_pipeline_end_to_end_and_rerun(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=35, k=5, dim=10, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dict_n_components=6\ndict_pca_dim=8\ndbscan_k=3\ndbscan_q=0.3\n"
        "budget=4\nn_runs=2\nsgt_t=2.0\nvotek_k=3\nseed=11\n"
    )
    workdirs = [str(tmp_path / "w1"), str(tmp_path / "w2")]
    for wd in workdirs:
        assert main(["pipeline", "--input", pool_path, "--workdir", wd,
                     "--config", str(cfg)]) == 0
    artifacts = [
        "pool_reduced.ucsm", "dict.ucsm", "codes.ucsm", "labels.txt",
        "prior.csv", "select_run00.csv", "select_run01.csv", "report.txt",
    ]
    for name in artifacts:
        a = os.path.join(workdirs[0], name)
        b = os.path.join(workdirs[1], name)
        assert os.path.exists(a), name
        assert open(a, "rb").read() == open(b, "rb").read(), name
    report = open(os.path.join(workdirs[0], "report.txt")).read()
    fields = dict(line.split(None, 1) for line in report.splitlines())
    assert fields["n_selections"].strip() == "2"
    # each manifest carries only the config keys its stage read
    labels_manifest = _manifest(os.path.join(workdirs[0], "labels.txt.manifest.txt"))
    assert labels_manifest["config.dbscan_k"] == "3"
    assert "config.budget" not in labels_manifest
    for run in ("00", "01"):
        select_manifest = _manifest(
            os.path.join(workdirs[0], f"select_run{run}.csv.manifest.txt"))
        assert select_manifest["config.budget"] == "4"
        assert "config.dbscan_k" not in select_manifest
    capsys.readouterr()


def test_threads_flag_is_gone(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--input", pool_path, "--workdir", str(tmp_path / "w"),
              "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("base, rarity, selections", [
    ("votek", None, 1), ("dpp", None, 1), ("votek", "B1", 1),
    ("subset_utility", None, 3),
])
def test_pipeline_runs_seed_blind_selectors_once(tmp_path, capsys, monkeypatch,
                                                  base, rarity, selections):
    pool_path, _ = _write_pool(tmp_path, n=35, k=5, dim=10, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dict_n_components=6\ndict_pca_dim=8\ndbscan_k=3\ndbscan_q=0.3\n"
        "budget=4\nn_runs=3\nsgt_t=2.0\ncandidate_num=10\nseed=11\n"
    )
    seeds = []
    original = ucs.cli.run_selection

    def counting(x, labels, base, cfg, seed, *args, **kwargs):
        seeds.append(seed)
        return original(x, labels, base, cfg, seed, *args, **kwargs)

    monkeypatch.setattr(ucs.cli, "run_selection", counting)
    wd = str(tmp_path / "w")
    extra = ["--base", base] + (["--rarity", rarity] if rarity else [])
    assert main(["pipeline", "--input", pool_path, "--workdir", wd,
                 "--config", str(cfg)] + extra) == 0
    assert seeds == [11, 12, 13][:selections]
    # every run's artifact equals a selection made for that seed alone
    for run, seed in enumerate((11, 12, 13)):
        name = f"select_run{run:02d}.csv"
        ref = str(tmp_path / f"ref_{name}")
        assert main(["select", "--embeddings", os.path.join(wd, "pool_reduced.ucsm"),
                     "--labels", os.path.join(wd, "labels.txt"), "--out", ref,
                     "--config", str(cfg), "--seed", str(seed)] + extra) == 0
        got = tmp_path / "w" / name
        assert got.read_bytes() == (tmp_path / f"ref_{name}").read_bytes(), name
        assert _manifest(f"{got}.manifest.txt")["seed"] == str(seed)
    capsys.readouterr()


def _without_timestamp(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".manifest.txt"):
        data = b"".join(line for line in data.splitlines(True)
                        if not line.startswith(b"timestamp="))
    return data


@pytest.mark.parametrize("base", ["votek", "dpp"])
def test_pipeline_equals_the_subcommands(tmp_path, capsys, base):
    pool_path, _ = _write_pool(tmp_path, n=35, k=5, dim=10, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dict_n_components=6\ndict_pca_dim=8\ndbscan_k=3\ndbscan_q=0.3\n"
        "budget=4\nn_runs=2\nsgt_t=2.0\nseed=11\n"
    )
    wd = tmp_path / "pipeline"
    assert main(["pipeline", "--input", pool_path, "--workdir", str(wd),
                 "--config", str(cfg), "--base", base]) == 0
    hand = tmp_path / "hand"
    hand.mkdir()
    reduced, dictionary, codes, labels, prior, run00, run01, report = (
        str(hand / name) for name in (
            "pool_reduced.ucsm", "dict.ucsm", "codes.ucsm", "labels.txt",
            "prior.csv", "select_run00.csv", "select_run01.csv", "report.txt"))
    for argv in (
        ["preprocess", "--input", pool_path, "--out", reduced],
        ["dict-fit", "--input", reduced, "--out", dictionary],
        ["dict-encode", "--dict", dictionary, "--input", reduced, "--out", codes],
        ["cluster", "--input", codes, "--out", labels],
        ["prior", "--labels", labels, "--out", prior],
        ["select", "--embeddings", reduced, "--labels", labels, "--base", base,
         "--out", run00, run01],
        ["analyze", "--labels", labels, "--selections", run00, run01,
         "--out", report],
    ):
        assert main(argv + ["--config", str(cfg)]) == 0, argv[0]
    names = sorted(os.listdir(wd))
    assert names == sorted(os.listdir(hand)) and len(names) == 18
    for name in names:
        assert _without_timestamp(str(wd / name)) == \
            _without_timestamp(str(hand / name)), name
    capsys.readouterr()


def test_pipeline_workdir_may_start_with_dash(tmp_path, capsys, monkeypatch):
    pool_path, _ = _write_pool(tmp_path, n=30, k=5, dim=6, seed=5)
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", "--input", pool_path, "--workdir=-w",
                 "--dict-n-components", "4", "--dict-pca-dim", "5",
                 "--dbscan-k", "3", "--budget", "3", "--n-runs", "2"]) == 0
    assert (tmp_path / "-w" / "report.txt").exists()
    assert (tmp_path / "-w" / "select_run01.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("flags, key", [
    (["--sgt-offset", "3"], "sgt_offset"),
    (["--dpp-scale-factor", "-1", "--base", "dpp"], "dpp_scale_factor"),
    (["--dpp-scale-factor", "0"], "dpp_scale_factor"),
    (["--sgt-lambda", "-1"], "sgt_lambda"),
    (["--sgt-t", "0"], "sgt_t"),
    (["--dict-alpha", "-5"], "dict_alpha"),
    (["--dbscan-q", "2"], "dbscan_q"),
    (["--clustering", "kmeans"], "clustering"),
], ids=["sgt-offset", "dpp-scale-factor-dpp", "dpp-scale-factor-votek",
        "sgt-lambda", "sgt-t", "dict-alpha", "dbscan-q", "clustering"])
def test_pipeline_bad_value_fails_before_any_stage_writes(tmp_path, capsys,
                                                          flags, key):
    pool_path, _ = _write_pool(tmp_path)
    wd = tmp_path / "w"
    assert main(["pipeline", "--input", pool_path, "--workdir", str(wd)]
                + flags) == 2
    assert f"config error: {key} must be " in capsys.readouterr().err
    assert not wd.exists()


def test_pipeline_bad_config_file_value_names_line(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget=4\nsgt_offset = 3\n")
    wd = tmp_path / "w"
    assert main(["pipeline", "--input", pool_path, "--workdir", str(wd),
                 "--config", str(cfg)]) == 2
    assert f"{cfg}:2: sgt_offset must be in [1, 2], got 3.0" in capsys.readouterr().err
    assert not wd.exists()


def test_library_pipeline_checks_config_before_any_stage(tmp_path):
    pool_path, _ = _write_pool(tmp_path)
    wd = tmp_path / "lib"
    cfg = dict(CONFIG_DEFAULTS, dpp_scale_factor=-1.0)
    with pytest.raises(ConfigError, match="dpp_scale_factor must be > 0, got -1.0"):
        run_pipeline(cfg, pool_path, str(wd), list(PIPELINE_STAGES), "dpp")
    assert not wd.exists()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_check_config_rejects_non_finite_float_keys(value):
    float_keys = [key for key, row in CONFIG_KEYS.items() if isinstance(row[0], float)]
    assert float_keys
    for key in float_keys:
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got "):
            check_config(dict(CONFIG_DEFAULTS, **{key: value}))


@pytest.mark.parametrize("key, value, message", [
    ("budget", 2.5, "budget must be an integer, got 2.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("dbscan_k", True, "dbscan_k must be an integer, got True"),
    ("sgt_lambda", "0.1", "sgt_lambda must be a number, got '0.1'"),
    ("sgt_t", False, "sgt_t must be a number, got False"),
    ("clustering", 1, "clustering must be a string, got 1"),
], ids=["float-for-int", "float-seed", "bool-for-int", "str-for-float",
        "bool-for-float", "int-for-str"])
def test_check_config_rejects_wrong_types(key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        check_config(dict(CONFIG_DEFAULTS, **{key: value}))


def test_check_config_takes_an_int_for_a_float_key():
    check_config(dict(CONFIG_DEFAULTS, sgt_t=2, sgt_lambda=0))


_NO_LAMBDA = {k: v for k, v in CONFIG_DEFAULTS.items() if k != "sgt_lambda"}


@pytest.mark.parametrize("cfg, message", [
    (dict(CONFIG_DEFAULTS, sgt_lambda=float("inf")), "sgt_lambda must be finite, got inf"),
    (_NO_LAMBDA, "missing config keys: sgt_lambda"),
    (dict(CONFIG_DEFAULTS, sgt_lamda=0.5), "unknown config keys: sgt_lamda"),
], ids=["infinite-lambda", "missing-key", "unknown-key"])
def test_library_pipeline_rejects_bad_cfg_before_any_stage(tmp_path, cfg, message):
    pool_path, _ = _write_pool(tmp_path)
    wd = tmp_path / "lib"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_pipeline(cfg, pool_path, str(wd), list(PIPELINE_STAGES), "votek")
    assert not wd.exists()


def test_resumed_pipeline_into_missing_workdir_creates_nothing(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path)
    wd = tmp_path / "w"
    assert main(["pipeline", "--input", pool_path, "--workdir", str(wd),
                 "--from-stage", "dict-fit"]) == 3
    assert "pool_reduced.ucsm" in capsys.readouterr().err
    assert not wd.exists()


def test_pipeline_stage_range_validation(tmp_path):
    pool_path, _ = _write_pool(tmp_path)
    assert main(["pipeline", "--input", pool_path,
                 "--workdir", str(tmp_path / "w"),
                 "--from-stage", "select", "--to-stage", "cluster"]) == 2


def test_pipeline_resume_from_later_stage(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=30, k=5, dim=6, seed=5)
    wd = str(tmp_path / "w")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dict_n_components=4\ndict_pca_dim=5\ndbscan_k=3\ndbscan_q=0.3\n"
        "budget=3\nn_runs=1\nsgt_t=2.0\n"
    )
    assert main(["pipeline", "--input", pool_path, "--workdir", wd,
                 "--config", str(cfg), "--to-stage", "cluster"]) == 0
    assert not os.path.exists(os.path.join(wd, "prior.csv"))
    assert main(["pipeline", "--input", pool_path, "--workdir", wd,
                 "--config", str(cfg), "--from-stage", "prior"]) == 0
    assert os.path.exists(os.path.join(wd, "report.txt"))
    assert PIPELINE_STAGES[0] == "preprocess"
    capsys.readouterr()


def test_pipeline_analyze_missing_selection_csv(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=30, k=5, dim=6, seed=5)
    wd = str(tmp_path / "w")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dict_n_components=4\ndict_pca_dim=5\ndbscan_k=3\ndbscan_q=0.3\n"
        "budget=3\nn_runs=2\nsgt_t=2.0\n"
    )
    assert main(["pipeline", "--input", pool_path, "--workdir", wd,
                 "--config", str(cfg), "--to-stage", "select"]) == 0
    os.remove(os.path.join(wd, "select_run01.csv"))
    capsys.readouterr()
    assert main(["pipeline", "--input", pool_path, "--workdir", wd,
                 "--config", str(cfg), "--from-stage", "analyze"]) == 3
    assert "select_run01.csv" in capsys.readouterr().err


def test_manifest_records_numeric_environment(tmp_path, monkeypatch, capsys):
    pool_path, _ = _write_pool(tmp_path)
    out = str(tmp_path / "reduced.ucsm")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["preprocess", "--input", pool_path, "--out", out]) == 0
    manifest = _manifest(out + ".manifest.txt")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert manifest[f"env.{name}"] == os.environ.get(name, "unset")
    assert manifest["env.numpy"] == np.__version__
    capsys.readouterr()
