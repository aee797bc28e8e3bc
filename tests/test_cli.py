import argparse
import csv
import dataclasses
import inspect
import math
import os
import re
import warnings

import numpy as np
import pytest

from oracles import read_manifest
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
from ucs.coverage import SgtConfig, corpus_prior, coverage_phi, k0_for
from ucs.errors import ConfigError, MissingInput
from ucs.latent_dictionary import fit_dictionary, fit_joint_dictionary
from ucs.matrix_store import (
    read_labels,
    read_matrix,
    write_labels,
    write_matrix,
    write_token_bundle,
)
from ucs.preprocess import pool_tokens, preprocess_pool
from ucs.selection import (
    BASE_SELECTORS,
    SelectionConfig,
    dpp_kernel,
    redundancy_utility,
    sample_candidate_subsets,
    select,
    subset_utility_ucs,
)
from ucs.synth_oracle import Population, mc_unseen_oracle, sample_pool


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
            manifest = read_manifest(os.path.join(root, name))
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
    ("dict-fit", "--max-iter"), ("joint-fit", "--max-iter"),
], ids=["dict-fit", "joint-fit"])
def test_negative_max_iter_is_rejected_by_the_parser(tmp_path, capsys, command,
                                                     flag):
    pool_path, _ = _write_pool(tmp_path)
    out = str(tmp_path / "out")
    io = {"dict-fit": ["--input", pool_path, "--out", out],
          "joint-fit": ["--inputs", pool_path, "--out-stem", out]}[command]
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
        (signature_defaults(select)["candidate_num"], "candidate_num"),
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
    manifest = read_manifest(out + ".manifest.txt")
    assert manifest["stage"] == "ingest"
    assert "input.matrix.sha256" in manifest
    assert "timestamp" in manifest


def test_ingest_f32_is_write_matrix_f32(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path)
    out, want = str(tmp_path / "f32.ucsm"), str(tmp_path / "want.ucsm")
    assert main(["ingest", "--input", pool_path, "--out", out, "--dtype", "f32"]) == 0
    write_matrix(read_matrix(pool_path), want, dtype="f32")
    with open(out, "rb") as got_fh, open(want, "rb") as want_fh:
        assert got_fh.read() == want_fh.read()
    assert read_manifest(out + ".manifest.txt")["dtype"] == "f32"


@pytest.mark.parametrize("flags", [["--no-standardize"], ["--l2norm"],
                                   ["--no-standardize", "--l2norm"]])
def test_preprocess_flags_are_preprocess_pool_options(tmp_path, capsys, flags):
    pool_path, _ = _write_pool(tmp_path, n=40, dim=8)
    out = str(tmp_path / "reduced.ucsm")
    assert main(["preprocess", "--input", pool_path, "--out", out,
                 "--dict-pca-dim", "5", *flags]) == 0
    want = preprocess_pool(read_matrix(pool_path), d_prime=5,
                           standardize="--no-standardize" not in flags,
                           l2norm="--l2norm" in flags)[0]
    assert np.array_equal(read_matrix(out), want)
    manifest = read_manifest(out + ".manifest.txt")
    assert manifest["standardize"] == str("--no-standardize" not in flags)
    assert manifest["l2norm"] == str("--l2norm" in flags)
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["first", "last"])
def test_preprocess_bundle_pooling_is_pool_tokens(tmp_path, capsys, mode):
    rng = np.random.default_rng(2)
    examples = []
    for _ in range(12):
        mask = (rng.random(6) < 0.6).astype(np.float64)
        mask[rng.integers(6)] = 1.0
        examples.append((rng.standard_normal((6, 5)), mask))
    write_token_bundle(tmp_path / "bundle", examples)
    out = str(tmp_path / "reduced.ucsm")
    assert main(["preprocess", "--bundle", str(tmp_path / "bundle"), "--out", out,
                 "--pooling", mode, "--dict-pca-dim", "4"]) == 0
    pooled = np.stack([pool_tokens(h, m, mode) for h, m in examples])
    assert np.array_equal(read_matrix(out), preprocess_pool(pooled, d_prime=4)[0])
    assert read_manifest(out + ".manifest.txt")["pooling"] == mode
    capsys.readouterr()


def test_joint_fit_latent_dim_and_fix_maps_are_library_options(tmp_path, capsys):
    a_path, _ = _write_pool(tmp_path, n=30, k=4, dim=6, seed=1, name="a.ucsm")
    b_path, _ = _write_pool(tmp_path, n=30, k=4, dim=5, seed=2, name="b.ucsm")
    stem = str(tmp_path / "joint")
    assert main(["joint-fit", "--inputs", a_path, b_path, "--out-stem", stem,
                 "--dict-n-components", "3", "--max-iter", "4", "--seed", "2",
                 "--latent-dim", "4", "--fix-maps"]) == 0
    book = fit_joint_dictionary([read_matrix(a_path), read_matrix(b_path)], n_atoms=3,
                                ridge_alpha=CONFIG_DEFAULTS["dict_alpha"], max_iter=4,
                                seed=2, d_c=4, fix_maps=True)
    assert np.array_equal(read_matrix(stem + ".dict.ucsm"), book.dictionary)
    assert np.array_equal(read_matrix(stem + ".codes.ucsm"), book.codes)
    for m, mapping in enumerate(book.maps):
        assert np.array_equal(read_matrix(f"{stem}.map{m}.ucsm"), mapping)
    assert book.dictionary.shape[0] == 4
    capsys.readouterr()


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
    assert read_manifest(out + ".manifest.txt")["stage"] == "prior"


def _run_prior(tmp_path, labels):
    """ucs prior on labels: the labels path, prior.csv's weight column as
    written (cluster -> text) and the manifest."""
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array(labels), labels_path)
    out = str(tmp_path / "prior.csv")
    assert main(["prior", "--labels", labels_path, "--out", out]) == 0
    with open(out, newline="") as fh:
        weights = {int(row["cluster"]): row["weight"] for row in csv.DictReader(fh)}
    return labels_path, weights, read_manifest(out + ".manifest.txt")


# Sizes 3, 2, 1 and 4: three nonzero spectrum bins, so the power law is fit.
PRIOR_LABELS = [1, 1, 1, 2, 2, 3, 5, 5, 5, 5]


def test_prior_csv_is_the_prior_select_uses(tmp_path, capsys):
    labels_path, weights, manifest = _run_prior(tmp_path, PRIOR_LABELS)
    prior = corpus_prior(read_labels(labels_path))
    assert weights == {c: repr(w) for c, w in prior.weights.items()}
    assert sorted(weights) == [1, 2, 3, 5]
    assert manifest["power_law_fallback"] == "False"
    assert "smoothing" not in manifest
    pool_path = str(tmp_path / "pool.ucsm")
    write_matrix(np.random.default_rng(3).standard_normal((10, 4)), pool_path)
    sel = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--base", "votek", "--votek-k", "3", "--budget", "2",
                 "--out", sel]) == 0
    with open(sel, newline="") as fh:
        first = next(csv.DictReader(fh))
    cluster = PRIOR_LABELS[int(first["index"])]
    assert float(first["coverage_term"]) == math.log(float(weights[cluster]))
    capsys.readouterr()


def test_prior_manifest_records_the_power_law_fallback(tmp_path):
    # every cluster has size 2: one nonzero bin, too few to fit
    _, weights, manifest = _run_prior(tmp_path, [1, 1, 2, 2, 3, 3])
    assert manifest["power_law_fallback"] == "True"
    assert set(weights.values()) == {"1.0"}


@pytest.mark.parametrize("command", ["select", "analyze", "prior", "spectrum"])
def test_label_outside_int64_names_its_line(tmp_path, capsys, command):
    labels_path = str(tmp_path / "labels.txt")
    with open(labels_path, "w") as fh:
        fh.write("1\n99999999999999999999\n2\n")
    pool_path = str(tmp_path / "pool.ucsm")
    write_matrix(np.eye(3), pool_path)
    out = str(tmp_path / "out.csv")
    argv = {"select": ["--embeddings", pool_path, "--out", out],
            "analyze": ["--selections", str(tmp_path / "sel.csv")],
            "prior": ["--out", out],
            "spectrum": []}[command]
    assert main([command, "--labels", labels_path, *argv]) == 2
    err = capsys.readouterr().err
    assert f"{labels_path}: line 2: label 99999999999999999999 outside the int64 range" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


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
    manifest = read_manifest(out + ".manifest.txt")
    assert manifest["stage"] == "select"
    assert manifest["base"] == "votek"
    assert manifest["config.budget"] == "5"
    capsys.readouterr()


def test_select_all_bases_and_rarity(tmp_path, capsys):
    pool_path, labels_path = _write_pool(tmp_path)
    for extra in (["--base", "dpp"], ["--base", "subset_utility"],
                  ["--base", "B1"], ["--base", "B2"]):
        out = str(tmp_path / f"sel_{'_'.join(extra).replace('--', '')}.csv")
        code = main(["select", "--embeddings", pool_path, "--labels",
                     labels_path, "--out", out, "--budget", "4",
                     "--candidate-num", "10"] + extra)
        assert code == 0, extra
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4
    capsys.readouterr()


@pytest.mark.parametrize("base", BASE_SELECTORS)
def test_select_csv_is_the_library_selection(tmp_path, capsys, base):
    pool_path, labels_path = _write_pool(tmp_path)
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", out, "--base", base, "--budget", "4",
                 "--candidate-num", "10"]) == 0
    cfg = SelectionConfig(budget=4, lam=CONFIG_DEFAULTS["sgt_lambda"], base=base)
    want = select(read_matrix(pool_path), read_labels(labels_path), cfg,
                  seed=CONFIG_DEFAULTS["seed"], candidate_num=10)
    with open(out, newline="") as fh:
        rows = [(int(row["step"]), int(row["index"]), float(row["base_gain"]),
                 float(row["coverage_term"]), float(row["total"]))
                for row in csv.DictReader(fh)]
    assert rows == [(step, r.index, r.base_gain, r.coverage_term, r.total)
                    for step, r in enumerate(want.records)]
    capsys.readouterr()


@pytest.mark.parametrize("base", BASE_SELECTORS)
def test_select_refuses_a_budget_above_the_pool_size(tmp_path, capsys, base):
    # votek and dpp used to write 50 rows under config.budget=60
    pool_path, labels_path = _write_pool(tmp_path, n=50)
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", out, "--base", base, "--budget", "60"]) == 2
    assert capsys.readouterr().err == "error: budget 60 exceeds pool size 50\n"
    assert not os.path.exists(out)


def _dpp_picks(x, labels):
    return select(x, labels, SelectionConfig(base="dpp")).indices


# every row is nonzero, so every unit row's kernel diagonal is exp(0.1) + 1e-8
# in exact arithmetic; computed, it took two values, and the first pick went
# to row 1, the first row whose |u_i|^2 rounded up
DPP_TIE_POOL = sample_pool(Population.zipf(20, 1.1), 60, dim=16, spread=0.3, seed=0)


def test_dpp_first_pick_is_the_lowest_index_on_a_tie():
    x, labels = DPP_TIE_POOL
    assert np.all(np.any(x, axis=1))
    assert _dpp_picks(x, labels)[0] == 0


def test_dpp_picks_do_not_move_with_ulp_perturbations():
    x, labels = DPP_TIE_POOL
    want = _dpp_picks(x, labels)
    rng = np.random.default_rng(0)
    for _ in range(6):
        toward = np.where(rng.random(x.shape) < 0.5, -np.inf, np.inf)
        y = np.nextafter(np.nextafter(x, toward), toward)  # 2 ulps per entry
        assert _dpp_picks(y, labels) == want


def test_select_rerun_identical_artifact(tmp_path, capsys):
    pool_path, labels_path = _write_pool(tmp_path)
    outs = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for out in outs:
        assert main(["select", "--embeddings", pool_path, "--labels",
                     labels_path, "--out", out, "--budget", "6"]) == 0
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
    a = read_manifest(outs[0] + ".manifest.txt")
    b = read_manifest(outs[1] + ".manifest.txt")
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
    # prior reports the prior select uses, and select takes no noise label
    with pytest.raises(SystemExit) as exc:
        main(["prior", "--labels", bad, "--out", out, "--noise-label", "-1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --noise-label -1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_analyze_rejects_labels_below_one(tmp_path, capsys):
    pool_path, labels_path, bad = _labels_with_noise(tmp_path)
    sel = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", sel, "--budget", "3"]) == 0
    capsys.readouterr()
    assert main(["analyze", "--labels", bad, "--selections", sel]) == 2
    _rejects_line_4(capsys, bad)


def _noisy_label_files(tmp_path, noise):
    """A 300-row labels file with 60 rows of `noise` and a subset file over
    it; then the same two with the noise rows removed in plain Python (the
    subset filtered and renumbered to the kept rows)."""
    rng = np.random.default_rng(4)
    labels = [int(v) for v in rng.integers(1, 40, size=300)]
    for i in rng.choice(300, size=60, replace=False):
        labels[int(i)] = noise
    subset = [int(i) for i in rng.choice(300, size=120, replace=False)]
    kept = [i for i, v in enumerate(labels) if v != noise]
    renumber = {i: r for r, i in enumerate(kept)}
    files = {}
    for name, lines in (("labels", labels), ("subset", subset),
                        ("clean_labels", [labels[i] for i in kept]),
                        ("clean_subset", [renumber[i] for i in subset if i in renumber])):
        files[name] = str(tmp_path / f"{name}.txt")
        with open(files[name], "w") as fh:
            fh.write("".join(f"{v}\n" for v in lines))
    return files


@pytest.mark.parametrize("noise", [-1, -5])
@pytest.mark.parametrize("command", [
    ["spectrum"],
    ["spectrum", "--subset", "{subset}"],
    ["estimate", "--subset", "{subset}"],
], ids=["spectrum", "spectrum-subset", "estimate-subset"])
def test_noise_label_drops_its_rows(tmp_path, capsys, command, noise):
    files = _noisy_label_files(tmp_path, noise)
    outputs = []
    for labels, subset, flags in (("labels", "subset", ["--noise-label", str(noise)]),
                                  ("clean_labels", "clean_subset", [])):
        out = str(tmp_path / f"{labels}.out")
        argv = [w.format(subset=files[subset]) for w in command]
        assert main([*argv, "--labels", files[labels], "--out", out, *flags]) == 0
        with open(out, "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]
    capsys.readouterr()


@pytest.mark.parametrize("value", [-1, 0])
@pytest.mark.parametrize("command", ["spectrum", "estimate"])
def test_label_below_one_without_noise_label_rejected(tmp_path, capsys, command, value):
    bad = str(tmp_path / "labels.txt")
    with open(bad, "w") as fh:
        fh.write(f"1\n2\n2\n{value}\n3\n")
    assert main([command, "--labels", bad]) == 2
    assert f"{bad}: line 4: label {value} below 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("base", [b for b in BASE_SELECTORS if b != "subset_utility"])
def test_select_query_row_refused_where_ignored(tmp_path, capsys, base):
    pool_path, labels_path = _write_pool(tmp_path)
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", out, "--budget", "3", "--query-row", "3", "--base", base]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --query-row")
    assert f"--base {base} would ignore it" in err
    assert not os.path.exists(out)


def test_select_query_row_recorded_in_manifest(tmp_path, capsys):
    pool_path, labels_path = _write_pool(tmp_path)
    outs = [str(tmp_path / "mean.csv"), str(tmp_path / "row3.csv")]
    for out, flags in zip(outs, ([], ["--query-row", "3"])):
        assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                     "--out", out, "--base", "subset_utility", "--budget", "3",
                     "--candidate-num", "10", *flags]) == 0
    assert "query_row" not in read_manifest(outs[0] + ".manifest.txt")
    assert read_manifest(outs[1] + ".manifest.txt")["query_row"] == "3"
    capsys.readouterr()


def test_subset_utility_default_query_is_the_mean_of_the_unit_rows():
    # on a centred pool the plain row mean is rounding noise (norm ~1e-16);
    # the mean of the unit rows keeps a direction
    x, labels = sample_pool(Population.uniform(6), 60, dim=8, seed=4)
    x = x - x.mean(axis=0)
    cfg = dict(CONFIG_DEFAULTS, budget=4, candidate_num=12)
    got = select(x, labels, SelectionConfig(budget=4, lam=cfg["sgt_lambda"],
                                            base="subset_utility"),
                 seed=3, candidate_num=cfg["candidate_num"])
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    candidates = sample_candidate_subsets(x, unit.mean(axis=0), 4, 12, 3)
    want = subset_utility_ucs(candidates, redundancy_utility(x, candidates), labels,
                              SelectionConfig(budget=4, lam=cfg["sgt_lambda"],
                                              base="subset_utility"))
    assert got.indices == want.indices


@pytest.mark.parametrize("query", ["row", "mean"])
def test_select_refuses_a_query_with_no_direction(tmp_path, capsys, query):
    x, labels = sample_pool(Population.uniform(6), 20, dim=8, seed=2)
    if query == "row":
        x[3] = 1e-9 * x[3]  # below 1e-8 of the median row norm
        flags, named = ["--query-row", "3"], "row 3"
    else:
        x = np.vstack([x, -x])  # the unit rows cancel
        labels = np.concatenate([labels, labels])
        flags, named = [], "the mean of the unit rows"
    pool_path, labels_path = str(tmp_path / "pool.ucsm"), str(tmp_path / "labels.txt")
    write_matrix(x, pool_path)
    write_labels(labels, labels_path)
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", labels_path,
                 "--out", out, "--base", "subset_utility", "--budget", "3", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: subset_utility query {named} has norm")
    assert "median row norm" in err
    assert not os.path.exists(out)


def test_select_labels_row_count_mismatch_names_both_files(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path)  # 40 rows
    short = str(tmp_path / "short_labels.txt")
    write_labels(np.ones(39, dtype=np.int64), short)
    out = str(tmp_path / "sel.csv")
    assert main(["select", "--embeddings", pool_path, "--labels", short,
                 "--out", out, "--budget", "3"]) == 2
    err = capsys.readouterr().err
    assert f"--labels {short}" in err and f"--embeddings {pool_path}" in err
    assert "39 rows" in err and "40" in err
    assert not os.path.exists(out)


def test_dict_encode_width_mismatch_names_both_files(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, dim=6)
    dictionary = str(tmp_path / "dict.ucsm")
    write_matrix(np.eye(8, 4), dictionary)
    out = str(tmp_path / "codes.ucsm")
    assert main(["dict-encode", "--dict", dictionary, "--input", pool_path,
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"--input {pool_path} has 6 columns" in err
    assert f"--dict {dictionary} has 8 rows" in err
    assert "matmul" not in err
    assert not os.path.exists(out)


def test_dict_encode_non_finite_codes_name_both_files(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path)
    dictionary = str(tmp_path / "dict.ucsm")
    write_matrix(np.full((8, 4), 1e200), dictionary)  # D^T D overflows
    out = str(tmp_path / "codes.ucsm")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["dict-encode", "--dict", dictionary, "--input", pool_path,
                     "--out", out]) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert f"--input {pool_path}" in err and f"--dict {dictionary}" in err
    assert f"--dict {dictionary}: the dictionary's D^T D + alpha*I is not finite" in err
    assert "RuntimeWarning" not in err
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


@pytest.mark.parametrize("command", ["spectrum", "estimate"])
def test_subset_file_repeated_row_is_refused(tmp_path, capsys, command):
    # a subset is a set of rows: counting row 0 twice would make one row
    # two members of its cluster
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 2, 3]), labels_path)
    subset = tmp_path / "subset.txt"
    subset.write_text("0 1\n2 0\n")
    assert main([command, "--labels", labels_path, "--subset", str(subset)]) == 2
    err = capsys.readouterr().err
    assert f"{subset}:2: index 0 already listed at {subset}:1" in err


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
    ("step,index\n0,1\n1,2\n2,1\n", 4, "index 1 already listed at"),
    ("step,index\n", 1, "no selected rows after the header"),
    ('step,index\n0,"' + "1" * 200000 + '"\n', 2, "field larger than field limit"),
], ids=["no-index-column", "not-an-integer", "past-the-end", "negative", "repeated-row",
        "header-only", "oversized-field"])
def test_analyze_rejects_bad_selection_csv(tmp_path, capsys, text, line, message):
    # a header-only CSV used to print mean_cluster_size nan +/- nan and exit 0
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.array([1, 1, 2]), labels_path)
    sel = tmp_path / "sel.csv"
    sel.write_text(text)
    out = tmp_path / "report.txt"
    assert main(["analyze", "--labels", labels_path, "--selections", str(sel),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{sel}:{line}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "estimate"])
def test_index_outside_the_pool_names_the_labels_file(tmp_path, capsys, command):
    # a labels file shorter than the pool used to leave only the selection
    # or subset file named
    labels_path = str(tmp_path / "labels.txt")
    write_labels(np.arange(1, 31), labels_path)
    rows = tmp_path / "rows.csv"
    rows.write_text("step,index\n0,4\n1,90\n" if command == "analyze" else "4\n90\n")
    flag = "--selections" if command == "analyze" else "--subset"
    assert main([command, "--labels", labels_path, flag, str(rows)]) == 2
    line = 3 if command == "analyze" else 2
    assert (f"{rows}:{line}: index 90 outside 0..29, the 30 rows of --labels {labels_path}"
            in capsys.readouterr().err)


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
                 "--trials", "5", "--sgt-t", "1.0", "--seed", "3",
                 "--out", report]) == 0
    text = open(report).read()
    for name in ("mean_new", "mean_estimate", "mean_abs_estimator_error"):
        assert name in text
    capsys.readouterr()


def test_synth_horizon_has_one_flag(tmp_path, capsys):
    # --t is not a flag, nor an abbreviation of --trials
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--mode", "oracle", "--k-types", "5", "--n", "20", "--t", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, prefix", [
    (["estimate", "--labels", "l.txt", "--sgt-o", "1.5"], "--sgt-o"),
    (["select", "--embeddings", "x.ucsm", "--labels", "l.txt", "--out", "s.csv",
      "--ba", "B1"], "--ba"),
], ids=["estimate", "select"])
def test_flag_prefixes_are_not_abbreviations(argv, prefix, capsys):
    # a prefix of --sgt-offset or --base is an unknown flag, not that flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err


def _table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return dict(line.split() for line in fh)


def test_synth_estimator_and_spread_flags_are_the_library_calls(tmp_path, capsys):
    report = str(tmp_path / "oracle.txt")
    assert main(["synth", "--mode", "oracle", "--k-types", "30", "--zipf-exponent",
                 "1.1", "--n", "40", "--trials", "7", "--sgt-t", "2.0", "--seed", "5",
                 "--estimator", "gt", "--out", report]) == 0
    want = mc_unseen_oracle(Population.zipf(30, 1.1), 40, 2.0, 7, 5,
                            sgt=SgtConfig(t=2.0), estimator="gt")
    table = _table(report)
    assert table["estimator"] == "gt"
    for name in ("mean_new", "mean_estimate", "std_estimate",
                 "mean_abs_estimator_error"):
        assert float(table[name]) == getattr(want, name)
    stem = str(tmp_path / "syn")
    assert main(["synth", "--mode", "pool", "--k-types", "5", "--n", "30", "--dim", "6",
                 "--spread", "0.2", "--seed", "1", "--out-stem", stem]) == 0
    x, labels = sample_pool(Population.uniform(5), 30, dim=6, spread=0.2, seed=1)
    assert np.array_equal(read_matrix(stem + ".pool.ucsm"), x)
    assert np.array_equal(read_labels(stem + ".labels.txt"), labels)
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
    manifest = read_manifest(labels_out + ".manifest.txt")
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
    assert float(read_manifest(out + ".manifest.txt")["singleton_frac"]) == (
        np.count_nonzero(sizes == 1) / sizes.size)
    capsys.readouterr()


def test_dict_fit_manifest_objective_history(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=30, k=4, dim=6, seed=1)
    out = str(tmp_path / "dict.ucsm")
    assert main(["dict-fit", "--input", pool_path, "--out", out,
                 "--dict-n-components", "4", "--max-iter", "5", "--seed", "2"]) == 0
    book = fit_dictionary(read_matrix(pool_path), n_atoms=4,
                          ridge_alpha=CONFIG_DEFAULTS["dict_alpha"], max_iter=5, seed=2)
    manifest = read_manifest(out + ".manifest.txt")
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
    manifest = read_manifest(stem + ".dict.ucsm.manifest.txt")
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
    manifest = read_manifest(out + ".manifest.txt")
    phi, _, u_hat = coverage_phi(read_labels(labels_path), indices, SgtConfig(t=3.0))
    assert float(manifest["u_hat"]) == u_hat
    assert float(manifest["phi"]) == phi
    assert int(manifest["k0"]) == k0_for(3.0, len(indices)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--smoothing", "off"], ["--k0", "2"]])
def test_estimate_takes_no_smoothing_or_k0(tmp_path, capsys, flag):
    # estimate reports the one estimator select uses: k0 = k0_for(t, |S|)
    _, labels_path = _write_pool(tmp_path)
    out = tmp_path / "estimate.txt"
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--labels", labels_path, "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_prints_the_u_hat_each_selection_records(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path, n=60, k=6, dim=10, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dict_n_components=6\ndict_pca_dim=8\ndbscan_k=3\ndbscan_q=0.3\n"
                   "budget=12\nn_runs=1\nsgt_t=2.0\nvotek_k=3\nseed=11\n")
    workdir = str(tmp_path / "run")
    labels_path = os.path.join(workdir, "labels.txt")
    selection = os.path.join(workdir, "select_run00.csv")
    for base in BASE_SELECTORS:
        argv = ["pipeline", "--input", pool_path, "--workdir", workdir,
                "--config", str(cfg), "--base", base]
        if base != BASE_SELECTORS[0]:
            argv += ["--from-stage", "select", "--to-stage", "select"]
        assert main(argv) == 0
        with open(selection, newline="") as fh:
            indices = [row["index"] for row in csv.DictReader(fh)]
        subset = tmp_path / f"subset_{base}.txt"
        subset.write_text("\n".join(indices) + "\n")
        table = str(tmp_path / f"estimate_{base}.txt")
        assert main(["estimate", "--config", str(cfg), "--labels", labels_path,
                     "--subset", str(subset), "--out", table]) == 0
        manifest = read_manifest(selection + ".manifest.txt")
        assert manifest["base"] == base
        assert _table(table)["u_hat"] == manifest["u_hat"], base
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
    labels_manifest = read_manifest(os.path.join(workdirs[0], "labels.txt.manifest.txt"))
    assert labels_manifest["config.dbscan_k"] == "3"
    assert "config.budget" not in labels_manifest
    for run in ("00", "01"):
        select_manifest = read_manifest(
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


@pytest.mark.parametrize("command", ["select", "pipeline"])
def test_rarity_flag_is_gone(tmp_path, capsys, command):
    # B1 and B2 are selectors: --base B1, not --base votek --rarity B1
    pool_path, labels_path = _write_pool(tmp_path)
    argv = {"select": ["--embeddings", pool_path, "--labels", labels_path,
                       "--out", str(tmp_path / "sel.csv")],
            "pipeline": ["--input", pool_path, "--workdir", str(tmp_path / "w")]}
    with pytest.raises(SystemExit) as exc:
        main([command, *argv[command], "--rarity", "B1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rarity B1" in capsys.readouterr().err
    assert not (tmp_path / "sel.csv").exists() and not (tmp_path / "w").exists()


@pytest.mark.parametrize("flag", [["--smoothing", "off"], ["--eps", "0.5"]])
def test_prior_takes_no_smoothing_or_eps(tmp_path, capsys, flag):
    # prior.csv reports the prior select uses: corpus_prior's defaults
    _, labels_path = _write_pool(tmp_path)
    out = tmp_path / "prior.csv"
    with pytest.raises(SystemExit) as exc:
        main(["prior", "--labels", labels_path, "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_selector_signatures_take_the_selector_once():
    assert "rarity" not in inspect.signature(select).parameters
    assert list(inspect.signature(run_pipeline).parameters)[4:] == ["base", "threads"]
    assert list(inspect.signature(select).parameters) == [
        "x", "labels", "cfg", "seed", "candidate_num", "query_row"]


@pytest.mark.parametrize("base", BASE_SELECTORS)
def test_pipeline_runs_seed_blind_selectors_once(tmp_path, capsys, monkeypatch, base):
    # every selector runs through pipeline and select under its one name
    selections = 3 if base == "subset_utility" else 1
    pool_path, _ = _write_pool(tmp_path, n=35, k=5, dim=10, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dict_n_components=6\ndict_pca_dim=8\ndbscan_k=3\ndbscan_q=0.3\n"
        "budget=4\nn_runs=3\nsgt_t=2.0\ncandidate_num=10\nseed=11\n"
    )
    seeds = []
    original = ucs.cli.select

    def counting(x, labels, cfg, *, seed, **kwargs):
        seeds.append(seed)
        return original(x, labels, cfg, seed=seed, **kwargs)

    monkeypatch.setattr(ucs.cli, "select", counting)
    wd = str(tmp_path / "w")
    extra = ["--base", base]
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
        assert read_manifest(f"{got}.manifest.txt")["seed"] == str(seed)
        assert read_manifest(f"{got}.manifest.txt")["base"] == base
        assert read_manifest(f"{ref}.manifest.txt")["base"] == base
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
    artifacts = ("pool_reduced.ucsm", "dict.ucsm", "codes.ucsm", "labels.txt",
                 "prior.csv", "select_run00.csv", "select_run01.csv", "report.txt")
    reduced, dictionary, codes, labels, prior, run00, run01, report = (
        str(hand / name) for name in artifacts)
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
    assert names == sorted(os.listdir(hand)) == sorted(
        name + suffix for name in artifacts for suffix in ("", ".manifest.txt"))
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


def test_preprocess_writes_only_its_matrix_and_manifest(tmp_path, capsys):
    pool_path, _ = _write_pool(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["preprocess", "--input", pool_path,
                 "--out", str(out_dir / "p.ucsm")]) == 0
    assert sorted(os.listdir(out_dir)) == ["p.ucsm", "p.ucsm.manifest.txt"]
    capsys.readouterr()


def test_manifest_records_numeric_environment(tmp_path, monkeypatch, capsys):
    pool_path, _ = _write_pool(tmp_path)
    out = str(tmp_path / "reduced.ucsm")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["preprocess", "--input", pool_path, "--out", out]) == 0
    manifest = read_manifest(out + ".manifest.txt")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert manifest[f"env.{name}"] == os.environ.get(name, "unset")
    assert manifest["env.numpy"] == np.__version__
    capsys.readouterr()
