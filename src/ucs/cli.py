"""Command-line entry point wiring the pipeline stages together.

Every stage reads and writes plain files (matrix containers, label files,
CSV), so any stage can be replaced by an external tool; this is also how
real embedding dumps enter the pipeline. Each artifact gets a sibling
``<artifact>.manifest.txt`` recording the stage, the config keys the stage
read (CONFIG_KEYS names them), seeds, input hashes and the numeric environment
(BLAS thread variables, numpy version); the timestamp is the only manifest
field allowed to differ between reruns in one environment, and artifacts
themselves are byte-identical when inputs and config are unchanged.

Exit codes: 0 success, 2 configuration or input-format error, 3 missing
input file, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections.abc import Callable
from datetime import datetime, timezone

import numpy as np

from .clustering import CLUSTERING_METHODS, cluster_pool
from .coverage import (
    SgtConfig,
    corpus_prior,
    gt_unseen,
    k0_for,
    sgt_unseen,
    subset_spectrum,
)
from .errors import (
    ConfigError,
    DegenerateInput,
    MissingInput,
    NonFiniteValue,
    ParseError,
    SingularKernel,
    UcsError,
)
from .latent_dictionary import (
    CodeBook,
    fit_dictionary,
    fit_joint_dictionary,
    ridge_encode,
)
from .matrix_store import (
    DTYPE_NAMES,
    open_file,
    read_labels,
    read_matrix,
    read_token_bundle,
    sha256_file,
    write_labels,
    write_manifest,
    write_matrix,
)
from .preprocess import POOLING_MODES, pool_tokens, preprocess_pool
from .selection import (
    BASE_SELECTORS,
    SelectionConfig,
    SelectionResult,
    select,
)
from .synth_oracle import (
    ORACLE_ESTIMATORS,
    Population,
    cluster_stats,
    exposure_metrics,
    mc_unseen_oracle,
    sample_pool,
)

# Unused here: perfbench/spans.py patches these four names on ucs.cli.
from .coverage import coverage_phi
from .selection import dpp_kernel, greedy_dpp_ucs, votek_ucs_select


def finite_float(text: str) -> float:
    """float(text), refusing NaN and infinities; parses every float key and flag."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """int(text), refusing negatives; parses --max-iter (0 keeps the seeded
    dictionary)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_COUNT = (">= 1", lambda v: v >= 1)  # every int key but seed counts something
_POSITIVE = ("> 0", lambda v: v > 0)
_SGT_READERS = ("estimate", "select", "synth")

# The flat config-file schema; names follow the hyperparameter tables. Each
# key maps to (default, rule, ok, commands): the default's type is the key's
# type (floats must be finite), "<key> must be <rule>" unless ok(value), and
# commands read the key besides pipeline, which reads every key. A command's
# config flags and its manifests' config.* entries are the keys it reads.
CONFIG_KEYS: dict[str, tuple] = {
    "budget": (10, *_COUNT, ("select",)),
    "dict_n_components": (64, *_COUNT, ("dict-fit", "joint-fit")),
    "dict_alpha": (10.0, *_POSITIVE, ("dict-fit", "dict-encode", "joint-fit")),
    "dict_pca_dim": (128, *_COUNT, ("preprocess",)),
    "dbscan_k": (20, *_COUNT, ("cluster",)),
    "dbscan_q": (0.01, "in [0, 1]", lambda v: 0 <= v <= 1, ("cluster",)),
    "dbscan_min_samples": (1, *_COUNT, ("cluster",)),
    "sgt_lambda": (0.1, ">= 0", lambda v: v >= 0, ("select",)),
    "sgt_t": (5.0, *_POSITIVE, _SGT_READERS),
    "sgt_bin_size": (20, *_COUNT, _SGT_READERS),
    "sgt_offset": (1.0, "in [1, 2]", lambda v: 1 <= v <= 2, _SGT_READERS),
    "votek_k": (3, *_COUNT, ("select",)),
    "dpp_scale_factor": (0.1, *_POSITIVE, ("select",)),
    "candidate_num": (50, *_COUNT, ("select",)),
    "seed": (42, "any integer", lambda v: True,
             ("dict-fit", "joint-fit", "select", "synth")),
    "n_runs": (3, *_COUNT, ()),
    "clustering": ("dict_dbscan", "one of " + ", ".join(CLUSTERING_METHODS),
                   lambda v: v in CLUSTERING_METHODS, ("cluster",)),
}
CONFIG_DEFAULTS = {key: row[0] for key, row in CONFIG_KEYS.items()}
CONFIG_TYPES: dict[str, Callable[[str], object]] = {
    k: finite_float if isinstance(v, float) else type(v)
    for k, v in CONFIG_DEFAULTS.items()
}

PIPELINE_STAGES = (
    "preprocess",
    "dict-fit",
    "dict-encode",
    "cluster",
    "prior",
    "select",
    "analyze",
)


# A key's type is its default's: what its values must be and the types that
# pass. bool subclasses int and is refused everywhere.
_VALUE_TYPES = {int: ("an integer", int), float: ("a number", (int, float)),
                str: ("a string", str)}


def check_config(cfg: dict, where: str = "") -> None:
    """Raise a ConfigError, prefixed with where, naming the first key of cfg
    whose value has the wrong type, is not finite (float keys) or breaks its
    rule."""
    for key, (default, rule, ok, _) in CONFIG_KEYS.items():
        if key not in cfg:
            continue
        value = cfg[key]
        kind, allowed = _VALUE_TYPES[type(default)]
        if not isinstance(value, allowed) or isinstance(value, bool):
            raise ConfigError(f"{where}{key} must be {kind}, got {value!r}")
        if isinstance(default, float) and not math.isfinite(value):
            raise ConfigError(f"{where}{key} must be finite, got {value}")
        if not ok(value):
            raise ConfigError(f"{where}{key} must be {rule}, got {value}")


def load_config(path: str) -> dict[str, object]:
    """Parse a flat key=value config file; '#' starts a comment line."""
    values: dict[str, object] = {}
    with open_file(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in CONFIG_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = CONFIG_TYPES[key](text)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for {key}: {text!r}"
                ) from exc
            check_config({key: values[key]}, f"{path}:{lineno}: ")
    return values


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key in CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    check_config(cfg)
    return cfg


def _config_used(cfg: dict, command: str) -> dict[str, object]:
    """cfg's values of the keys command reads, in CONFIG_KEYS order."""
    return {key: cfg[key] for key, (*_, commands) in CONFIG_KEYS.items()
            if command == "pipeline" or command in commands}


def _input_hashes(inputs: dict[str, str]) -> dict[str, str]:
    """Manifest entries input.<name>.sha256 for each named input path."""
    return {f"input.{name}.sha256": sha256_file(path)
            for name, path in inputs.items()}


def _stage_manifest(
    artifact: str,
    stage: str,
    cfg_used: dict[str, object],
    inputs: dict[str, str],
    extra: dict[str, str] | None = None,
) -> None:
    entries: dict[str, str] = {"stage": stage}
    for key in sorted(cfg_used):
        entries[f"config.{key}"] = repr(cfg_used[key]) if isinstance(
            cfg_used[key], float) else str(cfg_used[key])
    entries.update(_input_hashes(inputs))
    # Float artifacts can depend on the BLAS thread count and numpy version.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        entries[f"env.{name}"] = os.environ.get(name, "unset")
    entries["env.numpy"] = np.__version__
    if extra:
        entries.update(extra)
    entries["timestamp"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    write_manifest(artifact + ".manifest.txt", entries)


def _sgt_config(cfg: dict) -> SgtConfig:
    return SgtConfig(
        t=float(cfg["sgt_t"]),
        bin_size=int(cfg["sgt_bin_size"]),
        offset_alpha=float(cfg["sgt_offset"]),
    )


def _fmt(value: float) -> str:
    """Full-precision, locale-independent float text for CSV cells."""
    return repr(float(value))


def _write_selection_csv(path: str, result: SelectionResult) -> None:
    """One row per selected item: step, index, base_gain, coverage_term,
    total, where total = base_gain + lambda * coverage_term."""
    with open_file(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "index", "base_gain", "coverage_term", "total"])
        for step, rec in enumerate(result.records):
            writer.writerow([step, rec.index, _fmt(rec.base_gain),
                             _fmt(rec.coverage_term), _fmt(rec.total)])


def _row_index(text: str | None, n: int, labels: str, where: str,
               seen: dict[int, str]) -> int:
    """text as a row of the n-row labels file `labels` that seen (row ->
    where it was read) does not hold yet; the row is added to seen. A
    ParseError starts with where, and an index outside the pool also names
    the labels file, which may be the short one."""
    try:
        index = int(text)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: index is not an integer: {text!r}") from None
    if not 0 <= index < n:
        raise ParseError(f"{where}: index {index} outside 0..{n - 1}, "
                         f"the {n} rows of --labels {labels}")
    if index in seen:
        raise ParseError(f"{where}: index {index} already listed at {seen[index]}")
    seen[index] = where
    return index


def _read_selection_csv(path: str, n: int, labels: str) -> list[int]:
    """The index column, distinct rows of the n-row labels file `labels`,
    at least one; ParseError names path:line."""
    seen: dict[int, str] = {}
    with open_file(path) as fh:
        reader = csv.DictReader(fh)
        try:
            if "index" not in (reader.fieldnames or ()):
                raise ParseError(f"{path}:1: no index column")
            rows = [_row_index(row["index"], n, labels, f"{path}:{reader.line_num}", seen)
                    for row in reader]
        except csv.Error as exc:  # such as an oversized field; line_num lags by one
            raise ParseError(f"{path}:{reader.line_num + 1}: {exc}") from None
        if not rows:
            raise ParseError(f"{path}:{reader.line_num}: no selected rows after the header")
    return rows


def _read_subset_file(path: str, n: int, labels: str) -> list[int]:
    """Distinct rows of the n-row labels file `labels`, whitespace
    separated, in the order read; ParseError names path:line."""
    seen: dict[int, str] = {}
    with open_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            for token in line.split():
                _row_index(token, n, labels, f"{path}:{lineno}", seen)
    return list(seen)


def _labels_and_subset(args) -> tuple[np.ndarray, range | list[int]]:
    """spectrum's and estimate's --labels file and the rows --subset names
    (default: every row), less the rows that carry --noise-label. Besides
    cluster_pool's remap, this is the one place that knows about noise:
    everything counted downstream is a cluster id."""
    noise = args.noise_label
    labels = read_labels(args.labels, noise_label=noise)
    if args.subset:
        subset = _read_subset_file(args.subset, labels.size, args.labels)
        return labels, subset if noise is None else [i for i in subset if labels[i] != noise]
    if noise is not None:
        labels = labels[labels != noise]
    return labels, range(labels.size)


def _write_table(path: str | None, rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {value}" for name, value in rows]
    text = "\n".join(lines) + "\n"
    if path:
        with open_file(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Pipeline stages: each is its subcommand, and run_pipeline runs them in order


def stage_preprocess(args, cfg) -> None:
    if args.bundle is not None:
        pool = np.stack([
            pool_tokens(hidden, mask, args.pooling)
            for _, hidden, mask in read_token_bundle(args.bundle)
        ])
        inputs: dict[str, str] = {}
    else:
        pool = read_matrix(args.input)
        inputs = {"pool": args.input}
    standardize = not args.no_standardize
    reduced = preprocess_pool(
        pool, d_prime=int(cfg["dict_pca_dim"]), standardize=standardize,
        l2norm=args.l2norm
    )[0]
    write_matrix(reduced, args.out)
    _stage_manifest(args.out, "preprocess", _config_used(cfg, "preprocess"), inputs, {
        "rows": str(reduced.shape[0]),
        "cols": str(reduced.shape[1]),
        "standardize": str(standardize),
        "l2norm": str(args.l2norm),
        "pooling": args.pooling,
    })


def stage_dict_fit(args, cfg) -> None:
    book = fit_dictionary(
        read_matrix(args.input),
        n_atoms=int(cfg["dict_n_components"]),
        ridge_alpha=float(cfg["dict_alpha"]),
        max_iter=args.max_iter,
        seed=int(cfg["seed"]),
    )
    write_matrix(book.dictionary, args.out)
    _stage_manifest(args.out, "dict-fit", _config_used(cfg, "dict-fit"),
                    {"pool": args.input}, {
                        "objective": _fmt(book.objective),
                        "objective_history": " ".join(map(_fmt, book.objective_history)),
                        "n_iter": str(book.n_iter),
                        "max_iter": str(args.max_iter),
                    })
    print(f"objective {book.objective!r} after {book.n_iter} iterations")


def stage_dict_encode(args, cfg) -> None:
    book = CodeBook(dictionary=read_matrix(args.dict_path),
                    ridge_alpha=float(cfg["dict_alpha"]))
    pool = read_matrix(args.input)
    if pool.shape[1] != book.dictionary.shape[0]:
        raise ConfigError(
            f"--input {args.input} has {pool.shape[1]} columns but "
            f"--dict {args.dict_path} has {book.dictionary.shape[0]} rows"
        )
    try:
        codes = ridge_encode(book, pool)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"--dict {args.dict_path}: {exc}, so no codes of --input "
                             f"{args.input} can be computed; refusing to write") from None
    if not np.isfinite(codes).all():
        row, col = np.argwhere(~np.isfinite(codes))[0]
        raise NonFiniteValue(f"codes of --input {args.input} against --dict {args.dict_path} "
                             f"are not finite, first at row {row}, col {col}; refusing to write")
    write_matrix(codes, args.out)
    _stage_manifest(args.out, "dict-encode", _config_used(cfg, "dict-encode"),
                    {"dict": args.dict_path, "pool": args.input})


def stage_cluster(args, cfg) -> None:
    x = read_matrix(args.input)
    assignment = cluster_pool(
        x,
        method=str(cfg["clustering"]),
        dbscan_k=int(cfg["dbscan_k"]),
        dbscan_q=float(cfg["dbscan_q"]),
        min_samples=int(cfg["dbscan_min_samples"]),
        eps_override=args.eps,
    )
    write_labels(assignment.labels, args.out)
    sizes = np.bincount(assignment.labels)[1:]
    extra = {
        "n_clusters": str(assignment.n_clusters),
        "singleton_frac": _fmt(np.count_nonzero(sizes == 1) / max(assignment.n_clusters, 1)),
    }
    if assignment.eps is not None:
        extra["eps"] = _fmt(assignment.eps)
    _stage_manifest(args.out, "cluster", _config_used(cfg, "cluster"),
                    {"input": args.input}, extra)
    print(f"{assignment.n_clusters} clusters over {x.shape[0]} points")


def stage_prior(args, cfg) -> None:
    """Write prior.csv, a report of corpus_prior's weights: the prior that
    select recomputes from the same labels."""
    prior = corpus_prior(read_labels(args.labels))
    clusters = sorted(prior.sizes)
    with open_file(args.out, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "size", "weight"])
        for c in clusters:
            writer.writerow([c, prior.sizes[c], _fmt(prior.weights[c])])
    _stage_manifest(args.out, "prior", {}, {"labels": args.labels},
                    {"power_law_fallback": str(prior.power_law_fallback),
                     "n_clusters": str(len(clusters))})


def stage_select(args, cfg) -> None:
    """One selection per --out, the r-th with seed seed + r, each with its
    CSV and manifest.

    Only subset_utility draws from the seed; every other selector is run
    once and its result written under each seed.
    """
    seeded = args.base == "subset_utility"
    if args.query_row is not None and not seeded:
        raise ConfigError(
            "--query-row applies only to --base subset_utility; "
            f"--base {args.base} would ignore it"
        )
    x = read_matrix(args.embeddings)
    labels = read_labels(args.labels)
    if labels.shape[0] != x.shape[0]:
        raise ConfigError(
            f"--labels {args.labels} covers {labels.shape[0]} rows but "
            f"--embeddings {args.embeddings} has {x.shape[0]}"
        )
    if args.query_row is not None and not 0 <= args.query_row < x.shape[0]:
        raise ConfigError(
            f"--query-row {args.query_row} is outside the pool's {x.shape[0]} rows"
        )
    sgt = _sgt_config(cfg)
    sel_cfg = SelectionConfig(
        budget=int(cfg["budget"]),
        lam=float(cfg["sgt_lambda"]),
        base=args.base,
        dpp_scale_factor=float(cfg["dpp_scale_factor"]),
        votek_k=int(cfg["votek_k"]),
        sgt=sgt,
    )
    query = {} if args.query_row is None else {"query_row": str(args.query_row)}
    # Hashed once, not once per out, and passed to each manifest as extra.
    hashes = _input_hashes({"embeddings": args.embeddings, "labels": args.labels})
    result = None
    for r, out in enumerate(args.out):
        seed = int(cfg["seed"]) + r
        if seeded or result is None:
            result = select(x, labels, sel_cfg, seed=seed,
                            candidate_num=int(cfg["candidate_num"]),
                            query_row=args.query_row)
        _write_selection_csv(out, result)
        _stage_manifest(out, "select", _config_used(cfg, "select"), {}, {
            **hashes,
            "base": args.base,
            "seed": str(seed),
            "phi": _fmt(result.phi),
            "k_seen": str(result.k_seen),
            "u_hat": _fmt(result.u_hat),
            # u_hat's weights are those of the whole selection's size, the
            # k0 that ucs estimate reads for the same rows.
            "k0": str(k0_for(sgt.t, len(result.indices))),
            **query,
        })
        print(f"selected {result.indices} phi={result.phi!r} k_seen={result.k_seen}")


def stage_analyze(args, cfg) -> None:
    labels = read_labels(args.labels)
    selections = [_read_selection_csv(p, labels.size, args.labels) for p in args.selections]
    stats = cluster_stats(labels)
    report = exposure_metrics(labels, selections)
    rows: list[tuple[str, str]] = []
    for k in range(1, 9):
        rows.append((f"size_{k}_mass", str(stats.size_mass[k])))
    rows.append(("top_sizes", " ".join(str(s) for s in stats.top_sizes)))
    rows.append(("n_selections", str(report.n_selections)))
    rows.append(("uniq_clusters",
                 f"{report.uniq_clusters:.4f} +/- {report.uniq_std:.4f}"))
    rows.append(("mean_cluster_size",
                 f"{report.mean_cluster_size:.4f} +/- {report.size_std:.4f}"))
    rows.append(("mean_inv_size",
                 f"{report.mean_inv_size:.4f} +/- {report.inv_std:.4f}"))
    _write_table(args.out, rows)
    if args.out:
        inputs = {"labels": args.labels}
        inputs.update({f"selection{i}": p for i, p in enumerate(args.selections)})
        _stage_manifest(args.out, "analyze", {}, inputs)


def run_pipeline(
    cfg: dict,
    input_pool: str,
    workdir: str,
    stages: list[str],
    base: str,
    threads: object = None,
) -> None:
    """Run a contiguous stage range as the subcommands of the same names.

    Each stage gets cfg and the argv below, so the file names are fixed and
    a later invocation can resume: when the range starts after `preprocess`
    the earlier files must already exist. The n_runs selections use seeds
    seed..seed+n_runs-1, and analyze reports their exposure metrics as
    mean +/- std. cfg is checked and every argv parsed before any stage
    runs, and the workdir is created only when preprocess can read its pool.
    cfg must hold exactly the CONFIG_KEYS.

    threads is ignored. It remains so that callers which still pass a
    thread count as the sixth positional argument keep working.
    """
    unknown = sorted(cfg.keys() - CONFIG_KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [key for key in CONFIG_KEYS if key not in cfg]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    check_config(cfg)

    def path(name: str) -> str:
        # Absolute, so that no argv value starts with "-".
        return os.path.abspath(os.path.join(workdir, name))

    reduced, codes, labels = (path(name) for name in
                              ("pool_reduced.ucsm", "codes.ucsm", "labels.txt"))
    selections = [path(f"select_run{r:02d}.csv") for r in range(int(cfg["n_runs"]))]
    argv = {
        "preprocess": ["--input", os.path.abspath(input_pool), "--out", reduced],
        "dict-fit": ["--input", reduced, "--out", path("dict.ucsm")],
        "dict-encode": ["--dict", path("dict.ucsm"), "--input", reduced,
                        "--out", codes],
        "cluster": ["--input", reduced if cfg["clustering"] == "dbscan" else codes,
                    "--out", labels],
        "prior": ["--labels", labels, "--out", path("prior.csv")],
        "select": ["--embeddings", reduced, "--labels", labels, "--base", base,
                   "--out", *selections],
        "analyze": ["--labels", labels, "--out", path("report.txt"),
                    "--selections", *selections],
    }
    parser = build_parser()
    parsed = [parser.parse_args([stage, *argv[stage]]) for stage in stages]
    if "preprocess" in stages:
        with open_file(input_pool, "rb"):
            pass
        os.makedirs(workdir, exist_ok=True)
    for args in parsed:
        args.run(args, cfg)


# ---------------------------------------------------------------------------
# Argument parsing


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    keys = _config_used(CONFIG_DEFAULTS, command)
    for key in keys:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, type=CONFIG_TYPES[key], default=None,
                            help=f"override config key {key}")
    parser.add_argument("--config", default=None,
                        help="flat key=value config file")
    parser.epilog = "config keys consumed: " + (", ".join(keys) if keys else "none")


class _Parser(argparse.ArgumentParser):
    # No flag abbreviations, so a removed or renamed flag cannot silently
    # land on another that shares its prefix. Subparsers take this class too.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ucs",
        description="Coverage-regularized demonstration selection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="re-encode a CSV or binary matrix as f64")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dtype", choices=tuple(DTYPE_NAMES), default="f64")
    _add_config_flags(p, "ingest")
    p.set_defaults(run=_cmd_ingest)

    p = sub.add_parser("preprocess",
                       help="pool tokens, standardize, and reduce with PCA")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="pooled N x d matrix")
    src.add_argument("--bundle", help="token bundle directory")
    p.add_argument("--out", required=True)
    p.add_argument("--pooling", choices=POOLING_MODES, default="mean")
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--l2norm", action="store_true")
    _add_config_flags(p, "preprocess")
    p.set_defaults(run=stage_preprocess)

    p = sub.add_parser("dict-fit", help="fit the latent dictionary")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-iter", type=_non_negative_int, default=50)
    _add_config_flags(p, "dict-fit")
    p.set_defaults(run=stage_dict_fit)

    p = sub.add_parser("dict-encode", help="ridge-encode a pool against a dictionary")
    p.add_argument("--dict", dest="dict_path", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "dict-encode")
    p.set_defaults(run=stage_dict_encode)

    p = sub.add_parser("joint-fit",
                       help="fit one dictionary across aligned sources")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out-stem", required=True)
    p.add_argument("--max-iter", type=_non_negative_int, default=50)
    p.add_argument("--latent-dim", type=int, default=None)
    p.add_argument("--fix-maps", action="store_true")
    _add_config_flags(p, "joint-fit")
    p.set_defaults(run=_cmd_joint_fit)

    p = sub.add_parser("cluster", help="assign latent-cluster labels")
    p.add_argument("--input", required=True,
                   help="codes (dict_* methods) or embeddings (dbscan)")
    p.add_argument("--out", required=True)
    p.add_argument("--eps", type=finite_float, default=None,
                   help="override the kNN-quantile eps")
    _add_config_flags(p, "cluster")
    p.set_defaults(run=stage_cluster)

    p = sub.add_parser("spectrum", help="emit the cluster-size spectrum")
    p.add_argument("--labels", required=True)
    p.add_argument("--subset", default=None,
                   help="file of row indices, whitespace separated")
    p.add_argument("--noise-label", type=int, default=None)
    p.add_argument("--out", default=None)
    _add_config_flags(p, "spectrum")
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("estimate", help="estimate unseen clusters and coverage")
    p.add_argument("--labels", required=True)
    p.add_argument("--subset", default=None)
    p.add_argument("--noise-label", type=int, default=None)
    p.add_argument("--out", default=None)
    _add_config_flags(p, "estimate")
    p.set_defaults(run=_cmd_estimate)

    p = sub.add_parser("prior", help="emit per-cluster rarity weights as CSV")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "prior")
    p.set_defaults(run=stage_prior)

    p = sub.add_parser("select", help="run a coverage-regularized selector")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", nargs="+", required=True,
                   help="selection CSVs; the r-th is made with seed seed+r")
    p.add_argument("--base", choices=BASE_SELECTORS, default="votek",
                   help="selector; B1 and B2 are the rarity-only controls")
    p.add_argument("--query-row", type=int, default=None,
                   help="subset_utility query row (default: the mean of the unit rows)")
    _add_config_flags(p, "select")
    p.set_defaults(run=stage_select)

    p = sub.add_parser("synth", help="generate synthetic pools or run the "
                                     "Monte Carlo unseen-type oracle")
    p.add_argument("--mode", choices=("pool", "oracle"), default="pool")
    p.add_argument("--k-types", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zipf-exponent", type=finite_float, default=None,
                   help="zipf population (default: uniform)")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--spread", type=finite_float, default=0.05)
    p.add_argument("--out-stem", default=None, help="pool mode output stem")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--estimator", choices=ORACLE_ESTIMATORS, default="sgt")
    p.add_argument("--out", default=None, help="oracle mode report file")
    _add_config_flags(p, "synth")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("analyze", help="cluster-size stats and exposure metrics")
    p.add_argument("--labels", required=True)
    p.add_argument("--selections", nargs="+", required=True,
                   help="selection CSVs from the select stage")
    p.add_argument("--out", default=None)
    _add_config_flags(p, "analyze")
    p.set_defaults(run=stage_analyze)

    p = sub.add_parser("pipeline", help="run a contiguous stage range")
    p.add_argument("--input", required=True, help="raw pooled matrix")
    p.add_argument("--workdir", required=True)
    p.add_argument("--from-stage", choices=PIPELINE_STAGES,
                   default=PIPELINE_STAGES[0])
    p.add_argument("--to-stage", choices=PIPELINE_STAGES,
                   default=PIPELINE_STAGES[-1])
    p.add_argument("--base", choices=BASE_SELECTORS, default="votek",
                   help="selector; B1 and B2 are the rarity-only controls")
    _add_config_flags(p, "pipeline")
    p.set_defaults(run=_cmd_pipeline)

    return parser


# ---------------------------------------------------------------------------
# Subcommands that are not pipeline stages


def _cmd_ingest(args, cfg) -> None:
    write_matrix(read_matrix(args.input), args.out, dtype=args.dtype)
    _stage_manifest(args.out, "ingest", {}, {"matrix": args.input},
                    {"dtype": args.dtype})


def _cmd_joint_fit(args, cfg) -> None:
    sources = [read_matrix(p) for p in args.inputs]
    book = fit_joint_dictionary(
        sources,
        n_atoms=int(cfg["dict_n_components"]),
        ridge_alpha=float(cfg["dict_alpha"]),
        max_iter=args.max_iter,
        seed=int(cfg["seed"]),
        d_c=args.latent_dim,
        fix_maps=args.fix_maps,
    )
    stem = args.out_stem
    write_matrix(book.dictionary, stem + ".dict.ucsm")
    write_matrix(book.codes, stem + ".codes.ucsm")
    for m, mapping in enumerate(book.maps):
        write_matrix(mapping, f"{stem}.map{m}.ucsm")
    _stage_manifest(stem + ".dict.ucsm", "joint-fit", _config_used(cfg, "joint-fit"),
                    {f"source{i}": p for i, p in enumerate(args.inputs)}, {
                        "objective": _fmt(book.objective),
                        "objective_history": " ".join(map(_fmt, book.objective_history)),
                        "n_iter": str(book.n_iter),
                        "n_sources": str(len(sources)),
                    })
    print(f"joint objective {book.objective!r} after {book.n_iter} iterations")


def _cmd_spectrum(args, cfg) -> None:
    labels, subset = _labels_and_subset(args)
    spec = subset_spectrum(labels, subset)
    rows = [(f"size_{s}", str(int(spec.spectrum[s])))
            for s in sorted(spec.spectrum)]
    rows.insert(0, ("subset_size", str(spec.size)))
    _write_table(args.out, rows)


def _cmd_estimate(args, cfg) -> None:
    labels, subset = _labels_and_subset(args)
    sgt = _sgt_config(cfg)
    spec = subset_spectrum(labels, subset)
    u_hat = sgt_unseen(spec, sgt)
    phi = float(spec.k_seen + u_hat)
    raw = gt_unseen(spec, sgt.t, sgt.bin_size)
    rows = [
        ("k_seen", str(spec.k_seen)),
        ("u_hat", _fmt(u_hat)),
        ("phi", _fmt(phi)),
        ("gt_raw", _fmt(raw)),
        ("t", _fmt(sgt.t)),
    ]
    _write_table(args.out, rows)


def _cmd_synth(args, cfg) -> None:
    seed = int(cfg["seed"])
    if args.zipf_exponent is None:
        pop = Population.uniform(args.k_types)
    else:
        pop = Population.zipf(args.k_types, args.zipf_exponent)
    if args.mode == "pool":
        if not args.out_stem:
            raise ConfigError("pool mode requires --out-stem")
        x, labels = sample_pool(pop, args.n, dim=args.dim,
                                spread=args.spread, seed=seed)
        pool_path = args.out_stem + ".pool.ucsm"
        write_matrix(x, pool_path)
        write_labels(labels, args.out_stem + ".labels.txt")
        _stage_manifest(pool_path, "synth", {"seed": seed}, {}, {
            "k_types": str(args.k_types),
            "n": str(args.n),
            "dim": str(args.dim),
            "spread": _fmt(args.spread),
            "population": pop.kind,
        })
        return
    sgt = _sgt_config(cfg)
    report = mc_unseen_oracle(pop, args.n, sgt.t, args.trials, seed, sgt=sgt,
                              estimator=args.estimator)
    rows = [
        ("trials", str(report.trials)),
        ("estimator", args.estimator),
        ("t", _fmt(sgt.t)),
        ("mean_new", _fmt(report.mean_new)),
        ("std_new", _fmt(report.std_new)),
        ("mean_estimate", _fmt(report.mean_estimate)),
        ("std_estimate", _fmt(report.std_estimate)),
        ("mean_abs_estimator_error", _fmt(report.mean_abs_estimator_error)),
    ]
    _write_table(args.out, rows)


def _cmd_pipeline(args, cfg) -> None:
    lo = PIPELINE_STAGES.index(args.from_stage)
    hi = PIPELINE_STAGES.index(args.to_stage)
    if lo > hi:
        raise ConfigError(
            f"--from-stage {args.from_stage} comes after --to-stage {args.to_stage}"
        )
    stages = list(PIPELINE_STAGES[lo:hi + 1])
    run_pipeline(cfg, args.input, args.workdir, stages, args.base)
    print(f"pipeline stages {stages} done in {args.workdir}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        args.run(args, cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingInput as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except (NonFiniteValue, DegenerateInput, SingularKernel,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (UcsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
