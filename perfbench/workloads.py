"""The three benchmark workloads: inputs, one op, and the output checks.

Every workload is a closed loop with one client and one op in flight. Inputs
are a pure function of the seed; the library only ever sees the generated
arrays and files. Ops are called through module attributes
(``ucs.cli.run_pipeline`` rather than a bound name) so that the traced run's
wrappers are the ones that execute.

``inspect`` checks an op's outputs with code that does not share the code
under test where that is practical (Python sets, the csv module, plain text
parsing). It returns the problems found, which count as a failed op, and the
facts the quality metrics are built from.
"""

from __future__ import annotations

import csv
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import ucs.cli
import ucs.coverage
import ucs.matrix_store
import ucs.selection
import ucs.synth_oracle
from ucs.coverage import SgtConfig
from ucs.selection import SelectionConfig
from ucs.synth_oracle import Population

# Threads handed to the pipeline; BLAS is capped to the same count in run.py.
PIPELINE_THREADS = 2

# estimate-oracle averages its estimator error over this many timed ops, so
# the figure does not depend on how many ops fit in the run.
ORACLE_ERR_OPS = 32


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    fingerprint: object = None  # equal across ops when the workload is deterministic


def self_check(seed: int) -> list[str]:
    """Every UCS selector at lambda = 0 must return exactly its base selector."""
    pop = Population.zipf(8, 1.0)
    x, _ = ucs.synth_oracle.sample_pool(pop, 40, dim=8, spread=0.3, seed=seed)
    labels = ucs.synth_oracle.sample_labels(Population.zipf(12, 0.8), 40, seed)
    problems = []
    kernel = ucs.selection.dpp_kernel(x, 0.1)
    dpp = ucs.selection.greedy_dpp_ucs(
        kernel, labels, SelectionConfig(budget=6, lam=0.0, base="dpp"))
    if dpp.indices != ucs.selection.greedy_dpp(kernel, 6):
        problems.append("greedy_dpp_ucs at lambda=0 differs from greedy_dpp")
    prior = ucs.coverage.corpus_prior(labels)
    votek = ucs.selection.votek_ucs_select(
        x, labels, prior, SelectionConfig(budget=6, lam=0.0, base="votek"))
    if votek.indices != ucs.selection.votek_select(x, 6, k=3, discount_base=10.0):
        problems.append("votek_ucs_select at lambda=0 differs from votek_select")
    return problems


def _read_kv(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _exposure(labels: np.ndarray, selections: list[list[int]]) -> tuple[float, float]:
    report = ucs.synth_oracle.exposure_metrics(labels, selections)
    return report.uniq_clusters, report.mean_inv_size


class PipelineVotek:
    """ucs.cli.run_pipeline over all seven stages, base votek, defaults."""

    name = "pipeline-votek"
    deterministic = True
    # Reference weights (interpreted, numpy) that resemble the op's work: this
    # op spends nearly all its time in large numpy sorts and BLAS.
    ref_weights = (0.0, 1.0)
    sizes = {"full": dict(types=500, exponent=1.1, n=4000, dim=128),
             "tiny": dict(types=40, exponent=1.1, n=300, dim=32)}

    def __init__(self, tiny: bool, outdir: str):
        self.size = self.sizes["tiny" if tiny else "full"]
        self.outdir = outdir
        self.cfg = dict(ucs.cli.CONFIG_DEFAULTS)

    def describe(self) -> dict:
        return dict(self.size, spread=0.3, base="votek", threads=PIPELINE_THREADS,
                    config=self.cfg)

    def build(self, seed: int):
        s = self.size
        x, _ = ucs.synth_oracle.sample_pool(
            Population.zipf(s["types"], s["exponent"]), s["n"], dim=s["dim"],
            spread=0.3, seed=seed)
        path = os.path.join(self.outdir, "pool.ucsm")
        ucs.matrix_store.write_matrix(x, path)
        return {"pool": path, "n": s["n"]}

    def op(self, inputs, index: int):
        workdir = os.path.join(self.outdir, f"op{index:05d}")
        ucs.cli.run_pipeline(self.cfg, inputs["pool"], workdir,
                             list(ucs.cli.PIPELINE_STAGES), "votek",
                             PIPELINE_THREADS)
        return workdir

    def inspect(self, inputs, workdir: str, index: int) -> Outcome:
        try:
            return self._inspect(inputs["n"], workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _inspect(self, n: int, workdir: str) -> Outcome:
        out = Outcome()
        budget, lam = int(self.cfg["budget"]), float(self.cfg["sgt_lambda"])
        with open(os.path.join(workdir, "labels.txt"), "r", encoding="utf-8") as fh:
            labels = [int(line) for line in fh.read().split()]
        n_clusters = max(labels) if labels else 0
        if len(labels) != n:
            out.problems.append(f"labels.txt has {len(labels)} rows, expected {n}")
        if set(labels) != set(range(1, n_clusters + 1)):
            out.problems.append("labels.txt ids are not exactly 1..C")
        sizes = np.bincount(labels)
        selections, phis = [], []
        for run in range(int(self.cfg["n_runs"])):
            path = os.path.join(workdir, f"select_run{run:02d}.csv")
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            picks = [int(row["index"]) for row in rows]
            if len(picks) != budget or len(set(picks)) != budget:
                out.problems.append(f"{path}: {len(set(picks))} distinct picks, "
                                    f"expected {budget}")
            if any(not 0 <= i < n for i in picks):
                out.problems.append(f"{path}: index outside 0..{n - 1}")
            for row in rows:
                total = float(row["base_gain"]) + lam * float(row["coverage_term"])
                if float(row["total"]) != total:
                    out.problems.append(f"{path}: step {row['step']} total "
                                        "!= base_gain + lambda * coverage_term")
            selections.append(picks)
            phis.append(float(_read_kv(path + ".manifest.txt")["phi"]))
        report = {}
        with open(os.path.join(workdir, "report.txt"), "r", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.strip().partition(" ")
                report[key] = value.strip()
        uniq, inv = _exposure(np.asarray(labels), selections)
        for key, mine in (("uniq_clusters", uniq), ("mean_inv_size", inv)):
            try:
                stated = float(report[key].split("+/-")[0])
            except (KeyError, ValueError):
                out.problems.append(f"report.txt has no parsable {key}")
                continue
            if abs(stated - mine) > 5e-5:
                out.problems.append(f"report.txt {key}={stated}, recomputed {mine}")
        label_manifest = _read_kv(os.path.join(workdir, "labels.txt.manifest.txt"))
        dict_manifest = _read_kv(os.path.join(workdir, "dict.ucsm.manifest.txt"))
        out.facts = {
            "uniq_clusters": uniq,
            "mean_inv_size": inv,
            "phi": sum(phis) / len(phis),
            "eps": float(label_manifest["eps"]),
            "n_clusters": n_clusters,
            "singleton_frac": float(np.count_nonzero(sizes[1:] == 1)) / max(n_clusters, 1),
            "n_iter": int(dict_manifest["n_iter"]),
        }
        out.fingerprint = (tuple(map(tuple, selections)), tuple(labels))
        return out

    def computed_counts(self, inputs) -> dict:
        return {}


class SelectDppUcs:
    """dpp_kernel(x, 0.1) then greedy_dpp_ucs, as run_selection(base="dpp")."""

    name = "select-dpp-ucs"
    deterministic = True
    # About half interpreted (gain_if_added), half numpy (kernel, solves).
    ref_weights = (0.5, 0.5)
    sizes = {"full": dict(n=4000, dim=64, budget=100, label_types=8000),
             "tiny": dict(n=200, dim=16, budget=10, label_types=400)}

    def __init__(self, tiny: bool, outdir: str):
        self.size = self.sizes["tiny" if tiny else "full"]
        self.cfg = SelectionConfig(budget=self.size["budget"], lam=0.1, base="dpp",
                                   dpp_scale_factor=0.1, sgt=SgtConfig())

    def describe(self) -> dict:
        return dict(self.size, spread=0.3, lam=0.1, label_exponent=0.8,
                    pool_types=500, pool_exponent=1.1)

    def build(self, seed: int):
        s = self.size
        x, _ = ucs.synth_oracle.sample_pool(Population.zipf(500, 1.1), s["n"],
                                            dim=s["dim"], spread=0.3, seed=seed)
        labels = ucs.synth_oracle.sample_labels(
            Population.zipf(s["label_types"], 0.8), s["n"], seed)
        return {"x": x, "labels": labels}

    def op(self, inputs, index: int):
        kernel = ucs.selection.dpp_kernel(inputs["x"], self.cfg.dpp_scale_factor)
        return ucs.selection.greedy_dpp_ucs(kernel, inputs["labels"], self.cfg)

    def inspect(self, inputs, result, index: int) -> Outcome:
        out = Outcome()
        labels = inputs["labels"]
        n, budget = labels.shape[0], self.cfg.budget
        picks = list(result.indices)
        if len(set(picks)) != budget or len(picks) != budget:
            out.problems.append(f"{len(set(picks))} distinct picks, expected {budget}")
        if any(not 0 <= i < n for i in picks):
            out.problems.append(f"index outside 0..{n - 1}")
        seen = len({int(labels[i]) for i in picks})
        if result.k_seen != seen:
            out.problems.append(f"k_seen {result.k_seen} but {seen} distinct labels picked")
        phi, _, _ = ucs.coverage.coverage_phi(labels, picks, self.cfg.sgt)
        if result.phi != phi:
            out.problems.append(f"phi {result.phi} but coverage_phi gives {phi}")
        uniq, inv = _exposure(labels, [picks])
        out.facts = {"uniq_clusters": uniq, "mean_inv_size": inv, "phi": result.phi}
        out.fingerprint = tuple(picks)
        return out

    def computed_counts(self, inputs) -> dict:
        n, b = inputs["labels"].shape[0], self.cfg.budget
        return {"coverage.CoverageTracker.gain_if_added.calls": b * n - b * (b - 1) // 2}


class EstimateOracle:
    """mc_unseen_oracle on a Zipf population; the seed advances by op index."""

    name = "estimate-oracle"
    deterministic = False
    # Mostly interpreted spectrum and estimator loops.
    ref_weights = (1.0, 0.0)
    sizes = {"full": dict(types=2000, exponent=1.0, n=500, t=2.0, trials=200),
             "tiny": dict(types=200, exponent=1.0, n=100, t=2.0, trials=20)}

    def __init__(self, tiny: bool, outdir: str):
        self.size = self.sizes["tiny" if tiny else "full"]

    def describe(self) -> dict:
        return dict(self.size)

    def build(self, seed: int):
        s = self.size
        return {"pop": Population.zipf(s["types"], s["exponent"]), "seed": seed}

    def op(self, inputs, index: int):
        s = self.size
        return ucs.synth_oracle.mc_unseen_oracle(
            inputs["pop"], n=s["n"], t=s["t"], trials=s["trials"],
            seed=inputs["seed"] + index)

    def inspect(self, inputs, report, index: int) -> Outcome:
        out = Outcome()
        s = self.size
        est = np.asarray(report.estimates)
        if est.shape != (s["trials"],) or not np.all(np.isfinite(est)) or np.any(est < 0):
            out.problems.append("estimates are not all finite and >= 0")
        # Recount one trial's new types with Python sets; trial r uses seed + r.
        trial = index % s["trials"]
        n, m = s["n"], int(s["t"] * s["n"])
        draws = ucs.synth_oracle.sample_labels(inputs["pop"], n + m,
                                               inputs["seed"] + index + trial)
        first = {int(v) for v in draws[:n]}
        new = len({int(v) for v in draws[n:]} - first)
        if report.new_counts[trial] != new:
            out.problems.append(f"trial {trial}: new_counts {report.new_counts[trial]}, "
                                f"recount {new}")
        out.facts = {"oracle_abs_err": report.mean_abs_estimator_error}
        return out

    def computed_counts(self, inputs) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (PipelineVotek, SelectDppUcs, EstimateOracle)}


def quality(name: str, outcomes: list[Outcome]) -> dict[str, float]:
    """Seeded quality metrics over the timed ops' facts."""
    facts = [o.facts for o in outcomes if not o.problems]
    if not facts:
        return {}
    if name == EstimateOracle.name:
        errs = [f["oracle_abs_err"] for f in facts[:ORACLE_ERR_OPS]]
        return {"oracle_abs_err": sum(errs) / len(errs)}
    # The other workloads repeat one input, and every op's output was checked
    # equal to the warm-up's, so the first op's facts stand for all of them.
    return dict(facts[0])
