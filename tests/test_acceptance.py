"""Acceptance suite: one test per numbered criterion.

Each test pins the stated tolerance and prints a single "[criterion NN]
PASS" line with the measured values, so the -v log carries a one-line
verdict per criterion.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

from oracles import (
    adjusted_rand_index,
    canon,
    read_manifest,
    reference_dbscan,
    union_find_partition,
)
from ucs.cli import CONFIG_DEFAULTS, main, run_pipeline
from ucs.clustering import cluster_pool, cosine_distance_matrix, dbscan_from
from ucs.coverage import SgtConfig, corpus_prior, coverage_phi, sgt_unseen, subset_spectrum
from ucs.latent_dictionary import (
    CodeBook,
    fit_dictionary,
    fit_joint_dictionary,
    ridge_encode,
)
from ucs.matrix_store import read_labels, write_matrix
from ucs.selection import (
    SelectionConfig,
    best_subset,
    dpp_kernel,
    greedy_dpp,
    greedy_dpp_ucs,
    redundancy_utility,
    sample_candidate_subsets,
    select,
    subset_utility_ucs,
    votek_select,
    votek_ucs_select,
)
from ucs.synth_oracle import (
    Population,
    expected_new_types,
    exposure_metrics,
    mc_unseen_oracle,
    sample_pool,
)


def test_criterion_01_sgt_oracle_accuracy():
    start = time.perf_counter()
    pop = Population.uniform(100)
    report = mc_unseen_oracle(pop, n=200, t=1.0, trials=1000, seed=42)
    closed = expected_new_types(pop, 200, 200)
    scatter = 3.0 * report.std_new / np.sqrt(report.trials)
    assert abs(report.mean_new - closed) <= scatter
    # estimator accuracy measured on the mean over trials
    rel_err = abs(report.mean_estimate - report.mean_new) / report.mean_new
    assert rel_err <= 0.35
    beats = []
    for t in (2.0, 4.0, 8.0):
        sgt = mc_unseen_oracle(pop, n=200, t=t, trials=1000, seed=42)
        gt = mc_unseen_oracle(pop, n=200, t=t, trials=1000, seed=42,
                              estimator="gt")
        err_sgt = abs(sgt.mean_estimate - sgt.mean_new)
        err_gt = abs(gt.mean_estimate - gt.mean_new)
        assert err_sgt <= err_gt, f"t={t}: {err_sgt} > {err_gt}"
        beats.append(f"t={t:g}:{err_sgt:.2f}<={err_gt:.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[criterion 01] PASS mean_new={report.mean_new:.2f} "
          f"closed={closed:.2f} rel_err={rel_err:.3f} "
          f"{' '.join(beats)} ({elapsed:.1f}s)")


def test_criterion_02_lambda_zero_equivalence():
    budget, runs = 10, 50
    for run in range(runs):
        x, labels = sample_pool(Population.uniform(20), 300, dim=16, seed=run)
        sgt = SgtConfig(t=2.0)

        kernel = dpp_kernel(x)
        cfg = SelectionConfig(budget=budget, lam=0.0, base="dpp", sgt=sgt)
        assert greedy_dpp_ucs(kernel, labels, cfg).indices == \
            greedy_dpp(kernel, budget), f"dpp run {run}"

        cfg = SelectionConfig(budget=budget, lam=0.0, base="votek", sgt=sgt)
        prior = corpus_prior(labels)
        assert votek_ucs_select(x, labels, prior, cfg).indices == \
            votek_select(x, budget), f"votek run {run}"

        cfg = SelectionConfig(budget=budget, lam=0.0, base="subset_utility",
                              sgt=sgt)
        candidates = sample_candidate_subsets(x, x.mean(axis=0), budget,
                                              candidate_num=25, seed=run)
        utilities = redundancy_utility(x, candidates)
        winner = best_subset(candidates, utilities)
        assert subset_utility_ucs(candidates, utilities, labels, cfg).indices \
            == candidates[winner], f"subset run {run}"
    print(f"[criterion 02] PASS exact index match over {runs} runs x 3 bases")


def test_criterion_03_greedy_dpp_brute_force():
    rng = np.random.default_rng(0)
    worst = 0.0
    for pool_id in range(20):
        n = int(rng.integers(5, 13))
        budget = int(rng.integers(1, 5))
        kernel = dpp_kernel(rng.standard_normal((n, 6)), scale=0.5)
        cfg = SelectionConfig(budget=budget, lam=0.0, base="dpp")
        result = greedy_dpp_ucs(kernel, np.arange(n), cfg)
        kernel = np.asarray(kernel)  # the oracle's dense matrix
        selected: list[int] = []
        for record in result.records:
            base = np.linalg.slogdet(kernel[np.ix_(selected, selected)])[1] \
                if selected else 0.0
            gains = np.full(n, -np.inf)
            for i in range(n):
                if i not in selected:
                    sub = selected + [i]
                    gains[i] = np.linalg.slogdet(kernel[np.ix_(sub, sub)])[1] - base
            assert record.index == int(np.argmax(gains)), f"pool {pool_id}"
            diff = abs(record.base_gain - gains[record.index])
            worst = max(worst, diff)
            assert diff < 1e-7, f"pool {pool_id}: gain off by {diff}"
            selected.append(record.index)
    print(f"[criterion 03] PASS 20 pools N<=12 B<=4, worst gain diff {worst:.1e}")


def test_criterion_04_dbscan_equivalence():
    rng = np.random.default_rng(1)
    for pool_id in range(100):
        n = int(rng.integers(2, 501))
        dist = cosine_distance_matrix(rng.standard_normal((n, 3)))
        off = dist[~np.eye(n, dtype=bool)]
        eps = float(np.quantile(off, rng.uniform(0.02, 0.3))) if n > 1 else 0.1
        raw = dbscan_from(dist, eps, min_samples=1)
        assert (raw >= 0).all()
        assert canon(raw) == canon(union_find_partition(dist, eps)), \
            f"pool {pool_id} (n={n})"

    borders_seen = 0
    for case in range(20):
        n = int(rng.integers(30, 121))
        min_samples = int(rng.integers(2, 6))
        # blobs plus stragglers so border points actually occur
        centers = rng.standard_normal((4, 3)) * 3.0
        x = np.vstack([
            centers[rng.integers(0, 4)] + 0.3 * rng.standard_normal(3)
            for _ in range(n)
        ])
        dist = cosine_distance_matrix(x)
        off = dist[~np.eye(n, dtype=bool)]
        eps = float(np.quantile(off, rng.uniform(0.05, 0.25)))
        got = dbscan_from(dist, eps, min_samples)
        want = reference_dbscan(dist, eps, min_samples)
        assert np.array_equal(got, want), f"case {case}"
        neigh_sizes = (dist <= eps).sum(axis=1)
        borders_seen += int(((neigh_sizes < min_samples) & (got >= 0)).sum())
    assert borders_seen > 0  # the border rule was actually exercised
    print(f"[criterion 04] PASS 100 union-find pools + 20 border cases "
          f"({borders_seen} border points)")


def test_criterion_05_ridge_coding_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for alpha in (1e-3, 0.1, 10.0):
        d = rng.standard_normal((32, 64))
        x = rng.standard_normal((100, 32))
        codes = ridge_encode(CodeBook(dictionary=d, ridge_alpha=alpha), x)
        gram = d.T @ d + alpha * np.eye(64)
        for i in range(100):
            oracle = np.linalg.solve(gram, d.T @ x[i])
            worst = max(worst, float(np.abs(codes[i] - oracle).max()))
        assert worst < 1e-8, f"alpha={alpha}: {worst}"

    book = CodeBook(dictionary=rng.standard_normal((32, 64)), ridge_alpha=0.5)
    a, b = rng.standard_normal((2, 40, 32))
    lin = ridge_encode(book, 2.5 * a - 0.75 * b)
    parts = 2.5 * ridge_encode(book, a) - 0.75 * ridge_encode(book, b)
    lin_err = float(np.abs(lin - parts).max())
    assert lin_err < 1e-9
    print(f"[criterion 05] PASS oracle diff {worst:.1e}, linearity {lin_err:.1e}")


def _exposure_pool(seed: int, dim: int = 16):
    """Three 30-member clusters plus 12 singletons, tight blobs."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((15, dim)) * 4.0
    rows, labels = [], []
    cluster = 1
    for _ in range(3):
        rows.append(centers[cluster - 1] + 0.05 * rng.standard_normal((30, dim)))
        labels.extend([cluster] * 30)
        cluster += 1
    for _ in range(12):
        rows.append(centers[cluster - 1][None, :])
        labels.append(cluster)
        cluster += 1
    return np.vstack(rows), np.array(labels)


def test_criterion_06_coverage_pressure_exposure():
    x, labels = _exposure_pool(0)
    budget = 10
    plain = votek_select(x, budget=budget, k=3)
    plain_report = exposure_metrics(labels, [plain])
    assert plain_report.mean_cluster_size > 1.0

    prior = corpus_prior(labels)
    cfg = SelectionConfig(budget=budget, lam=1e6, base="votek", votek_k=3,
                          sgt=SgtConfig(t=2.0))
    ucs = votek_ucs_select(x, labels, prior, cfg)
    report = exposure_metrics(labels, [ucs.indices])
    assert report.uniq_clusters == 10.0
    assert report.mean_cluster_size == 1.0
    assert report.mean_inv_size == 1.0
    print(f"[criterion 06] PASS ucs=(10, 1.00, 1.00) "
          f"plain mean size {plain_report.mean_cluster_size:.1f}")


def test_criterion_07_rarity_controls_differ():
    differing = 0
    for seed in range(10):
        x, labels = _exposure_pool(seed)
        prior = corpus_prior(labels)
        cfg = SelectionConfig(budget=10, lam=1.0, base="votek", votek_k=3,
                              sgt=SgtConfig(t=2.0))
        ucs = votek_ucs_select(x, labels, prior, cfg)
        b1 = select(x, labels, replace(cfg, base="B1"))
        b2 = select(x, labels, replace(cfg, base="B2"))
        if b1.indices != ucs.indices or b2.indices != ucs.indices:
            differing += 1
        # score formulas are distinct by construction: check the recorded
        # bonus of the first pick against each rule's closed form
        first_b1 = b1.records[0]
        assert first_b1.coverage_term == 1.0 / prior.sizes[int(labels[first_b1.index])]
        first_ucs = ucs.records[0]
        assert first_ucs.coverage_term == math.log(prior.weights[int(labels[first_ucs.index])])
    assert differing >= 1
    print(f"[criterion 07] PASS controls differ on {differing}/10 seeds")


def test_criterion_08_joint_dictionary():
    worst_ratio, worst_orth = 0.0, 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((60, 12))
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        joint = fit_joint_dictionary([pool, pool @ q], n_atoms=24,
                                     ridge_alpha=1e-10, seed=seed, max_iter=100)
        ratio = joint.objective / joint.objective_history[0]
        worst_ratio = max(worst_ratio, ratio)
        worst_orth = max(worst_orth, max(joint.orthogonality_history))
        assert ratio < 1e-6, f"seed {seed}: ratio {ratio}"
        assert max(joint.orthogonality_history) < 1e-8

    rng = np.random.default_rng(9)
    pool = rng.standard_normal((40, 6))
    single = fit_dictionary(pool, n_atoms=5, seed=3)
    reduced = fit_joint_dictionary([pool], n_atoms=5, seed=3, fix_maps=True)
    gap = abs(reduced.objective - single.objective)
    assert gap <= 1e-8
    print(f"[criterion 08] PASS worst ratio {worst_ratio:.1e}, "
          f"orth {worst_orth:.1e}, reduction gap {gap:.1e}")


def test_criterion_09_spectrum_properties():
    rng = np.random.default_rng(3)
    ts = (0.5, 1.0, 2.0, 5.0, 8.0)
    cfgs = {t: SgtConfig(t=t) for t in ts}
    empties = 0
    for _ in range(10_000):
        n = int(rng.integers(0, 41))
        labels = rng.integers(1, 16, size=max(n, 1))
        subset = list(range(n))
        spec = subset_spectrum(labels, subset)
        assert sum(s * f for s, f in spec.spectrum.items()) == n
        cfg = cfgs[ts[int(rng.integers(0, len(ts)))]]
        u_hat = sgt_unseen(spec, cfg)
        assert u_hat >= 0.0
        phi, k_seen, _ = coverage_phi(labels, subset, cfg)
        assert phi >= k_seen
        if n == 0:
            assert phi == 0.0
            empties += 1
    assert empties > 0
    print(f"[criterion 09] PASS 10000 random spectra "
          f"({empties} empty-subset cases)")


def test_criterion_10_desk_scale_performance():
    rng = np.random.default_rng(4)
    centers = rng.standard_normal((40, 128))
    assign = rng.integers(0, 40, size=15_000)
    pool = centers[assign] + 0.3 * rng.standard_normal((15_000, 128))

    start = time.perf_counter()
    book = fit_dictionary(pool, n_atoms=64, ridge_alpha=10.0, max_iter=15,
                          seed=0)
    codes = ridge_encode(book, pool)
    assignment = cluster_pool(codes, method="dict_dbscan", dbscan_k=20,
                              dbscan_q=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert assignment.labels.shape == (15_000,)
    assert assignment.n_clusters >= 1
    print(f"[criterion 10] PASS 15000x128 fit+encode+cluster in {elapsed:.1f}s "
          f"({assignment.n_clusters} clusters)")


def test_criterion_11_determinism(tmp_path, capsys):
    x, _ = sample_pool(Population.uniform(6), 40, dim=10, seed=5)
    pool_path = str(tmp_path / "pool.ucsm")
    write_matrix(x, pool_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dict_n_components=6\ndict_pca_dim=8\ndbscan_k=3\ndbscan_q=0.3\n"
        "budget=4\nn_runs=2\nsgt_t=2.0\nseed=11\n"
    )
    workdirs = {name: str(tmp_path / name) for name in ("fresh", "rerun", "resumed")}
    run = ["pipeline", "--input", pool_path, "--config", str(cfg), "--workdir"]
    for name in ("fresh", "rerun"):
        assert main(run + [workdirs[name]]) == 0
    # one workdir, split in two invocations: the second resumes at cluster
    assert main(run + [workdirs["resumed"], "--to-stage", "dict-encode"]) == 0
    assert main(run + [workdirs["resumed"], "--from-stage", "cluster"]) == 0
    artifacts = [
        "pool_reduced.ucsm", "dict.ucsm", "codes.ucsm", "labels.txt",
        "prior.csv", "select_run00.csv", "select_run01.csv", "report.txt",
    ]
    reference = workdirs["fresh"]
    for name in artifacts:
        ref_bytes = open(os.path.join(reference, name), "rb").read()
        for other in ("rerun", "resumed"):
            got = open(os.path.join(workdirs[other], name), "rb").read()
            assert got == ref_bytes, f"{name} differs in {other}"
        ref_manifest = read_manifest(os.path.join(reference, name + ".manifest.txt"))
        ref_manifest.pop("timestamp")
        for other in ("rerun", "resumed"):
            got_manifest = read_manifest(
                os.path.join(workdirs[other], name + ".manifest.txt"))
            got_manifest.pop("timestamp")
            assert got_manifest == ref_manifest, f"manifest {name} in {other}"
    capsys.readouterr()
    print(f"[criterion 11] PASS {len(artifacts)} artifacts byte-identical "
          f"across a fresh run, a rerun and a run resumed at cluster")


def test_criterion_12_cluster_recovery(tmp_path, capsys):
    # The pipeline's clusters against the true types of two seeded mixture
    # pools. Recovery is asserted at q=0.5, where it is attainable; the
    # default q=0.01 splits most types into singletons, so its figures are
    # printed and not asserted.
    cfg = dict(CONFIG_DEFAULTS, dict_pca_dim=64, dict_n_components=64, dbscan_k=20, seed=1)
    stages = ["preprocess", "dict-fit", "dict-encode", "cluster"]
    floors = {"uniform(50) spread 0.05": (50, 0.05, 0.9),
              "uniform(200) spread 0.3": (200, 0.3, 0.99)}
    lines = []
    for name, (k, spread, floor) in floors.items():
        x, truth = sample_pool(Population.uniform(k), 4000, dim=128, spread=spread, seed=1)
        workdir = tmp_path / f"k{k}"
        pool_path = str(tmp_path / f"k{k}.ucsm")
        write_matrix(x, pool_path)
        ari = {}
        for q in (0.5, CONFIG_DEFAULTS["dbscan_q"]):
            # the second q reclusters the first run's codes
            run_pipeline(dict(cfg, dbscan_q=q), pool_path, str(workdir),
                         stages if not ari else ["cluster"], "votek")
            ari[q] = adjusted_rand_index(truth, read_labels(str(workdir / "labels.txt")))
        assert ari[0.5] >= floor, (name, ari)
        lines.append(f"{name}: ARI {ari[0.5]:.3f} at q=0.5 (>= {floor}), "
                     f"{ari[CONFIG_DEFAULTS['dbscan_q']]:.3f} at the default "
                     f"q={CONFIG_DEFAULTS['dbscan_q']}")
    capsys.readouterr()
    print(f"[criterion 12] PASS {'; '.join(lines)}")
