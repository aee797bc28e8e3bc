"""Test oracles shared by the test modules, one copy each: an independent
DBSCAN and union-find components on a distance matrix, first-appearance
renumbering for comparing partitions, the adjusted Rand index of two
partitions, a plain manifest reader, and a runner that gives a script's
output at one and at two BLAS threads."""

import math
import os
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path

import numpy as np

import ucs


def reference_dbscan(dist: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Independent DBSCAN: core mask first, BFS over the core graph in index
    order, borders claimed by the first cluster that reaches them, clusters
    renumbered by smallest member."""
    n = dist.shape[0]
    neigh = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    core = np.array([nb.size >= min_samples for nb in neigh])
    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != -1:
            continue
        labels[seed] = cluster
        queue = deque([seed])
        while queue:
            i = queue.popleft()
            for j in neigh[i]:
                if labels[j] == -1:
                    labels[j] = cluster
                    if core[j]:
                        queue.append(int(j))
        cluster += 1
    if cluster > 1:
        first = np.full(cluster, n)
        for i in range(n - 1, -1, -1):
            if labels[i] >= 0:
                first[labels[i]] = i
        renumber = np.empty(cluster, dtype=np.int64)
        renumber[np.argsort(first, kind="stable")] = np.arange(cluster)
        mask = labels >= 0
        labels[mask] = renumber[labels[mask]]
    return labels


def union_find_partition(dist: np.ndarray, eps: float) -> list[int]:
    """Connected components of the graph dist <= eps (upper triangle), by
    union-find: each row's root."""
    n = dist.shape[0]
    parent = np.arange(n)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ii, jj = np.nonzero(np.triu(dist <= eps, 1))
    for a, b in zip(ii.tolist(), jj.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(i) for i in range(n)]


def canon(labels) -> list[int]:
    """First-appearance renumbering, for comparing partitions."""
    seen: dict[int, int] = {}
    return [seen.setdefault(int(v), len(seen)) for v in labels]


def adjusted_rand_index(a, b) -> float:
    """Hubert and Arabie's adjusted Rand index of two labelings of the same
    items, from their contingency table: 1 for equal partitions, about 0
    for independent ones."""
    a, b = [int(v) for v in a], [int(v) for v in b]
    if len(a) != len(b):
        raise ValueError(f"{len(a)} labels against {len(b)}")

    def pairs(counts) -> int:
        return sum(math.comb(c, 2) for c in counts)

    together = pairs(Counter(zip(a, b)).values())
    in_a, in_b = pairs(Counter(a).values()), pairs(Counter(b).values())
    expected = in_a * in_b / math.comb(len(a), 2)
    most = (in_a + in_b) / 2
    if most == expected:  # both partitions all one cluster, or all singletons
        return 1.0
    return (together - expected) / (most - expected)


def read_manifest(path) -> dict[str, str]:
    """key -> value of each key=value line of a manifest file."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            out[key] = value
    return out


def stdout_at_blas_threads(script: str) -> dict[str, list[str]]:
    """The stdout lines of `python -c script` at OPENBLAS_NUM_THREADS "1"
    and "2", keyed by that value, with the imported ucs package's sources
    first on PYTHONPATH."""
    src = str(Path(ucs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        outputs[threads] = proc.stdout.splitlines()
    return outputs
