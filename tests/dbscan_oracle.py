"""An independent DBSCAN on a distance matrix, the oracle the clustering
tests compare the array DBSCAN with."""

from collections import deque

import numpy as np


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
