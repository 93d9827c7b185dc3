"""Confusability clustering: group languages the classifier cannot keep apart.

Distances come from symmetrized pairwise false-negative rates; clusters come
from average-linkage agglomeration with fixed tie-breaks so the partition is
reproducible; oversized clusters are re-split at their highest internal merge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidCut
from .langid import ConfusionMatrix


@dataclass(frozen=True)
class ClusterMap:
    """A partition of languages into confusability clusters.

    Cluster ids are canonical: clusters are numbered 0..k-1 in order of their
    lexicographically smallest member, so equal partitions get equal ids.
    """

    assignment: dict[str, int]
    members: dict[int, tuple[str, ...]]
    singletons: frozenset[str] = frozenset()

    @classmethod
    def from_groups(
        cls, groups: Iterable[Iterable[str]], singletons: frozenset[str] = frozenset()
    ) -> "ClusterMap":
        ordered = sorted((tuple(sorted(g)) for g in groups if g), key=lambda g: g[0])
        members = {i: g for i, g in enumerate(ordered)}
        assignment: dict[str, int] = {}
        for cid, group in members.items():
            for lang in group:
                if lang in assignment:
                    raise ValueError(f"{lang} appears in more than one cluster")
                assignment[lang] = cid
        for lang in singletons:
            if lang in assignment and len(members[assignment[lang]]) != 1:
                raise ValueError(f"singleton-policy language {lang} is not alone")
        return cls(assignment, members, singletons)

    def cluster_of(self, lang: str) -> int:
        return self.assignment[lang]

    @property
    def languages(self) -> list[str]:
        return sorted(self.assignment)

    def to_dict(self) -> dict[str, int]:
        return dict(sorted(self.assignment.items()))

    def save_json(self, path: str | Path) -> None:
        """Flat {lang: cluster_id} mapping. The singleton-policy set is not
        persisted; the partition itself already carries the singleton clusters."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path: str | Path) -> "ClusterMap":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        by_cluster: dict[int, list[str]] = {}
        for lang, cid in obj.items():
            by_cluster.setdefault(int(cid), []).append(lang)
        return cls.from_groups(by_cluster.values())

    def save_tsv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for lang, cid in sorted(self.assignment.items()):
                fh.write(f"{lang}\t{cid}\n")


def fnr_distance_matrix(cm: ConfusionMatrix) -> np.ndarray:
    """d(a, b) = 1 - max(rate of a misread as b, rate of b misread as a)."""
    n = len(cm.languages)
    dist = np.ones((n, n))
    row_sums = cm.counts.sum(axis=1)
    for i in range(n):
        for j in range(i + 1, n):
            ij = cm.counts[i, j] / row_sums[i] if row_sums[i] else 0.0
            ji = cm.counts[j, i] / row_sums[j] if row_sums[j] else 0.0
            dist[i, j] = dist[j, i] = 1.0 - max(ij, ji)
    np.fill_diagonal(dist, 0.0)
    return dist


class _Agglomerator:
    """Average-linkage agglomeration over a precomputed distance matrix.

    Clusters are keyed by their smallest original point index. Candidate
    merges are ordered by (average distance, i, j) with i < j, which pins
    down every tie. Pair sums are accumulated instead of recomputed, so a
    merge is O(n).
    """

    def __init__(self, dist: np.ndarray):
        n = dist.shape[0]
        if dist.shape != (n, n):
            raise ValueError("distance matrix must be square")
        if not np.allclose(dist, dist.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diagonal(dist) != 0):
            raise ValueError("distance matrix must have a zero diagonal")
        self.clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
        self.pair_sums: dict[tuple[int, int], float] = {}
        for i in range(n):
            for j in range(i + 1, n):
                self.pair_sums[(i, j)] = float(dist[i, j])

    def _best_pair(self) -> tuple[float, int, int]:
        best = None
        for (i, j), total in self.pair_sums.items():
            avg = total / (len(self.clusters[i]) * len(self.clusters[j]))
            key = (avg, i, j)
            if best is None or key < best:
                best = key
        assert best is not None
        return best

    def merge_once(self) -> float:
        """Perform the next merge; returns its linkage distance."""
        avg, i, j = self._best_pair()
        self.merge(i, j)
        return avg

    def merge(self, i: int, j: int) -> None:
        """Merge cluster j into cluster i (i < j)."""
        self.clusters[i] = self.clusters[i] + self.clusters[j]
        del self.clusters[j]
        sums = self.pair_sums
        del sums[(i, j)]
        for k in list(self.clusters):
            if k == i:
                continue
            a, b = (min(i, k), max(i, k))
            c, d = (min(j, k), max(j, k))
            sums[(a, b)] = sums[(a, b)] + sums.pop((c, d))

    def groups(self) -> list[list[int]]:
        return [sorted(m) for m in self.clusters.values()]


def agglomerative_cluster(
    dist: np.ndarray,
    labels: Sequence[str],
    linkage: str = "average",
    n_clusters: Optional[int] = None,
    distance_threshold: Optional[float] = None,
) -> ClusterMap:
    """Cluster `labels` by the distance matrix, cut by count or threshold.

    With a threshold, merging stops when the smallest linkage distance is at
    or above it (sklearn-style semantics).
    """
    if linkage != "average":
        raise ValueError(f"unsupported linkage: {linkage!r}")
    n = dist.shape[0]
    if len(labels) != n:
        raise ValueError("labels must match the distance matrix size")
    if (n_clusters is None) == (distance_threshold is None):
        raise InvalidCut("give exactly one of n_clusters or distance_threshold")
    if n_clusters is not None and not 1 <= n_clusters <= n:
        raise InvalidCut(f"n_clusters must be in [1, {n}]")

    agg = _Agglomerator(dist)
    if n_clusters is not None:
        while len(agg.clusters) > n_clusters:
            agg.merge_once()
    else:
        while len(agg.clusters) > 1:
            avg, i, j = agg._best_pair()
            if avg >= distance_threshold:
                break
            agg.merge(i, j)
    return ClusterMap.from_groups([[labels[i] for i in g] for g in agg.groups()])


def _bisect(indices: list[int], dist: np.ndarray) -> tuple[list[int], list[int]]:
    """Undo the top merge of the subtree over `indices`: agglomerate to 2."""
    sub = dist[np.ix_(indices, indices)]
    agg = _Agglomerator(sub)
    while len(agg.clusters) > 2:
        agg.merge_once()
    parts = agg.groups()
    return [indices[i] for i in parts[0]], [indices[i] for i in parts[1]]


def resplit(
    cluster_map: ClusterMap,
    dist: np.ndarray,
    labels: Sequence[str],
    max_size: int = 20,
) -> ClusterMap:
    """Recursively bisect any cluster larger than max_size at its top merge."""
    index = {lang: i for i, lang in enumerate(labels)}
    final_groups: list[list[str]] = []
    for group in cluster_map.members.values():
        stack = [[index[lang] for lang in group]]
        while stack:
            part = stack.pop()
            if len(part) <= max_size:
                final_groups.append([labels[i] for i in part])
            else:
                stack.extend(_bisect(sorted(part), dist))
    return ClusterMap.from_groups(final_groups, cluster_map.singletons)


def add_singletons(cluster_map: ClusterMap, langs: Iterable[str]) -> ClusterMap:
    """(Re)assign each listed language to a fresh cluster of its own."""
    moved = set(langs)
    groups = [[lang for lang in group if lang not in moved] for group in cluster_map.members.values()]
    groups.extend([lang] for lang in sorted(moved))
    return ClusterMap.from_groups(groups, cluster_map.singletons | frozenset(moved))
