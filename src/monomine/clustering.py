"""Confusability clustering: group languages the classifier cannot keep apart.

Distances come from symmetrized pairwise false-negative rates; clusters come
from average-linkage agglomeration with fixed tie-breaks so the partition is
reproducible; oversized clusters are re-split at their highest internal merge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidCut, ParseError, read_json
from .langid import ConfusionMatrix


@dataclass(frozen=True)
class ClusterMap:
    """A partition of languages into confusability clusters.

    Cluster ids are canonical: clusters are numbered 0..k-1 in order of their
    lexicographically smallest member, so equal partitions get equal ids.
    """

    assignment: dict[str, int]
    members: dict[int, tuple[str, ...]]

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[str]]) -> "ClusterMap":
        ordered = sorted((tuple(sorted(g)) for g in groups if g), key=lambda g: g[0])
        members = {i: g for i, g in enumerate(ordered)}
        assignment: dict[str, int] = {}
        for cid, group in members.items():
            for lang in group:
                if lang in assignment:
                    raise ValueError(f"{lang} appears in more than one cluster")
                assignment[lang] = cid
        return cls(assignment, members)

    def cluster_of(self, lang: str) -> int:
        return self.assignment[lang]

    @property
    def languages(self) -> list[str]:
        return sorted(self.assignment)

    def to_dict(self) -> dict[str, int]:
        return dict(sorted(self.assignment.items()))

    def save_json(self, path: str | Path) -> None:
        """Flat {lang: cluster_id} mapping."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path: str | Path) -> "ClusterMap":
        """The mapping `save_json` writes. Bad JSON raises ParseError with
        its line; any other shape, or a cluster id that is not a JSON
        integer, with the path."""
        obj = read_json(path, dict, "a {lang: cluster_id} object")
        by_cluster: dict[int, list[str]] = {}
        for lang, cid in obj.items():
            if type(cid) is not int:  # nor a bool, nor a float to truncate
                raise ParseError(None, f"cluster id of {lang!r} must be an integer, got {cid!r}", path)
            by_cluster.setdefault(cid, []).append(lang)
        return cls.from_groups(by_cluster.values())

    def save_tsv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for lang, cid in sorted(self.assignment.items()):
                fh.write(f"{lang}\t{cid}\n")


def fnr_distance_matrix(cm: ConfusionMatrix) -> np.ndarray:
    """d(a, b) = 1 - max(rate of a misread as b, rate of b misread as a)."""
    row_sums = cm.counts.sum(axis=1)[:, None]
    rates = np.divide(cm.counts, row_sums, out=np.zeros(cm.counts.shape), where=row_sums != 0)
    dist = 1.0 - np.maximum(rates, rates.T)
    np.fill_diagonal(dist, 0.0)
    return dist


_RESCAN_SLAB = 64  # rows per batched rescan in `_merges`, so its temporaries are 64 x n


def _merges(
    dist: np.ndarray, stop_at: Optional[float] = None, limit: Optional[int] = None
) -> list[tuple[float, int, int]]:
    """The average-linkage merge sequence as (distance, i, j) with i < j.

    Clusters are keyed by their smallest original point index; merging j into
    i keeps key i. Each merge takes the smallest (average distance, i, j)
    over the open pairs, which pins down every tie. Pair sums are accumulated
    and each open pair's average is stored, and each open row caches its
    nearest open column to the right (Müllner's "generic" algorithm, kept
    exact), so a merge is O(n) array work on row and column i plus an argmin
    over the stored row of each row whose cached column was i or j: O(n^2)
    time in all but contrived cases, and two n x n float matrices of memory.

    With no stopping point this is the whole dendrogram, n - 1 merges. It
    stops before the first merge whose average is >= `stop_at`, and after
    `limit` merges; every cut is a prefix of the whole list, since a merge
    never depends on the ones after it.
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not (dist >= 0).all():  # also false at NaN; inf is a valid distance
        raise ValueError("distance matrix must be non-negative")
    # exact equality implies allclose, equal infs too, and costs a tenth as much
    if not (dist == dist.T).all() and not np.allclose(dist, dist.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diagonal(dist) != 0):
        raise ValueError("distance matrix must have a zero diagonal")
    # avg[k, c] for open k < open c, else inf. Sizes are 1, so it starts as the
    # upper triangle, which mirrored gives the sums: dist need only be symmetric to allclose.
    avg = np.triu(np.asarray(dist, dtype=float), 1)
    sums = avg + avg.T
    avg[np.tri(n, dtype=bool)] = np.inf
    sizes = np.ones(n)  # a product of two sizes is below 2^53, so exact
    alive = np.ones(n, dtype=bool)
    # per row: the first column of its smallest average, and that average.
    # Column 0 is right of no row, so a closed row, and an open one with no
    # finite average, holds column 0 and inf.
    nearest, nearest_avg = np.zeros(n, dtype=np.int64), np.full(n, np.inf)

    stale, merges = np.arange(n), []  # every row is scanned before the first merge
    for _ in range(n - 1 if limit is None else min(limit, n - 1)):
        for start in range(0, stale.size, _RESCAN_SLAB):  # slabs bound the temporaries
            r = stale[start : start + _RESCAN_SLAB]
            rows = avg[r]
            nearest[r], nearest_avg[r] = rows.argmin(axis=1), rows.min(axis=1)
        i = int(nearest_avg.argmin())
        best = float(nearest_avg[i])
        if stop_at is not None and best >= stop_at:
            break
        # if every average is inf, i is row 0, which a merge never closes,
        # and it merges with its first open column
        j = int(nearest[i]) if best < math.inf else 1 + int(alive[1:].argmax())
        merges.append((best, i, j))
        sums[i] += sums[j]
        sums[:, i] = sums[i]
        sizes[i] += sizes[j]
        alive[j], nearest[j] = False, 0
        # with inf sums, j's averages in row and column i below are inf too
        nearest_avg[j] = avg[:j, j] = sums[:, j] = np.inf
        # a row holding column 0 gets a finite average only from the left update
        stale = ((nearest == i) | (nearest == j) if i else nearest == j).nonzero()[0]
        pair_avgs = sums[i] / (sizes[i] * sizes)  # i's averages, row i right of i and column i above
        avg[i, i + 1 :] = pair_avgs[i + 1 :]
        col = avg[:i, i] = pair_avgs[:i]
        # a row left of i takes i if its new average is smaller, or equal and i the smaller column
        left = nearest_avg[:i]
        won = (col < left) | ((col == left) & (nearest[:i] > i))
        left[won] = col[won]
        nearest[:i][won] = i
    return merges


def _replay(n: int, merges: Iterable[tuple[float, int, int]]) -> list[list[int]]:
    """The groups of points 0..n-1 left after the given merges."""
    groups = {i: [i] for i in range(n)}
    for _, i, j in merges:
        groups[i] += groups.pop(j)
    return [sorted(g) for g in groups.values()]


def agglomerative_cluster(
    dist: np.ndarray,
    labels: Sequence[str],
    n_clusters: Optional[int] = None,
    distance_threshold: Optional[float] = None,
) -> ClusterMap:
    """Cluster `labels` by the distance matrix, cut by count or threshold.

    With a threshold, merging stops before the first merge whose average
    distance is at or above it (sklearn-style semantics); with a count, after
    n - n_clusters merges. The merges past the cut are never computed.
    """
    n = dist.shape[0]
    if len(labels) != n:
        raise ValueError("labels must match the distance matrix size")
    if (n_clusters is None) == (distance_threshold is None):
        raise InvalidCut("give exactly one of n_clusters or distance_threshold")
    if n_clusters is not None and not 1 <= n_clusters <= n:
        raise InvalidCut(f"n_clusters must be in [1, {n}]")
    if distance_threshold is not None and math.isnan(distance_threshold):
        raise InvalidCut("distance_threshold must not be NaN")  # no average is >= NaN

    if n_clusters is not None:
        merges = _merges(dist, limit=n - n_clusters)
    else:
        merges = _merges(dist, stop_at=distance_threshold)
    groups = _replay(n, merges)
    return ClusterMap.from_groups([[labels[i] for i in g] for g in groups])


def _bisect(indices: list[int], dist: np.ndarray) -> tuple[list[int], list[int]]:
    """Undo the top merge of the subtree over `indices`: replay all merges
    but the last, which is never computed."""
    parts = _replay(len(indices), _merges(dist[np.ix_(indices, indices)], limit=len(indices) - 2))
    return [indices[i] for i in parts[0]], [indices[i] for i in parts[1]]


def resplit(
    cluster_map: ClusterMap,
    dist: np.ndarray,
    labels: Sequence[str],
    max_size: int = 20,
) -> ClusterMap:
    """Recursively bisect any cluster larger than max_size at its top merge.

    A threshold cut at t < 1 of an `fnr_distance_matrix` leaves nothing to
    do: each pair of a cluster was a cross pair of one merge at average
    distance < t, and a language's confusion shares sum to at most 1, so a
    cluster of m languages has (1 - t) m (m - 1) / 2 < m, that is
    m < 1 + 2/(1 - t), at most 10 at 0.8. With the default max_size, only
    count cuts and hand-made cluster maps get split.
    """
    if max_size < 1:
        raise InvalidCut("max_size must be >= 1")
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
    return ClusterMap.from_groups(final_groups)


def add_singletons(cluster_map: ClusterMap, langs: Iterable[str]) -> ClusterMap:
    """(Re)assign each listed language to a fresh cluster of its own."""
    moved = set(langs)
    groups = [[lang for lang in group if lang not in moved] for group in cluster_map.members.values()]
    groups.extend([lang] for lang in sorted(moved))
    return ClusterMap.from_groups(groups)
