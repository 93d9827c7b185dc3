"""Confusability clustering: group languages the classifier cannot keep apart.

Distances come from symmetrized pairwise false-negative rates; clusters come
from average-linkage agglomeration with fixed tie-breaks so the partition is
reproducible; oversized clusters are re-split at their highest internal merge.
"""

from __future__ import annotations

import heapq
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


_RESCAN_SLAB = 64  # rows per batched rescan in `_linkage`, so its temporaries are 64 x n

# Components of up to SMALL points are merged in stacks, larger ones by `_linkage`. On a
# 2-core x86 host, ten components took 2.0 ms stacked against 5.0 ms in the loop at 32
# points each, but 8.0 against 7.7 ms at 48 (stacked 64 wide). A lone one is cheaper in
# the loop at any size (0.9 against 0.5 ms at 32); the workloads' small ones come many.
SMALL = 32

# A threshold cut at t merges within the connected components of the graph of
# pairs below t (1 + n^2 _SLACK) on their own. An average across two of them
# sums at most n^2 / 4 distances at or above that bound, and each addition and
# the division by the exact product of sizes lowers it by at most 2^-53 of
# itself, so it cannot come out below t: no merge below t joins two
# components. Without it, three cross pairs at exactly 0.7, each below no bound
# of 0.7, average to 0.6999999999999998 and merge below a cut at 0.7.
_SLACK = 2.0**-52


def _merges(
    dist: np.ndarray, stop_at: Optional[float] = None, limit: Optional[int] = None
) -> list[tuple[float, int, int]]:
    """The average-linkage merge sequence as (distance, i, j) with i < j.

    Clusters are keyed by their smallest original point index; merging j into
    i keeps key i. Each merge takes the smallest (average distance, i, j)
    over the open pairs, which pins down every tie.

    With no stopping point this is the whole dendrogram, n - 1 merges. It
    stops before the first merge whose average is >= `stop_at`, and after
    `limit` merges; every cut is a prefix of the whole list, since a merge
    never depends on the ones after it. A threshold cut merges within each
    connected component of the graph of pairs below it on its own (see
    `_SLACK`).
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not (dist >= 0).all():  # also false at NaN; inf is a valid distance
        raise ValueError("distance matrix must be non-negative")
    # exact equality implies allclose, equal infs too, and costs a tenth as much
    exact = (dist == dist.T).all()
    if not exact and not np.allclose(dist, dist.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diagonal(dist) != 0):
        raise ValueError("distance matrix must have a zero diagonal")
    if stop_at is None or limit is not None or math.isnan(stop_at):
        return _linkage(dist, stop_at, limit, exact)  # no average is >= NaN, so it never stops
    if n < 2 or not stop_at > 0:  # every average is >= 0
        return []
    below = dist < stop_at * (1 + n * n * _SLACK)  # the zero diagonal too, as stop_at > 0
    if not exact:
        below |= below.T  # an edge in either triangle: more edges only join more
    order, starts = _components(below)
    sizes = np.diff(starts)
    runs: list[list[tuple[float, int, int]]] = []
    for start, size in zip(starts[:-1][sizes > SMALL].tolist(), sizes[sizes > SMALL].tolist()):
        members = order[start : start + size]
        sub = dist if size == n else dist[np.ix_(members, members)]
        at = members.tolist()
        runs.append([(avg, at[i], at[j]) for avg, i, j in _linkage(sub, stop_at, symmetric=exact)])
    stacked = (sizes > 1) & (sizes <= SMALL)
    if stacked.any():
        runs.extend(_stacked_merges(dist, order, starts[:-1][stacked], sizes[stacked], stop_at))
    # Each component's merges come in the order the whole-matrix loop makes them, and at each step
    # that loop takes the smallest next merge of any component: the smallest head of the lists.
    return runs[0] if len(runs) == 1 else list(heapq.merge(*runs))


def _linkage(
    dist: np.ndarray, stop_at: Optional[float] = None, limit: Optional[int] = None, symmetric: bool = False
) -> list[tuple[float, int, int]]:
    """`_merges` of a checked matrix, by one loop over the whole of it.

    Pair sums are accumulated and each open pair's average is stored, and
    each open row caches its nearest open column to the right (Müllner's
    "generic" algorithm, kept exact), so a merge is O(n) array work on row and
    column i plus an argmin over the stored row of each row whose cached
    column was i or j: O(n^2) time in all but contrived cases, and two n x n
    float matrices of memory. `symmetric` says that `dist` equals its
    transpose exactly.
    """
    n = dist.shape[0]
    # avg[k, c] for open k < open c, else inf. Sizes are 1, so it starts as the
    # upper triangle, which mirrored gives the sums: dist need only be symmetric
    # to allclose. Row by row, so no n x n temporary is made.
    sums = np.array(dist, dtype=float)
    avg = np.empty((n, n))
    for k in range(n):
        avg[k, : k + 1], avg[k, k + 1 :] = np.inf, sums[k, k + 1 :]
        if not symmetric:
            sums[k + 1 :, k] = sums[k, k + 1 :]
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


def _components(below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The connected components of a graph given as a symmetric boolean
    matrix with a True diagonal: every point in order of its component's
    smallest point, then its own, and where each component starts (with n
    appended). A few O(n^2) passes over the matrix, and work per edge only
    for edges between trees that the first pass leaves apart.
    """
    n = below.shape[0]
    # Each point points at its smallest neighbour, itself at the latest: the
    # first True of its row. That forest already joins a complete graph.
    root = _roots(below.argmax(axis=1))
    # Any edge between two trees has an end outside the largest one.
    rest = np.flatnonzero(root != np.bincount(root).argmax())
    if rest.size:
        at = np.flatnonzero(below[rest])
        u, v = rest[at // n], at % n
        cross = root[u] != root[v]
        u, v = u[cross], v[cross]
        while u.size:  # hook the larger root of each cross edge under the smaller
            ru, rv = root[u], root[v]
            root[np.maximum(ru, rv)] = np.minimum(ru, rv)  # one write wins per root
            root = _roots(root)
            cross = root[u] != root[v]
            u, v = u[cross], v[cross]
    sizes = np.bincount(root, minlength=n)
    return np.argsort(root, kind="stable"), np.append(0, np.cumsum(sizes[sizes > 0]))


def _roots(parent: np.ndarray) -> np.ndarray:
    """Follow each point's chain of parents, each smaller than the last, to its end."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def _stacked_merges(
    dist: np.ndarray, order: np.ndarray, starts: np.ndarray, sizes: np.ndarray, stop_at: float
) -> list[list[tuple[float, int, int]]]:
    """The threshold-cut merges of each component of at most `SMALL` points
    (`order[start : start + size]`), its own list each.

    Components are stacked by size rounded up to a power of two M, as one
    [k, M, M] array of pair sums, and advanced together, one merge per live
    component per step. Each step recomputes every open pair's average with
    `_linkage`'s expression, sums / (size_i * size_j), and takes the first
    smallest in row-major order, `_linkage`'s (avg, i, j) tie rule. Padded
    slots are closed points of size 1, so no 0 / 0 is computed.
    """
    widths = 1 << np.ceil(np.log2(sizes)).astype(np.int64)
    steps: list[tuple[np.ndarray, ...]] = []  # per step: component, average, i, j
    for m in np.unique(widths).tolist():
        ids = (widths == m).nonzero()[0]
        slot = np.arange(m)
        alive = slot < sizes[ids, None]
        members = order[starts[ids, None] + np.minimum(slot, sizes[ids, None] - 1)]
        upper = np.triu(dist[members[:, :, None], members[:, None, :]], 1)
        sums = upper + upper.transpose(0, 2, 1)
        size = np.ones(alive.shape)
        # added to each average: 0 at an open pair i < j, else inf
        shut = np.where(np.triu(alive[:, :, None] & alive[:, None, :], 1), 0.0, np.inf)
        while ids.size:
            rows = np.arange(ids.size)
            avg = (sums / (size[:, :, None] * size[:, None, :]) + shut).reshape(ids.size, m * m)
            at = avg.argmin(axis=1)
            best = avg[rows, at]
            live = best < stop_at
            if not live.all():
                ids, members, sums, size, shut, at, best = (
                    x[live] for x in (ids, members, sums, size, shut, at, best)
                )
                rows = rows[: ids.size]
            i, j = np.divmod(at, m)
            steps.append((ids, best, members[rows, i], members[rows, j]))
            sums[rows, i] += sums[rows, j]
            sums[rows, :, i] = sums[rows, i]
            size[rows, i] += size[rows, j]
            shut[rows, j] = shut[rows, :, j] = np.inf
    if not steps:
        return []
    ids, best, i, j = (np.concatenate(x) for x in zip(*steps))
    by_id = np.argsort(ids, kind="stable")  # each component's merges stay in step order
    merges = list(zip(best[by_id].tolist(), i[by_id].tolist(), j[by_id].tolist()))
    ends = np.cumsum(np.bincount(ids, minlength=len(sizes))).tolist()
    return [merges[a:b] for a, b in zip([0] + ends[:-1], ends) if b > a]


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
