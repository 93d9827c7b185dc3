import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monomine.clustering import (
    ClusterMap,
    _merges,
    add_singletons,
    agglomerative_cluster,
    fnr_distance_matrix,
    resplit,
)
from monomine.errors import InvalidCut, ParseError
from monomine.langid import ConfusionMatrix


def naive_average_linkage(dist, n_clusters):
    """Oracle: agglomeration recomputing all pairwise averages each step from
    the raw matrix, O(n^2) per merge and O(n^3) in all (`_merges` is O(n^2)
    in all). Clusters keyed by smallest original index; merges pick the
    lexicographically smallest (avg, i, j)."""
    clusters = {i: [i] for i in range(dist.shape[0])}
    while len(clusters) > n_clusters:
        best = None
        keys = sorted(clusters)
        for a_pos, i in enumerate(keys):
            for j in keys[a_pos + 1 :]:
                total = 0.0
                for p in clusters[i]:
                    for q in clusters[j]:
                        total += dist[p][q]
                avg = total / (len(clusters[i]) * len(clusters[j]))
                if best is None or (avg, i, j) < best:
                    best = (avg, i, j)
        _, i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return {frozenset(m) for m in clusters.values()}


def reference_merges(dist):
    """Reference for `_merges`: the same merge list from a rescan of every
    open pair on each merge, O(n^2) per merge and O(n^3) in all, with the
    same pair sums and float expression."""
    n = dist.shape[0]
    sums = np.triu(dist, 1).astype(float)
    sums += sums.T
    sizes = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    rows, cols = np.triu_indices(n, 1)  # row-major, so argmin breaks ties by (i, j)
    merges = []
    for _ in range(n - 1):
        pairs = np.flatnonzero(alive[rows] & alive[cols])
        r, c = rows[pairs], cols[pairs]
        avgs = sums[r, c] / (sizes[r] * sizes[c])
        best = int(np.argmin(avgs))
        i, j = int(r[best]), int(c[best])
        merges.append((float(avgs[best]), i, j))
        sums[i] += sums[j]
        sums[:, i] = sums[i]
        sizes[i] += sizes[j]
        alive[j] = False
    return merges


def naive_dendrogram_resplit(indices, dist, max_size):
    """Oracle: cut each oversized subtree at its top merge, repeatedly."""
    if len(indices) <= max_size:
        return [sorted(indices)]
    sub = dist[np.ix_(sorted(indices), sorted(indices))]
    local = sorted(indices)
    parts = naive_average_linkage(sub, 2)
    out = []
    for part in parts:
        out.extend(naive_dendrogram_resplit([local[i] for i in part], dist, max_size))
    return out


def random_distance_matrix(rng, n):
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = rng.random()
    return dist


def symmetric(n, upper):
    dist = np.zeros((n, n))
    dist[np.triu_indices(n, 1)] = upper
    return dist + dist.T


# quarters and halves sum exactly, so equal averages are real ties; inf is a
# valid distance that no sentinel may stand for
VALUES = st.sampled_from(
    [
        st.sampled_from((0.25, 0.5, 0.75, 1.0)),
        st.sampled_from((0.5, 1.0)),
        st.sampled_from((0.5, 1.0, math.inf)),
        # mostly inf: rows without a finite average, and merges when every average is inf
        st.sampled_from((0.5, math.inf, math.inf, math.inf)),
        st.floats(0.0, 1.0),
    ]
)


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(1, 30))
    values = draw(VALUES)
    return symmetric(n, draw(st.lists(values, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))


def partition_of(cluster_map, labels):
    index = {lang: i for i, lang in enumerate(labels)}
    return {frozenset(index[lang] for lang in group) for group in cluster_map.members.values()}


class TestFnrDistance:
    def test_never_confused(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[10, 0], [0, 10]]))
        dist = fnr_distance_matrix(cm)
        assert dist[0, 1] == 1.0

    def test_max_rule(self):
        # a misread as b 60% of the time, b misread as a 20%
        cm = ConfusionMatrix(("a", "b"), np.array([[4, 6], [2, 8]]))
        dist = fnr_distance_matrix(cm)
        assert dist[0, 1] == pytest.approx(0.4)
        assert dist[1, 0] == pytest.approx(0.4)

    def test_zero_diagonal(self):
        rng = np.random.default_rng(0)
        cm = ConfusionMatrix(("a", "b", "c"), rng.integers(0, 9, (3, 3)))
        assert np.all(np.diagonal(fnr_distance_matrix(cm)) == 0)

    def test_range(self):
        rng = np.random.default_rng(1)
        cm = ConfusionMatrix(("a", "b", "c"), rng.integers(0, 9, (3, 3)))
        dist = fnr_distance_matrix(cm)
        assert np.all((dist >= 0) & (dist <= 1))


    def test_matches_pair_loop(self):
        # the pairwise definition, one pair at a time, with rows of no counts
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(1, 12))
            counts = rng.integers(0, 6, (n, n))
            counts[rng.random(n) < 0.2] = 0
            cm = ConfusionMatrix(tuple(f"l{i}" for i in range(n)), counts)
            rows = counts.sum(axis=1)
            expected = np.ones((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    ij = counts[i, j] / rows[i] if rows[i] else 0.0
                    ji = counts[j, i] / rows[j] if rows[j] else 0.0
                    expected[i, j] = expected[j, i] = 1.0 - max(ij, ji)
            np.fill_diagonal(expected, 0.0)
            assert np.array_equal(fnr_distance_matrix(cm), expected), f"trial {trial}"


class TestAgglomerative:
    def test_nearest_pair_merges_first(self):
        dist = np.full((3, 3), 0.9)
        np.fill_diagonal(dist, 0.0)
        dist[0, 1] = dist[1, 0] = 0.1
        cmap = agglomerative_cluster(dist, ["p1", "p2", "p3"], n_clusters=2)
        assert partition_of(cmap, ["p1", "p2", "p3"]) == {frozenset({0, 1}), frozenset({2})}

    def test_n_clusters_equals_n(self):
        dist = random_distance_matrix(random.Random(2), 5)
        cmap = agglomerative_cluster(dist, list("abcde"), n_clusters=5)
        assert all(len(m) == 1 for m in cmap.members.values())

    def test_matches_naive_oracle_100_trials(self):
        rng = random.Random(42)
        for trial in range(100):
            n = 6
            dist = random_distance_matrix(rng, n)
            k = rng.randint(1, n)
            labels = [f"l{i}" for i in range(n)]
            cmap = agglomerative_cluster(dist, labels, n_clusters=k)
            assert partition_of(cmap, labels) == naive_average_linkage(dist, k), f"trial {trial}"

    def test_matches_scipy_linkage(self):
        # third, fully independent implementation; continuous random matrices
        # make tie-break differences a measure-zero event
        from scipy.cluster.hierarchy import fcluster, linkage
        from scipy.spatial.distance import squareform

        rng = random.Random(77)
        for trial in range(30):
            n = rng.randint(3, 8)
            dist = random_distance_matrix(rng, n)
            k = rng.randint(1, n)
            z = linkage(squareform(dist, checks=False), method="average")
            flat = fcluster(z, t=k, criterion="maxclust")
            groups: dict[int, set] = {}
            for i, label in enumerate(flat):
                groups.setdefault(label, set()).add(i)
            if len(groups) != k:
                continue  # scipy hit a tie; skip the comparison
            labels = [f"l{i}" for i in range(n)]
            cmap = agglomerative_cluster(dist, labels, n_clusters=k)
            expected = {frozenset(g) for g in groups.values()}
            assert partition_of(cmap, labels) == expected, f"trial {trial}"

    def test_distance_threshold_cut(self):
        dist = np.array(
            [
                [0.0, 0.1, 0.9, 0.9],
                [0.1, 0.0, 0.9, 0.9],
                [0.9, 0.9, 0.0, 0.2],
                [0.9, 0.9, 0.2, 0.0],
            ]
        )
        cmap = agglomerative_cluster(dist, list("abcd"), distance_threshold=0.5)
        assert partition_of(cmap, list("abcd")) == {frozenset({0, 1}), frozenset({2, 3})}
        # threshold below every distance: nothing merges
        cmap2 = agglomerative_cluster(dist, list("abcd"), distance_threshold=0.05)
        assert len(cmap2.members) == 4
        # a negative threshold merges nothing, an infinite one everything
        assert len(agglomerative_cluster(dist, list("abcd"), distance_threshold=-1.0).members) == 4
        assert len(agglomerative_cluster(dist, list("abcd"), distance_threshold=math.inf).members) == 1

    def test_distance_threshold_matches_scipy(self):
        # a threshold strictly between two merge heights cuts scipy's
        # dendrogram at the same place whether the cut is "< t" or "<= t"
        from scipy.cluster.hierarchy import fcluster, linkage
        from scipy.spatial.distance import squareform

        rng = random.Random(78)
        for trial in range(40):
            n = rng.randint(3, 10)
            dist = random_distance_matrix(rng, n)
            z = linkage(squareform(dist, checks=False), method="average")
            heights = sorted(set(z[:, 2]))
            k = rng.randrange(len(heights) - 1)
            t = (heights[k] + heights[k + 1]) / 2
            groups: dict[int, set] = {}
            for i, label in enumerate(fcluster(z, t=t, criterion="distance")):
                groups.setdefault(label, set()).add(i)
            labels = [f"l{i}" for i in range(n)]
            cmap = agglomerative_cluster(dist, labels, distance_threshold=t)
            expected = {frozenset(g) for g in groups.values()}
            assert partition_of(cmap, labels) == expected, f"trial {trial}"

    def test_deterministic_with_ties(self):
        dist = np.full((4, 4), 0.5)
        np.fill_diagonal(dist, 0.0)
        labels = list("abcd")
        first = agglomerative_cluster(dist, labels, n_clusters=2)
        for _ in range(5):
            assert agglomerative_cluster(dist, labels, n_clusters=2).members == first.members

    def test_tie_break_matches_naive_oracle(self):
        # sums of quarters are exact, so equal averages are real ties and the
        # (avg, i, j) order alone decides every merge
        rng = random.Random(43)
        for trial in range(300):
            n = rng.randint(2, 10)
            dist = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    dist[i, j] = dist[j, i] = rng.choice((0.25, 0.5, 0.75, 1.0))
            labels = [f"l{i}" for i in range(n)]
            for k in range(1, n + 1):
                cmap = agglomerative_cluster(dist, labels, n_clusters=k)
                assert partition_of(cmap, labels) == naive_average_linkage(dist, k), f"trial {trial}, k {k}"

    def test_monotonicity_smoke(self):
        # pulling a and b closer never separates them at the same cut level
        labels = list("abc")
        for d_ab in (0.8, 0.5, 0.2, 0.05):
            dist = np.array([[0.0, d_ab, 0.9], [d_ab, 0.0, 0.85], [0.9, 0.85, 0.0]])
            cmap = agglomerative_cluster(dist, labels, n_clusters=2)
            assert cmap.cluster_of("a") == cmap.cluster_of("b")

    def test_invalid_cuts(self):
        dist = random_distance_matrix(random.Random(3), 4)
        with pytest.raises(InvalidCut):
            agglomerative_cluster(dist, list("abcd"), n_clusters=0)
        with pytest.raises(InvalidCut):
            agglomerative_cluster(dist, list("abcd"), n_clusters=5)
        with pytest.raises(InvalidCut):
            agglomerative_cluster(dist, list("abcd"))
        with pytest.raises(InvalidCut):
            agglomerative_cluster(dist, list("abcd"), n_clusters=2, distance_threshold=0.5)
        with pytest.raises(InvalidCut, match="NaN"):
            agglomerative_cluster(dist, list("abcd"), distance_threshold=math.nan)  # no average is >= NaN

    def test_partition_property(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 8)
            labels = [f"x{i}" for i in range(n)]
            dist = random_distance_matrix(rng, n)
            cmap = agglomerative_cluster(dist, labels, n_clusters=rng.randint(1, n))
            assert sorted(lang for m in cmap.members.values() for lang in m) == sorted(labels)
            assert set(cmap.assignment) == set(labels)


class TestMerges:
    @settings(max_examples=300, deadline=None)
    @given(dist=distance_matrices())
    def test_matches_reference(self, dist):
        assert _merges(dist) == reference_merges(dist)

    @settings(max_examples=200, deadline=None)
    @given(
        dist=distance_matrices(),
        t=st.one_of(st.sampled_from((0.25, 0.5, 0.75, 1.0, math.inf)), st.floats(0.0, 1.0)),
        k=st.integers(0, 30),
    )
    def test_cut_is_a_prefix_of_the_reference(self, dist, t, k):
        # the quarter thresholds equal some averages exactly, so a cut at a tie is drawn often
        full = reference_merges(dist)
        below = next((m for m, (avg, _, _) in enumerate(full) if avg >= t), len(full))
        assert _merges(dist, stop_at=t) == full[:below]
        assert _merges(dist, limit=k) == full[:k]

    @pytest.mark.parametrize("value", [-math.inf, -0.5, math.nan])
    def test_negative_or_nan_distances_raise(self, value):
        # {-inf, inf} would merge into nan heights, at which a threshold cut never stops
        dist = symmetric(4, [value, math.inf, 0.5, 1.0, math.inf, 0.5])
        with pytest.raises(ValueError, match="non-negative"):
            _merges(dist)

    def test_matches_reference_at_250_languages(self):
        n = 250
        rng = np.random.default_rng(250)
        dist = symmetric(n, rng.choice((0.25, 0.5, 0.75, 1.0), size=n * (n - 1) // 2))
        assert _merges(dist) == reference_merges(dist)

    def test_threshold_cut_matches_reference_at_250_languages(self):
        n = 250
        rng = np.random.default_rng(251)
        dist = symmetric(n, rng.choice((0.25, 0.5, 0.75, 1.0), size=n * (n - 1) // 2))
        full = reference_merges(dist)
        for t in (0.5, 0.6, 0.625):  # 0.5 and 0.625 are merge heights: ties at the cut
            below = next(m for m, (avg, _, _) in enumerate(full) if avg >= t)
            assert 0 < below < n - 1
            assert _merges(dist, stop_at=t) == full[:below], f"t {t}"

    def test_peak_memory_is_below_three_matrices(self):
        n = 400
        dist = symmetric(n, np.random.default_rng(400).random(n * (n - 1) // 2))
        tracemalloc.start()
        try:
            _merges(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8


class TestResplit:
    @pytest.mark.parametrize("max_size", [0, -3])
    def test_max_size_below_one_raises(self, max_size):
        # no bisection makes a part of one language smaller
        dist = random_distance_matrix(random.Random(5), 6)
        labels = [f"x{i}" for i in range(6)]
        cmap = agglomerative_cluster(dist, labels, n_clusters=2)
        with pytest.raises(InvalidCut, match="max_size must be >= 1"):
            resplit(cmap, dist, labels, max_size=max_size)

    def test_small_clusters_unchanged(self):
        dist = random_distance_matrix(random.Random(5), 6)
        labels = [f"x{i}" for i in range(6)]
        cmap = agglomerative_cluster(dist, labels, n_clusters=2)
        assert resplit(cmap, dist, labels, max_size=20).members == cmap.members

    def test_oversized_cluster_is_split(self):
        rng = random.Random(6)
        n = 25
        labels = [f"x{i:02d}" for i in range(n)]
        dist = random_distance_matrix(rng, n)
        cmap = ClusterMap.from_groups([labels])
        split = resplit(cmap, dist, labels, max_size=20)
        assert len(split.members) >= 2
        assert all(len(m) <= 20 for m in split.members.values())
        assert sorted(lang for m in split.members.values() for lang in m) == sorted(labels)

    def test_never_merges(self):
        rng = random.Random(7)
        n = 12
        labels = [f"x{i:02d}" for i in range(n)]
        dist = random_distance_matrix(rng, n)
        cmap = agglomerative_cluster(dist, labels, n_clusters=3)
        split = resplit(cmap, dist, labels, max_size=3)
        originals = [set(m) for m in cmap.members.values()]
        for group in split.members.values():
            assert any(set(group) <= orig for orig in originals)

    def test_chain_matches_dendrogram_cut_oracle(self):
        # 40 languages on a chain: neighbours close, far pairs distant
        n = 40
        labels = [f"x{i:02d}" for i in range(n)]
        dist = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    dist[i, j] = min(1.0, 0.05 * abs(i - j))
        cmap = ClusterMap.from_groups([labels])
        split = resplit(cmap, dist, labels, max_size=20)
        expected = {
            frozenset(part) for part in naive_dendrogram_resplit(list(range(n)), dist, 20)
        }
        assert partition_of(split, labels) == expected
        assert all(len(m) <= 20 for m in split.members.values())

    def test_threshold_cut_of_fnr_distances_is_small(self):
        # every pair of a cluster was a cross pair of one merge at average
        # distance < t, and a row's confusion shares sum to at most 1, so
        # (1 - t) m (m - 1) / 2 < m: a cluster has fewer than 1 + 2/(1 - t)
        # languages, which leaves resplit(max_size=20) nothing to do at 0.8
        rng = np.random.default_rng(8)
        for trial in range(60):
            n = int(rng.integers(10, 40))
            family = rng.integers(0, 3, n)
            counts = rng.integers(0, 20, (n, n)) * (family[:, None] == family[None, :])
            np.fill_diagonal(counts, rng.integers(0, 5, n))
            cm = ConfusionMatrix(tuple(f"l{i:02d}" for i in range(n)), counts)
            dist = fnr_distance_matrix(cm)
            for t in (0.5, 0.8, 0.9, 0.95):
                cmap = agglomerative_cluster(dist, cm.languages, distance_threshold=t)
                assert max(len(m) for m in cmap.members.values()) < 1 + 2 / (1 - t), f"trial {trial}, t {t}"
                if t == 0.8:
                    assert resplit(cmap, dist, cm.languages, max_size=20).members == cmap.members


class TestSingletons:
    def test_add_new_language(self):
        cmap = ClusterMap.from_groups([["aa", "bb"]])
        out = add_singletons(cmap, {"en"})
        assert len(out.members[out.cluster_of("en")]) == 1

    def test_idempotent(self):
        cmap = add_singletons(ClusterMap.from_groups([["aa"]]), {"en"})
        again = add_singletons(cmap, {"en"})
        assert again.members == cmap.members

    def test_removes_from_old_cluster(self):
        cmap = ClusterMap.from_groups([["aa", "bb", "cc", "dd", "en"]])
        out = add_singletons(cmap, {"en", "fr"})
        old = out.members[out.cluster_of("aa")]
        assert len(old) == 4 and "en" not in old
        assert len(out.members[out.cluster_of("en")]) == 1
        assert len(out.members[out.cluster_of("fr")]) == 1


class TestClusterMapIO:
    def test_json_roundtrip(self, tmp_path):
        cmap = add_singletons(ClusterMap.from_groups([["aa", "bb"], ["cc"]]), {"en"})
        path = tmp_path / "clusters.json"
        cmap.save_json(path)
        back = ClusterMap.load_json(path)
        assert back.members == cmap.members

    def test_json_is_flat_mapping(self, tmp_path):
        import json

        cmap = ClusterMap.from_groups([["aa", "bb"], ["cc"]])
        path = tmp_path / "clusters.json"
        cmap.save_json(path)
        assert json.loads(path.read_text()) == {"aa": 0, "bb": 0, "cc": 1}

    @pytest.mark.parametrize(
        "text, message",
        [
            ('["aa", "bb"]', "expected a {lang: cluster_id} object, got list"),
            ('{"aa": 0, "bb": "one"}', "cluster id of 'bb'"),
            ('{"aa": 0, "bb": null}', "cluster id of 'bb'"),
            ('{"aa": 0.5, "bb": 0}', "cluster id of 'aa' must be an integer, got 0.5"),
            ('{"aa": 0, "bb": true}', "cluster id of 'bb' must be an integer, got True"),
            ('{"aa": 0,\n "bb": }', "line 2: bad JSON"),
        ],
        ids=["list", "non-integer-id", "null-id", "fractional-id", "bool-id", "bad-json"],
    )
    def test_malformed_json_raises_parse_error(self, tmp_path, text, message):
        path = tmp_path / "clusters.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            ClusterMap.load_json(path)
        assert str(err.value).startswith(str(path)) and message in str(err.value)

    def test_tsv_export(self, tmp_path):
        cmap = ClusterMap.from_groups([["bb", "aa"], ["cc"]])
        path = tmp_path / "clusters.tsv"
        cmap.save_tsv(path)
        lines = path.read_text().splitlines()
        assert lines == ["aa\t0", "bb\t0", "cc\t1"]

    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            ClusterMap.from_groups([["aa"], ["aa", "bb"]])

    def test_canonical_ids(self):
        a = ClusterMap.from_groups([["zz"], ["aa", "mm"]])
        b = ClusterMap.from_groups([["mm", "aa"], ["zz"]])
        assert a.members == b.members
