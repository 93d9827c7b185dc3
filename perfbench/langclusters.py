"""The clustering workload: confusion matrix in, pared-down clusters out.

The timed work is the program's path from a confusion matrix to clusters and
paring flags. The checks rebuild each result apart from the program: the
partition from scipy's average-linkage dendrogram, the paring flags with
numpy from the raw counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import linkage, to_tree
from scipy.spatial.distance import squareform

import gen
from monomine import clustering, langid

THRESHOLD = 0.8
MAX_SIZE = 20
PARE = langid.PareThresholds()


@dataclass(frozen=True)
class Clustering:
    matrix: gen.MatrixShape
    setup_repeats: int  # set-ups per set-up sample, so that a sample lasts over 1 s


def setup(w: Clustering, seed: int, root: Path) -> dict:
    """Generate the matrix and write it under `root`."""
    root.mkdir(parents=True, exist_ok=True)
    langs, counts, families, train_sizes = gen.confusion_matrix(w.matrix, seed)
    np.save(root / "counts.npy", counts)
    with open(root / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump({"languages": langs, "families": families, "train_sizes": train_sizes}, fh)
    return {"items": len(langs)}


class Inputs:
    def __init__(self, root: Path):
        with open(root / "inputs.json", encoding="utf-8") as fh:
            obj = json.load(fh)
        self.languages: list[str] = obj["languages"]
        self.families: list[int] = obj["families"]
        self.train_sizes: dict[str, int] = obj["train_sizes"]
        self.counts = np.load(root / "counts.npy")


def run(inputs: Inputs, out_dir: Path) -> None:
    """The timed work, then its result written to `out_dir`."""
    cm = langid.ConfusionMatrix(tuple(inputs.languages), inputs.counts)
    dist = clustering.fnr_distance_matrix(cm)
    cut = clustering.agglomerative_cluster(dist, cm.languages, distance_threshold=THRESHOLD)
    final = clustering.resplit(cut, dist, cm.languages, max_size=MAX_SIZE)
    paring = langid.pare_languages(cm, inputs.train_sizes, PARE)
    out_dir.mkdir(parents=True)
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "cut": sorted(cut.members.values()),
                "final": sorted(final.members.values()),
                "reasons": {lang: list(e.reasons) for lang, e in paring.entries.items()},
            },
            fh,
        )


def read_outputs(out_dir: Path) -> dict:
    with open(out_dir / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def expected(inputs: Inputs) -> dict:
    """Reference results computed apart from the program."""
    counts = inputs.counts.astype(np.float64)
    rows = counts.sum(axis=1)
    share = np.divide(counts, rows[:, None], out=np.zeros_like(counts), where=rows[:, None] > 0)
    dist = 1.0 - np.maximum(share, share.T)
    np.fill_diagonal(dist, 0.0)
    tree = to_tree(linkage(squareform(dist, checks=False), method="average"))
    langs = inputs.languages

    def members(node) -> frozenset:
        return frozenset(langs[i] for i in node.pre_order())

    def cut(node) -> list:
        # merges strictly below the threshold join; the rest are cut
        if node.is_leaf() or node.dist < THRESHOLD:
            return [node]
        return cut(node.get_left()) + cut(node.get_right())

    def split(node) -> list:
        # undo the top merge of any subtree that is too large
        if node.get_count() <= MAX_SIZE:
            return [members(node)]
        return split(node.get_left()) + split(node.get_right())

    flat = cut(tree)
    cols = counts.sum(axis=0)
    diag = np.diagonal(counts)
    precision = np.divide(diag, cols, out=np.zeros_like(diag), where=cols > 0)
    other = np.maximum(share, np.divide(counts.T, rows[:, None], out=np.zeros_like(counts), where=rows[:, None] > 0))
    np.fill_diagonal(other, 0.0)
    confusion = other.max(axis=1)
    reasons = {}
    for i, lang in enumerate(langs):
        r = []
        if precision[i] < PARE.min_precision:
            r.append("low_precision")
        if confusion[i] > PARE.max_confusion:
            r.append("high_confusion")
        if inputs.train_sizes[lang] < PARE.min_examples:
            r.append("too_few_examples")
        reasons[lang] = r
    return {
        "cut": {members(n) for n in flat},
        "final": {m for n in flat for m in split(n)},
        "reasons": reasons,
    }


def check(result: dict, inputs: Inputs, reference: dict) -> tuple[list[str], dict[str, float]]:
    """Return (failed checks, {"precision", "recall"}) for one run's result.

    Precision and recall are pairwise: over pairs of languages put in one
    cluster, and over pairs the generator put in one family.
    """
    errors = []
    cut = {frozenset(g) for g in result["cut"]}
    final = {frozenset(g) for g in result["final"]}
    if cut != reference["cut"]:
        errors.append(f"threshold cut differs from scipy's: {len(cut ^ reference['cut'])} clusters")
    if final != reference["final"]:
        errors.append(f"resplit differs from the dendrogram split: {len(final ^ reference['final'])} clusters")
    big = [len(g) for g in final if len(g) > MAX_SIZE]
    if big:
        errors.append(f"clusters over {MAX_SIZE} languages: {big}")
    if sorted(l for g in final for l in g) != sorted(inputs.languages):
        errors.append("final clusters are not a partition of the languages")
    if result["reasons"] != reference["reasons"]:
        bad = [l for l in inputs.languages if result["reasons"].get(l) != reference["reasons"][l]]
        errors.append(f"paring flags differ for {len(bad)} languages, e.g. {bad[:3]}")
    family = dict(zip(inputs.languages, inputs.families))
    together = sum(len(g) * (len(g) - 1) // 2 for g in final)
    right = sum(family[a] == family[b] for g in final for a in g for b in g if a < b)
    sizes: dict[int, int] = {}
    for f in inputs.families:
        sizes[f] = sizes.get(f, 0) + 1
    kin = sum(s * (s - 1) // 2 for s in sizes.values())
    quality = {"precision": right / together if together else 0.0, "recall": right / kin if kin else 0.0}
    return errors, quality


def layer_counts(result: dict) -> dict[str, int]:
    return {
        "clustering.clusters_before_resplit": len(result["cut"]),
        "clustering.clusters": len(result["final"]),
        "clustering.oversize_clusters": sum(len(g) > MAX_SIZE for g in result["cut"]),
    }
