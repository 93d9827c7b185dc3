"""Per-layer metrics from a traced run.

Span totals are per operation, the median over the traced operations.
Stage times come from the untraced operations' own manifests. Peak RSS per
stage comes from the child's first operation, which is traced: later
operations start with the peak already reached.
"""

from __future__ import annotations

from statistics import median

from spans import STAGE_CALLS

# per-layer metric -> (span name, "s" for total time or "n" for call count)
SPAN_TOTALS = {
    "langid.predict_calls": ("langid.predict_batch", "n"),
    "langid.predict_s": ("langid.predict_batch", "s"),
    "langid.featurize_s": ("langid.extract_features", "s"),
    "langid.load_model_s": ("langid.load_model", "s"),
    "langid.pare_s": ("langid.pare_languages", "s"),
    "filters.tokenize_calls": ("filters.tokenize", "n"),
    "filters.tokenize_s": ("filters.tokenize", "s"),
    "filters.tfiif_list_s": ("filters.build_tfiif_wordlist", "s"),
    "filters.survival_s": ("filters.survival_fraction", "s"),
    "filters.tfiif_filter_s": ("filters.filter_tfiif", "s"),
    "corpus.write_s": ("corpus.write_corpus", "s"),
    "corpus.stats_s": ("corpus.corpus_stats", "s"),
    "clustering.distance_s": ("clustering.fnr_distance_matrix", "s"),
    "clustering.agglomerate_s": ("clustering.agglomerative_cluster", "s"),
    "clustering.resplit_s": ("clustering.resplit", "s"),
}

# unit and direction of every per-layer metric, in report order
UNITS = {
    **{f"pipeline.{stage}_s": ("s", "lower") for stage in STAGE_CALLS},
    "pipeline.write_s": ("s", "lower"),
    **{f"pipeline.{stage}.peak_rss_mb": ("MB", "lower") for stage in STAGE_CALLS},
    "pipeline.annotate_cpu_per_wall": ("ratio", "higher"),
    "langid.predict_calls": ("count", "lower"),
    "langid.predict_s": ("s", "lower"),
    "langid.score_s": ("s", "lower"),
    "langid.predicted_sentences": ("count", "lower"),
    "langid.predictions_per_sentence": ("ratio", "lower"),
    "langid.featurize_s": ("s", "lower"),
    "langid.load_model_s": ("s", "lower"),
    "langid.train_s": ("s", "lower"),
    "langid.pare_s": ("s", "lower"),
    "filters.tokenize_calls": ("count", "lower"),
    "filters.tokenize_s": ("s", "lower"),
    "filters.tokenize_per_sentence": ("ratio", "lower"),
    "filters.tfiif_list_s": ("s", "lower"),
    "filters.survival_s": ("s", "lower"),
    "filters.tfiif_filter_s": ("s", "lower"),
    "filters.tfiif_filtered_langs": ("count", "higher"),
    "corpus.documents": ("count", "higher"),
    "corpus.sentences": ("count", "higher"),
    "corpus.duplicates_dropped": ("count", "higher"),
    "corpus.write_s": ("s", "lower"),
    "corpus.stats_s": ("s", "lower"),
    "clustering.distance_s": ("s", "lower"),
    "clustering.agglomerate_s": ("s", "lower"),
    "clustering.resplit_s": ("s", "lower"),
    "clustering.clusters_before_resplit": ("count", "higher"),
    "clustering.clusters": ("count", "higher"),
    "clustering.oversize_clusters": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _within(spans: list[dict], root: dict) -> list[dict]:
    return [s for s in spans if s is not root and root["start"] <= s["start"] and s["end"] <= root["end"]]


def _total(spans: list[dict], name: str, kind: str) -> float:
    chosen = [s for s in spans if s["name"] == name]
    return float(len(chosen)) if kind == "n" else sum(s["end"] - s["start"] for s in chosen)


def per_layer(
    items: int,
    ops: list[dict],
    spans: list[dict],
    setup_spans: list[dict],
    manifests: list[dict],
    cluster_counts: dict[str, int],
) -> dict[str, float]:
    """`ops` are the child's records; `manifests` those of the untraced mining
    operations (empty for clustering); `items` is the crawl's sentences or the
    matrix's languages."""
    values = {name: 0.0 for name in UNITS}
    roots = [s for s in spans if s["name"] == "op"]
    per_op = [_within(spans, root) for root in roots]
    for metric, (name, kind) in SPAN_TOTALS.items():
        values[metric] = median(_total(group, name, kind) for group in per_op)
    values["langid.score_s"] = values["langid.predict_s"] - values["langid.featurize_s"]
    values["langid.predicted_sentences"] = median(
        sum(s["items"] for s in group if s["name"] == "langid.predict_batch") for group in per_op
    )
    values["langid.predictions_per_sentence"] = values["langid.predicted_sentences"] / items
    values["filters.tokenize_per_sentence"] = values["filters.tokenize_calls"] / items

    first = per_op[0]
    for stage, names in STAGE_CALLS.items():
        peaks = [s["peak_rss_kb"] for s in first if s["name"] in names]
        values[f"pipeline.{stage}.peak_rss_mb"] = max(peaks, default=0) / 1024
    ratios = []
    for group in per_op:
        annotate = [s for s in group if s["name"] == "filters.annotate_document"]
        if annotate:
            a = min(annotate, key=lambda s: s["start"])
            b = max(annotate, key=lambda s: s["end"])
            ratios.append((b["cpu_end"] - a["cpu_start"]) / (b["end"] - a["start"]))
    values["pipeline.annotate_cpu_per_wall"] = median(ratios) if ratios else 0.0

    setups = [s for s in setup_spans if s["name"] == "setup"]
    values["langid.train_s"] = median(_total(_within(setup_spans, s), "langid.train", "s") for s in setups)

    if manifests:
        walls = [r["wall"] for r in ops if not r["traced"] and not r["error"]]
        for stage in STAGE_CALLS:
            values[f"pipeline.{stage}_s"] = median(_stage(m, stage)["wall_time"] for m in manifests)
        values["pipeline.write_s"] = median(
            wall - sum(s["wall_time"] for s in m["stages"]) for wall, m in zip(walls, manifests)
        )
        manifest = manifests[0]
        ingest = _stage(manifest, "ingest")["per_language"]["*"]
        values["corpus.documents"] = ingest["out"]
        values["corpus.sentences"] = ingest["sentences"]
        dedup = _stage(manifest, "dedup")["per_language"].values()
        values["corpus.duplicates_dropped"] = sum(e["in"] - e["out"] for e in dedup)
        tfiif = _stage(manifest, "tfiif")["per_language"].values()
        values["filters.tfiif_filtered_langs"] = sum(e.get("decision") == "filtered" for e in tfiif)
    values.update(cluster_counts)

    traced = [r["wall"] for r in ops if r["traced"] and not r["error"]]
    untraced = [r["wall"] for r in ops if not r["traced"] and not r["error"]]
    values["trace.overhead_s"] = median(traced) - median(untraced)
    return values


def _stage(manifests: dict, name: str) -> dict:
    return next(m for m in manifests["stages"] if m["stage"] == name)
