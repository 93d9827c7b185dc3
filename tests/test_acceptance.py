"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
"""

import functools
import random
import time
from collections import Counter

import numpy as np
import pytest

from monomine.anomaly import AnomalyReport, anomaly_report
from monomine.clustering import agglomerative_cluster, resplit, ClusterMap
from monomine.corpus import Crawl, Document, MonoCorpus, SentenceRecord
from monomine.filters import (
    IifTable,
    build_tfiif_wordlist,
    consistency_score,
    document_cluster,
    filter_doc_consistency,
    rrr_gate,
)
from monomine.langid import ConfusionMatrix, pare_languages
from monomine.metrics import AuditLabels, audit_score, chrf, hit_rate, rtt_langid_chrf
from monomine.pipeline import PipelineConfig, run_pipeline

from pipeline_env import build_env, corpus_quality
from test_clustering import naive_average_linkage, random_distance_matrix
from test_metrics import (
    AlternatingMarkTranslator,
    ConstPredictor,
    IdentityTranslator,
    MarkPredictor,
    MarkingTranslator,
    oracle_sentence_chrf,
    random_pairs,
)


def report_line(number, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance {number:02d}] FAIL - {description}")
                raise
            print(f"\n[acceptance {number:02d}] PASS - {description}")

        return wrapper

    return decorator


@report_line(1, "ChrF matches a clean-room scorer of the cited signature (1e-4, <5s)")
def test_chrf_oracle_equivalence():
    start = time.perf_counter()
    pairs = random_pairs(60, seed=77) + [("", "abc"), ("abc", ""), ("a", "a")]
    assert len(pairs) >= 50
    for hyp, ref in pairs:
        assert chrf(hyp, [ref]) == pytest.approx(oracle_sentence_chrf(hyp, ref), abs=1e-4)
    assert time.perf_counter() - start < 5.0


def make_57_sentence_doc():
    sentences = []
    for i, cid in enumerate([0] * 20 + [1] * 19 + [2] * 18):
        sentences.append(
            SentenceRecord(f"sentence {i}", predicted_lang=f"lang{cid}", predicted_cluster=cid)
        )
    return Document("worked-example", tuple(sentences))


@report_line(2, "20/19/18 document: cluster A wins, exactly the 20 A-sentences kept")
def test_document_consistency_worked_example():
    doc = make_57_sentence_doc()
    assert document_cluster(doc) == 0
    out, _ = filter_doc_consistency(Crawl.from_documents([doc]))
    assert set(out) == {0}
    assert out[0].sentences == tuple(f"sentence {i}" for i in range(20))


@report_line(3, "1000 random documents: no sentence with consistency > 0.5 is dropped")
def test_majority_guarantee():
    rng = random.Random(2024)
    docs = []
    for k in range(1000):
        n = rng.randint(1, 14)
        cids = [rng.randint(0, 3) for _ in range(n)]
        docs.append(
            Document(
                f"doc{k}",
                tuple(
                    SentenceRecord(f"{k}:{i}", predicted_lang=f"lang{c}", predicted_cluster=c)
                    for i, c in enumerate(cids)
                ),
            )
        )
    kept = set()
    for corpus in filter_doc_consistency(Crawl.from_documents(docs))[0].values():
        kept.update(corpus.sentences)
    for doc in docs:
        for i, record in enumerate(doc.sentences):
            if consistency_score(doc, i) > 0.5:
                assert record.text in kept


@report_line(4, "TF-IIF toy wordlists equal an exhaustive-scoring oracle; alpha clips")
def test_tfiif_oracle():
    rng = random.Random(31)
    vocab = [f"tok{i}" for i in range(20)]
    internet_counts = {t: rng.randint(1, 40) for t in vocab[:12]}
    kappa = 5
    table = IifTable.from_counts(internet_counts, kappa=kappa)
    # alpha = f(w_kappa) by construction
    ranked = sorted(internet_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    assert table.alpha == float(ranked[kappa - 1][1])
    sentences = [" ".join(rng.choices(vocab, k=8)) for _ in range(20)]  # <= 200 tokens
    corpus = MonoCorpus.from_sentences("xx", sentences)
    wordlist = build_tfiif_wordlist(corpus, table, tau=1000)
    counts = Counter(t for s in sentences for t in s.split())
    assert sum(counts.values()) <= 200
    oracle = sorted(
        ((t, c / max(internet_counts.get(t, 0), table.alpha)) for t, c in counts.items()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    assert list(wordlist.entries) == oracle
    # clipping: any token rarer than alpha on the internet uses alpha exactly
    for token, count in counts.items():
        if internet_counts.get(token, 0) < table.alpha:
            assert dict(wordlist.entries)[token] == count / table.alpha


@report_line(5, "RRR gate decisions match the hand-derived truth table")
def test_rrr_decision_table():
    expected_true = {(0.8, 0.3), (0.9, 0.3), (0.9, 0.8), (1.0, 0.3), (1.0, 0.8)}
    for r_gold in (0.75, 0.8, 0.9, 1.0):
        for r_crawl in (0.3, 0.8, 0.9):
            decision = rrr_gate(r_gold, r_crawl, rho=2.0, rrr_threshold=1.0).apply_filter
            assert decision is ((r_gold, r_crawl) in expected_true), (r_gold, r_crawl)


@report_line(6, "average-linkage equals the naive O(n^3) oracle on 100 matrices; resplit bounds sizes")
def test_clustering_oracle():
    rng = random.Random(606)
    for trial in range(100):
        dist = random_distance_matrix(rng, 6)
        k = rng.randint(1, 6)
        labels = [f"l{i}" for i in range(6)]
        cmap = agglomerative_cluster(dist, labels, n_clusters=k)
        index = {lang: i for i, lang in enumerate(labels)}
        got = {frozenset(index[l] for l in g) for g in cmap.members.values()}
        assert got == naive_average_linkage(dist, k), f"trial {trial}"
    n = 30
    labels = [f"x{i:02d}" for i in range(n)]
    dist = random_distance_matrix(rng, n)
    split = resplit(ClusterMap.from_groups([labels]), dist, labels, max_size=20)
    assert all(len(m) <= 20 for m in split.members.values())


@report_line(7, "anomaly: self-compare echoes training; 0.8/0.6 flags suspicious at 25k")
def test_anomaly_scores():
    corpus = MonoCorpus.from_sentences("xx", ["w1 w2 w3 w4 w5"] * 40)
    self_report = anomaly_report(corpus, corpus)
    assert abs(self_report.harmonic - 1.0) < 1e-9
    assert "training_echo" in self_report.flags
    forced = AnomalyReport.from_scores("xx", 0.8, 0.6, 25000)
    assert abs(forced.harmonic - (2 * 0.8 * 0.6 / 1.4)) < 1e-9
    assert "suspicious_low" in forced.flags


@report_line(8, "hit-rate equals brute-force counting with caps; undefined iff bin absent")
def test_hit_rate_oracle():
    rng = random.Random(88)
    vocab = [f"w{i}" for i in range(10)]
    for trial in range(20):
        n = rng.randint(1, 6)
        # force repeated tokens so the cap-at-k path is exercised
        hyps = [" ".join(rng.choices(vocab[:6], k=rng.randint(0, 10))) for _ in range(n)]
        refs = [" ".join(rng.choices(vocab[:6], k=rng.randint(1, 10))) for _ in range(n)]
        bin_tokens = set(rng.sample(vocab, 4))
        num = den = 0
        for h, r in zip(hyps, refs):
            h_counts = Counter(h.split())
            for token, count in Counter(r.split()).items():
                if token in bin_tokens:
                    den += count
                    num += min(h_counts.get(token, 0), count)
        got = hit_rate(hyps, refs, bin_tokens)
        if den == 0:
            assert got is None
        else:
            assert got == pytest.approx(num / den), f"trial {trial}"
    assert hit_rate(["w0"], ["w0"], {"w9"}) is None


@report_line(9, "round-trip LangID ChrF: perfect, invalid, and half-accepted cases")
def test_rtt_cases():
    sources = [f"source sentence {i}" for i in range(20)]
    perfect = rtt_langid_chrf(sources, "xx", IdentityTranslator(), ConstPredictor("xx"), "loose")
    assert perfect.score == pytest.approx(100.0) and perfect.valid_fraction == 1.0
    strict = rtt_langid_chrf(sources, "xx", IdentityTranslator(), ConstPredictor("xx"), "strict")
    assert strict.score == pytest.approx(100.0)
    invalid = rtt_langid_chrf(sources, "xx", MarkingTranslator(), ConstPredictor("other"), "loose")
    assert invalid.invalid and invalid.valid_fraction < 0.10
    half_loose = rtt_langid_chrf(
        sources, "xx", AlternatingMarkTranslator(), MarkPredictor("xx"), "loose"
    )
    half_strict = rtt_langid_chrf(
        sources, "xx", AlternatingMarkTranslator(), MarkPredictor("xx"), "strict"
    )
    assert half_loose.score == pytest.approx(100.0)
    assert half_loose.valid_fraction == pytest.approx(0.5)
    assert half_strict.score == pytest.approx(50.0)


@report_line(10, "audit score reproduces the weighted formula on 20 random vectors")
def test_audit_formula():
    rng = random.Random(1010)
    for _ in range(20):
        parts = [rng.random() for _ in range(4)]
        scale = sum(parts) * (1.0 + rng.random())
        cc, cb, ca, wd = (p / scale for p in parts)
        expected = 1.0 * cc + 0.5 * cb + 0.3 * ca + 0.2 * wd
        assert audit_score(AuditLabels(cc, cb, ca, wd)) == pytest.approx(expected, abs=1e-12)
    assert audit_score(AuditLabels(cc=1.0)) == 1.0
    assert audit_score(AuditLabels(cc=0.0)) == 0.0


@report_line(12, "paring thresholds flag exactly at the stated boundaries")
def test_paring_boundaries():
    for diag, flagged in ((329, True), (331, False)):
        counts = np.array([[diag, 1000 - diag], [1000 - diag, diag]])
        report = pare_languages(ConfusionMatrix(("A", "B"), counts), {"A": 9000, "B": 9000})
        assert ("low_precision" in report.entries["A"].reasons) is flagged, diag
    for off, flagged in ((499, False), (501, True)):
        counts = np.array([[1000 - off, off], [0, 1000]])
        report = pare_languages(ConfusionMatrix(("A", "B"), counts), {"A": 9000, "B": 9000})
        assert ("high_confusion" in report.entries["A"].reasons) is flagged, off
    counts = np.diag([3000, 3000])
    report = pare_languages(ConfusionMatrix(("A", "B"), counts), {"A": 1999, "B": 2000})
    assert report.entries["A"].reasons == ("too_few_examples",)
    assert report.entries["B"].reasons == ()


@pytest.mark.slow
@report_line(11, "synthetic end-to-end: precision >= 0.95, recall >= 0.70, workers byte-identical, < 2 min")
def test_synthetic_end_to_end(tmp_path):
    start = time.perf_counter()
    env = build_env(
        tmp_path / "e2e",
        n_docs=2000,
        train_per_lang=400,
        gold_per_lang=100,
        pollution=0.10,
        plant_negative=True,
        workers=1,
    )
    config = PipelineConfig.from_yaml(env.config_path)
    result = run_pipeline(config)
    for lang in env.langs:
        precision, recall = corpus_quality(env, lang, result.corpora[lang].sentences)
        assert precision >= 0.95, f"{lang}: precision {precision:.4f}"
        assert recall >= 0.70, f"{lang}: recall {recall:.4f}"
    single = {p.name: p.read_bytes() for p in sorted((env.root / "out").glob("*.txt"))}
    config8 = PipelineConfig.from_yaml(env.config_path)
    config8.workers = 8
    config8.output_dir = "out-w8"
    run_pipeline(config8)
    eight = {p.name: p.read_bytes() for p in sorted((env.root / "out-w8").glob("*.txt"))}
    assert single == eight
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"end-to-end took {elapsed:.1f}s"
