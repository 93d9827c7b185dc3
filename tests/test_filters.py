import dataclasses
import json
import re
import sys
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monomine import filters
from monomine.clustering import ClusterMap
from monomine.corpus import Crawl, Document, MonoCorpus, SentenceRecord
from monomine.errors import (
    EmptyCorpus,
    EmptyDocument,
    MissingWordlist,
    ParseError,
    UnknownLanguage,
    WrongListKind,
)
from monomine.filters import (
    IifTable,
    NegativeFilterRule,
    StageReport,
    TokenTable,
    WordList,
    annotate_document,
    build_frequency_wordlist,
    build_tfiif_wordlist,
    consistency_histogram,
    consistency_score,
    decluster,
    distractibility,
    document_cluster,
    filter_doc_consistency,
    filter_tfiif,
    filter_wordlist,
    load_negative_rules,
    negative_filter,
    read_tsv_pairs,
    rrr_gate,
    survival_fraction,
    token_counts,
    tokenize,
)
from monomine.filters import _keep_by_fraction, _split_tokens
from monomine.langid import ConfusionMatrix


class MappingPredictor:
    """Test double: predicts by exact sentence lookup."""

    def __init__(self, mapping, default="aa", confidence=0.9):
        self.mapping = mapping
        self.default = default
        self.confidence = confidence

    @property
    def languages(self):
        return sorted(set(self.mapping.values()) | {self.default})

    def predict(self, text):
        return self.mapping.get(text, self.default), self.confidence

    def predict_batch(self, texts):
        return [self.predict(text) for text in texts]


def annotated_doc(doc_id, cluster_ids, texts=None):
    sentences = tuple(
        SentenceRecord(
            texts[i] if texts else f"s{i}",
            predicted_lang=f"lang{cid}",
            predicted_cluster=cid,
            confidence=0.9,
        )
        for i, cid in enumerate(cluster_ids)
    )
    return Document(doc_id, sentences)


def reference_tokens(text, fold):
    """The tokenizer without its fast path: every token has its edge
    punctuation stripped."""
    out = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            out.append(raw[start:end].casefold() if fold else raw[start:end])
    return out


# punctuation (ASCII and not), "_" (a connector, category Pc), combining
# marks, an enclosing mark, a digit, astral letters and an emoji, whitespace
TOKEN_EDGE_CHARS = ".,!?'\"«»¿¡…—-_()\u0301\u0300\u20dd9a\U0001d518\U00010400\U0001f600 \t\u3000"


class TestTokenize:
    def test_punctuation_stripped_and_folded(self):
        assert tokenize("Hello, world!") == ["hello", "world"]

    def test_whitespace_runs(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_punctuation_only(self):
        assert tokenize("...") == []

    def test_internal_punctuation_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_unicode_punctuation(self):
        assert tokenize("«Quoi?»") == ["quoi"]

    def test_no_alphanumeric_character_is_punctuation(self):
        # the tokenizer's fast path leaves a token with alphanumeric ends unstripped
        clash = [
            f"U+{cp:04X}"
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
        ]
        assert clash == []

    def test_folding_an_alphanumeric_character_gives_no_whitespace(self):
        # the fast path splits a folded alphanumeric text at its spaces only
        clash = [
            f"U+{cp:04X}"
            for cp in range(sys.maxunicode + 1)
            if not 0xD800 <= cp <= 0xDFFF and chr(cp).isalnum() and any(map(str.isspace, chr(cp).casefold()))
        ]
        assert clash == []

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from("aZ9\u00df\u0130\ufb01\u03a3 \xa0,"), max_size=40))
    def test_fast_path_equals_the_token_loop(self, text):
        assert tokenize(text) == _split_tokens(text, fold=True)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet=st.one_of(st.characters(), st.sampled_from(TOKEN_EDGE_CHARS)), max_size=40))
    def test_matches_stripping_every_token(self, text):
        assert tokenize(text) == reference_tokens(text, fold=True)
        assert _split_tokens(text, fold=False) == reference_tokens(text, fold=False)


class TestAnnotate:
    def test_empty_document_unchanged(self):
        clusters = ClusterMap.from_groups([["aa"]])
        assert annotate_document([], MappingPredictor({}), clusters) == filters.Annotations()

    def test_all_in_one_cluster(self):
        clusters = ClusterMap.from_groups([["aa", "bb"]])
        out = annotate_document([f"s{i}" for i in range(4)], MappingPredictor({}, default="aa"), clusters)
        assert out.clusters == [clusters.cluster_of("aa")] * 4

    def test_matches_per_sentence_oracle(self):
        mapping = {"x": "aa", "y": "bb", "z": "aa"}
        predictor = MappingPredictor(mapping, default="bb")
        clusters = ClusterMap.from_groups([["aa"], ["bb"]])
        out = annotate_document(["x", "y", "z"], predictor, clusters)
        for i, text in enumerate(["x", "y", "z"]):
            lang, conf = predictor.predict(text)
            assert (out.langs[i], out.clusters[i], out.confidences[i]) == (lang, clusters.cluster_of(lang), conf)
        assert out.routes == out.langs

    def test_routes_on_the_decluster_predictor(self):
        clusters = ClusterMap.from_groups([["aa"], ["bb"]])
        out = annotate_document(["x", "y"], MappingPredictor({"x": "bb"}), clusters, MappingPredictor({"y": "bb"}))
        assert (out.langs, out.routes) == (["bb", "aa"], ["aa", "bb"])

    def test_unclustered_language_rejected(self):
        clusters = ClusterMap.from_groups([["bb"]])
        with pytest.raises(UnknownLanguage):
            annotate_document(["x"], MappingPredictor({}, default="aa"), clusters)


class TestDocumentCluster:
    def test_paper_worked_example(self):
        doc = annotated_doc("d", [0] * 20 + [1] * 19 + [2] * 18)
        assert document_cluster(doc) == 0

    def test_uniform(self):
        assert document_cluster(annotated_doc("d", [3, 3, 3])) == 3

    def test_tie_breaks_to_smaller_id(self):
        assert document_cluster(annotated_doc("d", [7, 2, 7, 2])) == 2

    def test_empty_document(self):
        with pytest.raises(EmptyDocument):
            document_cluster(Document("d", ()))


class TestConsistencyScore:
    def test_single_sentence(self):
        assert consistency_score(annotated_doc("d", [5]), 0) == 1.0

    def test_worked_example(self):
        doc = annotated_doc("d", [0] * 20 + [1] * 19 + [2] * 18)
        assert consistency_score(doc, 20) == pytest.approx(19 / 57)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            consistency_score(annotated_doc("d", [0]), 1)

    def test_majority_never_filtered(self, rng):
        # smoke version of the guarantee; the acceptance suite runs 1000 docs
        for _ in range(50):
            cids = [rng.randint(0, 3) for _ in range(rng.randint(1, 12))]
            doc = annotated_doc("d", cids)
            kept_cluster = document_cluster(doc)
            for i in range(len(cids)):
                if consistency_score(doc, i) > 0.5:
                    assert doc.sentences[i].predicted_cluster == kept_cluster


class TestFilterDocConsistency:
    def test_homogeneous_doc_keeps_all(self):
        docs = [annotated_doc("d", [1, 1, 1])]
        out, _ = filter_doc_consistency(Crawl.from_documents(docs))
        assert out[1].sentences == ("s0", "s1", "s2")

    def test_paper_worked_example(self):
        doc = annotated_doc("d", [0] * 20 + [1] * 19 + [2] * 18)
        out, reports = filter_doc_consistency(Crawl.from_documents([doc]))
        assert set(out) == {0}
        assert len(out[0].sentences) == 20
        assert out[0].sentences == tuple(f"s{i}" for i in range(20))
        assert list(reports) == ["cluster:0", "cluster:1", "cluster:2"]
        assert reports["cluster:0"].n_out == 20

    def test_matches_loop_oracle(self, rng):
        docs = [
            annotated_doc(f"d{k}", [rng.randint(0, 2) for _ in range(rng.randint(1, 10))])
            for k in range(40)
        ]
        out, _ = filter_doc_consistency(Crawl.from_documents(docs))
        expected = {}
        for doc in docs:
            votes = Counter(s.predicted_cluster for s in doc.sentences)
            top = max(votes.values())
            doc_cid = min(c for c, v in votes.items() if v == top)
            for s in doc.sentences:
                if s.predicted_cluster == doc_cid:
                    expected.setdefault(doc_cid, []).append(s.text)
        assert {cid: list(c.sentences) for cid, c in out.items()} == expected

    def test_cluster_ids_of_any_size(self):
        # an annotated file may number its clusters as it likes
        doc = annotated_doc("d", [2**70, -3, 2**70])
        out, reports = filter_doc_consistency(Crawl.from_documents([doc]))
        assert out[2**70].sentences == ("s0", "s2")
        assert list(reports) == ["cluster:-3", f"cluster:{2**70}"]

    def test_empty_docs_skipped(self):
        assert filter_doc_consistency(Crawl.from_documents([Document("d", ())])) == ({}, {})

    def test_partly_annotated_document_names_the_sentence(self):
        doc = Document("d1", (*annotated_doc("d1", [0, 0]).sentences, SentenceRecord("b")))
        with pytest.raises(EmptyDocument, match="^sentence 2 of d1 is not annotated$"):
            filter_doc_consistency(Crawl.from_documents([doc]))

    def test_report_covers_drop_only_clusters(self):
        # cluster 9 never wins a majority; its drops must still be reported
        doc = annotated_doc("d", [0, 0, 0, 9])
        out, reports = filter_doc_consistency(Crawl.from_documents([doc]))
        assert set(out) == {0}
        assert reports["cluster:9"].n_in == 1 and reports["cluster:9"].n_out == 0
        assert reports["cluster:9"].dropped_by_reason == {"cluster_mismatch": 1}


class TestConsistencyHistogram:
    def test_single_sentence_docs_top_bin(self):
        docs = [annotated_doc(f"d{i}", [0]) for i in range(5)]
        hist = consistency_histogram(docs)
        assert hist.counts[-1] == 5
        assert sum(hist.counts) == 5

    def test_conservation(self, rng):
        docs = [
            annotated_doc(f"d{k}", [rng.randint(0, 3) for _ in range(rng.randint(1, 9))])
            for k in range(30)
        ]
        hist = consistency_histogram(docs)
        assert sum(hist.counts) == sum(len(d.sentences) for d in docs)

    def test_matches_tally_oracle(self, rng):
        docs = [
            annotated_doc(f"d{k}", [rng.randint(0, 2) for _ in range(rng.randint(1, 10))])
            for k in range(40)
        ]
        hist = consistency_histogram(docs, bin_width=0.1)
        counts = [0] * 10
        for doc in docs:
            n = len(doc.sentences)
            votes = Counter(s.predicted_cluster for s in doc.sentences)
            for s in doc.sentences:
                same = votes[s.predicted_cluster]
                # oracle bins by exact rational comparison
                for b in range(10):
                    lo, hi = b, b + 1
                    if same * 10 >= lo * n and (same * 10 < hi * n or b == 9):
                        counts[b] += 1
                        break
        assert list(hist.counts) == counts

    def test_exact_boundary_lands_right(self):
        # score 0.3 must fall in [0.3, 0.4), not [0.2, 0.3)
        doc = annotated_doc("d", [0, 0, 0, 1, 1, 1, 1, 1, 1, 2])
        hist = consistency_histogram([doc])
        assert hist.counts[3] == 3  # the three cluster-0 sentences at 3/10


class TestFrequencyWordlist:
    def test_basic(self):
        corpus = MonoCorpus.from_sentences("aa", ["a a b"])
        wl = build_frequency_wordlist(corpus, top=1)
        assert wl.entries == (("a", 2.0),)

    def test_top_beyond_vocab(self):
        corpus = MonoCorpus.from_sentences("aa", ["x y z"])
        wl = build_frequency_wordlist(corpus, top=800)
        assert len(wl.entries) == 3

    @pytest.mark.parametrize("top", [0, -3])
    def test_top_below_1_is_rejected(self, top):
        # a negative slice bound would silently drop the rarest tokens
        corpus = MonoCorpus.from_sentences("aa", ["a a b c d"])
        with pytest.raises(ValueError, match=re.escape(f"top: expected at least 1, got {top}")):
            build_frequency_wordlist(corpus, top=top)

    def test_matches_counting_oracle(self, rng):
        vocab = [f"w{i}" for i in range(30)]
        weights = [1 / (i + 1) for i in range(30)]
        sentences = [
            " ".join(rng.choices(vocab, weights=weights, k=8)) for _ in range(200)
        ]
        wl = build_frequency_wordlist(MonoCorpus.from_sentences("aa", sentences), top=10)
        counts = Counter()
        for s in sentences:
            counts.update(s.split())
        expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert [(t, int(c)) for t, c in wl.entries] == expected

    def test_token_set_built_once(self):
        wl = make_wordlist("aa", ["foo", "bar"])
        assert wl.tokens is wl.tokens
        assert wl.tokens == {"foo", "bar"}

    def test_tie_break_lexicographic(self):
        wl = build_frequency_wordlist(MonoCorpus.from_sentences("aa", ["b a c a b c"]), top=2)
        assert [t for t, _ in wl.entries] == ["a", "b"]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_frequency_wordlist(MonoCorpus.from_sentences("aa", []))
        with pytest.raises(EmptyCorpus):
            build_frequency_wordlist(MonoCorpus.from_sentences("aa", ["..."]))

    @pytest.mark.parametrize("bad", ["no-tab-here", "word\tmany", "a\t1\t2"])
    def test_load_tsv_malformed_line(self, tmp_path, bad):
        path = tmp_path / "aa.tsv"
        path.write_text(f"a\t2.0\n\n{bad}\nb\t1.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            WordList.load_tsv(path, "aa", "frequency")
        assert err.value.line_no == 3
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\t1\nb\t2\n", "entries must be sorted by descending score"),
            ("a\t2\na\t1\n", "tokens must be unique"),
            ("a\t2\nb\tnan\nc\t5\n", "a score is NaN"),  # a < b is false at NaN, either side
            ("a\tnan\n", "a score is NaN"),
        ],
        ids=["unsorted", "repeated", "nan-hides-disorder", "lone-nan"],
    )
    def test_load_tsv_bad_entries_name_the_path(self, tmp_path, text, message):
        path = tmp_path / "aa.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
            WordList.load_tsv(path, "aa", "frequency")


def make_wordlist(lang, tokens, kind="frequency"):
    return WordList(lang, kind, tuple((t, float(len(tokens) - i)) for i, t in enumerate(tokens)))


class TestFilterWordlist:
    def test_full_in_list_kept(self):
        corpus = MonoCorpus.from_sentences("cluster:0", ["foo bar"])
        out, _ = filter_wordlist(corpus, {"aa": make_wordlist("aa", ["foo", "bar"])})
        assert out.sentences == ("foo bar",)

    def test_below_threshold_dropped(self):
        sentence = " ".join(["foo"] + [f"junk{i}" for i in range(9)])
        corpus = MonoCorpus.from_sentences("cluster:0", [sentence])
        out, report = filter_wordlist(corpus, {"aa": make_wordlist("aa", ["foo"])}, 0.2)
        assert out.sentences == ()
        assert report.dropped_by_reason == {"below_threshold": 1}

    def test_empty_token_sentence_counted_separately(self):
        corpus = MonoCorpus.from_sentences("cluster:0", ["...", "foo"])
        out, report = filter_wordlist(corpus, {"aa": make_wordlist("aa", ["foo"])}, 0.2)
        assert out.sentences == ("foo",)
        assert report.dropped_by_reason == {"empty_tokens": 1}

    def test_survives_if_any_cluster_language_matches(self):
        corpus = MonoCorpus.from_sentences("cluster:0", ["uno dos tres"])
        lists = {
            "aa": make_wordlist("aa", ["foo"]),
            "bb": make_wordlist("bb", ["uno", "dos", "tres"]),
        }
        assert filter_wordlist(corpus, lists)[0].sentences == ("uno dos tres",)

    def test_missing_wordlist(self):
        with pytest.raises(MissingWordlist):
            filter_wordlist(MonoCorpus.from_sentences("cluster:0", ["x"]), {})

    def test_threshold_is_inclusive(self):
        # exactly 20% in-list survives ("at least 20%")
        sentence = "foo j1 j2 j3 j4"
        corpus = MonoCorpus.from_sentences("cluster:0", [sentence])
        out, _ = filter_wordlist(corpus, {"aa": make_wordlist("aa", ["foo"])}, 0.2)
        assert out.sentences == (sentence,)


def routes(mapping, corpora):
    """`mapping`'s language of each sentence of the corpora, by its id in
    their one table."""
    table = next(iter(corpora.values())).table
    for cid in sorted(corpora):
        table.intern(corpora[cid].sentences)
    return [mapping[s] for s in table.ids]


class TestDecluster:
    def test_in_cluster_kept_and_split(self):
        clusters = ClusterMap.from_groups([["aa", "bb"]])
        cid = clusters.cluster_of("aa")
        corpora = {cid: MonoCorpus.from_sentences(f"cluster:{cid}", ["x", "y", "x2"])}
        out, _ = decluster(corpora, routes({"x": "aa", "x2": "aa", "y": "bb"}, corpora), clusters)
        assert out["aa"].sentences == ("x", "x2")
        assert out["bb"].sentences == ("y",)

    def test_out_of_cluster_dropped(self):
        clusters = ClusterMap.from_groups([["aa"], ["zz"]])
        cid = clusters.cluster_of("aa")
        corpora = {cid: MonoCorpus.from_sentences(f"cluster:{cid}", ["x", "y"])}
        out, reports = decluster(corpora, routes({"x": "aa", "y": "zz"}, corpora), clusters)
        assert out["aa"].sentences == ("x",)
        assert reports[f"cluster:{cid}"].dropped_by_reason == {"out_of_cluster": 1}

    def test_matches_per_sentence_oracle(self, rng):
        clusters = ClusterMap.from_groups([["aa", "bb"]])
        cid = clusters.cluster_of("aa")
        sentences = [f"s{i}" for i in range(50)]
        mapping = {s: rng.choice(["aa", "bb", "zz"]) for s in sentences}
        corpora = {cid: MonoCorpus.from_sentences(f"cluster:{cid}", sentences)}
        out, _ = decluster(corpora, routes(mapping, corpora), clusters)
        for lang in ("aa", "bb"):
            assert list(out[lang].sentences) == [s for s in sentences if mapping[s] == lang]

    def test_outputs_disjoint_and_cover_kept(self, rng):
        clusters = ClusterMap.from_groups([["aa", "bb"], ["cc"]])
        sentences = [f"s{i}" for i in range(40)]
        mapping = {s: rng.choice(["aa", "bb", "cc"]) for s in sentences}
        table = TokenTable()
        corpora = {
            clusters.cluster_of("aa"): MonoCorpus.from_sentences("cluster:0", sentences[:25], table=table),
            clusters.cluster_of("cc"): MonoCorpus.from_sentences("cluster:1", sentences[25:], table=table),
        }
        out, _ = decluster(corpora, routes(mapping, corpora), clusters)
        seen =  [s for lang in sorted(out) for s in out[lang].sentences]
        assert len(seen) == len(set(seen))  # pairwise disjoint

    def test_member_predicted_nowhere_gets_an_empty_corpus(self):
        clusters = ClusterMap.from_groups([["aa", "bb"]])
        cid = clusters.cluster_of("aa")
        corpora = {cid: MonoCorpus.from_sentences(f"cluster:{cid}", ["x"])}
        out, reports = decluster(corpora, routes({"x": "aa"}, corpora), clusters)
        assert out["bb"].sentences == ()
        assert (reports["bb"].n_in, reports["bb"].n_out) == (0, 0)

    def test_without_clusters_every_language_is_a_member(self):
        clusters = ClusterMap.from_groups([["aa", "bb"], ["cc"]])
        table = TokenTable()
        corpora = {
            clusters.cluster_of("aa"): MonoCorpus.from_sentences("cluster:0", ["x", "y"], table=table),
            clusters.cluster_of("cc"): MonoCorpus.from_sentences("cluster:1", ["z"], table=table),
        }
        out, reports = decluster(corpora, routes({"x": "cc", "y": "aa", "z": "aa"}, corpora), None)
        assert {lang: c.sentences for lang, c in out.items()} == {"aa": ("y", "z"), "cc": ("x",)}
        assert all(rep.n_in == rep.n_out for rep in reports.values())


class TestIifTable:
    def test_alpha_is_kappa_th_count(self):
        counts = {"w1": 100, "w2": 50, "w3": 5, "w4": 2}
        table = IifTable.from_counts(counts, kappa=3)
        assert table.alpha == 5.0

    def test_kappa_beyond_vocab_clamps(self):
        table = IifTable.from_counts({"a": 9, "b": 4}, kappa=1000)
        assert table.alpha == 4.0

    def test_clipping(self):
        table = IifTable.from_counts({"w1": 100, "w2": 5}, kappa=2)
        assert table.clipped_freq("w1") == 100.0
        assert table.clipped_freq("w2") == 5.0
        assert table.clipped_freq("unseen") == 5.0

    def test_roundtrip(self, tmp_path):
        table = IifTable.from_counts({"a": 7, "b": 3}, kappa=1)
        path = tmp_path / "iif.tsv"
        table.save(path)
        back = IifTable.load(path)
        assert back.freqs == table.freqs
        assert back.kappa == table.kappa and back.alpha == table.alpha

    @pytest.mark.parametrize("bad", ["no-tab-here", "word\t1.5", "word\tmany"])
    def test_load_malformed_line(self, tmp_path, bad):
        path = tmp_path / "iif.tsv"
        IifTable.from_counts({"a": 7, "b": 3}, kappa=1).save(path)
        path.write_text(path.read_text(encoding="utf-8") + bad + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            IifTable.load(path)
        assert err.value.line_no == 3
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ('{"kappa": 1', "line 1: bad JSON"),
            ('{"alpha": 3.0}', "expected an integer kappa and a numeric alpha, got None and 3.0"),
            ('{"kappa": 1.5, "alpha": 3.0}', "expected an integer kappa and a numeric alpha, got 1.5 and 3.0"),
            ('{"kappa": true, "alpha": 3.0}', "expected an integer kappa and a numeric alpha, got True and 3.0"),
            ('{"kappa": 1, "alpha": "3"}', "expected an integer kappa and a numeric alpha, got 1 and '3'"),
            ('{"kappa": 1, "alpha": 0}', "alpha must be positive"),
            ('{"kappa": 1, "alpha": NaN}', "alpha must be positive"),
            ("[1, 3.0]", "expected a {kappa, alpha} object, got list"),
        ],
        ids=["bad-json", "missing-kappa", "fractional-kappa", "bool-kappa", "string-alpha", "zero-alpha", "nan-alpha", "list"],
    )
    def test_malformed_sidecar_names_its_path(self, tmp_path, sidecar, message):
        path = tmp_path / "iif.tsv"
        IifTable.from_counts({"a": 7, "b": 3}, kappa=1).save(path)
        (tmp_path / "iif.tsv.json").write_text(sidecar, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            IifTable.load(path)
        assert err.value.path == tmp_path / "iif.tsv.json"
        assert message in str(err.value)


class TestReadTsvPairs:
    def test_splits_at_the_first_tab(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text("aa\tone\ttwo\n\nbb\t\n", encoding="utf-8")
        assert list(read_tsv_pairs(path, str)) == [("aa", "one\ttwo"), ("bb", "")]

    def test_line_not_utf8(self, tmp_path):
        path = tmp_path / "aa.txt"
        path.write_bytes(b"a\t2\nb\xff\t1\n")
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}, line 2: not UTF-8"):
            WordList.load_tsv(path, "aa", "frequency")


class TestTfiifWordlist:
    def test_clipping_rule_example(self):
        # corpus freq 10, internet freq below alpha=5 -> score 10/5 = 2.0
        iif = IifTable.from_counts({"common": 100, "w2": 5}, kappa=2)
        corpus = MonoCorpus.from_sentences("aa", ["rare " * 10])
        wl = build_tfiif_wordlist(corpus, iif, tau=5)
        assert wl.entries == (("rare", 2.0),)

    @pytest.mark.parametrize("tau", [0, -2])
    def test_tau_below_1_is_rejected(self, tau):
        iif = IifTable.from_counts({"a": 5, "b": 3}, kappa=2)
        corpus = MonoCorpus.from_sentences("aa", ["a b c d e f g"])
        with pytest.raises(ValueError, match=re.escape(f"tau: expected at least 1, got {tau}")):
            build_tfiif_wordlist(corpus, iif, tau=tau)

    def test_matches_exhaustive_oracle(self, rng):
        vocab = [f"t{i}" for i in range(25)]
        internet = {t: rng.randint(1, 50) for t in vocab[:15]}
        iif = IifTable.from_counts(internet, kappa=8)
        sentences = [" ".join(rng.choices(vocab, k=7)) for _ in range(60)]
        corpus = MonoCorpus.from_sentences("aa", sentences)
        wl = build_tfiif_wordlist(corpus, iif, tau=1000)
        counts = Counter(t for s in sentences for t in s.split())
        expected = sorted(
            ((t, c / max(internet.get(t, 0), iif.alpha)) for t, c in counts.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        assert list(wl.entries) == expected

    def test_tau_truncates(self, rng):
        iif = IifTable.from_counts({"x": 3}, kappa=1)
        corpus = MonoCorpus.from_sentences("aa", [" ".join(f"w{i}" for i in range(50))])
        wl = build_tfiif_wordlist(corpus, iif, tau=10)
        assert len(wl.entries) == 10

    def test_kind_is_tfiif(self):
        iif = IifTable.from_counts({"x": 3}, kappa=1)
        wl = build_tfiif_wordlist(MonoCorpus.from_sentences("aa", ["x y"]), iif)
        assert wl.kind == "tfiif"

    def test_score_monotonicity(self):
        # higher corpus freq -> higher score; higher internet freq -> lower
        iif = IifTable.from_counts({"hi": 100, "lo": 10}, kappa=2)
        corpus = MonoCorpus.from_sentences("aa", ["hi hi hi lo lo lo lo"])
        scores = dict(build_tfiif_wordlist(corpus, iif).entries)
        assert scores["lo"] > scores["hi"]  # same-ish counts, lower internet freq wins


class TestFilterTfiif:
    def test_kept_and_dropped(self):
        wl = make_wordlist("aa", ["foo", "bar"], kind="tfiif")
        corpus = MonoCorpus.from_sentences("aa", ["foo bar", "junk " * 10])
        out, report = filter_tfiif(corpus, wl, 0.2)
        assert out.sentences == ("foo bar",)
        assert report.dropped_by_reason == {"below_threshold": 1}

    def test_wrong_kind_rejected(self):
        wl = make_wordlist("aa", ["foo"], kind="frequency")
        with pytest.raises(WrongListKind):
            filter_tfiif(MonoCorpus.from_sentences("aa", ["x"]), wl)

    def test_survival_fraction(self):
        wl = make_wordlist("aa", ["foo"], kind="tfiif")
        corpus = MonoCorpus.from_sentences("aa", ["foo", "junk junk junk junk junk", "foo foo"])
        assert survival_fraction(corpus, wl) == pytest.approx(2 / 3)
        assert survival_fraction(MonoCorpus.from_sentences("aa", []), wl) == 1.0


def reference_keep_by_fraction(stage, sentences, token_sets, threshold):
    """The per-sentence loop that `_keep_by_fraction` replaced."""
    report = StageReport(stage, n_in=len(sentences))
    kept = []
    for sentence in sentences:
        tokens = tokenize(sentence)
        if not tokens:
            report.drop("empty_tokens")
        elif any(sum(1 for t in tokens if t in ts) / len(tokens) >= threshold for ts in token_sets):
            kept.append(sentence)
        else:
            report.drop("below_threshold")
    report.n_out = len(kept)
    return kept, report


# words as written, and the tokens they give: "!!" gives none, "e," gives "e"
WORDS = st.sampled_from(["a", "b", "c", "Dd", "e,", "!!", "ä"])
TOKENS = st.sampled_from(["a", "b", "c", "dd", "e", "ä", "zz"])
SENTENCES = st.lists(st.lists(WORDS, max_size=30).map(" ".join), max_size=12)


class TestKeepByFraction:
    @settings(max_examples=300, deadline=None)
    @given(
        sentences=SENTENCES,
        earlier=SENTENCES,
        token_sets=st.lists(st.frozensets(TOKENS, max_size=5), min_size=1, max_size=3),
        threshold=st.one_of(
            st.builds(lambda k, n: k / n, st.integers(0, 31), st.integers(1, 30)),
            st.floats(-0.5, 1.5, allow_nan=False),
        ),
    )
    # 7 / 25 >= 0.28, though 7 >= 0.28 * 25 does not hold
    @example(sentences=["a " * 7 + "b " * 18], earlier=[], token_sets=[frozenset("a")], threshold=0.28)
    def test_matches_the_per_sentence_loop(self, sentences, earlier, token_sets, threshold):
        # a table that other sentences filled first: ids need not start at 0
        table = TokenTable()
        table.flat(earlier)
        corpus = MonoCorpus.from_sentences("aa", sentences, table=table)
        if 0 <= threshold <= 1:
            expected = reference_keep_by_fraction("wordlist", sentences, token_sets, threshold)
            assert _keep_by_fraction("wordlist", corpus, token_sets, threshold) == expected
        else:
            with pytest.raises(ValueError, match=re.escape("threshold: expected a value in [0, 1]")):
                _keep_by_fraction("wordlist", corpus, token_sets, threshold)
        counts = Counter(t for sentence in sentences for t in tokenize(sentence))
        if counts:
            assert token_counts(corpus) == counts
        else:
            with pytest.raises(EmptyCorpus):
                token_counts(corpus)

    def test_corpora_on_one_table_tokenize_a_sentence_once(self, monkeypatch):
        calls = Counter()
        real = filters.tokenize

        def counting(text):
            calls[text] += 1
            return real(text)

        monkeypatch.setattr(filters, "tokenize", counting)
        table = TokenTable()
        a = MonoCorpus.from_sentences("aa", ["x y", "y z", "x y"], table=table)
        b = a.advanced("wordlist", ["y z"])
        assert b.table is table
        assert token_counts(a) == {"x": 2, "y": 3, "z": 1}
        assert token_counts(b) == {"y": 1, "z": 1}
        assert calls == {"x y": 1, "y z": 1}


class TestTokenTable:
    @settings(max_examples=200, deadline=None)
    @given(batches=st.lists(SENTENCES, max_size=6))
    def test_each_batch_reads_its_tokens(self, batches):
        table = TokenTable()
        for batch in batches:
            ids, lengths = table.flat(batch)
            words = list(table.vocab)  # in id order
            assert [words[i] for i in ids.tolist()] == [t for s in batch for t in tokenize(s)]
            assert lengths.tolist() == [len(tokenize(s)) for s in batch] == table.lengths(batch).tolist()

    def test_a_call_costs_its_own_sentences_not_the_table(self):
        table = TokenTable()
        buffers = [table._tokens]  # held, so no two share an id
        for k in range(1000):
            table.flat([f"w{k} x{k}"])
            if table._tokens is not buffers[-1]:
                buffers.append(table._tokens)
        # the arrays double when full: a copy per power of two, not per call
        assert len(buffers) <= 13
        arrays = table._tokens, table._start, table._length
        table.flat(["w7 x7", "w3 x3"])  # sentences the table holds: no array is copied
        assert all(a is b for a, b in zip(arrays, (table._tokens, table._start, table._length)))


class TestDistractibility:
    def test_never_mispredicted(self):
        cm = ConfusionMatrix(("en", "xx"), np.array([[10, 0], [0, 10]]))
        assert distractibility(cm, "xx") == 0.0

    def test_max_over_distractors(self):
        # FDR(en, l) = 3/10, FDR(de, l) = 5/10, ru never confused
        counts = np.array(
            [
                [10, 0, 5, 0],  # de
                [0, 10, 3, 0],  # en
                [0, 0, 10, 0],  # l
                [0, 0, 0, 10],  # ru
            ]
        )
        cm = ConfusionMatrix(("de", "en", "l", "ru"), counts)
        assert distractibility(cm, "l") == pytest.approx(0.5)

    def test_matches_scan_oracle(self, rng):
        langs = ("de", "en", "es", "xx")
        counts = np.array([[rng.randint(0, 9) for _ in langs] for _ in langs])
        cm = ConfusionMatrix(langs, counts)
        expected = max(cm.fdr(d, "xx") for d in ("de", "en", "es"))
        assert distractibility(cm, "xx") == pytest.approx(expected)

    def test_unknown_language(self):
        cm = ConfusionMatrix(("en",), np.array([[1]]))
        with pytest.raises(UnknownLanguage):
            distractibility(cm, "zz")

    def test_absent_distractors_skipped(self):
        cm = ConfusionMatrix(("xx", "yy"), np.array([[5, 0], [0, 5]]))
        assert distractibility(cm, "xx") == 0.0


class TestRrrGate:
    def test_no_data_removed_not_applied(self):
        report = rrr_gate(1.0, 1.0, rho=1.0)
        assert report.rrr == pytest.approx(1.0)
        assert not report.apply_filter

    def test_arithmetic_example(self):
        report = rrr_gate(0.9, 0.3, rho=2.0, rrr_threshold=1.0)
        assert report.rrr == pytest.approx(0.81 / 0.3)
        assert report.apply_filter

    def test_low_recall_blocks(self):
        report = rrr_gate(0.75, 0.3, rho=2.0, rrr_threshold=1.0)
        assert not report.apply_filter

    def test_zero_crawl_survival(self):
        report = rrr_gate(0.9, 0.0)
        assert report.rrr == float("inf")
        assert any("zero crawl survival" in r for r in report.reasons)

    def test_rrr_decreasing_in_rho(self):
        values = [rrr_gate(0.9, 0.5, rho=rho).rrr for rho in (1.0, 2.0, 3.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        constant = [rrr_gate(1.0, 0.5, rho=rho).rrr for rho in (1.0, 2.0, 5.0)]
        assert len(set(constant)) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rrr_gate(1.5, 0.5)


class TestNegativeFilter:
    def test_substring_rule(self):
        rule = NegativeFilterRule("ar", "substring", "casino")
        corpus = MonoCorpus.from_sentences("ar", ["best casino bonus", "ordinary text"])
        out, _ = negative_filter(corpus, [rule])
        assert out.sentences == ("ordinary text",)

    def test_no_rules_identity(self):
        corpus = MonoCorpus.from_sentences("ar", ["a", "b"])
        assert negative_filter(corpus, [])[0].sentences == corpus.sentences

    def test_token_rule_matches_oracle(self, rng):
        rule = NegativeFilterRule("aa", "token", "bad")
        sentences = [
            " ".join(rng.choices(["bad", "good", "fine", "badge"], k=5)) for _ in range(60)
        ]
        corpus = MonoCorpus.from_sentences("aa", sentences)
        out, _ = negative_filter(corpus, [rule])
        expected = [s for s in sentences if "bad" not in s.split()]
        assert list(out.sentences) == expected

    def test_token_rule_does_not_match_substring(self):
        rule = NegativeFilterRule("aa", "token", "bad")
        corpus = MonoCorpus.from_sentences("aa", ["badge of honor"])
        assert negative_filter(corpus, [rule])[0].sentences == ("badge of honor",)

    def test_case_sensitivity(self):
        corpus = MonoCorpus.from_sentences("aa", ["Casino night"])
        insensitive = NegativeFilterRule("aa", "substring", "casino", case_sensitive=False)
        sensitive = NegativeFilterRule("aa", "substring", "casino", case_sensitive=True)
        assert negative_filter(corpus, [insensitive])[0].sentences == ()
        assert negative_filter(corpus, [sensitive])[0].sentences == ("Casino night",)

    def test_wrong_language_rule_rejected(self):
        rule = NegativeFilterRule("bb", "substring", "x")
        with pytest.raises(ValueError):
            negative_filter(MonoCorpus.from_sentences("aa", ["x"]), [rule])

    def test_rules_file_roundtrip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            '[{"lang": "ar", "rule": "substring", "pattern": "casino"},'
            ' {"lang": "aa", "rule": "token", "pattern": "bad", "case_sensitive": true}]'
        )
        rules = load_negative_rules(path)
        assert len(rules) == 2
        assert rules[0].lang == "ar" and not rules[0].case_sensitive
        assert rules[1].case_sensitive

    @pytest.mark.parametrize(
        "text, where",
        [
            ('[{"lang": "aa",\n  "rule": }]', "line 2"),  # bad JSON
            ('{"lang": "aa", "rule": "token", "pattern": "x"}', "list"),
            ('[{"lang": "aa", "rule": "token", "pattern": "x"}, {"lang": "aa", "rule": "token"}]', "rule 1"),
            ('[{"lang": "aa", "rule": "regex", "pattern": "x"}]', "rule 0"),
            ('[{"lang": "aa", "rule": "token", "pattern": "x"}, {"lang": "aa", "rule": "substring", "pattern": ""}]', "rule 1"),
            ('[{"lang": "aa", "rule": "token", "pattern": 5}]', "rule 0"),
            ('["casino"]', "rule 0"),
            ('[{"lang": "aa", "rule": "token", "pattern": "x", "case_sensitive": "false"}]', "rule 0: case_sensitive"),
            ('[{"lang": "aa", "rule": "token", "pattern": "x", "flags": "i"}]', "rule 0: "),
        ],
        ids=[
            "bad-json", "not-a-list", "missing-key", "unknown-kind", "empty-pattern", "non-string", "not-an-object",
            "string-bool", "unknown-key",
        ],
    )
    def test_rules_file_malformed(self, tmp_path, text, where):
        path = tmp_path / "rules.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_negative_rules(path)
        assert str(path) in str(err.value) and where in str(err.value)

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=5,
    )
    VALID_RULES = [
        {"lang": "aa", "rule": "token", "pattern": "x"},
        {"lang": "bb", "rule": "substring", "pattern": "y", "case_sensitive": True},
    ]

    @settings(max_examples=300, deadline=None)
    @given(
        index=st.integers(0, len(VALID_RULES) - 1),
        key=st.none() | st.sampled_from(["lang", "rule", "pattern", "case_sensitive"]) | st.text(max_size=12),
        value=JSON_VALUES,
    )
    def test_mutated_rules_file_is_read_as_given_or_rejected(self, tmp_path_factory, index, key, value):
        """A valid rules file with one rule swapped for any JSON value (`key`
        None), or one value swapped or one key added, is either the rules it
        states, each value as given, or a ParseError."""
        raw = [dict(rule) for rule in self.VALID_RULES]
        if key is None:
            raw[index] = value
        else:
            raw[index][key] = value
        path = tmp_path_factory.mktemp("rules") / "rules.json"
        path.write_text(json.dumps(raw))
        try:
            rules = load_negative_rules(path)
        except ParseError:
            return
        stated = [{"case_sensitive": False, **obj} for obj in raw]
        assert json.dumps([dataclasses.asdict(r) for r in rules], sort_keys=True) == json.dumps(stated, sort_keys=True)

    def test_first_matching_rule_as_matched_per_rule(self, rng):
        # each rule against the sentence's tokens computed afresh, as before
        # the filter tokenized once per sentence
        def matches(rule, sentence):
            if rule.rule == "substring":
                if rule.case_sensitive:
                    return rule.pattern in sentence
                return rule.pattern.casefold() in sentence.casefold()
            if rule.case_sensitive:
                return rule.pattern in reference_tokens(sentence, fold=False)
            return rule.pattern.casefold() in reference_tokens(sentence, fold=True)

        words = ["Bad", "bad,", "(BAD)", "badge", "Spam!", "spam", "ok", "fine.", "…"]
        rules = [
            NegativeFilterRule("aa", "token", "Bad", case_sensitive=True),
            NegativeFilterRule("aa", "substring", "dge"),
            NegativeFilterRule("aa", "token", "SPAM"),
            NegativeFilterRule("aa", "substring", "BAD", case_sensitive=True),
        ]
        sentences = [" ".join(rng.choices(words, k=rng.randint(1, 5))) for _ in range(200)]
        for chosen in (rules, rules[::-1], rules[2:], rules[:1]):
            out, report = negative_filter(MonoCorpus.from_sentences("aa", sentences), chosen)
            expected, reasons = [], Counter()
            for sentence in sentences:
                hit = next((r for r in chosen if matches(r, sentence)), None)
                if hit is None:
                    expected.append(sentence)
                else:
                    reasons[f"{hit.rule}:{hit.pattern}"] += 1
            assert list(out.sentences) == expected
            assert report.dropped_by_reason == dict(reasons)

    def test_report_names_rule(self):
        rule = NegativeFilterRule("ar", "substring", "casino")
        _, report = negative_filter(MonoCorpus.from_sentences("ar", ["casino"]), [rule])
        assert report.dropped_by_reason == {"substring:casino": 1}


class TestFilterProperties:
    def filters_under_test(self):
        freq = {"aa": make_wordlist("aa", ["foo", "bar", "baz"])}
        tf = make_wordlist("aa", ["foo", "bar"], kind="tfiif")
        rules = [NegativeFilterRule("aa", "token", "bad")]
        return [
            lambda c: filter_wordlist(c, freq, 0.4)[0],
            lambda c: filter_tfiif(c, tf, 0.4)[0],
            lambda c: negative_filter(c, rules)[0],
        ]

    def corpus(self, rng):
        words = ["foo", "bar", "baz", "bad", "junk", "noise"]
        return MonoCorpus.from_sentences(
            "aa", [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(80)]
        )

    def test_output_is_subsequence(self, rng):
        for f in self.filters_under_test():
            corpus = self.corpus(rng)
            out = f(corpus)
            it = iter(corpus.sentences)
            assert all(s in it for s in out.sentences)

    def test_idempotent(self, rng):
        for f in self.filters_under_test():
            corpus = self.corpus(rng)
            once = f(corpus)
            twice = f(once)
            assert twice.sentences == once.sentences
