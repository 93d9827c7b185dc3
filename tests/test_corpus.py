import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from monomine.corpus import (
    CorpusStats,
    Document,
    IngestReport,
    MonoCorpus,
    SentenceRecord,
    corpus_stats,
    dedup,
    _document_from_obj,
    dedup_corpora,
    document_to_obj,
    load_documents,
    normalize_sentence,
    read_annotated,
    read_corpus,
    write_annotated,
    write_corpus,
)
from monomine.errors import ParseError
from monomine.filters import tokenize


def write_jsonl(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


class TestNormalize:
    def test_trim_and_collapse(self):
        assert normalize_sentence("  foo  bar ") == "foo bar"

    def test_empty(self):
        assert normalize_sentence("") == ""

    def test_tabs(self):
        assert normalize_sentence("a\t\tb") == "a b"

    def test_nfc(self):
        decomposed = "étude"  # e + combining acute
        assert normalize_sentence(decomposed) == "étude"

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize_sentence(text)
        assert normalize_sentence(once) == once


class TestLoadDocuments:
    def test_sentences_list(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ['{"id":"d1","sentences":["a","b"]}'])
        docs = list(load_documents(path))
        assert len(docs) == 1
        assert docs[0].id == "d1"
        assert docs[0].texts == ["a", "b"]

    def test_text_newline_split(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ['{"id":"d2","text":"x\\ny"}'])
        (doc,) = load_documents(path)
        assert doc.texts == ["x", "y"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("")
        assert list(load_documents(path)) == []

    def test_url_kept(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ['{"id":"d","url":"http://x","sentences":[]}'])
        (doc,) = load_documents(path)
        assert doc.url == "http://x"

    def test_lenient_counts_bad_lines(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ['not json', '{"id":"ok","sentences":["a"]}', '{"sentences":[]}'])
        report = IngestReport()
        docs = list(load_documents(path, report=report))
        assert [d.id for d in docs] == ["ok"]
        assert report.skipped == 2
        assert [n for n, _ in report.errors] == [1, 3]

    def test_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ['{"id":"ok","sentences":[]}', "garbage"])
        with pytest.raises(ParseError) as err:
            list(load_documents(path, strict=True))
        assert err.value.line_no == 2

    def test_strict_error_names_the_path(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ["garbage"])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}, line 1: "):
            list(load_documents(path, strict=True))

    def test_lenient_counts_and_keeps_duplicate_ids(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(
            path,
            ['{"id":"a","sentences":["x"]}', '{"id":"b","sentences":[]}', '{"id":"a","sentences":["y"]}', '{"id":"a","sentences":[]}'],
        )
        report = IngestReport()
        docs = list(load_documents(path, report=report))
        assert [d.id for d in docs] == ["a", "b", "a", "a"]
        assert (report.documents, report.duplicate_ids, report.skipped) == (4, 2, 0)
        assert report.to_dict()["duplicate_ids"] == 2

    def test_strict_raises_on_a_duplicate_id(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ['{"id":"a","sentences":["x"]}', "", '{"id":"b","sentences":[]}', '{"id":"a","sentences":["y"]}'])
        with pytest.raises(ParseError, match="duplicate document id 'a', first used on line 1") as err:
            list(load_documents(path, strict=True))
        assert err.value.line_no == 4
        assert err.value.path == path

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            list(load_documents(tmp_path / "nope.jsonl"))

    def test_sentences_normalized_at_ingest(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ['{"id":"d","sentences":["  a   b "]}'])
        (doc,) = load_documents(path)
        assert doc.texts == ["a b"]


class TestDocumentModel:
    def test_id_required(self):
        with pytest.raises(ValueError):
            Document("", ())

    def test_cluster_requires_lang(self):
        with pytest.raises(ValueError):
            SentenceRecord("x", predicted_cluster=3)

    def test_annotated_roundtrip(self, tmp_path):
        doc = Document(
            "d",
            (
                SentenceRecord("hello", "aa", 0, 0.9),
                SentenceRecord("plain"),
            ),
            url="http://x",
        )
        path = tmp_path / "ann.jsonl"
        write_annotated([doc], path)
        (back,) = read_annotated(path)
        assert back == doc

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": "d", "sentences": [{"lang": "aa"}]}', "line 2: missing key 'text'"),
            ('["d", "hello"]', "line 2: "),
            ('{"id": "d", "sentences": [', "line 2: "),
        ],
        ids=["missing-key", "not-an-object", "bad-json"],
    )
    def test_malformed_annotated_line_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"id": "ok", "sentences": []}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            list(read_annotated(path))
        assert err.value.line_no == 2
        assert str(err.value).startswith(f"{path}, {message}")

    def test_obj_roundtrip(self):
        doc = Document("d", (SentenceRecord("s", "aa", 1, 0.5),))
        assert _document_from_obj(document_to_obj(doc)) == doc

    def test_crawl_reader_reads_annotated_lines(self, tmp_path):
        doc = Document("d", (SentenceRecord("hello", "aa", 0, 0.9), SentenceRecord("plain")), url="http://x")
        path = tmp_path / "ann.jsonl"
        write_annotated([doc, doc], path)
        assert list(load_documents(path, report=IngestReport())) == [doc, doc]
        with pytest.raises(ParseError, match="duplicate document id"):
            list(load_documents(path, strict=True))
        assert list(read_annotated(path)) == [doc, doc]  # ids may repeat here

    def test_annotated_text_is_normalized(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, ['{"id": "d", "sentences": [{"text": " e\u0301tude  x ", "lang": "aa", "cluster": 0}]}'])
        (doc,) = read_annotated(path)
        assert doc.sentences == (SentenceRecord("\u00e9tude x", "aa", 0),)

    @pytest.mark.parametrize(
        "sentence, message",
        [
            ('{"text": "a", "lang": "aa", "cluster": true}', "'cluster' must be an integer"),
            ('{"text": "a", "lang": "aa", "cluster": 0.5}', "'cluster' must be an integer"),
            ('{"text": "a", "confidence": false}', "'confidence' must be a number"),
            ('{"text": "a", "confidence": "0.5"}', "'confidence' must be a number"),
            ('{"text": "a", "lang": 7, "cluster": 0}', "'lang' must be a string"),
            ('{"text": "a", "lang": "aa"}', "predicted_lang and predicted_cluster must be set together"),
            ('{"text": 1}', "'text' must be a string"),
            ("3", "'sentences' must be a list of strings or objects"),
        ],
        ids=["bool-cluster", "float-cluster", "bool-confidence", "string-confidence", "int-lang", "lang-only",
             "int-text", "int-sentence"],
    )
    def test_every_sentence_field_is_type_checked(self, tmp_path, sentence, message):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, ['{"id": "d", "sentences": [' + sentence + "]}"])
        for read in (read_annotated, lambda p: load_documents(p, strict=True)):
            with pytest.raises(ParseError, match=re.escape(f"{path}, line 1: {message}")):
                list(read(path))


NORMALIZED = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20).map(normalize_sentence)
NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)
SENTENCES = st.one_of(
    st.builds(SentenceRecord, NORMALIZED),
    st.builds(SentenceRecord, NORMALIZED, confidence=st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(
        SentenceRecord,
        NORMALIZED,
        predicted_lang=NAMES,
        predicted_cluster=st.integers(-(2**70), 2**70),
        confidence=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    ),
)
DOCUMENTS = st.lists(
    st.builds(Document, NAMES, st.lists(SENTENCES, max_size=4).map(tuple), url=st.none() | NAMES), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(docs=DOCUMENTS)
def test_written_documents_read_back_equal(tmp_path_factory, docs):
    path = tmp_path_factory.mktemp("roundtrip") / "docs.jsonl"
    write_annotated(docs, path)
    assert list(read_annotated(path)) == docs
    report = IngestReport()
    assert list(load_documents(path, report=report)) == docs
    assert report.skipped == 0


class TestMalformedText:
    """A byte that is not UTF-8, or a JSON escape that leaves a lone
    surrogate, makes a line malformed for every reader."""

    BAD = {
        "not-utf8-text": b'{"id": "x", "sentences": ["a \xff b"]}',
        "not-utf8-ignored-field": b'{"id": "x", "sentences": ["a"], "meta": "\xc3"}',
        "lone-high-surrogate": b'{"id": "x", "sentences": ["a \\ud800 b"]}',
        "lone-low-surrogate-url": b'{"id": "x", "url": "\\udc00", "sentences": []}',
        "lone-surrogate-id": b'{"id": "x\\uDBFF", "sentences": []}',
        "lone-surrogate-lang": b'{"id": "x", "sentences": [{"text": "a", "lang": "\\ud800", "cluster": 0}]}',
    }
    GOOD = b'{"id": "ok", "sentences": ["a"]}'

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_lenient_ingest_counts_it_and_goes_on(self, tmp_path, bad):
        path = tmp_path / "docs.jsonl"
        path.write_bytes(b"\n".join([self.GOOD, bad, self.GOOD.replace(b"ok", b"ok2")]) + b"\n")
        report = IngestReport()
        assert [d.id for d in load_documents(path, report=report)] == ["ok", "ok2"]
        assert (report.skipped, report.documents) == (1, 2)
        assert [n for n, _ in report.errors] == [2]
        assert report.errors[0][1].startswith("not UTF-8")

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_strict_readers_name_the_path_and_line(self, tmp_path, bad):
        path = tmp_path / "docs.jsonl"
        path.write_bytes(self.GOOD + b"\n" + bad + b"\n")
        for read in (read_annotated, lambda p: load_documents(p, strict=True)):
            with pytest.raises(ParseError, match=re.escape(f"{path}, line 2: not UTF-8")):
                list(read(path))

    def test_deep_nesting_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_bytes(b"[" * 100_000 + b"\n" + self.GOOD + b"\n")
        report = IngestReport()
        assert [d.id for d in load_documents(path, report=report)] == ["ok"]
        assert [n for n, _ in report.errors] == [1]
        with pytest.raises(ParseError, match=re.escape(f"{path}, line 1: maximum recursion depth")):
            list(read_annotated(path))

    @pytest.mark.parametrize(
        "escaped, text",
        [("\\ud83d\\ude00 x", "\U0001f600 x"), ("\\\\ud800", "\\ud800"), ("\\\"\\ud83d\\ude00", '"\U0001f600')],
        ids=["surrogate-pair", "escaped-backslash", "escaped-quote-then-pair"],
    )
    def test_escapes_that_make_text_are_read(self, tmp_path, escaped, text):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, ['{"id": "d", "sentences": ["' + escaped + '"]}'])
        (doc,) = load_documents(path, strict=True)
        assert doc.texts == [text]

    def test_corpus_line_not_utf8(self, tmp_path):
        path = tmp_path / "aa.txt"
        path.write_bytes(b"one\ntw\xffo\nthree\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}, line 2: not UTF-8")):
            read_corpus(path, "aa")

    def test_corpus_lines_split_as_text_mode_splits(self, tmp_path):
        path = tmp_path / "aa.txt"
        path.write_bytes("a\r\nb\rc\u2028d\x85e\nf".encode("utf-8"))
        assert read_corpus(path, "aa").sentences == ("a", "b", "c\u2028d\x85e", "f")


class TestDedup:
    def test_basic(self):
        corpus = MonoCorpus.from_sentences("xx", ["a", "b", "a"])
        deduped, report = dedup(corpus)
        assert deduped.sentences == ("a", "b")
        assert report.factor == pytest.approx(1.5)

    def test_no_duplicates(self):
        corpus = MonoCorpus.from_sentences("xx", ["a", "b", "c"])
        deduped, report = dedup(corpus)
        assert deduped.sentences == corpus.sentences
        assert report.factor == 1.0

    def test_random_against_set_oracle(self):
        rng = random.Random(99)
        pool = [f"sentence {i}" for i in range(1000)]
        sample = [rng.choice(pool) for _ in range(10000)]
        deduped, report = dedup(MonoCorpus.from_sentences("xx", sample))
        # oracle: insert all into a set
        assert set(deduped.sentences) == set(sample)
        assert len(deduped.sentences) == len(set(sample))
        assert report.before == 10000
        assert report.after == len(set(sample))

    def test_idempotent_and_subsequence(self):
        rng = random.Random(5)
        sample = [rng.choice("abcde") for _ in range(200)]
        corpus = MonoCorpus.from_sentences("xx", sample)
        once, _ = dedup(corpus)
        twice, _ = dedup(once)
        assert twice.sentences == once.sentences
        it = iter(sample)
        assert all(s in it for s in once.sentences)  # subsequence check

    def test_keeps_first_occurrence(self):
        deduped, _ = dedup(MonoCorpus.from_sentences("xx", ["b", "a", "b", "a"]))
        assert deduped.sentences == ("b", "a")

    def test_global_scope_shares_seen_set(self):
        corpora = {
            "aa": MonoCorpus.from_sentences("aa", ["x", "y"]),
            "bb": MonoCorpus.from_sentences("bb", ["x", "z"]),
        }
        out, reports = dedup_corpora(corpora, scope="global")
        assert out["aa"].sentences == ("x", "y")
        assert out["bb"].sentences == ("z",)
        assert reports["bb"].before == 2 and reports["bb"].after == 1
        per, _ = dedup_corpora(corpora, scope="per-language")
        assert per["bb"].sentences == ("x", "z")


class TestStats:
    def test_direct_count(self):
        stats = corpus_stats(MonoCorpus.from_sentences("xx", ["ab cd"]))
        assert stats == CorpusStats(1, 2, 5, 5.0)

    def test_empty(self):
        stats = corpus_stats(MonoCorpus.from_sentences("xx", []))
        assert stats == CorpusStats(0, 0, 0, 0.0)

    def test_against_counting_oracle(self):
        rng = random.Random(3)
        sentences = [
            " ".join(rng.choice(["je", "ne", "sais", "quoi!"]) for _ in range(rng.randint(1, 9)))
            for _ in range(100)
        ]
        stats = corpus_stats(MonoCorpus.from_sentences("xx", sentences))
        # independent counting pass
        n_tokens = 0
        n_chars = 0
        for s in sentences:
            n_chars += len(s)
            n_tokens += len(tokenize(s))
        assert stats.n_sentences == 100
        assert stats.n_tokens == n_tokens
        assert stats.n_chars == n_chars
        assert stats.chars_per_sentence == pytest.approx(n_chars / 100)


class TestCorpusFiles:
    def test_roundtrip(self, tmp_path):
        corpus = MonoCorpus.from_sentences("aa", ["one", "two", "three"])
        path = tmp_path / "aa.txt"
        write_corpus(corpus, path)
        back = read_corpus(path, "aa")
        assert back.sentences == corpus.sentences
        assert back.lang == "aa"

    def test_reports_serialize(self):
        _, report = dedup(MonoCorpus.from_sentences("xx", ["a", "a"]))
        assert json.loads(json.dumps(report.to_dict())) == {
            "before": 2,
            "after": 1,
            "factor": 2.0,
        }


class TestFunnel:
    def test_monotonic_ok(self):
        corpus = MonoCorpus.from_sentences("xx", ["a", "b"], stage="ingest")
        corpus = corpus.advanced("wordlist", ["a"])
        corpus.check_funnel()

    def test_growth_rejected(self):
        corpus = MonoCorpus.from_sentences("xx", ["a"], stage="ingest")
        corpus = MonoCorpus(corpus.lang, ("a", "b"), {"ingest": 1, "later": 2})
        with pytest.raises(ValueError):
            corpus.check_funnel()
