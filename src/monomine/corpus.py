"""Document and corpus data model: ingestion, normalization, dedup, stats.

Documents arrive as JSON-lines (one object per line, with an "id" and either
a "sentences" list or a "text" blob split on newlines); a sentence is a
string, or an object with its annotation as `write_annotated` writes it.
Sentence text is normalized at ingestion so that exact-match dedup
downstream is meaningful.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from . import filters
from .errors import EmptyDocument, ParseError, check_json_strings, read_lines, utf8


def normalize_sentence(text: str) -> str:
    """Trim, collapse internal whitespace runs to one space, apply NFC.

    Idempotent; "" maps to "". Every whitespace character but U+0020 is
    unprintable, so a printable text with no leading, trailing or double
    space has nothing to trim or collapse.
    """
    if not text.isprintable() or "  " in text or text[:1] == " " or text[-1:] == " ":
        text = " ".join(text.split())
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class SentenceRecord:
    """One sentence of a document, plus whatever LangID has said about it."""

    text: str
    predicted_lang: Optional[str] = None
    predicted_cluster: Optional[int] = None
    confidence: Optional[float] = None

    def __post_init__(self) -> None:
        # A cluster assignment only makes sense alongside a language prediction.
        if (self.predicted_lang is None) != (self.predicted_cluster is None):
            raise ValueError("predicted_lang and predicted_cluster must be set together")


@dataclass(frozen=True)
class Document:
    """A crawled page: id, optional URL, ordered sentences."""

    id: str
    sentences: tuple[SentenceRecord, ...]
    url: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")


@dataclass(frozen=True, eq=False)
class Crawl:
    """Documents as offsets into one array of sentence ids in `table`:
    document k holds `ids[starts[k]:starts[k + 1]]`. Once annotated,
    `clusters` holds the predicted cluster at each position of `ids`."""

    table: filters.TokenTable
    ids: np.ndarray
    starts: np.ndarray
    clusters: Optional[np.ndarray] = None

    @classmethod
    def from_documents(cls, docs: Iterable[Document]) -> "Crawl":
        """The annotated documents on a fresh table; EmptyDocument if a sentence has no cluster."""
        table, ids, starts, cids = filters.TokenTable(), [], [0], []
        for doc in docs:
            for i, record in enumerate(doc.sentences):
                if record.predicted_cluster is None:
                    raise EmptyDocument(f"sentence {i} of {doc.id} is not annotated")
                ids.append(table.ids[record.text])
                cids.append(record.predicted_cluster)
            starts.append(len(ids))
        return cls(table, np.array(ids, np.intp), np.array(starts, np.intp), np.array(cids))


@dataclass(frozen=True)
class MonoCorpus:
    """Per-language sentence list with a survival counter per pipeline stage.

    Cluster-level corpora (before declustering) use the synthetic label
    ``cluster:<id>`` in the ``lang`` field. `table` holds the sentences'
    tokens; a corpus derived from another shares its table.
    """

    lang: str
    sentences: tuple[str, ...]
    stage_counts: Mapping[str, int] = field(default_factory=dict)
    # looked up when a corpus is made: this module may load while `filters` is still loading
    table: filters.TokenTable = field(default_factory=lambda: filters.TokenTable(), compare=False, repr=False)

    @classmethod
    def from_sentences(
        cls, lang: str, sentences: Iterable[str], stage: Optional[str] = None, table: Optional[filters.TokenTable] = None
    ) -> "MonoCorpus":
        """A corpus on `table`, or on a fresh table if none is given."""
        sents = tuple(sentences)
        counts = {stage: len(sents)} if stage is not None else {}
        return cls(lang, sents, counts, filters.TokenTable() if table is None else table)

    def advanced(self, stage: str, sentences: Iterable[str]) -> "MonoCorpus":
        """New corpus with `sentences` surviving `stage` appended to the funnel."""
        sents = tuple(sentences)
        counts = dict(self.stage_counts)
        counts[stage] = len(sents)
        return MonoCorpus(self.lang, sents, counts, self.table)

    def check_funnel(self) -> None:
        """Assert stage counts never increase along their recorded order."""
        prev = None
        for stage, count in self.stage_counts.items():
            if prev is not None and count > prev:
                raise ValueError(f"{self.lang}: stage {stage!r} grew the corpus ({prev} -> {count})")
            prev = count


@dataclass(frozen=True)
class CorpusStats:
    n_sentences: int
    n_tokens: int
    n_chars: int
    chars_per_sentence: float

    def to_dict(self) -> dict:
        return {
            "n_sentences": self.n_sentences,
            "n_tokens": self.n_tokens,
            "n_chars": self.n_chars,
            "chars_per_sentence": self.chars_per_sentence,
        }


@dataclass(frozen=True)
class DedupReport:
    before: int
    after: int
    factor: float

    def to_dict(self) -> dict:
        return {"before": self.before, "after": self.after, "factor": self.factor}


@dataclass
class IngestReport:
    """Filled by load_documents when passed in; counts malformed lines and
    documents whose id an earlier document already used."""

    lines: int = 0
    documents: int = 0
    skipped: int = 0
    duplicate_ids: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "lines": self.lines,
            "documents": self.documents,
            "skipped": self.skipped,
            "duplicate_ids": self.duplicate_ids,
            "errors": [{"line": n, "message": m} for n, m in self.errors],
        }


def _optional(obj: dict, key: str, kinds: tuple[type, ...], what: str):
    """obj[key] if its type is one of `kinds` (so a bool is no number), None
    if it is missing or null."""
    value = obj.get(key)
    if value is not None and type(value) not in kinds:
        raise ValueError(f"'{key}' must be {what}")
    return value


def _annotated_sentence(obj: object) -> SentenceRecord:
    """A sentence given as a {text, lang?, cluster?, confidence?} object, as
    `document_to_obj` writes it."""
    if not isinstance(obj, dict):
        raise ValueError("'sentences' must be a list of strings or objects")
    if "text" not in obj:
        raise ValueError("missing key 'text'")
    if not isinstance(obj["text"], str):
        raise ValueError("'text' must be a string")
    return SentenceRecord(
        normalize_sentence(obj["text"]),
        predicted_lang=_optional(obj, "lang", (str,), "a string"),
        predicted_cluster=_optional(obj, "cluster", (int,), "an integer"),
        confidence=_optional(obj, "confidence", (int, float), "a number"),
    )


def _parsed(obj: object) -> tuple[str, list[str | SentenceRecord], Optional[str]]:
    """The id, sentences and URL of a document's JSON object: a crawl line,
    or a line that `write_annotated` wrote. A crawl sentence is its
    normalized text, an annotated one its record, normalized too."""
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("missing or empty 'id'")
    if "sentences" in obj:
        if not isinstance(obj["sentences"], list):
            raise ValueError("'sentences' must be a list of strings or objects")
        sentences = [normalize_sentence(s) if isinstance(s, str) else _annotated_sentence(s) for s in obj["sentences"]]
    elif "text" in obj:
        if not isinstance(obj["text"], str):
            raise ValueError("'text' must be a string")
        # Newline splitting is the only sentence detection performed; blank
        # segments are not sentences.
        sentences = [t for t in map(normalize_sentence, obj["text"].split("\n")) if t]
    else:
        raise ValueError("needs 'sentences' or 'text'")
    return doc_id, sentences, _optional(obj, "url", (str,), "a string")


def _document(doc_id: str, sentences: list[str | SentenceRecord], url: Optional[str]) -> Document:
    return Document(doc_id, tuple(SentenceRecord(s) if isinstance(s, str) else s for s in sentences), url=url)


def _parsed_at(line_no: int, line: str, path: str | Path) -> tuple[str, list[str | SentenceRecord], Optional[str]]:
    """`_parsed` of one line of a JSON-lines file; bad bytes, bad JSON, a
    lone surrogate in a string or a bad document raise ParseError."""
    try:
        obj = json.loads(utf8(line_no, line, path))
        check_json_strings(line_no, line, path)
        return _parsed(obj)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError; deep nesting recurses
        raise ParseError(line_no, str(exc), path) from exc


def load_documents(
    path: str | Path,
    strict: bool = False,
    report: Optional[IngestReport] = None,
    table: Optional[filters.TokenTable] = None,
) -> Iterator[Document] | Iterator[list[int]]:
    """Stream Documents from a JSONL file in file order; with a `table`,
    each document as the ids of its sentences in it, with no records made.

    Whitespace-only lines are ignored. A malformed line (bad bytes, bad JSON
    or a bad document) raises ParseError in strict mode; in lenient mode it
    is counted in `report` and skipped. A document whose id an earlier line
    used raises ParseError in strict mode; in lenient mode it is counted in
    `report` and kept.
    """
    first_line: dict[str, int] = {}  # document id -> the line that first used it
    for line_no, line in read_lines(path):
        if report is not None:
            report.lines += 1
        if not line.strip():
            continue
        try:
            doc_id, sentences, url = _parsed_at(line_no, line, path)
        except ParseError as exc:
            if strict:
                raise
            if report is not None:
                report.skipped += 1
                report.errors.append((line_no, exc.message))
            continue
        first = first_line.setdefault(doc_id, line_no)
        if first != line_no:
            if strict:
                raise ParseError(line_no, f"duplicate document id {doc_id!r}, first used on line {first}", path)
            if report is not None:
                report.duplicate_ids += 1
        if report is not None:
            report.documents += 1
        if table is None:
            yield _document(doc_id, sentences, url)
        else:
            yield table.intern(s if isinstance(s, str) else s.text for s in sentences)


def document_to_obj(doc: Document) -> dict:
    """JSON-ready form of a (possibly annotated) document."""
    sentences = []
    for s in doc.sentences:
        obj: dict = {"text": s.text}
        if s.predicted_lang is not None:
            obj["lang"] = s.predicted_lang
            obj["cluster"] = s.predicted_cluster
        if s.confidence is not None:
            obj["confidence"] = s.confidence
        sentences.append(obj)
    out: dict = {"id": doc.id, "sentences": sentences}
    if doc.url is not None:
        out["url"] = doc.url
    return out


def write_annotated(docs: Iterable[Document], path: str | Path) -> None:
    """One annotated document per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(document_to_obj(doc), ensure_ascii=False) + "\n")


def read_annotated(path: str | Path) -> Iterator[Document]:
    """The documents `write_annotated` wrote, in file order. A malformed line
    raises ParseError; unlike strict `load_documents`, ids may repeat."""
    for line_no, line in read_lines(path):
        if line.strip():
            yield _document(*_parsed_at(line_no, line, path))


def _dedup(corpus: MonoCorpus, seen: set[str]) -> tuple[MonoCorpus, DedupReport]:
    """Drop sentences already in `seen`, adding the ones kept to it."""
    kept: list[str] = []
    for s in corpus.sentences:
        if s not in seen:
            seen.add(s)
            kept.append(s)
    before, after = len(corpus.sentences), len(kept)
    return corpus.advanced("dedup", kept), DedupReport(before, after, before / max(after, 1))


def dedup(corpus: MonoCorpus) -> tuple[MonoCorpus, DedupReport]:
    """Drop exact duplicates, keeping the first occurrence in order."""
    return _dedup(corpus, set())


def dedup_corpora(
    corpora: Mapping[str, MonoCorpus], scope: str = "per-language"
) -> tuple[dict[str, MonoCorpus], dict[str, DedupReport]]:
    """Dedup a set of per-language corpora.

    scope="per-language" dedups each corpus independently; scope="global"
    shares one seen-set across corpora, visited in sorted language order so
    the outcome does not depend on dict ordering.
    """
    if scope not in ("per-language", "global"):
        raise ValueError(f"unknown dedup scope: {scope!r}")
    out: dict[str, MonoCorpus] = {}
    reports: dict[str, DedupReport] = {}
    seen: set[str] = set()
    for lang in sorted(corpora):
        out[lang], reports[lang] = _dedup(corpora[lang], seen if scope == "global" else set())
    return out, reports


def corpus_stats(corpus: MonoCorpus) -> CorpusStats:
    """Sentence/token/char counts. Chars are Unicode scalar values; tokens are
    those of `filters.tokenize`."""
    n_sentences = len(corpus.sentences)
    n_tokens = int(corpus.table.lengths(corpus.sentences).sum())
    n_chars = sum(len(s) for s in corpus.sentences)
    return CorpusStats(n_sentences, n_tokens, n_chars, n_chars / max(n_sentences, 1))


def write_corpus(corpus: MonoCorpus, path: str | Path) -> None:
    """One UTF-8 sentence per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in corpus.sentences:
            fh.write(s + "\n")


def read_corpus(path: str | Path, lang: str, table: Optional[filters.TokenTable] = None) -> MonoCorpus:
    """The sentences `write_corpus` wrote, one a line, on `table` if given. A
    line that is not UTF-8 raises ParseError with the path and line."""
    sentences = [utf8(line_no, line, path) for line_no, line in read_lines(path)]
    return MonoCorpus.from_sentences(lang, sentences, "loaded", table)
