"""The filtering cascade that turns an annotated crawl into per-language corpora.

Stages, in pipeline order: document-consistency filtering at cluster level,
percent-threshold wordlist filtering, second-stage declustering that routes
on the languages of a (possibly different) predictor, TF-IIF filtering gated
by the relative recall rate, and hand-authored negative token filters. Only
`annotate_document` runs a predictor: the pipeline records the languages
decluster routes on at annotation.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

import numpy as np

# `corpus` imports this module for `TokenTable`, so its names are looked up
# when a function runs, not when the module loads.
from . import corpus as corpus_mod
from .clustering import ClusterMap
from .errors import (
    EmptyCorpus,
    EmptyDocument,
    MissingWordlist,
    ParseError,
    UnknownLanguage,
    WrongListKind,
    check_fields,
    read_json,
    read_lines,
    require,
    utf8,
)
from . import langid
from .langid import ConfusionMatrix, Predictor

if TYPE_CHECKING:
    from .corpus import Crawl, Document, MonoCorpus

T = TypeVar("T")

DEFAULT_DISTRACTORS = frozenset({"en", "de", "es", "hi", "id", "ar", "ru"})


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def _split_tokens(text: str, fold: bool) -> list[str]:
    out = []
    for tok in text.split():
        # no alphanumeric character is punctuation, so a token with
        # alphanumeric ends has nothing to strip
        if not (tok[0].isalnum() and tok[-1].isalnum()):
            tok = _strip_punct(tok)
            if not tok:
                continue
        out.append(tok.casefold() if fold else tok)
    return out


def tokenize(text: str) -> list[str]:
    """Whitespace split, edge punctuation stripped, case-folded.

    A text of alphanumeric characters and U+0020 alone has no punctuation to
    strip and no other whitespace, and case folding an alphanumeric
    character never gives whitespace, so its tokens are those of the folded
    text split at its spaces.
    """
    # the last character first: prose mostly ends a sentence with punctuation,
    # and that fails the test without copying the text
    if text[-1:].isalnum() and text.replace(" ", "").isalnum():
        return text.casefold().split()
    return _split_tokens(text, fold=True)


def _reserve(array: np.ndarray, size: int, fill: int = 0) -> np.ndarray:
    """`array` if it holds `size` items, else a copy at least twice as long,
    its new slots set to `fill`."""
    if size <= len(array):
        return array
    grown = np.full(max(size, 2 * len(array)), fill, array.dtype)
    grown[: len(array)] = array
    return grown


class TokenTable:
    """A run's sentence table: each distinct sentence's id, and its
    `tokenize` output as ids into one vocabulary, computed the first time a
    stage asks for it and stored end to end, so a stage gathers a corpus's
    tokens with numpy.

    Every `MonoCorpus` carries a table, and corpora derived from one another
    share it, so a sentence is tokenized once however many stages read its
    tokens. Only single-threaded stages fill a table.
    """

    def __init__(self) -> None:
        # token -> id and sentence -> id, each in id order: looking up a key
        # not seen before gives it the next id
        self.vocab: dict[str, int] = defaultdict(itertools.count().__next__)
        self.ids: dict[str, int] = defaultdict(itertools.count().__next__)
        # Each array has spare room at its end and doubles when it runs out,
        # so adding n sentences or tokens costs O(n) amortized.
        self._tokens = np.empty(0, np.intp)  # the token ids of every tokenized sentence, end to end
        self._used = 0  # how much of `_tokens` holds token ids
        self._start = np.empty(0, np.intp)  # by sentence id: where its token ids start in `_tokens`
        self._length = np.empty(0, np.intp)  # by sentence id: its token count, -1 until tokenized

    def intern(self, sentences: Iterable[str]) -> list[int]:
        """Each sentence's id, a new one the first time a sentence is seen."""
        return list(map(self.ids.__getitem__, sentences))

    def _tokenized(self, sentences: Sequence[str]) -> np.ndarray:
        """The sentences' ids, each sentence tokenized if it was not yet, in
        the order the new ones first occur."""
        ids = np.fromiter(map(self.ids.__getitem__, sentences), np.intp, len(sentences))
        self._start, self._length = _reserve(self._start, len(self.ids)), _reserve(self._length, len(self.ids), -1)
        new = np.flatnonzero(self._length[ids] < 0)
        new = new[np.sort(np.unique(ids[new], return_index=True)[1])]  # each new sentence's first position
        rows = [tokenize(sentences[i]) for i in new.tolist()]
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        self._start[ids[new]] = self._used + np.cumsum(lengths) - lengths
        self._length[ids[new]] = lengths
        end = self._used + int(lengths.sum())
        self._tokens = _reserve(self._tokens, end)
        tokens = map(self.vocab.__getitem__, itertools.chain.from_iterable(rows))
        self._tokens[self._used : end] = np.fromiter(tokens, np.intp, end - self._used)
        self._used = end
        return ids

    def lengths(self, sentences: Sequence[str]) -> np.ndarray:
        """Each sentence's token count."""
        ids = self._tokenized(sentences)  # before `_length` is read: it may grow
        return self._length[ids]

    def flat(self, sentences: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The sentences' token ids end to end, and each sentence's token count."""
        ids = self._tokenized(sentences)
        lengths = self._length[ids]
        ends = np.cumsum(lengths)
        # each token's place in `_tokens`: its sentence's start there, plus its place within the sentence
        at = np.repeat(self._start[ids] - (ends - lengths), lengths)
        at += np.arange(len(at))
        return self._tokens[at], lengths


@dataclass
class StageReport:
    """What one filter stage did to one corpus: {in, out, dropped_by_reason}."""

    stage: str
    n_in: int = 0
    n_out: int = 0
    dropped_by_reason: dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str) -> None:
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "in": self.n_in,
            "out": self.n_out,
            "dropped_by_reason": dict(sorted(self.dropped_by_reason.items())),
        }


@dataclass(frozen=True)
class WordList:
    """Ranked (token, score) list for one language."""

    lang: str
    kind: str  # "frequency" or "tfiif"
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("frequency", "tfiif"):
            raise ValueError(f"unknown wordlist kind: {self.kind!r}")
        scores = [s for _, s in self.entries]
        if any(map(math.isnan, scores)):  # NaN compares false both ways, hiding disorder
            raise ValueError("a score is NaN")
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("entries must be sorted by descending score")
        tokens = [t for t, _ in self.entries]
        if len(set(tokens)) != len(tokens):
            raise ValueError("tokens must be unique")

    @functools.cached_property
    def tokens(self) -> frozenset[str]:
        return frozenset(t for t, _ in self.entries)

    def save_tsv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token, score in self.entries:
                fh.write(f"{token}\t{score:g}\n")

    @classmethod
    def load_tsv(cls, path: str | Path, lang: str, kind: str) -> "WordList":
        """The list `save_tsv` wrote. A malformed line, a NaN score, scores
        out of order or a repeated token raise ParseError with the path."""
        entries = tuple(read_tsv_pairs(path, float))
        try:
            return cls(lang, kind, entries)
        except ValueError as exc:
            raise ParseError(None, str(exc), path) from exc


def read_tsv_pairs(path: str | Path, convert: Callable[[str], T]) -> Iterator[tuple[str, T]]:
    """(key, convert(value)) for each non-empty `key<TAB>value` line, split
    at the first tab: wordlists, IIF tables and labeled LangID data. A
    malformed line raises ParseError with the path and its line number."""
    for line_no, line in read_lines(path):
        if not line:
            continue
        try:
            key, value = utf8(line_no, line, path).split("\t", 1)
            parsed = convert(value)
        except ValueError as exc:
            raise ParseError(line_no, f"expected key<TAB>value: {exc}", path) from exc
        yield key, parsed


@dataclass
class Annotations:
    """Each text's language, that language's cluster, the confidence, and the
    language decluster routes the text on, by the text's position."""

    langs: list[str] = field(default_factory=list)
    clusters: list[int] = field(default_factory=list)
    confidences: list[float] = field(default_factory=list)
    routes: list[str] = field(default_factory=list)

    def extend(self, other: "Annotations") -> None:
        for name, values in vars(other).items():
            getattr(self, name).extend(values)


def annotate_document(
    texts: Sequence[str], predictor: Predictor, clusters: ClusterMap, decluster: Optional[Predictor] = None
) -> Annotations:
    """Annotate a document's texts, or any batch of them. A text's route is
    its language under `decluster`, predicted in the same call (two LangID
    models featurize the batch once for both), or without one its language."""
    if decluster is None:
        pairs = routed = predictor.predict_batch(texts)
    elif isinstance(predictor, langid.LangIdModel) and isinstance(decluster, langid.LangIdModel):
        pairs, routed = langid.predict_batch(predictor, texts, decluster)
    else:
        pairs, routed = predictor.predict_batch(texts), decluster.predict_batch(texts)
    langs = [lang for lang, _ in pairs]
    cluster_of = clusters.assignment
    unknown = next((lang for lang in langs if lang not in cluster_of), None)
    if unknown is not None:
        raise UnknownLanguage(f"predictor emitted unclustered language {unknown!r}")
    return Annotations(langs, [cluster_of[lang] for lang in langs], [c for _, c in pairs], [lang for lang, _ in routed])


def document_cluster(doc: Document) -> int:
    """The most-often predicted cluster; ties go to the smallest cluster id."""
    votes = Counter(
        s.predicted_cluster for s in doc.sentences if s.predicted_cluster is not None
    )
    if not votes:
        raise EmptyDocument(f"document {doc.id} has no annotated sentences")
    return min(votes, key=lambda cid: (-votes[cid], cid))


def consistency_score(doc: Document, sentence_index: int) -> float:
    """Fraction of the document sharing this sentence's predicted cluster."""
    if not 0 <= sentence_index < len(doc.sentences):
        raise IndexError(f"sentence index {sentence_index} out of range")
    target = doc.sentences[sentence_index].predicted_cluster
    if target is None:
        raise EmptyDocument(f"sentence {sentence_index} of {doc.id} is not annotated")
    same = sum(1 for s in doc.sentences if s.predicted_cluster == target)
    return same / len(doc.sentences)


def filter_doc_consistency(crawl: Crawl) -> tuple[dict[int, MonoCorpus], dict[str, StageReport]]:
    """Keep only sentences whose cluster matches their document's cluster,
    the one most of its sentences are in, ties going to the smallest
    cluster id (`document_cluster`).

    Output corpora are cluster-level, labeled ``cluster:<id>``, on the
    crawl's table, and so are the reports, in cluster-id order; they also
    cover clusters that never won a document majority. A sentence with a
    consistency score over 0.5 is in the strict majority and can never be
    dropped here.

    A refinement that would also keep minority sentences of genuinely
    multilingual pages (those below some consistency threshold) is a known
    extension point; it is deliberately not implemented, and a whole-document
    veto is applied instead.
    """
    labels, cids = np.unique(crawl.clusters, return_inverse=True)  # cluster ids as 0..k-1, in order
    width = max(len(labels), 1)
    doc = np.repeat(np.arange(len(crawl.starts) - 1), np.diff(crawl.starts))
    votes = np.unique(doc * width + cids, return_counts=True)  # (document, cluster) pairs and their counts
    ranked = votes[0][np.lexsort((votes[0], -votes[1], votes[0] // width))]
    winners = ranked[np.diff(ranked // width, prepend=-1) != 0]  # each document's first pair
    doc_cluster = np.full(len(crawl.starts) - 1, -1)
    doc_cluster[winners // width] = winners % width
    keep = cids == doc_cluster[doc]
    by_cluster = np.argsort(cids[keep], kind="stable")  # crawl order within a cluster
    kept = np.array(list(crawl.table.ids), dtype=object)[crawl.ids[keep][by_cluster]].tolist()
    n_kept = np.bincount(cids[keep], minlength=width).tolist()
    dropped = np.bincount(cids[~keep], minlength=width).tolist()
    out, reports, start = {}, {}, 0
    for k in np.flatnonzero(np.add(n_kept, dropped)).tolist():
        label = f"cluster:{labels[k]}"
        if n_kept[k]:
            sentences, start = kept[start : start + n_kept[k]], start + n_kept[k]
            out[int(labels[k])] = corpus_mod.MonoCorpus.from_sentences(label, sentences, "doc_consistency", crawl.table)
        rep = reports[label] = StageReport("doc_consistency", n_kept[k] + dropped[k], n_kept[k])
        if dropped[k]:
            rep.dropped_by_reason["cluster_mismatch"] = dropped[k]
    return out, reports


@dataclass(frozen=True)
class Histogram:
    bin_width: float
    counts: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"bin_width": self.bin_width, "counts": list(self.counts)}


def consistency_histogram(docs: Iterable[Document], bin_width: float = 0.1) -> Histogram:
    """Histogram of per-sentence consistency scores.

    Bins are [i*w, (i+1)*w), with the last bin closed so a score of 1.0 lands
    in it.
    """
    n_bins = max(1, math.ceil(round(1.0 / bin_width, 9)))
    counts = [0] * n_bins
    for doc in docs:
        for i in range(len(doc.sentences)):
            score = consistency_score(doc, i)
            # nudge avoids 0.3/0.1 -> 2.9999... misbinning
            idx = min(n_bins - 1, int(score / bin_width + 1e-9))
            counts[idx] += 1
    return Histogram(bin_width, tuple(counts))


def token_counts(corpus: MonoCorpus) -> dict[str, int]:
    """How often each token occurs over all the corpus's sentences, in no
    particular order; EmptyCorpus if none."""
    ids, _ = corpus.table.flat(corpus.sentences)
    if not len(ids):
        raise EmptyCorpus(f"no tokens in corpus for {corpus.lang}")
    counts = np.bincount(ids).tolist()  # the vocabulary lists its tokens in id order
    return dict(zip(itertools.compress(corpus.table.vocab, counts), filter(None, counts)))


def build_frequency_wordlist(train_corpus: MonoCorpus, top: int = 800) -> WordList:
    """Most frequent tokens of the corpus; ties broken lexicographically. A
    `top` below 1 is a ValueError."""
    require("top", top, top >= 1, "at least 1")
    ranked = sorted(token_counts(train_corpus).items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    return WordList(train_corpus.lang, "frequency", tuple((t, float(c)) for t, c in ranked))


def check_fraction(name: str, value: float) -> None:
    """ValueError, naming `name`, unless `value` is in [0, 1]."""
    require(name, value, 0 <= value <= 1, "a value in [0, 1]")


def check_rrr_options(rho: float, rrr_threshold: float, min_crawl_removed: float, min_recall: float) -> None:
    """ValueError, naming the option, unless `rrr_gate` can decide with these."""
    require("rho", rho, 0 < rho < math.inf, "a finite value above 0")
    require("rrr_threshold", rrr_threshold, 0 <= rrr_threshold < math.inf, "a finite value of at least 0")
    check_fraction("min_crawl_removed", min_crawl_removed)
    check_fraction("min_recall", min_recall)


def _keep_by_fraction(
    stage: str, corpus: MonoCorpus, token_sets: Sequence[frozenset[str]], threshold: float
) -> tuple[list[str], StageReport]:
    """The corpus's sentences with >= threshold of their tokens in at least
    one token set, and the report of `stage`. Sentences with no tokens at all
    are dropped and counted separately. A threshold outside [0, 1] is a
    ValueError.

    A sentence's in-list count is the rise of the running count of in-list
    tokens over its span; its fraction, that count over its length in
    float64, is the Python float division of the two.
    """
    check_fraction("threshold", threshold)
    ids, lengths = corpus.table.flat(corpus.sentences)
    vocab, ends = corpus.table.vocab, np.cumsum(lengths)
    keep = np.zeros(len(lengths), bool)
    for token_set in token_sets:
        in_set = np.zeros(len(vocab), bool)  # one flag per id
        in_set[[i for i in map(vocab.get, token_set) if i is not None]] = True
        in_list = np.zeros(len(ids) + 1, np.intp)
        np.cumsum(in_set[ids], out=in_list[1:])
        with np.errstate(invalid="ignore"):  # 0 / 0 of a sentence with no tokens compares false
            keep |= (in_list[ends] - in_list[ends - lengths]) / lengths >= threshold
    kept = list(itertools.compress(corpus.sentences, keep.tolist()))
    n_empty = int(np.count_nonzero(lengths == 0))
    drops = {"empty_tokens": n_empty, "below_threshold": len(lengths) - len(kept) - n_empty}
    return kept, StageReport(stage, len(lengths), len(kept), {reason: n for reason, n in drops.items() if n})


def filter_wordlist(
    corpus: MonoCorpus,
    lists: Mapping[str, WordList],
    threshold: float = 0.2,
) -> tuple[MonoCorpus, StageReport]:
    """Keep a sentence if it looks in-language for at least one cluster member.

    A sentence needs >= threshold of its tokens in some language's wordlist.
    Sentences with no tokens at all are dropped and counted separately.
    """
    if not lists:
        raise MissingWordlist(f"no wordlists supplied for {corpus.lang}")
    token_sets = [wl.tokens for _, wl in sorted(lists.items())]
    kept, report = _keep_by_fraction("wordlist", corpus, token_sets, threshold)
    return corpus.advanced("wordlist", kept), report


def decluster(
    cluster_corpora: Mapping[int, MonoCorpus],
    predicted: Sequence[str],
    clusters: Optional[ClusterMap],
) -> tuple[dict[str, MonoCorpus], dict[str, StageReport]]:
    """Split cluster corpora into per-language corpora: each sentence goes to
    `predicted[i]`, where i is its id in the corpora's one table.

    A sentence whose language falls outside its cluster is dropped, and
    counted in the report of its cluster corpus; the reports are in label
    order. With no cluster map every language is a member of every cluster:
    nothing is dropped, and only languages predicted at least once get a
    corpus. The output corpora share the table of the input corpora.
    """
    routed: dict[str, list[str]] = {}
    dropped: dict[str, int] = {}
    table = next((cluster_corpora[cid].table for cid in sorted(cluster_corpora)), None)
    for cid in sorted(cluster_corpora):
        corpus = cluster_corpora[cid]
        members = None if clusters is None else set(clusters.members.get(cid, ()))
        for lang in members or ():
            routed.setdefault(lang, [])
        for sentence, i in zip(corpus.sentences, table.intern(corpus.sentences)):
            lang = predicted[i]
            if members is None or lang in members:
                routed.setdefault(lang, []).append(sentence)
            else:
                dropped[corpus.lang] = dropped.get(corpus.lang, 0) + 1
    out = {lang: corpus_mod.MonoCorpus.from_sentences(lang, routed[lang], "decluster", table) for lang in sorted(routed)}
    reports = {lang: StageReport("decluster", len(kept), len(kept)) for lang, kept in routed.items()}
    for label, n in dropped.items():
        rep = reports.setdefault(label, StageReport("decluster"))
        rep.n_in += n
        rep.dropped_by_reason["out_of_cluster"] = n
    return out, dict(sorted(reports.items()))


@dataclass(frozen=True)
class IifTable:
    """Token -> open-web frequency, with the long tail clipped at rank kappa."""

    freqs: Mapping[str, int]
    kappa: int
    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:  # NaN too
            raise ValueError("alpha must be positive")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], kappa: int = 80000) -> "IifTable":
        if not counts:
            raise EmptyCorpus("internet frequency table is empty")
        if kappa < 1:
            raise ValueError("kappa must be >= 1")
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        # When the table is smaller than kappa, clip at the least common token.
        alpha = float(ranked[min(kappa, len(ranked)) - 1][1])
        return cls(dict(counts), kappa, alpha)

    def clipped_freq(self, token: str) -> float:
        return max(float(self.freqs.get(token, 0)), self.alpha)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            for token, count in sorted(self.freqs.items(), key=lambda kv: (-kv[1], kv[0])):
                fh.write(f"{token}\t{count}\n")
        with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
            json.dump({"kappa": self.kappa, "alpha": self.alpha}, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "IifTable":
        """The table `save` wrote: the TSV at `path` and its JSON sidecar."""
        path = Path(path)
        freqs = dict(read_tsv_pairs(path, int))
        sidecar = path.with_suffix(path.suffix + ".json")
        meta = read_json(sidecar, dict, "a {kappa, alpha} object")
        kappa, alpha = meta.get("kappa"), meta.get("alpha")
        if type(kappa) is not int or type(alpha) not in (int, float):
            message = f"expected an integer kappa and a numeric alpha, got {kappa!r} and {alpha!r}"
            raise ParseError(None, message, sidecar)
        try:
            return cls(freqs, kappa, float(alpha))
        except ValueError as exc:
            raise ParseError(None, str(exc), sidecar) from exc


def build_tfiif_wordlist(lang_corpus: MonoCorpus, iif: IifTable, tau: int = 1000) -> WordList:
    """Rank tokens by corpus frequency over clipped internet frequency and
    keep the `tau` best. A `tau` below 1 is a ValueError."""
    require("tau", tau, tau >= 1, "at least 1")
    counts = token_counts(lang_corpus)
    freqs = np.fromiter(map(iif.freqs.get, counts, itertools.repeat(0)), float, len(counts))
    scores = np.fromiter(counts.values(), float, len(counts)) / np.maximum(freqs, iif.alpha)  # `clipped_freq`
    ranked = sorted(zip((-scores).tolist(), counts))[:tau]
    return WordList(lang_corpus.lang, "tfiif", tuple((token, -score) for score, token in ranked))


def filter_tfiif(
    corpus: MonoCorpus,
    wordlist: WordList,
    threshold: float = 0.2,
) -> tuple[MonoCorpus, StageReport]:
    """Keep sentences with >= threshold of their tokens in the TF-IIF list."""
    if wordlist.kind != "tfiif":
        raise WrongListKind(f"expected a tfiif list, got {wordlist.kind!r}")
    kept, report = _keep_by_fraction("tfiif", corpus, [wordlist.tokens], threshold)
    return corpus.advanced("tfiif", kept), report


def survival_fraction(corpus: MonoCorpus, wordlist: WordList, threshold: float = 0.2) -> float:
    """Fraction of the corpus's sentences the TF-IIF filter would keep. Empty corpus -> 1.0."""
    if not corpus.sentences:
        return 1.0
    kept, _ = _keep_by_fraction("tfiif", corpus, [wordlist.tokens], threshold)
    return len(kept) / len(corpus.sentences)


def distractibility(
    cm: ConfusionMatrix,
    lang: str,
    distractors: frozenset[str] = DEFAULT_DISTRACTORS,
) -> float:
    """Worst false-discovery rate of any high-resource distractor toward lang."""
    cm.index(lang)  # raises UnknownLanguage
    present = [d for d in sorted(distractors) if d != lang and d in cm.languages]
    return max((cm.fdr(d, lang) for d in present), default=0.0)


@dataclass(frozen=True)
class RrrReport:
    lang: str
    r_gold: float
    r_crawl: float
    rho: float
    rrr: float
    apply_filter: bool
    reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "lang": self.lang,
            "r_gold": self.r_gold,
            "r_crawl": self.r_crawl,
            "rho": self.rho,
            "rrr": self.rrr,
            "apply_filter": self.apply_filter,
            "reasons": list(self.reasons),
        }


def rrr_gate(
    r_gold: float,
    r_crawl: float,
    rho: float = 2.0,
    rrr_threshold: float = 1.0,
    min_crawl_removed: float = 0.2,
    min_recall: float = 0.8,
    lang: str = "",
) -> RrrReport:
    """Decide whether TF-IIF filtering is worth applying to a language.

    Filter only when the relative recall rate exceeds the threshold, the
    filter would remove at least min_crawl_removed of the crawl, and the gold
    recall stays at or above min_recall. An input or option out of its
    range, NaN included, is a ValueError that names it.
    """
    check_fraction("r_gold", r_gold)
    check_fraction("r_crawl", r_crawl)
    check_rrr_options(rho, rrr_threshold, min_crawl_removed, min_recall)
    reasons = []
    if r_crawl > 0:
        rrr = r_gold**rho / r_crawl
    else:
        rrr = math.inf
        reasons.append("zero crawl survival; rrr undefined, reported as +inf")
    flagged = rrr > rrr_threshold
    removes_enough = r_crawl <= 1.0 - min_crawl_removed
    keeps_recall = r_gold >= min_recall
    reasons.append(f"rrr {rrr:.4g} {'>' if flagged else '<='} threshold {rrr_threshold:g}")
    reasons.append(
        f"crawl survival {r_crawl:.4g} {'<=' if removes_enough else '>'} {1.0 - min_crawl_removed:g}"
    )
    reasons.append(f"gold recall {r_gold:.4g} {'>=' if keeps_recall else '<'} {min_recall:g}")
    return RrrReport(
        lang=lang,
        r_gold=r_gold,
        r_crawl=r_crawl,
        rho=rho,
        rrr=rrr,
        apply_filter=flagged and removes_enough and keeps_recall,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class NegativeFilterRule:
    lang: str
    rule: str  # "substring" or "token"
    pattern: str
    case_sensitive: bool = False

    def __post_init__(self) -> None:
        check_fields(self, TypeError)
        if self.rule not in ("substring", "token"):
            raise ValueError(f"unknown rule kind: {self.rule!r}")
        if not self.pattern:
            raise ValueError("pattern must be non-empty")

    def hits(
        self, corpus: MonoCorpus, cased: Sequence[Sequence[str]], folded: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Whether the rule matches each of the corpus's sentences. A token
        rule reads `cased` if it is case-sensitive, each sentence's tokens
        without case folding, else `folded`: the ids in the corpus's table of
        all its sentences' `tokenize` tokens end to end, and each token's
        sentence."""
        if self.rule == "substring":
            pattern = self.pattern if self.case_sensitive else self.pattern.casefold()
            texts = corpus.sentences if self.case_sensitive else map(str.casefold, corpus.sentences)
            return np.fromiter((pattern in s for s in texts), bool, len(corpus.sentences))
        if self.case_sensitive:
            return np.fromiter((self.pattern in tokens for tokens in cased), bool, len(cased))
        ids, owner = folded
        hit = np.zeros(len(corpus.sentences), bool)
        hit[owner[ids == corpus.table.vocab.get(self.pattern.casefold(), -1)]] = True
        return hit


def load_negative_rules(path: str | Path) -> list[NegativeFilterRule]:
    """Rules from a JSON list of {lang, rule, pattern[, case_sensitive]}.
    Bad JSON raises ParseError with its line; a bad rule (a missing or
    unknown key, or a value of the wrong type), with its 0-based index in
    the list."""
    raw = read_json(path, list, "a list of rules")
    rules = []
    for index, obj in enumerate(raw):
        try:
            rules.append(NegativeFilterRule(**obj))
        except (TypeError, ValueError) as exc:
            raise ParseError(None, f"rule {index}: {exc}", path) from exc
    return rules


def negative_filter(corpus: MonoCorpus, rules: Sequence[NegativeFilterRule]) -> tuple[MonoCorpus, StageReport]:
    """Drop any sentence matched by one of the hand-authored rules; the
    report counts each drop under the first rule that matched."""
    for rule in rules:
        if rule.lang != corpus.lang:
            raise ValueError(f"rule for {rule.lang!r} applied to corpus {corpus.lang!r}")
    report = StageReport("negative", n_in=len(corpus.sentences))
    # each kind of token only if a rule reads it
    cased = any(r.rule == "token" and r.case_sensitive for r in rules)
    cased_rows = [_split_tokens(s, fold=False) for s in corpus.sentences] if cased else []
    folded = (np.empty(0, np.intp), np.empty(0, np.intp))
    if any(r.rule == "token" and not r.case_sensitive for r in rules):
        ids, lengths = corpus.table.flat(corpus.sentences)
        folded = ids, np.repeat(np.arange(len(lengths)), lengths)
    first = np.full(len(corpus.sentences), -1)  # each sentence's first matching rule, -1 if none
    for k in reversed(range(len(rules))):
        first[rules[k].hits(corpus, cased_rows, folded)] = k
    kept = list(itertools.compress(corpus.sentences, (first < 0).tolist()))
    for k in first[first >= 0].tolist():
        report.drop(f"{rules[k].rule}:{rules[k].pattern}")
    report.n_out = len(kept)
    return corpus.advanced("negative", kept), report
