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
from .langid import ConfusionMatrix, Predictor

if TYPE_CHECKING:
    from .corpus import Document, MonoCorpus

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
    """Whitespace split, edge punctuation stripped, case-folded."""
    return _split_tokens(text, fold=True)


class TokenTable:
    """Each distinct sentence's `tokenize` output as ids into one vocabulary,
    computed the first time a stage asks for it.

    Every `MonoCorpus` carries a table, and corpora derived from one another
    share it, so a sentence is tokenized once however many stages read its
    tokens. Only single-threaded stages fill a table.
    """

    def __init__(self) -> None:
        # token -> id, in id order: looking up a token not seen before gives it the next id
        self.vocab: dict[str, int] = defaultdict(itertools.count().__next__)
        self._rows: dict[str, list[int]] = {}  # sentence -> its token ids

    def rows(self, sentences: Sequence[str]) -> list[list[int]]:
        """Each sentence's token ids, as the table's own lists: read them only."""
        known, token_id = self._rows, self.vocab.__getitem__
        for sentence in sentences:
            if sentence not in known:
                # a list: tuples grown from an iterator, then shrunk in place, raised peak RSS
                known[sentence] = [*map(token_id, tokenize(sentence))]
        return list(map(known.__getitem__, sentences))

    def flat(self, sentences: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The sentences' token ids end to end, and each sentence's token count."""
        rows = self.rows(sentences)
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        return np.fromiter(itertools.chain.from_iterable(rows), np.intp, int(lengths.sum())), lengths


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


def annotate_document(doc: Document, predictor: Predictor, clusters: ClusterMap) -> Document:
    """Attach a language, cluster, and confidence to every sentence."""
    predictions = predictor.predict_batch(doc.texts)
    annotated = []
    for record, (lang, confidence) in zip(doc.sentences, predictions):
        if lang not in clusters.assignment:
            raise UnknownLanguage(f"predictor emitted unclustered language {lang!r}")
        annotated.append(
            corpus_mod.SentenceRecord(
                text=record.text,
                predicted_lang=lang,
                predicted_cluster=clusters.cluster_of(lang),
                confidence=confidence,
            )
        )
    return corpus_mod.Document(doc.id, tuple(annotated), url=doc.url)


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


def filter_doc_consistency(
    docs: Iterable[Document],
) -> tuple[dict[int, MonoCorpus], dict[str, StageReport]]:
    """Keep only sentences whose cluster matches their document's cluster.

    Output corpora are cluster-level, labeled ``cluster:<id>``, and so are
    the reports, in cluster-id order; they also cover clusters that never
    won a document majority. A sentence with a consistency score over 0.5 is
    in the strict majority and can never be dropped here.

    A refinement that would also keep minority sentences of genuinely
    multilingual pages (those below some consistency threshold) is a known
    extension point; it is deliberately not implemented, and a whole-document
    veto is applied instead.
    """
    kept: dict[int, list[str]] = {}
    dropped: dict[int, int] = {}
    for doc in docs:
        if not doc.sentences:
            continue
        doc_cid = document_cluster(doc)
        kept.setdefault(doc_cid, [])
        for i, record in enumerate(doc.sentences):
            cid = record.predicted_cluster
            if cid == doc_cid:
                kept[doc_cid].append(record.text)
            elif cid is None:
                raise EmptyDocument(f"sentence {i} of {doc.id} is not annotated")
            else:
                dropped[cid] = dropped.get(cid, 0) + 1
    table = TokenTable()
    out = {
        cid: corpus_mod.MonoCorpus.from_sentences(f"cluster:{cid}", kept[cid], "doc_consistency", table)
        for cid in sorted(kept)
    }
    reports = {}
    for cid in sorted(set(kept) | set(dropped)):
        n_kept = len(kept.get(cid, ()))
        rep = reports[f"cluster:{cid}"] = StageReport("doc_consistency", n_kept + dropped.get(cid, 0), n_kept)
        if dropped.get(cid):
            rep.dropped_by_reason["cluster_mismatch"] = dropped[cid]
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
    predicted: Mapping[str, str],
    clusters: Optional[ClusterMap],
) -> tuple[dict[str, MonoCorpus], dict[str, StageReport]]:
    """Split cluster corpora into per-language corpora: each sentence goes to
    its language in `predicted`, which must hold every sentence.

    A sentence whose language falls outside its cluster is dropped, and
    counted in the report of its cluster corpus; the reports are in label
    order. With no cluster map every language is a member of every cluster:
    nothing is dropped, and only languages predicted at least once get a
    corpus. The output corpora share the token table of the first input
    corpus.
    """
    routed: dict[str, list[str]] = {}
    dropped: dict[str, int] = {}
    for cid in sorted(cluster_corpora):
        corpus = cluster_corpora[cid]
        members = None if clusters is None else set(clusters.members.get(cid, ()))
        for lang in members or ():
            routed.setdefault(lang, [])
        for sentence in corpus.sentences:
            lang = predicted[sentence]
            if members is None or lang in members:
                routed.setdefault(lang, []).append(sentence)
            else:
                dropped[corpus.lang] = dropped.get(corpus.lang, 0) + 1
    table = next((cluster_corpora[cid].table for cid in sorted(cluster_corpora)), None)
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
        if self.alpha <= 0:
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
    scored = [(token, count / iif.clipped_freq(token)) for token, count in counts.items()]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return WordList(lang_corpus.lang, "tfiif", tuple(scored[:tau]))


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

    def matches(self, sentence: str, ids: Sequence[int], cased: Sequence[str], vocab: Mapping[str, int]) -> bool:
        """`ids` are the ids in `vocab` of the sentence's tokens as `tokenize`
        gives them, and `cased` the same tokens without case folding; a rule
        reads only the one its kind needs."""
        if self.rule == "substring":
            if self.case_sensitive:
                return self.pattern in sentence
            return self.pattern.casefold() in sentence.casefold()
        if self.case_sensitive:
            return self.pattern in cased
        return vocab.get(self.pattern.casefold()) in ids


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
    folded = any(r.rule == "token" and not r.case_sensitive for r in rules)
    cased = any(r.rule == "token" and r.case_sensitive for r in rules)
    # token ids only if a rule reads them
    rows = corpus.table.rows(corpus.sentences) if folded else itertools.repeat(())
    vocab = corpus.table.vocab
    kept = []
    for sentence, token_ids in zip(corpus.sentences, rows):
        cased_tokens = _split_tokens(sentence, fold=False) if cased else ()
        hit = next((r for r in rules if r.matches(sentence, token_ids, cased_tokens, vocab)), None)
        if hit is None:
            kept.append(sentence)
        else:
            report.drop(f"{hit.rule}:{hit.pattern}")
    report.n_out = len(kept)
    return corpus.advanced("negative", kept), report
