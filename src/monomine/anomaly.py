"""Token-distribution anomaly detection for mined corpora.

Compares the crawled corpus's token distribution against a reference (the
LangID training data): vocabulary overlap of the heads plus closeness of the
head frequencies, combined with a harmonic mean. Very low scores point to
templated or polluted data; very high scores usually mean the crawl merely
recovered the training data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .corpus import MonoCorpus
from .errors import require
from .filters import token_counts

SUSPICIOUS_HARMONIC = 0.70
SUSPICIOUS_MIN_SENTENCES = 20000
TRAINING_ECHO_HARMONIC = 0.97


@dataclass(frozen=True)
class TokenDistribution:
    """Head of a relative-frequency token distribution, sorted descending."""

    lang: str
    entries: tuple[tuple[str, float], ...]

    def freq(self, token: str) -> float:
        for t, f in self.entries:
            if t == token:
                return f
        return 0.0

    @property
    def tokens(self) -> list[str]:
        return [t for t, _ in self.entries]


def token_distribution(corpus: MonoCorpus, top_n: int = 40) -> TokenDistribution:
    """Relative frequencies over the whole token stream; keep the top_n head.
    A `top_n` below 1 is a ValueError."""
    require("top_n", top_n, top_n >= 1, "at least 1")
    counts = token_counts(corpus)
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    return TokenDistribution(corpus.lang, tuple((t, c / total) for t, c in ranked))


def two_n_overlap(empirical: TokenDistribution, reference: TokenDistribution) -> float:
    """Share of the empirical top N found in the reference top 2N."""
    n = len(empirical.entries)
    if n == 0:
        return 0.0
    ref_head = {t for t, _ in reference.entries[: 2 * n]}
    return sum(1 for t in empirical.tokens if t in ref_head) / n


def euclidean_similarity(
    empirical: TokenDistribution, reference: TokenDistribution, top_n: int = 40
) -> float:
    """1 minus the Euclidean gap between head frequencies, floored at 0.

    Reference frequencies are looked up in the reference head; tokens it does
    not list count as 0.
    """
    gap = 0.0
    for token, freq in empirical.entries[:top_n]:
        gap += (freq - reference.freq(token)) ** 2
    return max(0.0, 1.0 - math.sqrt(gap))


def harmonic_mean(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


@dataclass(frozen=True)
class AnomalyReport:
    lang: str
    overlap_2n: float
    euclid_sim: float
    harmonic: float
    n_sentences: int
    flags: frozenset[str]

    @classmethod
    def from_scores(
        cls, lang: str, overlap_2n: float, euclid_sim: float, n_sentences: int
    ) -> "AnomalyReport":
        harmonic = harmonic_mean(overlap_2n, euclid_sim)
        flags = set()
        if harmonic < SUSPICIOUS_HARMONIC and n_sentences > SUSPICIOUS_MIN_SENTENCES:
            flags.add("suspicious_low")
        if harmonic > TRAINING_ECHO_HARMONIC:
            flags.add("training_echo")
        return cls(lang, overlap_2n, euclid_sim, harmonic, n_sentences, frozenset(flags))

    def to_dict(self) -> dict:
        return {
            "lang": self.lang,
            "overlap_2n": self.overlap_2n,
            "euclid_sim": self.euclid_sim,
            "harmonic": self.harmonic,
            "n_sentences": self.n_sentences,
            "flags": sorted(self.flags),
        }


def anomaly_report(
    corpus: MonoCorpus, reference_corpus: MonoCorpus, n: int = 40
) -> AnomalyReport:
    """Score one corpus against its reference and flag the extremes."""
    empirical = token_distribution(corpus, top_n=n)
    reference = token_distribution(reference_corpus, top_n=2 * n)
    overlap = two_n_overlap(empirical, reference)
    euclid = euclidean_similarity(empirical, reference, top_n=n)
    return AnomalyReport.from_scores(corpus.lang, overlap, euclid, len(corpus.sentences))


def reports_to_tsv(reports: Iterable[AnomalyReport]) -> str:
    """One line per language, ranked by harmonic score ascending (worst first)."""
    lines = ["lang\tharmonic\toverlap_2n\teuclid_sim\tn_sentences\tflags"]
    for rep in sorted(reports, key=lambda r: (r.harmonic, r.lang)):
        flags = ",".join(sorted(rep.flags))
        lines.append(
            f"{rep.lang}\t{rep.harmonic:.6f}\t{rep.overlap_2n:.6f}\t{rep.euclid_sim:.6f}"
            f"\t{rep.n_sentences}\t{flags}"
        )
    return "\n".join(lines) + "\n"
