"""Translation and corpus quality metrics.

ChrF here is the character-level F-beta with max order 6, beta 2, whitespace
removed, mixed case, and effective-order handling (orders with no hypothesis
or no reference n-grams are skipped). Corpus scores aggregate per-segment
n-gram statistics before computing the F-score.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from .errors import InvalidBoundaries, InvalidFractions, LengthMismatch
from .filters import tokenize
from .langid import Predictor

logger = logging.getLogger(__name__)

# the sacreBLEU chrF signature nc:6, nw:0, beta 2, eff:yes, space:no, nrefs:1
CHAR_ORDER = 6
BETA = 2.0


def _char_ngrams(segment: str, n: int) -> Counter:
    return Counter(segment[i : i + n] for i in range(len(segment) - n + 1))


def segment_statistics(hypothesis: str, reference: str) -> list[int]:
    """Flat [n_hyp, n_ref, n_match] per order 1..CHAR_ORDER."""
    hyp = "".join(hypothesis.split())
    ref = "".join(reference.split())
    stats: list[int] = []
    for n in range(1, CHAR_ORDER + 1):
        hyp_ngrams = _char_ngrams(hyp, n)
        ref_ngrams = _char_ngrams(ref, n)
        match = sum(min(count, ref_ngrams[ng]) for ng, count in hyp_ngrams.items() if ng in ref_ngrams)
        stats.extend([sum(hyp_ngrams.values()), sum(ref_ngrams.values()), match])
    return stats


def fscore_from_statistics(stats: Sequence[int]) -> float:
    """F-beta over per-order precision/recall averages, on the 0-100 scale."""
    factor = BETA**2
    avg_prec = avg_rec = 0.0
    effective = 0
    for i in range(0, len(stats), 3):
        n_hyp, n_ref, n_match = stats[i : i + 3]
        if n_hyp > 0 and n_ref > 0:
            avg_prec += n_match / n_hyp
            avg_rec += n_match / n_ref
            effective += 1
    if effective == 0:
        return 0.0
    avg_prec /= effective
    avg_rec /= effective
    if avg_prec + avg_rec == 0.0:
        return 0.0
    return 100.0 * (1 + factor) * avg_prec * avg_rec / (factor * avg_prec + avg_rec)


def chrf(hypothesis: str, references: Sequence[str]) -> float:
    """Sentence-level ChrF against a single reference."""
    if len(references) != 1:
        raise ValueError("exactly one reference is supported (nrefs:1)")
    return fscore_from_statistics(segment_statistics(hypothesis, references[0]))


def corpus_chrf(hypotheses: Sequence[str], references: Sequence[str]) -> float:
    """Corpus-level ChrF: per-segment statistics summed, then one F-score."""
    if len(hypotheses) != len(references):
        raise LengthMismatch(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    totals = [0] * (3 * CHAR_ORDER)
    for hyp, ref in zip(hypotheses, references):
        for i, v in enumerate(segment_statistics(hyp, ref)):
            totals[i] += v
    return fscore_from_statistics(totals)


def scaled_chrf(chrf_01: float) -> float:
    """0.75 * ChrF - 0.15 on the 0-1 scale, clipped at zero."""
    if not 0.0 <= chrf_01 <= 1.0:
        raise ValueError("scaled_chrf expects a ChrF value on the 0-1 scale")
    value = 0.75 * chrf_01 - 0.15
    # snap representation dust at the zero crossing (e.g. input 0.2)
    return value if value > 1e-12 else 0.0


DEFAULT_BIN_BOUNDARIES = (0, 125, 500, 2000, 8000, 12800)


@dataclass(frozen=True)
class FrequencyBins:
    """Token-frequency bands over the head of an open-domain ranking."""

    ranked_tokens: tuple[str, ...]
    boundaries: tuple[int, ...]

    @property
    def n_bins(self) -> int:
        return len(self.boundaries) - 1

    def bin_tokens(self, i: int) -> frozenset[str]:
        return frozenset(self.ranked_tokens[self.boundaries[i] : self.boundaries[i + 1]])


def build_bins(
    token_ranking: Sequence[str], boundaries: Sequence[int] = DEFAULT_BIN_BOUNDARIES
) -> FrequencyBins:
    """Slice a frequency-ranked token list into bands."""
    bounds = tuple(boundaries)
    if len(bounds) < 2 or bounds[0] != 0 or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise InvalidBoundaries(f"boundaries must strictly increase from 0, got {bounds}")
    if len(token_ranking) < bounds[-1]:
        logger.warning(
            "token ranking has %d entries, short of the last boundary %d; bins truncated",
            len(token_ranking),
            bounds[-1],
        )
    return FrequencyBins(tuple(token_ranking), bounds)


def hit_rate(
    hypotheses: Sequence[str], references: Sequence[str], bin_tokens: frozenset[str] | set[str]
) -> Optional[float]:
    """Share of in-bin reference tokens the hypotheses reproduce.

    Hits for a token are capped at its count in the reference sentence. When
    no reference contains a bin token the score is undefined (None).
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    numerator = 0
    denominator = 0
    for hyp, ref in zip(hypotheses, references):
        ref_counts = Counter(tokenize(ref))
        hyp_counts = Counter(tokenize(hyp))
        for token, count in ref_counts.items():
            if token in bin_tokens:
                denominator += count
                numerator += min(hyp_counts[token], count)
    if denominator == 0:
        return None
    return numerator / denominator


class Translator(Protocol):
    """Anything that translates a batch of texts from `source` to `target`:
    one translation per text, in order. A failure is a TranslatorError for
    the whole batch."""

    def translate_batch(self, texts: Sequence[str], source: str, target: str) -> list[str]: ...


@dataclass(frozen=True)
class RttResult:
    lang: str
    mode: str  # "loose" or "strict"
    score: Optional[float]  # None when invalid
    valid_fraction: float

    @property
    def invalid(self) -> bool:
        return self.score is None

    def to_dict(self) -> dict:
        return {
            "lang": self.lang,
            "mode": self.mode,
            "score": self.score,
            "valid_fraction": self.valid_fraction,
            "invalid": self.invalid,
        }


# sources are translated out of and back into the pivot language
RTT_PIVOT = "en"
# below this share of intermediates LangID accepts, a language gets no score
RTT_MIN_VALID_FRACTION = 0.10


def rtt_langid_chrf(
    source_corpus: Sequence[str], lang: str, translator: Translator, predictor: Predictor, mode: str = "loose"
) -> RttResult:
    """Round-trip ChrF, counting only trips whose intermediate passes LangID.

    The strict variant multiplies the loose score by the fraction of
    intermediates assigned the correct language. Every source is translated
    in one batch, all intermediates are predicted in one batch, and, unless
    too few pass, the valid ones are translated back in one batch: at most
    two translator calls. A TranslatorError propagates: a failed batch is a
    failed run, not a language LangID rejects.
    """
    if mode not in ("loose", "strict"):
        raise ValueError(f"unknown mode: {mode!r}")
    intermediates = translator.translate_batch(source_corpus, RTT_PIVOT, lang)
    if len(intermediates) != len(source_corpus):
        raise LengthMismatch(f"{len(intermediates)} translations of {len(source_corpus)} sources")
    predictions = predictor.predict_batch(intermediates)
    kept = [
        (source, mid)
        for source, mid, (predicted, _) in zip(source_corpus, intermediates, predictions)
        if predicted == lang
    ]
    valid_fraction = len(kept) / len(source_corpus) if source_corpus else 0.0
    if valid_fraction < RTT_MIN_VALID_FRACTION:
        return RttResult(lang, mode, None, valid_fraction)
    originals = [source for source, _ in kept]
    round_trips = translator.translate_batch([mid for _, mid in kept], lang, RTT_PIVOT)
    loose = corpus_chrf(round_trips, originals)
    score = loose if mode == "loose" else loose * valid_fraction
    return RttResult(lang, mode, score, valid_fraction)


@dataclass(frozen=True)
class AuditLabels:
    """Fractions of an audited sample by label: correct, correct-low-quality,
    correct-ambiguous-dialect, correct-wrong-dialect."""

    cc: float
    cb: float = 0.0
    ca: float = 0.0
    wd: float = 0.0


def audit_score(labels: AuditLabels) -> float:
    """Weighted usable-data estimate: cc + 0.5 cb + 0.3 ca + 0.2 wd."""
    values = (labels.cc, labels.cb, labels.ca, labels.wd)
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise InvalidFractions("label fractions must lie in [0, 1]")
    if sum(values) > 1.0 + 1e-9:
        raise InvalidFractions("label fractions must sum to at most 1")
    return 1.0 * labels.cc + 0.5 * labels.cb + 0.3 * labels.ca + 0.2 * labels.wd
