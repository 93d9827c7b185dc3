import math
import random
from collections import Counter

import pytest

from monomine.anomaly import (
    AnomalyReport,
    TokenDistribution,
    anomaly_report,
    euclidean_similarity,
    harmonic_mean,
    reports_to_tsv,
    token_distribution,
    two_n_overlap,
)
from monomine.corpus import MonoCorpus
from monomine.errors import EmptyCorpus


def dist_from_pairs(pairs, lang="xx"):
    return TokenDistribution(lang, tuple(pairs))


class TestTokenDistribution:
    def test_basic(self):
        corpus = MonoCorpus.from_sentences("xx", ["a a b"])
        dist = token_distribution(corpus)
        assert dist.entries == (("a", pytest.approx(2 / 3)), ("b", pytest.approx(1 / 3)))

    def test_top_n_beyond_vocab(self):
        corpus = MonoCorpus.from_sentences("xx", ["a b c"])
        assert len(token_distribution(corpus, top_n=40).entries) == 3

    @pytest.mark.parametrize("top_n", [0, -2])
    def test_top_n_below_1_is_rejected(self, top_n):
        corpus = MonoCorpus.from_sentences("xx", ["a a b c d"])
        with pytest.raises(ValueError, match=f"top_n: expected at least 1, got {top_n}"):
            token_distribution(corpus, top_n=top_n)

    def test_relative_to_full_stream(self):
        # truncation keeps frequencies relative to ALL tokens, not the head
        corpus = MonoCorpus.from_sentences("xx", ["a a a b c d"])
        dist = token_distribution(corpus, top_n=1)
        assert dist.entries == (("a", pytest.approx(0.5)),)

    def test_matches_counting_oracle(self):
        rng = random.Random(8)
        vocab = [f"w{i}" for i in range(50)]
        weights = [1 / (i + 1) for i in range(50)]
        sentences = [" ".join(rng.choices(vocab, weights=weights, k=7)) for _ in range(150)]
        dist = token_distribution(MonoCorpus.from_sentences("xx", sentences), top_n=20)
        counts = Counter(t for s in sentences for t in s.split())
        total = sum(counts.values())
        expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
        assert [(t, pytest.approx(c / total)) for t, c in expected] == list(dist.entries)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            token_distribution(MonoCorpus.from_sentences("xx", []))


class TestTwoNOverlap:
    def test_identical(self):
        d = dist_from_pairs([("a", 0.5), ("b", 0.5)])
        assert two_n_overlap(d, d) == 1.0

    def test_disjoint(self):
        emp = dist_from_pairs([("a", 0.5), ("b", 0.5)])
        ref = dist_from_pairs([("x", 0.5), ("y", 0.5)])
        assert two_n_overlap(emp, ref) == 0.0

    def test_half_present(self):
        emp = dist_from_pairs([("a", 0.3), ("b", 0.3), ("c", 0.2), ("d", 0.2)])
        ref = dist_from_pairs([("a", 0.1), ("b", 0.1)] + [(f"r{i}", 0.1) for i in range(8)])
        assert two_n_overlap(emp, ref) == 0.5

    def test_reference_window_is_2n(self):
        # token present in reference but outside the top 2N does not count
        emp = dist_from_pairs([("z", 1.0)])
        ref = dist_from_pairs([("a", 0.5), ("b", 0.3), ("z", 0.2)])
        assert two_n_overlap(emp, ref) == 0.0


class TestEuclideanSimilarity:
    def test_identical(self):
        d = dist_from_pairs([("a", 0.6), ("b", 0.4)])
        assert euclidean_similarity(d, d) == 1.0

    def test_single_divergent_token(self):
        emp = dist_from_pairs([("x", 1.0)])
        ref = dist_from_pairs([("y", 1.0)])
        assert euclidean_similarity(emp, ref) == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = random.Random(9)
        emp_tokens = [f"t{i}" for i in range(40)]
        ref_tokens = emp_tokens[:20] + [f"r{i}" for i in range(60)]
        emp_freqs = [rng.random() for _ in emp_tokens]
        emp_freqs = [f / sum(emp_freqs) for f in emp_freqs]
        ref_freqs = [rng.random() for _ in ref_tokens]
        ref_freqs = [f / sum(ref_freqs) for f in ref_freqs]
        emp = dist_from_pairs(sorted(zip(emp_tokens, emp_freqs), key=lambda kv: -kv[1]))
        ref = dist_from_pairs(sorted(zip(ref_tokens, ref_freqs), key=lambda kv: -kv[1]))
        ref_lookup = dict(zip(ref_tokens, ref_freqs))
        gap = 0.0
        for token, freq in emp.entries:
            gap += (freq - ref_lookup.get(token, 0.0)) ** 2
        expected = max(0.0, 1.0 - math.sqrt(gap))
        assert euclidean_similarity(emp, ref) == pytest.approx(expected, abs=1e-12)

    def test_clipped_at_zero(self):
        emp = dist_from_pairs([("x", 1.0), ("y", 1.0)])  # not normalized, forces d > 1
        ref = dist_from_pairs([("z", 1.0)])
        assert euclidean_similarity(emp, ref) == 0.0


class TestHarmonic:
    def test_zero_if_either_zero(self):
        assert harmonic_mean(1.0, 0.0) == 0.0
        assert harmonic_mean(0.0, 1.0) == 0.0

    def test_formula(self):
        assert harmonic_mean(0.8, 0.6) == pytest.approx(2 * 0.8 * 0.6 / 1.4)

    def test_bounded_between_min_and_max(self):
        # the harmonic mean of two positives sits in [min, max]
        rng = random.Random(10)
        for _ in range(100):
            a, b = rng.random(), rng.random()
            h = harmonic_mean(a, b)
            assert min(a, b) - 1e-12 <= h <= max(a, b) + 1e-12


class TestAnomalyReport:
    def test_self_comparison_is_training_echo(self):
        corpus = MonoCorpus.from_sentences("xx", ["a b c d e f"] * 10)
        report = anomaly_report(corpus, corpus)
        assert report.overlap_2n == 1.0
        assert report.euclid_sim == 1.0
        assert report.harmonic == 1.0
        assert report.flags == frozenset({"training_echo"})

    def test_zero_component_zeroes_harmonic(self):
        report = AnomalyReport.from_scores("xx", 1.0, 0.0, 25000)
        assert report.harmonic == 0.0
        assert "suspicious_low" in report.flags

    def test_forced_example_flags_suspicious(self):
        report = AnomalyReport.from_scores("xx", 0.8, 0.6, 25000)
        assert report.harmonic == pytest.approx(0.6857142857142857, abs=1e-9)
        assert report.flags == frozenset({"suspicious_low"})

    def test_small_corpus_not_flagged(self):
        report = AnomalyReport.from_scores("xx", 0.8, 0.6, 19999)
        assert report.flags == frozenset()

    def test_component_scores_in_range(self):
        rng = random.Random(11)
        vocab_a = [f"a{i}" for i in range(30)]
        vocab_b = [f"b{i}" for i in range(30)]
        corpus = MonoCorpus.from_sentences(
            "xx", [" ".join(rng.choices(vocab_a + vocab_b, k=6)) for _ in range(50)]
        )
        reference = MonoCorpus.from_sentences(
            "xx", [" ".join(rng.choices(vocab_a, k=6)) for _ in range(50)]
        )
        report = anomaly_report(corpus, reference)
        assert 0.0 <= report.overlap_2n <= 1.0
        assert 0.0 <= report.euclid_sim <= 1.0
        assert 0.0 <= report.harmonic <= max(report.overlap_2n, report.euclid_sim) + 1e-12

    def test_duplication_invariance(self):
        rng = random.Random(12)
        sentences = [" ".join(rng.choices(["u", "v", "w", "y"], k=5)) for _ in range(30)]
        reference = MonoCorpus.from_sentences(
            "xx", [" ".join(rng.choices(["u", "v", "w", "z"], k=5)) for _ in range(30)]
        )
        once = anomaly_report(MonoCorpus.from_sentences("xx", sentences), reference)
        thrice = anomaly_report(MonoCorpus.from_sentences("xx", sentences * 3), reference)
        assert once.overlap_2n == thrice.overlap_2n
        assert once.euclid_sim == pytest.approx(thrice.euclid_sim, abs=1e-12)

    def test_tsv_ranking(self):
        reports = [
            AnomalyReport.from_scores("good", 0.9, 0.95, 100),
            AnomalyReport.from_scores("bad", 0.3, 0.4, 30000),
        ]
        tsv = reports_to_tsv(reports)
        lines = tsv.strip().split("\n")
        assert lines[0].startswith("lang\t")
        assert lines[1].startswith("bad\t")  # worst first
        assert "suspicious_low" in lines[1]
