import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from monomine.errors import (
    InvalidBoundaries,
    InvalidFractions,
    LengthMismatch,
    TranslatorError,
)
from monomine.metrics import (
    AuditLabels,
    RttResult,
    audit_score,
    build_bins,
    chrf,
    corpus_chrf,
    hit_rate,
    rtt_langid_chrf,
    scaled_chrf,
)

# ---------------------------------------------------------------------------
# Clean-room scorer for the cited ChrF signature (case:mixed, eff:yes, nc:6,
# nw:0, space:no, beta=2). Written directly from the published semantics with
# its own structure: per-order precision/recall lists, dict-based n-grams.


def oracle_segment_prf(hyp: str, ref: str, max_order: int = 6):
    hyp = "".join(hyp.split())
    ref = "".join(ref.split())
    rows = []
    for n in range(1, max_order + 1):
        hgrams: dict[str, int] = {}
        for i in range(len(hyp) - n + 1):
            g = hyp[i : i + n]
            hgrams[g] = hgrams.get(g, 0) + 1
        rgrams: dict[str, int] = {}
        for i in range(len(ref) - n + 1):
            g = ref[i : i + n]
            rgrams[g] = rgrams.get(g, 0) + 1
        overlap = 0
        for g, c in hgrams.items():
            overlap += min(c, rgrams.get(g, 0))
        rows.append((sum(hgrams.values()), sum(rgrams.values()), overlap))
    return rows


def oracle_fbeta(rows, beta: float = 2.0) -> float:
    precisions = []
    recalls = []
    for n_hyp, n_ref, overlap in rows:
        if n_hyp > 0 and n_ref > 0:
            precisions.append(overlap / n_hyp)
            recalls.append(overlap / n_ref)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0.0:
        return 0.0
    b2 = beta * beta
    return 100.0 * (1 + b2) * p * r / (b2 * p + r)


def oracle_sentence_chrf(hyp: str, ref: str) -> float:
    return oracle_fbeta(oracle_segment_prf(hyp, ref))


def oracle_corpus_chrf(hyps, refs) -> float:
    totals = [(0, 0, 0)] * 6
    for h, r in zip(hyps, refs):
        totals = [
            (a + x, b + y, c + z) for (a, b, c), (x, y, z) in zip(totals, oracle_segment_prf(h, r))
        ]
    return oracle_fbeta(totals)


def random_pairs(n, seed):
    rng = random.Random(seed)
    alphabets = ["abcdefg ", "abc ", "αβγδε ", "котик ", "xy", "a"]
    pairs = []
    for _ in range(n):
        alphabet = rng.choice(alphabets)
        hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 50)))
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 50)))
        pairs.append((hyp, ref))
    return pairs


ANY_TEXT = st.text(st.one_of(st.sampled_from("ab \t\n\u2003\u3000\x1c"), st.characters()), max_size=12)


class TestChrf:
    def test_identity_is_100(self):
        for text in ("x", "hello world", "αβγ", "a b c d"):
            assert chrf(text, [text]) == pytest.approx(100.0)

    def test_empty_hypothesis_is_0(self):
        assert chrf("", ["abc"]) == 0.0

    def test_known_value(self):
        # hand-derived: P=(1+1)/2, R=(2/3+1/2)/2 -> F2 = 700/11
        assert chrf("ab", ["abc"]) == pytest.approx(700 / 11)

    def test_whitespace_removed(self):
        assert chrf("ab", ["a b"]) == pytest.approx(100.0)

    def test_requires_single_reference(self):
        with pytest.raises(ValueError):
            chrf("x", ["a", "b"])

    def test_matches_oracle_on_many_pairs(self):
        pairs = random_pairs(80, seed=21) + [
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("  ", "x y"),
            ("the cat sat", "the cat sat on the mat"),
        ]
        for hyp, ref in pairs:
            assert chrf(hyp, [ref]) == pytest.approx(oracle_sentence_chrf(hyp, ref), abs=1e-4)

    def test_corpus_matches_oracle(self):
        pairs = random_pairs(60, seed=22)
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        assert corpus_chrf(hyps, refs) == pytest.approx(oracle_corpus_chrf(hyps, refs), abs=1e-4)

    def test_corpus_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            corpus_chrf(["a"], ["a", "b"])

    def test_effective_order_short_strings(self):
        # 2-char identity: orders 3..6 are skipped, not scored as zero
        assert chrf("ab", ["ab"]) == pytest.approx(100.0)

    # any code point, weighted toward a few letters (so n-grams match) and toward
    # Unicode spaces, separators, tabs and newlines; many strings are shorter than
    # the max order
    @given(st.lists(st.tuples(ANY_TEXT, ANY_TEXT), min_size=1, max_size=5))
    @example([("a\u2003b\u3000c\x1cd\te\nf", "abcdef"), ("abc", "ab\u3000c")])
    def test_matches_oracle_on_any_text(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        for hyp, ref in pairs:
            assert chrf(hyp, [ref]) == pytest.approx(oracle_sentence_chrf(hyp, ref), abs=1e-4)
        assert corpus_chrf(hyps, refs) == pytest.approx(oracle_corpus_chrf(hyps, refs), abs=1e-4)

    @given(st.text(alphabet="abc αβ", max_size=30), st.text(alphabet="abc αβ", max_size=30))
    def test_range_property(self, hyp, ref):
        score = chrf(hyp, [ref])
        assert 0.0 <= score <= 100.0


class TestScaledChrf:
    def test_zero_crossing(self):
        assert scaled_chrf(0.2) == 0.0

    def test_top(self):
        assert scaled_chrf(1.0) == pytest.approx(0.6)

    def test_mid(self):
        assert scaled_chrf(0.6) == pytest.approx(0.30)

    def test_clipped_below(self):
        assert scaled_chrf(0.0) == 0.0
        assert scaled_chrf(0.1) == 0.0

    def test_rejects_percent_scale(self):
        with pytest.raises(ValueError):
            scaled_chrf(57.0)


class TestBins:
    def test_basic(self):
        bins = build_bins(["a", "b", "c", "d"], [0, 2, 4])
        assert bins.bin_tokens(0) == {"a", "b"}
        assert bins.bin_tokens(1) == {"c", "d"}

    def test_default_boundaries(self):
        ranking = [f"t{i}" for i in range(12800)]
        bins = build_bins(ranking)
        assert bins.n_bins == 5
        assert bins.bin_tokens(0) == set(ranking[:125])
        assert bins.bin_tokens(4) == set(ranking[8000:12800])

    def test_non_increasing_rejected(self):
        with pytest.raises(InvalidBoundaries):
            build_bins(["a"], [0, 3, 2])
        with pytest.raises(InvalidBoundaries):
            build_bins(["a"], [1, 2])

    def test_short_ranking_truncates_with_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            bins = build_bins(["a", "b"], [0, 2, 4])
        assert bins.bin_tokens(1) == set()
        assert any("short of the last boundary" in r.message for r in caplog.records)

    def test_partition_no_overlap_no_gap(self):
        ranking = [f"t{i}" for i in range(12800)]
        bins = build_bins(ranking)
        seen = set()
        total = 0
        for i in range(bins.n_bins):
            tokens = bins.bin_tokens(i)
            assert not (tokens & seen)
            seen |= tokens
            total += len(tokens)
        assert total == 12800


class TestHitRate:
    def test_identical_is_one(self):
        assert hit_rate(["a b c"], ["a b c"], {"a", "c"}) == 1.0

    def test_bin_absent_from_references(self):
        assert hit_rate(["a"], ["a"], {"zz"}) is None

    def test_cap_at_reference_count(self):
        # hypothesis repeats the token beyond the reference count: capped
        assert hit_rate(["a a a a"], ["a a b"], {"a"}) == 1.0
        # and producing it once against two occurrences scores 1/2
        assert hit_rate(["a"], ["a a"], {"a"}) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hit_rate(["a"], [], {"a"})

    def test_matches_brute_force_oracle(self):
        rng = random.Random(23)
        vocab = [f"w{i}" for i in range(12)]
        for trial in range(20):
            n = rng.randint(1, 8)
            hyps = [" ".join(rng.choices(vocab, k=rng.randint(0, 9))) for _ in range(n)]
            refs = [" ".join(rng.choices(vocab, k=rng.randint(1, 9))) for _ in range(n)]
            bin_tokens = set(rng.sample(vocab, 5))
            # oracle: explicit double loop over reference tokens with caps
            num = den = 0
            for h, r in zip(hyps, refs):
                r_toks = r.split()
                h_counts = Counter(h.split())
                used: Counter = Counter()
                for t in r_toks:
                    if t in bin_tokens:
                        den += 1
                        if used[t] < h_counts.get(t, 0):
                            used[t] += 1
                            num += 1
            expected = (num / den) if den else None
            got = hit_rate(hyps, refs, bin_tokens)
            if expected is None:
                assert got is None, f"trial {trial}"
            else:
                assert got == pytest.approx(expected), f"trial {trial}"

    def test_unrelated_token_never_raises_numerator(self):
        base = hit_rate(["a b"], ["a a b"], {"a", "b"})
        noisy = hit_rate(["a b zzz qqq"], ["a a b"], {"a", "b"})
        assert noisy == base


class IdentityTranslator:
    def translate_batch(self, texts, source, target):
        return list(texts)


class MarkingTranslator:
    """en->lang wraps each text; lang->en unwraps it exactly."""

    def __init__(self, mark="»"):
        self.mark = mark

    def translate_batch(self, texts, source, target):
        if target != "en":
            return [self.mark + text for text in texts]
        return [text[len(self.mark):] for text in texts]


class AlternatingMarkTranslator(MarkingTranslator):
    """Marks every other intermediate so a marker-aware LangID accepts half."""

    def translate_batch(self, texts, source, target):
        if target != "en":
            return [(self.mark if i % 2 else "·") + text for i, text in enumerate(texts)]
        return [text[1:] for text in texts]


class CountingTranslator(AlternatingMarkTranslator):
    """Records (number of texts, source, target) for each call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def translate_batch(self, texts, source, target):
        self.calls.append((len(texts), source, target))
        return super().translate_batch(texts, source, target)


class FailingTranslator:
    def translate_batch(self, texts, source, target):
        raise TranslatorError("backend down")


class ConstPredictor:
    def __init__(self, lang):
        self.lang = lang

    @property
    def languages(self):
        return [self.lang]

    def predict(self, text):
        return self.lang, 0.99

    def predict_batch(self, texts):
        return [self.predict(text) for text in texts]


class MarkPredictor:
    """Says `lang` iff the text carries the translator's mark."""

    def __init__(self, lang, mark="»"):
        self.lang = lang
        self.mark = mark

    @property
    def languages(self):
        return [self.lang, "other"]

    def predict(self, text):
        if text.startswith(self.mark):
            return self.lang, 0.9
        return "other", 0.9

    def predict_batch(self, texts):
        return [self.predict(text) for text in texts]


SOURCES = [f"sentence number {i} with words" for i in range(20)]


class TestRttLangIdChrf:
    def test_perfect_round_trip(self):
        for mode, expected in (("loose", 100.0), ("strict", 100.0)):
            result = rtt_langid_chrf(SOURCES, "xx", IdentityTranslator(), ConstPredictor("xx"), mode)
            assert result.score == pytest.approx(expected)
            assert result.valid_fraction == 1.0
            assert not result.invalid

    def test_always_wrong_language_is_invalid(self):
        result = rtt_langid_chrf(SOURCES, "xx", MarkingTranslator(), ConstPredictor("other"), "loose")
        assert result.invalid
        assert result.score is None
        assert result.valid_fraction == 0.0

    def test_half_accepted_strict_is_half(self):
        translator = AlternatingMarkTranslator()
        predictor = MarkPredictor("xx")
        loose = rtt_langid_chrf(SOURCES, "xx", AlternatingMarkTranslator(), predictor, "loose")
        strict = rtt_langid_chrf(SOURCES, "xx", translator, predictor, "strict")
        assert loose.valid_fraction == pytest.approx(0.5)
        assert loose.score == pytest.approx(100.0)
        assert strict.score == pytest.approx(50.0)

    def test_strict_never_exceeds_loose(self):
        translator = AlternatingMarkTranslator()
        predictor = MarkPredictor("xx")
        loose = rtt_langid_chrf(SOURCES, "xx", AlternatingMarkTranslator(), predictor, "loose")
        strict = rtt_langid_chrf(SOURCES, "xx", translator, predictor, "strict")
        assert strict.score <= loose.score

    def test_just_below_validity_threshold(self):
        sources = [f"s{i}" for i in range(100)]

        class AcceptNine(MarkPredictor):
            def __init__(self):
                super().__init__("xx")
                self.seen = 0

            def predict(self, text):
                self.seen += 1
                return ("xx", 0.9) if self.seen <= 9 else ("other", 0.9)

        result = rtt_langid_chrf(sources, "xx", IdentityTranslator(), AcceptNine(), "loose")
        assert result.valid_fraction == pytest.approx(0.09)
        assert result.invalid

    def test_at_validity_threshold_is_scored(self):
        sources = [f"»s{i}" if i < 10 else f"s{i}" for i in range(100)]
        result = rtt_langid_chrf(sources, "xx", IdentityTranslator(), MarkPredictor("xx"), "loose")
        assert result.valid_fraction == pytest.approx(0.10)
        assert result.score == pytest.approx(100.0)

    def test_intermediates_predicted_in_one_batch(self):
        class BatchOnly(MarkPredictor):
            def __init__(self):
                super().__init__("xx")
                self.batches = []

            def predict(self, text):
                raise AssertionError("one text at a time")

            def predict_batch(self, texts):
                self.batches.append(list(texts))
                return [MarkPredictor.predict(self, text) for text in texts]

        for mode in ("loose", "strict"):
            predictor = BatchOnly()
            translator = CountingTranslator()
            got = rtt_langid_chrf(SOURCES, "xx", translator, predictor, mode)
            assert len(predictor.batches) == 1
            assert len(predictor.batches[0]) == len(SOURCES)
            # every source out in one call, the half LangID accepts back in another
            assert translator.calls == [(20, "en", "xx"), (10, "xx", "en")]
            assert got == rtt_langid_chrf(SOURCES, "xx", AlternatingMarkTranslator(), MarkPredictor("xx"), mode)

    def test_too_few_valid_skips_the_way_back(self):
        translator = CountingTranslator()
        result = rtt_langid_chrf(SOURCES, "xx", translator, ConstPredictor("other"), "loose")
        assert result.invalid
        assert translator.calls == [(20, "en", "xx")]

    def test_translator_error_propagates(self):
        with pytest.raises(TranslatorError, match="backend down"):
            rtt_langid_chrf(SOURCES, "xx", FailingTranslator(), ConstPredictor("xx"), "loose")

    @pytest.mark.parametrize("way", ["out", "back"])
    def test_wrong_number_of_translations_is_length_mismatch(self, way):
        class DropsLast(IdentityTranslator):
            def translate_batch(self, texts, source, target):
                texts = list(texts)
                return texts[:-1] if (target == "en") == (way == "back") else texts

        with pytest.raises(LengthMismatch):
            rtt_langid_chrf(SOURCES, "xx", DropsLast(), ConstPredictor("xx"), "loose")

    def test_invalid_iff_below_threshold(self):
        result = rtt_langid_chrf(SOURCES, "xx", IdentityTranslator(), ConstPredictor("xx"), "loose")
        assert result.invalid == (result.valid_fraction < 0.10)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            rtt_langid_chrf(SOURCES, "xx", IdentityTranslator(), ConstPredictor("xx"), "fuzzy")


class TestAuditScore:
    def test_all_correct(self):
        assert audit_score(AuditLabels(cc=1.0)) == 1.0

    def test_all_zero(self):
        assert audit_score(AuditLabels(cc=0.0)) == 0.0

    def test_worked_example(self):
        assert audit_score(AuditLabels(cc=0.5, cb=0.2, ca=0.1, wd=0.2)) == pytest.approx(0.67)

    def test_matches_direct_arithmetic_on_random_vectors(self):
        rng = random.Random(24)
        for _ in range(20):
            parts = [rng.random() for _ in range(4)]
            total = sum(parts) * (1 + rng.random())  # scale down so sum <= 1
            cc, cb, ca, wd = (p / total for p in parts)
            expected = 1.0 * cc + 0.5 * cb + 0.3 * ca + 0.2 * wd
            assert audit_score(AuditLabels(cc, cb, ca, wd)) == pytest.approx(expected)

    def test_linearity_by_finite_differences(self):
        base = AuditLabels(cc=0.2, cb=0.2, ca=0.2, wd=0.2)
        eps = 0.05
        weights = {"cc": 1.0, "cb": 0.5, "ca": 0.3, "wd": 0.2}
        for field_name, weight in weights.items():
            bumped = AuditLabels(**{**vars(base), field_name: getattr(base, field_name) + eps})
            diff = audit_score(bumped) - audit_score(base)
            assert diff == pytest.approx(weight * eps)

    def test_rejects_bad_fractions(self):
        with pytest.raises(InvalidFractions):
            audit_score(AuditLabels(cc=1.2))
        with pytest.raises(InvalidFractions):
            audit_score(AuditLabels(cc=0.8, cb=0.5))
        with pytest.raises(InvalidFractions):
            audit_score(AuditLabels(cc=-0.1))


class TestRttResultShape:
    def test_to_dict(self):
        result = RttResult("xx", "loose", None, 0.05)
        d = result.to_dict()
        assert d["invalid"] is True and d["score"] is None
