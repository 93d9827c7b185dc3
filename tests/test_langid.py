import math
import random
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from monomine import langid
from monomine.errors import DegenerateData, ModelFormatError, UnknownLanguage
from monomine.langid import (
    ConfusionMatrix,
    FeatureSpec,
    LangIdModel,
    PareThresholds,
    TrainConfig,
    evaluate,
    extract_features,
    load_model,
    pare_languages,
    predict_batch,
    save_model,
    train,
    _feature_matrices,
    _probabilities,
    _softmax,
)

import synth


@pytest.fixture(scope="module")
def random_models():
    """Three-language models with every weight non-zero, at 2^10 and 2^20
    buckets: a gathered column that differs from the dense one shows."""
    rng = np.random.default_rng(5)
    models = {}
    for n_buckets in (1 << 10, 1 << 20):
        models[n_buckets] = LangIdModel(
            spec=FeatureSpec(n_buckets=n_buckets),
            languages=("aa", "bb", "cc"),
            buckets=np.arange(n_buckets),
            weights=(3 * rng.standard_normal((3, n_buckets))).astype(np.float32),
            bias=rng.standard_normal(3).astype(np.float32),
        )
    return models


def zlib_features(text, spec):
    """Reference: the per-n-gram definition, one zlib.crc32 call per n-gram."""
    seed = spec.hash_seed & 0xFFFFFFFF
    mask = spec.n_buckets - 1
    counts = {}
    for n in spec.ngram_orders:
        for i in range(len(text) - n + 1):
            bucket = zlib.crc32(text[i : i + n].encode("utf-8"), seed) & mask
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
    total = sum(counts.values())
    if total:
        for k in counts:
            counts[k] /= total
    return counts


def zlib_matrix(texts, spec):
    """Reference: `zlib_features` of each text, laid out bucket by bucket as CSR rows."""
    data, indices, indptr = [], [], [0]
    for text in texts:
        feats = zlib_features(text, spec)
        for bucket in sorted(feats):
            indices.append(bucket)
            data.append(feats[bucket])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(texts), spec.n_buckets),
    )


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def assert_same_features(got, want):
    """`got`, a featurizer's `(cols, x)`, is the full-width CSR `want` over
    the buckets it touches: `cols` is the sort of every entry's bucket, and
    `x`, column-major, holds `want`'s rows, entries and values in the same
    order once turned row-major."""
    cols, x = got
    want_cols, inverse = np.unique(want.indices, return_inverse=True)
    assert cols.dtype == np.int64 and np.array_equal(cols, want_cols)
    assert x.format == "csc"
    want_x = sp.csr_matrix((want.data, inverse, want.indptr), shape=(want.shape[0], len(want_cols)))
    assert_same_csr(x.tocsr(), want_x)


def feature_matrix(texts, spec):
    """The featurizer's `(cols, x)` of one spec."""
    ((cols, x),) = _feature_matrices(texts, [spec])
    return cols, x


def probabilities(model, texts):
    """The model's softmax over a batch, featurized in its own spec."""
    return _probabilities(model, *feature_matrix(texts, model.spec))


def dense_weights(model):
    """The model's [n_languages, n_buckets] matrix: its stored columns, 0.0 elsewhere."""
    dense = np.zeros((len(model.languages), model.spec.n_buckets), dtype=np.float32)
    dense[:, model.buckets] = model.weights
    return dense


def dense_scores(model, texts):
    """Reference: the scoring expression over the whole weight matrix in float64."""
    x = zlib_matrix(texts, model.spec)
    return x @ dense_weights(model).astype(np.float64).T + model.bias.astype(np.float64)


def zero_model(spec, languages, bias=None):
    """A model that stores no weight column: every bucket weighs 0.0."""
    bias = np.zeros(len(languages), dtype=np.float32) if bias is None else bias
    return LangIdModel(spec, languages, np.arange(0), np.zeros((len(languages), 0), dtype=np.float32), bias)


def dense_train(labeled, spec, hyper, loss_history):
    """Reference: the training loop over all n_buckets weight columns."""
    langs = tuple(sorted({lang for _, lang in labeled}))
    examples = list(labeled)
    if hyper.batch_size is None:
        examples.sort(key=lambda pair: (pair[1], pair[0]))
    lang_index = {lang: i for i, lang in enumerate(langs)}
    x = zlib_matrix([text for text, _ in examples], spec)
    y = np.asarray([lang_index[lang] for _, lang in examples], dtype=np.int64)
    n = len(examples)
    weights = np.zeros((len(langs), spec.n_buckets), dtype=np.float64)
    bias = np.zeros(len(langs), dtype=np.float64)
    rng = np.random.default_rng(hyper.seed)

    def mean_ce(w, b):
        probs = _softmax(x @ w.T + b)
        return float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))

    if hyper.batch_size is None:
        for _ in range(hyper.epochs):
            probs = _softmax(x @ weights.T + bias)
            loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
            loss_history.append(loss)
            probs[np.arange(n), y] -= 1.0
            probs /= n
            grad_w = (x.T @ probs).T
            grad_b = probs.sum(axis=0)
            step = hyper.learning_rate
            while True:
                new_w = weights - step * grad_w
                new_b = bias - step * grad_b
                if mean_ce(new_w, new_b) <= loss or step < 1e-6:
                    break
                step /= 2.0
            weights, bias = new_w, new_b
    else:
        for _ in range(hyper.epochs):
            loss_history.append(mean_ce(weights, bias))
            order = rng.permutation(n)
            for i in range(0, n, hyper.batch_size):
                batch = order[i : i + hyper.batch_size]
                xb = x[batch]
                probs = _softmax(xb @ weights.T + bias)
                probs[np.arange(len(batch)), y[batch]] -= 1.0
                probs /= len(batch)
                weights -= hyper.learning_rate * (xb.T @ probs).T
                bias -= hyper.learning_rate * probs.sum(axis=0)
    return weights.astype(np.float32), bias.astype(np.float32)


class ForwardPassHistory(list):
    """A loss history for `train` that also notes how many forward passes
    (`_softmax` calls) `train` had made when each epoch began."""

    def __init__(self):
        super().__init__()
        self.passes = 0
        self.marks = []

    def append(self, loss):
        self.marks.append(self.passes)
        super().append(loss)

    def per_epoch(self):
        return np.diff(self.marks + [self.passes]).tolist()


def forward_passes_per_epoch(monkeypatch):
    history = ForwardPassHistory()
    real = langid._softmax

    def counting(scores):
        history.passes += 1
        return real(scores)

    monkeypatch.setattr(langid, "_softmax", counting)
    return history


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


TEXTS = st.one_of(st.text(max_size=40), st.text(alphabet="abcdefgh ijklmnop", max_size=40))
# any code point but a surrogate, with NUL, 2-, 3- and 4-byte UTF-8 characters often
UNICODE = st.one_of(st.text(max_size=30), st.text(alphabet="a b\x00é€\uffff𝄞\U0010ffff", max_size=30))
SPECS = st.builds(
    FeatureSpec,
    ngram_orders=st.sets(st.integers(1, 9), min_size=1, max_size=4).map(tuple),
    n_buckets=st.sampled_from([1 << 10, 1 << 16, 1 << 20]),
    hash_seed=st.sampled_from([0, 1, 2**32 - 1, 2**40 + 3, -7]),
)
# gapped orders, any bucket count a spec allows, and any seed
ANY_SPECS = st.builds(
    FeatureSpec,
    ngram_orders=st.sets(st.integers(1, 9), min_size=1, max_size=4).map(tuple),
    n_buckets=st.integers(10, 32).map(lambda bits: 1 << bits),
    hash_seed=st.sampled_from([0, 1, 2**32 - 1, 2**40 + 3, -7]) | st.integers(-(2**63), 2**63 - 1),
)
# the annotation and decluster specs of the benchmark's long-document crawl
BENCH_SPECS = (
    FeatureSpec(ngram_orders=(1, 2, 3, 4), n_buckets=1 << 16),
    FeatureSpec(ngram_orders=(1, 2, 3), n_buckets=1 << 15, hash_seed=1),
)


def crawl_sentences(n, seed):
    """`n` sentences of 12-24 words over the six synthetic alphabets."""
    rng = random.Random(seed)
    langs = list(synth.make_langs().values())
    return [rng.choice(langs).sentence(rng, rng.randint(12, 24)) for _ in range(n)]


class TestFeatureSpec:
    def test_orders_sorted_and_deduped(self):
        assert FeatureSpec(ngram_orders=(3, 1, 1)).ngram_orders == (1, 3)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            FeatureSpec(ngram_orders=())
        with pytest.raises(ValueError):
            FeatureSpec(ngram_orders=(0, 2))

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            FeatureSpec(n_buckets=1000)  # not a power of two
        with pytest.raises(ValueError):
            FeatureSpec(n_buckets=512)  # below 2^10

    def test_buckets_bounded_by_the_hash(self):
        assert FeatureSpec(n_buckets=1 << 32).n_buckets == 1 << 32
        with pytest.raises(ValueError, match="2\\^32"):
            FeatureSpec(n_buckets=1 << 33)  # buckets no CRC-32 reaches


class TestExtractFeatures:
    def test_two_chars_orders_12(self):
        spec = FeatureSpec(ngram_orders=(1, 2))
        feats = extract_features("ab", spec)
        # n-grams {a, b, ab}: three buckets at 1/3 each unless crc32 collides
        assert len(feats) == 3
        assert all(v == pytest.approx(1 / 3) for v in feats.values())
        assert sum(feats.values()) == pytest.approx(1.0)

    def test_empty_text(self):
        assert extract_features("", FeatureSpec()) == {}

    def test_single_ngram_type(self):
        feats = extract_features("aaa", FeatureSpec(ngram_orders=(1,)))
        assert list(feats.values()) == [pytest.approx(1.0)]

    def test_deterministic(self):
        spec = FeatureSpec()
        assert extract_features("döner kebab", spec) == extract_features("döner kebab", spec)

    def test_seed_changes_buckets(self):
        a = extract_features("abcdef", FeatureSpec(hash_seed=0))
        b = extract_features("abcdef", FeatureSpec(hash_seed=1))
        assert set(a) != set(b)


class TestFeatureMatrix:
    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(UNICODE, max_size=6), spec=SPECS)
    @example(texts=[], spec=FeatureSpec())
    @example(texts=["", "a", "\x00\x00", "𝄞"], spec=FeatureSpec(ngram_orders=(2, 5), hash_seed=2**40 + 3))
    @example(texts=["abc", "de"], spec=FeatureSpec(ngram_orders=(9,), hash_seed=-7))
    @example(texts=["aaaa", "", "a"], spec=FeatureSpec(ngram_orders=(1,)))  # a single bucket
    @example(texts=["abc", "de"], spec=FeatureSpec(n_buckets=1 << 32))  # the whole CRC-32 is the bucket
    def test_matches_zlib_per_ngram(self, texts, spec):
        assert_same_features(feature_matrix(texts, spec), zlib_matrix(texts, spec))

    @settings(max_examples=30, deadline=None)
    @given(texts=st.lists(UNICODE, min_size=1, max_size=6), rows=st.sampled_from([256, 257]))
    @example(texts=["\U0010ffff\uffff", "a"], rows=256)
    @example(texts=["\U0010ffff\uffff", "a"], rows=257)
    def test_both_key_widths(self, texts, rows):
        # at 2^24 buckets, 256 rows fill a 32-bit key and 257 need 33 bits
        texts = [texts[row % len(texts)] for row in range(rows)]
        spec = FeatureSpec(n_buckets=1 << 24)
        widths = []
        real = langid._span_keys

        def recording(*args):
            keys = real(*args)
            widths.append([k.dtype for k in keys])
            return keys

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(langid, "_span_keys", recording)
            got = feature_matrix(texts, spec)
        assert_same_features(got, zlib_matrix(texts, spec))
        assert widths == [[np.uint32 if rows == 256 else np.uint64]]

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(UNICODE, max_size=6), specs=st.lists(ANY_SPECS, min_size=1, max_size=3).map(tuple))
    @example(texts=[], specs=(FeatureSpec(), FeatureSpec(hash_seed=1)))
    @example(
        texts=["", "a", "\x00\x00", "𝄞", "é€\U0010ffff"],
        specs=(
            FeatureSpec(ngram_orders=(2, 5), hash_seed=2**40 + 3),
            FeatureSpec(ngram_orders=(1, 3, 9), n_buckets=1 << 32, hash_seed=-7),
            FeatureSpec(ngram_orders=(2, 5), hash_seed=2**40 + 3),  # equal specs share one key array
        ),
    )
    @example(texts=["abc def", "αβγ δεζ", "абв"], specs=BENCH_SPECS)
    @example(  # 33-bit keys in the same walk as 32-bit ones
        texts=["\U0010ffff\uffff", "a", "bc d"] * 86,
        specs=(FeatureSpec(n_buckets=1 << 10, hash_seed=5), FeatureSpec(n_buckets=1 << 24)),
    )
    @example(  # spans of over 255 bytes
        texts=["a" * 60 + "𝄞" * 20 + "é", "b"],
        specs=(FeatureSpec(ngram_orders=(2, 70)), FeatureSpec(ngram_orders=(1, 80), hash_seed=3)),
    )
    def test_each_spec_matches_zlib(self, texts, specs):
        got = _feature_matrices(texts, specs)
        assert len(got) == len(specs)
        for spec, features in zip(specs, got):
            assert_same_features(features, zlib_matrix(texts, spec))

    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(UNICODE, max_size=6), spec=SPECS)
    def test_batch_is_its_rows(self, texts, spec):
        # no n-gram crosses from one text into the next
        cols, x = feature_matrix(texts, spec)
        x = x.tocsr()
        for row, text in enumerate(texts):
            one_cols, one = feature_matrix([text], spec)
            assert cols[x[row].indices].tobytes() == one_cols.tobytes()
            assert x[row].data.tobytes() == one.data.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(text=UNICODE, spec=SPECS)
    def test_extract_features_is_row_zero(self, text, spec):
        assert extract_features(text, spec) == zlib_features(text, spec)

    def test_lone_surrogate_raises(self):
        with pytest.raises(UnicodeEncodeError):
            _feature_matrices(["ok", "a\ud800b"], [FeatureSpec(), FeatureSpec(hash_seed=1)])
        with pytest.raises(UnicodeEncodeError):
            extract_features("\udfffxy", FeatureSpec())

    @pytest.mark.parametrize(
        "specs",
        [BENCH_SPECS[:1], BENCH_SPECS[1:], BENCH_SPECS],
        ids=["orders1-4", "orders1-3", "both"],
    )
    def test_memory_within_the_reference(self, specs):
        texts = crawl_sentences(2000, seed=8)
        assert peak_bytes(_feature_matrices, texts, specs) <= sum(peak_bytes(zlib_matrix, texts, s) for s in specs)


class TestTrain:
    def test_needs_two_languages(self):
        with pytest.raises(DegenerateData):
            train([("abc", "aa"), ("abd", "aa")], FeatureSpec(n_buckets=1 << 10))

    @pytest.mark.parametrize(
        "field, value, what",
        [
            ("epochs", 0, "at least 1"),
            ("epochs", -1, "at least 1"),
            ("learning_rate", 0.0, "a finite value above 0"),
            ("learning_rate", math.inf, "a finite value above 0"),
            ("learning_rate", math.nan, "a finite value above 0"),
            ("batch_size", 0, "None or at least 1"),
        ],
    )
    def test_config_out_of_range_is_rejected(self, field, value, what):
        # epochs=-1 trained an all-zero model; batch_size=0 failed inside range()
        with pytest.raises(ValueError, match=re.escape(f"{field}: expected {what}, got {value!r}")):
            TrainConfig(**{field: value})

    def test_deterministic_same_seed(self):
        langs = synth.make_langs(("aa", "bb"))
        labeled = synth.labeled_examples(langs, per_lang=40, seed=1)
        spec = FeatureSpec(n_buckets=1 << 12)
        m1 = train(labeled, spec, TrainConfig(epochs=10, seed=3))
        m2 = train(labeled, spec, TrainConfig(epochs=10, seed=3))
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_full_batch_order_invariant(self):
        langs = synth.make_langs(("aa", "bb"))
        labeled = synth.labeled_examples(langs, per_lang=40, seed=2)
        shuffled = list(labeled)
        random.Random(9).shuffle(shuffled)
        spec = FeatureSpec(n_buckets=1 << 12)
        m1 = train(labeled, spec, TrainConfig(epochs=10, batch_size=None))
        m2 = train(shuffled, spec, TrainConfig(epochs=10, batch_size=None))
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_loss_non_increasing_full_batch(self):
        langs = synth.make_langs(("aa", "bb", "cc"))
        labeled = synth.labeled_examples(langs, per_lang=60, seed=3)
        losses = []
        train(
            labeled,
            FeatureSpec(n_buckets=1 << 12),
            TrainConfig(epochs=25, learning_rate=5.0),
            loss_history=losses,
        )
        assert len(losses) == 25
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_disjoint_alphabets_heldout_accuracy(self):
        langs = synth.make_langs(("aa", "bb"))
        labeled = synth.labeled_examples(langs, per_lang=500, seed=4)
        heldout = synth.labeled_examples(langs, per_lang=100, seed=5)
        model = train(labeled, FeatureSpec(n_buckets=1 << 14), TrainConfig(epochs=40, learning_rate=10.0))
        # oracle: generator labels are a disjoint-alphabet membership test
        hits = sum(1 for text, lang in heldout if predict_batch(model, [text])[0][0] == lang)
        assert hits / len(heldout) >= 0.99

    def test_five_language_macro_f1(self):
        langs = synth.make_langs(("aa", "bb", "cc", "dd", "ee"))
        labeled = synth.labeled_examples(langs, per_lang=300, seed=6)
        heldout = synth.labeled_examples(langs, per_lang=80, seed=7)
        model = train(labeled, FeatureSpec(n_buckets=1 << 14), TrainConfig(epochs=40, learning_rate=10.0))
        cm = evaluate(model, heldout)
        f1s = []
        for lang in cm.languages:
            p, r = cm.precision(lang), cm.recall(lang)
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        assert sum(f1s) / len(f1s) >= 0.95

    @pytest.mark.parametrize(
        "batch_size,learning_rate", [(None, 10.0), (16, 10.0), (None, 1e3)], ids=["full-batch", "mini-batch", "backtracking"]
    )
    def test_matches_dense_training(self, monkeypatch, batch_size, learning_rate):
        # 60 short sentences touch a few hundred of the 2^16 buckets
        langs = synth.make_langs(("aa", "bb", "cc"))
        labeled = synth.labeled_examples(langs, per_lang=20, seed=11) + [("", "aa")]
        spec = FeatureSpec(n_buckets=1 << 16)
        hyper = TrainConfig(epochs=12, learning_rate=learning_rate, seed=4, batch_size=batch_size)
        passes = forward_passes_per_epoch(monkeypatch)
        model = train(labeled, spec, hyper, loss_history=passes)
        ref_losses = []
        ref_weights, ref_bias = dense_train(labeled, spec, hyper, ref_losses)
        assert model.buckets.tolist() == sorted(set(zlib_matrix([t for t, _ in labeled], spec).indices.tolist()))
        assert dense_weights(model).tobytes() == ref_weights.tobytes()
        assert model.bias.tobytes() == ref_bias.tobytes()
        assert np.asarray(passes).tobytes() == np.asarray(ref_losses).tobytes()
        if learning_rate == 1e3:
            # every epoch's line search halved the step at least once
            assert min(passes.per_epoch()) >= 2

    def test_matches_dense_training_through_the_step_floor(self):
        # the best split of one text between two labels is 2:1; near it the
        # loss moves by rounding only, and an epoch whose every trial step
        # rounds upward halves to below 1e-6 and takes that step anyway
        labeled = [("ab", "aa"), ("ab", "bb"), ("ab", "aa")]
        spec = FeatureSpec(n_buckets=1 << 10)
        hyper = TrainConfig(epochs=16, learning_rate=30.0)
        losses, ref_losses = [], []
        model = train(labeled, spec, hyper, loss_history=losses)
        ref_weights, ref_bias = dense_train(labeled, spec, hyper, ref_losses)
        assert any(b > a for a, b in zip(losses, losses[1:]))  # only the floor accepts a rise
        assert dense_weights(model).tobytes() == ref_weights.tobytes()
        assert model.bias.tobytes() == ref_bias.tobytes()
        assert np.asarray(losses).tobytes() == np.asarray(ref_losses).tobytes()

    def test_one_forward_pass_per_line_search_trial(self, monkeypatch):
        # a step that is never halved costs one forward pass an epoch: the
        # pass that scored it starts the next epoch
        langs = synth.make_langs(("aa", "bb"))
        labeled = synth.labeled_examples(langs, per_lang=20, seed=13)
        passes = forward_passes_per_epoch(monkeypatch)
        train(labeled, FeatureSpec(n_buckets=1 << 12), TrainConfig(epochs=8, learning_rate=1.0), loss_history=passes)
        assert passes.per_epoch() == [1] * 8
        assert passes.passes == 1 + 8

    def test_minibatch_mode_runs(self):
        langs = synth.make_langs(("aa", "bb"))
        labeled = synth.labeled_examples(langs, per_lang=50, seed=8)
        model = train(
            labeled,
            FeatureSpec(n_buckets=1 << 12),
            TrainConfig(epochs=5, batch_size=16, seed=0),
        )
        assert set(model.languages) == {"aa", "bb"}


class TestPredict:
    def test_zero_model_returns_first_language(self):
        model = zero_model(FeatureSpec(n_buckets=1 << 10), ("aa", "bb", "cc"))
        lang, conf = predict_batch(model, ["whatever"])[0]
        assert lang == "aa"
        assert conf == pytest.approx(1 / 3)

    def test_empty_text_uses_bias(self):
        model = zero_model(FeatureSpec(n_buckets=1 << 10), ("aa", "bb"), bias=np.array([0.0, 2.0], dtype=np.float32))
        lang, conf = predict_batch(model, [""])[0]
        assert lang == "bb"
        assert conf == pytest.approx(math.exp(2) / (1 + math.exp(2)))

    def test_deterministic(self, two_lang_model):
        langs, model = two_lang_model
        text = langs["aa"].sentence(random.Random(0))
        assert predict_batch(model, [text])[0] == predict_batch(model, [text])[0]

    def test_batch_matches_single(self, two_lang_model):
        langs, model = two_lang_model
        rng = random.Random(1)
        texts = [langs["aa"].sentence(rng) for _ in range(5)] + [langs["bb"].sentence(rng) for _ in range(5)]
        assert predict_batch(model, texts) == [predict_batch(model, [t])[0] for t in texts]

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    def test_scores_at_most_batch_rows_at_once(self, two_lang_model, monkeypatch, n):
        langs, model = two_lang_model
        rng = random.Random(n)
        texts = [langs[rng.choice(["aa", "bb"])].sentence(rng) for _ in range(n)]
        # the reference: one scoring pass over every text
        probs = probabilities(model, texts) if texts else np.zeros((0, 2))
        want = [(model.languages[i], float(probs[row, i])) for row, i in enumerate(np.argmax(probs, axis=1))]
        batches = []
        real = langid._feature_matrices

        def recording(texts, specs):
            assert specs == [model.spec]
            batches.append(len(texts))
            return real(texts, specs)

        monkeypatch.setattr(langid, "_feature_matrices", recording)
        assert predict_batch(model, texts) == want  # bit for bit
        assert batches == [len(texts[i : i + langid.BATCH_ROWS]) for i in range(0, n, langid.BATCH_ROWS)]
        batches.clear()
        evaluate(model, [(t, "aa") for t in texts])
        assert max(batches, default=0) <= langid.BATCH_ROWS

    def test_duplication_scale_invariance(self, two_lang_model):
        # identical n-gram distribution => identical prediction
        _, model = two_lang_model
        spec = FeatureSpec(ngram_orders=(1,), n_buckets=model.spec.n_buckets)
        unigram_model = LangIdModel(spec, model.languages, model.buckets, model.weights, model.bias)
        assert predict_batch(unigram_model, ["abcd"])[0] == predict_batch(unigram_model, ["abcd" * 7])[0]

    @pytest.mark.parametrize("n_buckets", [1 << 10, 1 << 20])
    @settings(max_examples=40, deadline=None)
    @given(texts=st.lists(TEXTS, max_size=8))
    @example(texts=[])
    @example(texts=["", ""])
    @example(texts=["aaaa"])
    def test_gather_matches_dense_scoring(self, random_models, n_buckets, texts):
        model = random_models[n_buckets]
        probs = _softmax(dense_scores(model, texts))
        got = probabilities(model, texts)
        assert got.shape == probs.shape and got.tobytes() == probs.tobytes()
        expected = [(model.languages[i], float(probs[row, i])) for row, i in enumerate(np.argmax(probs, axis=1))]
        assert predict_batch(model, texts) == expected

    @settings(max_examples=120, deadline=None)
    @given(
        texts=st.lists(TEXTS, max_size=6),
        n_buckets=st.sampled_from([1 << 10, 1 << 16]),
        stored=st.sampled_from(["none", "first", "last", "all", "some", "untouched"]),
        id_type=st.sampled_from([np.int64, np.uint64, np.int32]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(texts=["abc", ""], n_buckets=1 << 10, stored="none", id_type=np.int64, seed=0)
    @example(texts=["abc", "hij"], n_buckets=1 << 10, stored="untouched", id_type=np.uint64, seed=1)
    @example(texts=["abcdefgh ijklmnop"], n_buckets=1 << 16, stored="all", id_type=np.int64, seed=2)
    def test_stored_columns_match_dense_scoring(self, texts, n_buckets, stored, id_type, seed):
        spec = FeatureSpec(n_buckets=n_buckets)
        rng = np.random.default_rng(seed)
        touched, _ = feature_matrix(texts, spec)
        buckets = {
            "none": np.arange(0),
            "first": np.array([0]),
            "last": np.array([n_buckets - 1]),
            "all": np.arange(n_buckets),
            "some": np.flatnonzero(rng.random(n_buckets) < 0.3),
            "untouched": np.setdiff1d(np.flatnonzero(rng.random(n_buckets) < 0.5), touched),
        }[stored].astype(id_type)
        weights = (3 * rng.standard_normal((3, len(buckets)))).astype(np.float32)
        model = LangIdModel(spec, ("aa", "bb", "cc"), buckets, weights, rng.standard_normal(3).astype(np.float32))
        probs = _softmax(dense_scores(model, texts))
        got = probabilities(model, texts)
        assert got.shape == probs.shape and got.tobytes() == probs.tobytes()
        expected = [(model.languages[i], float(probs[row, i])) for row, i in enumerate(np.argmax(probs, axis=1))]
        assert predict_batch(model, texts) == expected

    def test_model_shapes_checked(self):
        spec = FeatureSpec(n_buckets=1 << 10)
        w = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="weights must be"):
            LangIdModel(spec, ("aa", "bb"), np.arange(2), w, np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="bias must be"):
            LangIdModel(spec, ("aa", "bb"), np.arange(3), w, np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="1-D integer"):
            LangIdModel(spec, ("aa", "bb"), np.arange(3.0), w, np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="cannot reach"):
            LangIdModel(spec, ("aa", "bb"), np.arange(3, dtype=np.int8), w, np.zeros(2, dtype=np.float32))

    def test_batch_memory_follows_the_batch(self, random_models):
        # no array a batch allocates is sized by the bucket count: a mask or a
        # rank per bucket would cost 1-2 MB more at 2^20 buckets than at 2^10
        langs = synth.make_langs(("aa", "bb", "cc"))
        texts = [text for text, _ in synth.labeled_examples(langs, per_lang=5, seed=12)]
        assert len(texts) == 15
        small, large = (peak_bytes(predict_batch, random_models[n], texts) for n in (1 << 10, 1 << 20))
        assert abs(large - small) < 256 << 10

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(50, 7)) * 30
        probs = _softmax(scores)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)


class TestEvaluate:
    def test_perfect_predictor_diagonal(self, two_lang_model):
        langs, model = two_lang_model
        eval_set = synth.labeled_examples(langs, per_lang=30, seed=11)
        cm = evaluate(model, eval_set)
        assert cm.counts.trace() == cm.counts.sum() == 60

    def test_counts_definition(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[6, 4], [0, 10]]))
        assert cm.counts[0, 1] == 4
        assert cm.counts[cm.index("A")].sum() == 10

    def test_unknown_language_rejected(self, two_lang_model):
        _, model = two_lang_model
        with pytest.raises(UnknownLanguage):
            evaluate(model, [("text", "zz")])

    def test_matches_per_example_tally(self, two_lang_model):
        langs, model = two_lang_model
        rng = random.Random(12)
        eval_set = []
        for _ in range(60):
            name = rng.choice(sorted(langs))
            eval_set.append((langs[name].sentence(rng), name))
        cm = evaluate(model, eval_set)
        # oracle: brute-force per-example tally
        index = {lang: i for i, lang in enumerate(cm.languages)}
        expected = np.zeros_like(cm.counts)
        for text, true_lang in eval_set:
            pred, _ = predict_batch(model, [text])[0]
            expected[index[true_lang], index[pred]] += 1
        assert np.array_equal(cm.counts, expected)


class TestRates:
    def test_diagonal(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[5, 0], [0, 7]]))
        for lang in ("A", "B"):
            assert cm.precision(lang) == 1.0
            assert cm.recall(lang) == 1.0
        assert cm.fdr("B", "A") == 0.0

    def test_fdr_definition(self):
        # counts[d][l] = 5, counts[l] sums to 10
        cm = ConfusionMatrix(("d", "l"), np.array([[5, 5], [0, 10]]))
        assert cm.fdr("d", "l") == pytest.approx(0.5)

    def test_random_against_arithmetic_oracle(self):
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 20, size=(3, 3))
        cm = ConfusionMatrix(("x", "y", "z"), counts)
        for i, lang in enumerate(cm.languages):
            col = counts[:, i].sum()
            row = counts[i].sum()
            assert cm.precision(lang) == pytest.approx(counts[i, i] / col if col else 0.0)
            assert cm.recall(lang) == pytest.approx(counts[i, i] / row if row else 0.0)
            for j, other in enumerate(cm.languages):
                if i != j:
                    assert cm.fdr(other, lang) == pytest.approx(counts[j, i] / row if row else 0.0)

    def test_recall_plus_fnr_is_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            counts = rng.integers(0, 5, size=(4, 4))
            counts[2] = 0  # force a zero row
            cm = ConfusionMatrix(("a", "b", "c", "d"), counts)
            for i, lang in enumerate(cm.languages):
                row = counts[i].sum()
                if row:  # recall and the row's off-diagonal share, its false-negative rate
                    assert cm.recall(lang) + (row - counts[i, i]) / row == pytest.approx(1.0)
                else:
                    assert cm.recall(lang) == 0.0
            # matrix consistency: row sums count every example once
            assert counts.sum() == sum(cm.counts[cm.index(lang)].sum() for lang in cm.languages)

    def test_unknown_language(self):
        cm = ConfusionMatrix(("a",), np.array([[1]]))
        with pytest.raises(UnknownLanguage):
            cm.precision("zz")


class TestPare:
    def make_cm(self, diag, off, n=2):
        counts = np.full((n, n), 0)
        np.fill_diagonal(counts, diag)
        counts[0, 1] = off
        return counts

    def test_precision_boundaries(self):
        # column A sums to 1000; diag 329 -> precision 0.329 (flagged), 331 -> 0.331 (clean)
        for diag, flagged in ((329, True), (331, False)):
            counts = np.array([[diag, 1000 - diag], [1000 - diag, diag]])
            cm = ConfusionMatrix(("A", "B"), counts)
            report = pare_languages(cm, {"A": 5000, "B": 5000})
            assert ("low_precision" in report.entries["A"].reasons) is flagged

    def test_confusion_boundaries(self):
        # pairwise fnr(A->B) = off/1000
        for off, flagged in ((499, False), (501, True)):
            counts = np.array([[1000 - off, off], [0, 1000]])
            cm = ConfusionMatrix(("A", "B"), counts)
            report = pare_languages(cm, {"A": 5000, "B": 5000})
            assert ("high_confusion" in report.entries["A"].reasons) is flagged

    def test_train_size_boundaries(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[100, 0], [0, 100]]))
        report = pare_languages(cm, {"A": 1999, "B": 2000})
        assert report.entries["A"].reasons == ("too_few_examples",)
        assert report.entries["B"].reasons == ()

    def test_perfect_diagonal_nothing_dropped(self):
        cm = ConfusionMatrix(("A", "B", "C"), np.diag([3000, 3000, 3000]))
        report = pare_languages(cm, {lang: 2000 for lang in cm.languages})
        assert report.dropped == []

    def test_dropped_iff_reasons(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[100, 900], [900, 100]]))
        report = pare_languages(cm, {"A": 10, "B": 5000})
        for entry in report.entries.values():
            assert entry.dropped == bool(entry.reasons)

    def test_missing_train_size(self):
        cm = ConfusionMatrix(("A", "B"), np.diag([1, 1]))
        with pytest.raises(UnknownLanguage):
            pare_languages(cm, {"A": 10})

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0, 0, 0, 1, 2, 7, 40]), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
        sizes=st.lists(st.integers(0, 4000), min_size=8, max_size=8),
    )
    @example(counts=[[0]], sizes=[0] * 8)
    @example(counts=[[3, 1, 0], [0, 0, 0], [2, 0, 5]], sizes=[2000] * 8)
    def test_matches_pair_loop(self, counts, sizes):
        langs = tuple(f"l{i}" for i in range(len(counts)))
        cm = ConfusionMatrix(langs, np.asarray(counts, dtype=np.int64))
        train_sizes = dict(zip(langs, sizes))
        thr = PareThresholds()
        report = pare_languages(cm, train_sizes, thr).to_dict()
        # reference: the per-pair rates of ConfusionMatrix
        for lang in langs:
            precision = cm.precision(lang)
            max_confusion = max(
                (max(cm.pairwise_fnr(lang, other), cm.fdr(other, lang)) for other in langs if other != lang),
                default=0.0,
            )
            entry = report[lang]
            assert (entry["precision"], entry["max_confusion"]) == (precision, max_confusion)
            assert type(entry["precision"]) is float and type(entry["max_confusion"]) is float
            reasons = [
                r
                for r, hit in (
                    ("low_precision", precision < thr.min_precision),
                    ("high_confusion", max_confusion > thr.max_confusion),
                    ("too_few_examples", train_sizes[lang] < thr.min_examples),
                )
                if hit
            ]
            assert entry["reasons"] == reasons and entry["dropped"] == bool(reasons)

    def test_fdr_also_counts_as_confusion(self):
        # B is never misread, but A floods B's label: fdr(A, B) = 600/1000
        counts = np.array([[400, 600], [0, 1000]])
        cm = ConfusionMatrix(("A", "B"), counts)
        report = pare_languages(cm, {"A": 5000, "B": 5000}, PareThresholds())
        assert "high_confusion" in report.entries["B"].reasons

    @pytest.mark.parametrize(
        "field, value, what",
        [
            ("min_precision", math.nan, "a value in [0, 1]"),
            ("min_precision", -0.1, "a value in [0, 1]"),
            ("max_confusion", math.nan, "a value in [0, 1]"),
            ("max_confusion", 1.5, "a value in [0, 1]"),
            ("min_examples", -1, "at least 0"),
        ],
    )
    def test_thresholds_out_of_range_are_rejected(self, field, value, what):
        # NaN thresholds compare false, so they would drop no language at all
        with pytest.raises(ValueError, match=re.escape(f"{field}: expected {what}, got {value!r}")):
            PareThresholds(**{field: value})


class TestModelIO:
    def test_roundtrip(self, tmp_path, two_lang_model):
        _, model = two_lang_model
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.languages == model.languages
        assert back.spec == model.spec
        assert np.array_equal(back.buckets, model.buckets)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)

    def test_predictions_survive_roundtrip(self, tmp_path, two_lang_model):
        langs, model = two_lang_model
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        text = langs["bb"].sentence(random.Random(2))
        assert predict_batch(back, [text])[0] == predict_batch(model, [text])[0]

    def test_load_holds_one_copy_of_the_weights(self, tmp_path, random_models):
        # the weights are mapped, not read: what is allocated is the
        # finiteness check's boolean temporary, one row of it at a time, and
        # for ids that do not start on an 8-byte boundary one aligned copy
        model = random_models[1 << 20]
        for names, ids_copied in ((("aaaa", "bbb", "ccc"), False), (model.languages, True)):
            path = tmp_path / "model.bin"
            save_model(LangIdModel(model.spec, names, model.buckets, model.weights, model.bias), path)
            ids_at = path.stat().st_size - 4 * len(names) * (len(model.buckets) + 1) - 8 * len(model.buckets)
            assert (ids_at % 8 != 0) == ids_copied
            copy = model.buckets.nbytes if ids_copied else 0
            assert peak_bytes(load_model, path) < 2 * model.spec.n_buckets + copy

    def test_loaded_arrays_are_read_only(self, tmp_path, two_lang_model):
        _, model = two_lang_model
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        for arr in (back.buckets, back.weights, back.bias):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_unaligned_weights_roundtrip(self, tmp_path, random_models):
        # names of 1 and 2 bytes put the weights at an offset of 3 mod 4
        model = random_models[1 << 20]
        odd = LangIdModel(model.spec, ("a", "bb", "cc"), model.buckets, model.weights, model.bias)
        path = tmp_path / "odd.bin"
        save_model(odd, path)
        offset = path.stat().st_size - 4 * len(odd.languages) * (len(odd.buckets) + 1)
        assert offset % 4 == 3
        back = load_model(path)
        assert back.languages == odd.languages
        assert back.weights.tobytes() == odd.weights.tobytes() and back.bias.tobytes() == odd.bias.tobytes()
        texts = crawl_sentences(20, seed=4) + ["", "a"]
        assert probabilities(back, texts).tobytes() == probabilities(odd, texts).tobytes()
        assert predict_batch(back, texts) == predict_batch(odd, texts)
        # the unaligned ids were copied once, at load, not on every batch
        assert back.buckets.flags.aligned and not back.buckets.flags.writeable
        copy_per_batch = peak_bytes(probabilities, back, texts) - peak_bytes(probabilities, odd, texts)
        assert copy_per_batch < back.buckets.nbytes / 4

    def test_nan_weight_rejected(self, tmp_path, random_models):
        model = random_models[1 << 10]
        path = tmp_path / "nan.bin"
        save_model(model, path)
        good = path.read_bytes()
        last_weight = len(good) - 4 * (len(model.languages) + 1)
        for at, value in ((last_weight, float("nan")), (len(good) - 4, float("-inf"))):  # a weight, the bias
            data = bytearray(good)
            data[at : at + 4] = struct.pack("<f", value)
            path.write_bytes(bytes(data))
            with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: weights and bias must be finite$"):
                load_model(path)

    def test_repeated_language_rejected(self, tmp_path, random_models):
        model = random_models[1 << 10]
        path = tmp_path / "twice.bin"
        save_model(LangIdModel(model.spec, ("aa", "ab", "cc"), model.buckets, model.weights, model.bias), path)
        path.write_bytes(path.read_bytes().replace(b"\x02\x00ab", b"\x02\x00aa", 1))
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: languages must be unique$"):
            load_model(path)

    def test_save_over_a_loaded_model(self, tmp_path, random_models):
        path = tmp_path / "model.bin"
        save_model(random_models[1 << 10], path)
        first = load_model(path)
        texts = crawl_sentences(10, seed=6)
        before = probabilities(first, texts).tobytes()
        save_model(random_models[1 << 20], path)
        assert probabilities(first, texts).tobytes() == before
        assert first.weights.tobytes() == random_models[1 << 10].weights.tobytes()
        assert load_model(path).spec == random_models[1 << 20].spec

    def test_failed_save_leaves_the_old_file(self, tmp_path, random_models):
        model = random_models[1 << 10]
        path = tmp_path / "model.bin"
        save_model(model, path)
        old = path.read_bytes()
        # a language name too long for its u16 length field fails after the header
        bad = LangIdModel(model.spec, ("aa", "x" * 70_000, "cc"), model.buckets, model.weights, model.bias)
        with pytest.raises(struct.error):
            save_model(bad, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelFormatError, match="bad magic"):
            load_model(path)

    def test_truncated(self, tmp_path, two_lang_model):
        _, model = two_lang_model
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelFormatError, match="truncated model file: header claims"):
            load_model(path)
        path.write_bytes(data[:30])  # inside the header
        with pytest.raises(ModelFormatError, match="^truncated model file$"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path, two_lang_model):
        _, model = two_lang_model
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ModelFormatError, match="^trailing bytes after model payload$"):
            load_model(path)

    def test_version_1_rejected(self, tmp_path, two_lang_model):
        _, model = two_lang_model
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="^unsupported model version 1$"):
            load_model(path)

    @staticmethod
    def _with_ids(path, ids):
        """Overwrite the stored bucket ids of a three-language model file."""
        data = bytearray(path.read_bytes())
        n_langs, n_stored = 3, len(ids)
        start = len(data) - 4 * n_langs * (n_stored + 1) - 8 * n_stored
        data[start : start + 8 * n_stored] = np.asarray(ids, dtype="<u8").tobytes()
        path.write_bytes(bytes(data))

    @pytest.mark.parametrize(
        "case,message",
        [
            ("swapped", "not strictly increasing"),
            ("repeated", "not strictly increasing"),
            ("swapped-across-slices", "not strictly increasing"),
            ("too-large", "not below n_buckets 1024"),
        ],
    )
    def test_bad_bucket_ids_rejected(self, tmp_path, monkeypatch, case, message):
        monkeypatch.setattr(langid, "_ID_SLICE", 4)  # slices of 4 ids overlap by one
        rng = np.random.default_rng(3)
        spec = FeatureSpec(n_buckets=1 << 10)
        buckets = np.arange(100, 120)
        weights = rng.standard_normal((3, 20)).astype(np.float32)
        model = LangIdModel(spec, ("l00", "l01", "l02"), buckets, weights, np.zeros(3, np.float32))
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert load_model(path).buckets.tolist() == buckets.tolist()
        ids = buckets.copy()
        if case == "swapped":
            ids[[5, 6]] = ids[[6, 5]]
        elif case == "repeated":
            ids[10] = ids[9]
        elif case == "swapped-across-slices":
            ids[[3, 4]] = ids[[4, 3]]  # ids 3 and 4 lie in different slices
        else:
            ids[-1] = spec.n_buckets
        self._with_ids(path, ids)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_stored_count_above_n_buckets_rejected(self, tmp_path):
        path = tmp_path / "count.bin"
        path.write_bytes(self._header(1 << 10, 1, n_stored=(1 << 10) + 1) + b"\x00" * 64)
        with pytest.raises(ModelFormatError, match="1025 stored columns of 1024 buckets"):
            load_model(path)

    def test_cut_inside_the_id_block(self, tmp_path, two_lang_model):
        _, model = two_lang_model
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        ids_end = len(data) - 4 * len(model.languages) * (len(model.buckets) + 1)
        path.write_bytes(data[: ids_end - 12])
        with pytest.raises(ModelFormatError, match="truncated model file: header claims"):
            load_model(path)

    @staticmethod
    def _header(n_buckets, n_langs, n_stored=None):
        """A model header that claims n_langs x n_stored weights (all n_buckets
        by default), with no payload."""
        head = b"MMLI" + struct.pack("<II", 2, 1) + struct.pack("<I", 1)
        head += struct.pack("<Qq", n_buckets, 0) + struct.pack("<I", n_langs)
        head += b"".join(struct.pack("<H", 3) + b"l%02d" % i for i in range(n_langs))
        return head + struct.pack("<Q", n_buckets if n_stored is None else n_stored)

    def test_header_cannot_size_a_huge_read(self, tmp_path):
        # 16 languages x 2^20 buckets of f32 claim a 64 MiB payload
        path = tmp_path / "huge.bin"
        path.write_bytes(self._header(1 << 20, 16) + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_header_may_claim_every_crc32_bucket(self, tmp_path):
        spec = FeatureSpec(n_buckets=1 << 32)
        buckets = np.array([0, (1 << 32) - 1], dtype=np.uint64)
        model = LangIdModel(spec, ("aa", "bb"), buckets, np.ones((2, 2), np.float32), np.zeros(2, np.float32))
        save_model(model, tmp_path / "wide.bin")
        loaded = load_model(tmp_path / "wide.bin")
        assert loaded.spec == spec
        assert predict_batch(loaded, ["abc", ""]) == predict_batch(model, ["abc", ""])

    def test_header_may_not_claim_more_buckets_than_crc32_reaches(self, tmp_path):
        path = tmp_path / "wider.bin"
        path.write_bytes(self._header(1 << 33, 1, n_stored=1) + b"\x00" * 16)
        with pytest.raises(ModelFormatError, match="bad feature spec in header.*2\\^32"):
            load_model(path)

    def test_bad_feature_spec_in_header(self, tmp_path):
        path = tmp_path / "spec.bin"
        path.write_bytes(self._header(1000, 1) + b"\x00" * (4 * 1001))
        with pytest.raises(ModelFormatError, match="bad feature spec in header"):
            load_model(path)
