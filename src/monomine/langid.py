"""Character n-gram LangID: training, prediction, confusion statistics, paring.

The classifier is a linear softmax over hashed character n-gram counts. It is
deliberately simple: deterministic given a seed, fast enough to annotate a
crawl on one machine, and exposed behind the small `Predictor` interface so a
heavier model can be dropped in for the second-stage filtering.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Protocol, Sequence

import numpy as np

from .errors import DegenerateData, ModelFormatError, UnknownLanguage, require

if TYPE_CHECKING:
    import scipy.sparse as sp

MODEL_MAGIC = b"MMLI"
MODEL_VERSION = 2

# Most texts `predict_batch` featurizes and scores at once, so that its memory
# is bounded however many texts a caller passes. Rows are scored
# independently, so the batching changes no prediction.
BATCH_ROWS = 256


@dataclass(frozen=True)
class FeatureSpec:
    """Which n-gram orders to extract and how to hash them."""

    ngram_orders: tuple[int, ...] = (1, 2, 3, 4)
    n_buckets: int = 1 << 20
    hash_seed: int = 0

    def __post_init__(self) -> None:
        orders = tuple(sorted(set(self.ngram_orders)))
        if not orders or any(n < 1 for n in orders):
            raise ValueError("ngram orders must be a non-empty set of ints >= 1")
        object.__setattr__(self, "ngram_orders", orders)
        # a bucket is a masked CRC-32, so 2^32 buckets are all it can reach
        if not (1 << 10) <= self.n_buckets <= (1 << 32) or self.n_buckets & (self.n_buckets - 1):
            raise ValueError("n_buckets must be a power of two from 2^10 to 2^32")


def extract_features(text: str, spec: FeatureSpec) -> dict[int, float]:
    """L1-normalized hashed character n-gram counts. Empty text -> {}.

    An n-gram's bucket is `zlib.crc32(ngram.encode("utf-8"), hash_seed) &
    (n_buckets - 1)`; this is the one row of `_feature_matrices([text], [spec])`,
    whose every column holds one entry.
    """
    ((cols, x),) = _feature_matrices([text], [spec])
    return dict(zip(cols.tolist(), x.data.tolist()))


class Predictor(Protocol):
    """Anything that maps each of a batch of texts to a (language, confidence)
    pair, in order."""

    @property
    def languages(self) -> Sequence[str]: ...

    def predict_batch(self, texts: Sequence[str]) -> list[tuple[str, float]]: ...


@dataclass(frozen=True, eq=False)
class LangIdModel:
    """A softmax over hashed n-grams that stores only its trained columns.

    `weights[:, k]` is the weight column of bucket `buckets[k]`; every bucket
    not in `buckets` has weight 0.0 for every language, so no array is
    `n_buckets` wide. A loaded model maps all three arrays read-only.
    """

    spec: FeatureSpec
    languages: tuple[str, ...]
    buckets: np.ndarray  # [n_stored] sorted, unique bucket ids
    weights: np.ndarray  # [n_languages, n_stored] float32
    bias: np.ndarray  # [n_languages] float32

    def __post_init__(self) -> None:
        if len(set(self.languages)) != len(self.languages):
            raise ValueError("languages must be unique")
        if self.buckets.ndim != 1 or self.buckets.dtype.kind not in "iu":
            raise ValueError("buckets must be a 1-D integer array")
        if np.iinfo(self.buckets.dtype).max < self.spec.n_buckets - 1:
            raise ValueError(f"bucket ids of type {self.buckets.dtype} cannot reach {self.spec.n_buckets - 1}")
        n_langs, n_stored = len(self.languages), len(self.buckets)
        if self.weights.shape != (n_langs, n_stored):
            raise ValueError(f"weights must be [{n_langs}, {n_stored}], not {list(self.weights.shape)}")
        if self.bias.shape != (n_langs,):
            raise ValueError(f"bias must be [{n_langs}], not {list(self.bias.shape)}")
        # row by row: no boolean temporary the size of the whole matrix
        if not all(np.isfinite(row).all() for row in self.weights) or not np.isfinite(self.bias).all():
            raise ValueError("weights and bias must be finite")

    def predict_batch(self, texts: Sequence[str]) -> list[tuple[str, float]]:
        return predict_batch(self, texts)


@dataclass
class TrainConfig:
    """Full-batch mode backtracks unstable steps, so a generous learning rate
    is safe there; mini-batch mode applies the rate as given."""

    epochs: int = 100
    learning_rate: float = 10.0
    seed: int = 0
    batch_size: Optional[int] = None  # None = full batch

    def __post_init__(self) -> None:
        rate, batch = self.learning_rate, self.batch_size
        require("epochs", self.epochs, self.epochs >= 1, "at least 1")
        require("learning_rate", rate, 0 < rate < math.inf, "a finite value above 0")
        require("batch_size", batch, batch is None or batch >= 1, "None or at least 1")


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# zlib's CRC-32 step tables, from a zero register (zlib.crc32 complements the
# register on entry and on exit): byte b leaves _CRC_TABLE[b], and bytes b0,
# b1 leave _CRC_TABLE2[b0 | b1 << 8]. The register is linear in the bytes, so
# the pair's entry is that of b0 and then a zero byte, XOR that of b1: one
# outer XOR, with no temporary larger than a row.
_CRC_TABLE = np.array([~zlib.crc32(bytes([i]), 0xFFFFFFFF) & 0xFFFFFFFF for i in range(256)], dtype=np.uint32)
_CRC_TABLE2 = np.empty(1 << 16, dtype=np.uint32)
np.bitwise_xor(
    _CRC_TABLE[:, None], _CRC_TABLE[_CRC_TABLE & 0xFF] ^ (_CRC_TABLE >> 8), out=_CRC_TABLE2.reshape(256, 256)
)


def _feed_byte(reg: np.ndarray, byte: np.ndarray) -> None:
    """Feed one byte into each CRC-32 register, in place."""
    low = reg.astype(np.uint8)
    low ^= byte
    reg >>= 8
    reg ^= _CRC_TABLE.take(low)


def _feed_pair(reg: np.ndarray, pair: np.ndarray) -> None:
    """Feed two bytes, `b0 | b1 << 8`, into each CRC-32 register, in place."""
    low = np.bitwise_xor(reg, pair, dtype=np.intp)
    low &= 0xFFFF
    reg >>= 16
    reg ^= _CRC_TABLE2.take(low)


def _pairs(raw: np.ndarray, at: np.ndarray) -> np.ndarray:
    """`raw[at] | raw[at + 1] << 8`."""
    out = raw[at].astype(np.uint32)
    out |= raw[at + 1].astype(np.uint32) << 8
    return out


def _zero_shifts(x: int, n: int) -> np.ndarray:
    """The register `x` after each of 0..n zero bytes. CRC-32 is affine in its
    start register, so `crc32(d, a) ^ crc32(d, b)` is `a ^ b` after
    `len(d)` zero bytes, whatever bytes `d` holds."""
    out = np.empty(n + 1, dtype=np.uint32)
    for length in range(n + 1):
        out[length] = x
        x = (x >> 8) ^ int(_CRC_TABLE[x & 0xFF])
    return out


def _gaps(starts: np.ndarray, end: int, dtype: type) -> np.ndarray:
    """From each of the ascending `starts` to the next one, and from the last
    to `end`. `np.diff` of an appended copy measured several times slower."""
    out = np.empty(len(starts), dtype=dtype)
    np.subtract(starts[1:], starts[:-1], out=out[:-1], casting="unsafe")
    out[-1:] = end - starts[-1:]
    return out


def _span_keys(texts: Sequence[str], lens: np.ndarray, specs: Sequence[FeatureSpec], row_bits: int) -> list[np.ndarray]:
    """Per spec, `bucket << row_bits | row` of each n-gram of the batch, from
    one CRC walk over every order any spec asks for, from the first spec's
    seed. A span that would cross the end of its text gets the key type's
    largest value instead, so that a sort puts it after every real key or
    beside an equal one: once sorted, the first as many keys as the batch
    has n-grams are its real keys.

    The walk is indexed by character: every character starts a span, and at
    order n span s takes character s + n - 1, so the spans of order n are a
    prefix of the registers. Every span takes its character's first byte;
    then the spans whose character has 2 or more bytes take its first two
    instead, and of those, the spans whose character has 3 or 4 bytes take
    the rest. Another spec's seed XORs in `_zero_shifts` of the two seeds'
    difference at each span's byte length.
    """
    raw = np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8)
    starts = np.flatnonzero((raw & 0xC0) != 0x80)  # each character's first byte
    n_chars = starts.size
    sizes = _gaps(starts, raw.size, np.uint8)  # UTF-8 bytes per character
    lead = raw[starts]
    multi = np.flatnonzero(sizes >= 2)
    pair = _pairs(raw, starts[multi])
    # of the characters in `multi`: those of 3 bytes and their third, and
    # those of 4 bytes and their last two
    three = np.flatnonzero(sizes[multi] == 3)
    third = raw[starts[multi[three]] + 2]
    four = np.flatnonzero(sizes[multi] == 4)
    last = _pairs(raw, starts[multi[four]] + 2)
    del starts
    top = max(n for spec in specs for n in spec.ngram_orders)
    # the spans within top - 1 characters of their text's end, and the
    # characters their text has left from their start: at order n, those
    # with fewer than n cross the end
    ends = np.cumsum(lens)
    back = np.arange(1, top)
    tail = ends[:, None] - back
    inside = tail >= (ends - lens)[:, None]
    tail, room = tail[inside], np.broadcast_to(back, inside.shape)[inside]
    rows = np.repeat(np.arange(len(lens), dtype=np.uint32), lens)
    seed = specs[0].hash_seed & 0xFFFFFFFF
    # per spec, None at the walk's own seed
    shifts = [
        _zero_shifts(other ^ seed, 4 * top) if (other := spec.hash_seed & 0xFFFFFFFF) != seed else None
        for spec in specs
    ]
    # each span's UTF-8 length so far: at most 4 * top bytes
    span_bytes = None
    if any(s is not None for s in shifts):
        span_bytes = np.zeros(n_chars, dtype=np.uint8 if 4 * top < 256 else np.intp)
    keys, filled = [], [0] * len(specs)
    for spec in specs:
        key_type = np.uint32 if spec.n_buckets.bit_length() - 1 + row_bits <= 32 else np.uint64
        keys.append(np.empty(sum(max(n_chars - n + 1, 0) for n in spec.ngram_orders), dtype=key_type))
    reg = np.full(n_chars, ~seed & 0xFFFFFFFF, dtype=np.uint32)
    for n in range(1, top + 1):
        m = n_chars - n + 1  # the spans whose n-th character exists
        if m <= 0:
            break
        span = reg[:m]
        k = np.searchsorted(multi, n - 1)
        at = multi[k:] - (n - 1)
        part = span[at]
        _feed_byte(span, lead[n - 1 :])
        _feed_pair(part, pair[k:])
        for subset, data, feed in ((three, third, _feed_byte), (four, last, _feed_pair)):
            j = np.searchsorted(subset, k)
            if j < len(subset):
                sub = part[subset[j:] - k]
                feed(sub, data[j:])
                part[subset[j:] - k] = sub
        span[at] = part
        if span_bytes is not None:
            span_bytes[:m] += sizes[n - 1 :]
        crossing = tail[(room < n) & (tail < m)]
        for i, spec in enumerate(specs):
            if n not in spec.ngram_orders:
                continue
            bucket = ~span  # zlib.crc32's final complement
            if shifts[i] is not None:
                bucket ^= shifts[i].take(span_bytes[:m])
            bucket &= np.uint32(spec.n_buckets - 1)
            out = keys[i][filled[i] : filled[i] + m]
            np.left_shift(bucket, row_bits, out=out, dtype=out.dtype)
            out |= rows[:m]
            out[crossing] = np.iinfo(out.dtype).max
            filled[i] += m
    return keys


def _runs(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in `a` starts."""
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return np.flatnonzero(first)


def _count(keys: np.ndarray, totals: np.ndarray, row_bits: int) -> tuple[np.ndarray, "sp.csc_matrix"]:
    """The touched buckets and the CSC matrix of one spec's `_span_keys`,
    given each text's n-gram total. Sorts `keys` in place."""
    import scipy.sparse as sp  # here alone, so that commands that build no CSC matrix never load scipy

    n_keys = int(totals.sum())
    keys.sort()
    keys = keys[:n_keys]  # the crossing spans' keys sort last
    at = _runs(keys)
    keys = keys.take(at)
    counts = _gaps(at, n_keys, np.int64)
    del at
    rows = (keys & ((1 << row_bits) - 1)).astype(np.intp)
    keys >>= row_bits
    colptr = _runs(keys)
    cols = keys.take(colptr).astype(np.int64)
    del keys
    data = counts / totals.take(rows)
    del counts
    return cols, sp.csc_matrix((data, rows, np.append(colptr, len(rows))), shape=(len(totals), len(cols)))


def _feature_matrices(
    texts: Sequence[str], specs: Sequence[FeatureSpec]
) -> list[tuple[np.ndarray, "sp.csc_matrix"]]:
    """Per spec, the sorted buckets the batch touches, and `extract_features`
    of every text over them as the rows of one CSC matrix.

    One CRC walk (`_span_keys`) hashes every n-gram of the batch into
    bucket-major keys, an array per distinct spec, and each array is counted
    by one sort: each run of equal keys is one (bucket, row) entry, and each
    run of equal buckets among the entries is one column, its rows in order.
    So no array is `n_buckets` wide, and a product with the touched weight
    columns adds each row's terms in the same column order as one with the
    whole matrix. Each text's n-gram total is exact, so each value is count /
    total, as the per-n-gram definition gives it, to the last bit.
    """
    lens = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    row_bits = (len(texts) - 1).bit_length()
    distinct = list(dict.fromkeys(specs))
    keys = _span_keys(texts, lens, distinct, row_bits)
    matrices = {}
    for spec in reversed(distinct):  # each key array is dropped once counted
        totals = sum(np.maximum(lens - (n - 1), 0) for n in spec.ngram_orders)  # n-grams per text
        matrices[spec] = _count(keys.pop(), totals, row_bits)
    return [matrices[spec] for spec in specs]


def train(
    labeled: Sequence[tuple[str, str]],
    spec: FeatureSpec,
    hyper: Optional[TrainConfig] = None,
    loss_history: Optional[list[float]] = None,
) -> LangIdModel:
    """Fit the softmax classifier by gradient descent.

    Weights start at zero, so with full-batch gradients the result depends
    only on the multiset of examples; to make that bit-exact we canonicalize
    the example order before building the design matrix. Mini-batch mode
    shuffles with the configured seed instead.

    Only the buckets the examples touch are fitted and stored: every other
    bucket has a gradient of exactly 0.0 on every step, so its weight stays 0.0.
    """
    hyper = hyper or TrainConfig()
    langs = tuple(sorted({lang for _, lang in labeled}))
    if len(langs) < 2:
        raise DegenerateData("need at least two distinct languages")
    examples = list(labeled)
    if hyper.batch_size is None:
        examples.sort(key=lambda pair: (pair[1], pair[0]))
    lang_index = {lang: i for i, lang in enumerate(langs)}

    ((cols, x),) = _feature_matrices([text for text, _ in examples], [spec])
    if hyper.batch_size is not None:
        x = x.tocsr()  # mini-batches take rows
    y = np.asarray([lang_index[lang] for _, lang in examples], dtype=np.int64)
    n = len(examples)
    weights = np.zeros((len(langs), len(cols)), dtype=np.float64)
    bias = np.zeros(len(langs), dtype=np.float64)
    rng = np.random.default_rng(hyper.seed)

    def forward(w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
        probs = _softmax(x @ w.T + b)
        return probs, float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))

    if hyper.batch_size is None:
        # Full batch: backtrack the step whenever it would raise the loss, so
        # the per-epoch cross-entropy is non-increasing for any learning rate.
        # The line search scores the step it accepts, and that forward pass
        # starts the next epoch.
        probs, loss = forward(weights, bias)
        for _ in range(hyper.epochs):
            if loss_history is not None:
                loss_history.append(loss)
            probs[np.arange(n), y] -= 1.0
            probs /= n
            grad_w = (x.T @ probs).T
            grad_b = probs.sum(axis=0)
            step = hyper.learning_rate
            while True:
                new_w = weights - step * grad_w
                new_b = bias - step * grad_b
                new_probs, new_loss = forward(new_w, new_b)
                if new_loss <= loss or step < 1e-6:
                    break
                step /= 2.0
            weights, bias, probs, loss = new_w, new_b, new_probs, new_loss
    else:
        for _ in range(hyper.epochs):
            if loss_history is not None:
                loss_history.append(forward(weights, bias)[1])
            order = rng.permutation(n)
            for i in range(0, n, hyper.batch_size):
                batch = order[i : i + hyper.batch_size]
                xb = x[batch]
                probs = _softmax(xb @ weights.T + bias)
                probs[np.arange(len(batch)), y[batch]] -= 1.0
                probs /= len(batch)
                weights -= hyper.learning_rate * (xb.T @ probs).T
                bias -= hyper.learning_rate * probs.sum(axis=0)

    return LangIdModel(
        spec=spec, languages=langs, buckets=cols, weights=weights.astype(np.float32), bias=bias.astype(np.float32)
    )


def _probabilities(model: LangIdModel, cols: np.ndarray, x: "sp.csc_matrix") -> np.ndarray:
    """Softmax over the languages for each row of `x`, a batch's features in
    the model's spec over the buckets `cols`, from the weight columns it touches.

    A touched bucket that the model does not store weighs 0.0, so the batch's
    block holds the very values a dense matrix would give it. The block is
    bucket-major, as the product reads it, so it is not copied again.
    """
    wanted = cols.astype(model.buckets.dtype, copy=False)
    at = np.searchsorted(model.buckets, wanted)
    stored = at < len(model.buckets)
    stored[stored] = model.buckets[at[stored]] == wanted[stored]
    block = np.zeros((len(cols), len(model.languages)))
    block[stored] = model.weights[:, at[stored]].T
    return _softmax(x @ block + model.bias.astype(np.float64))


def predict_batch(
    model: LangIdModel, texts: Sequence[str], *others: LangIdModel
) -> list[tuple[str, float]] | list[list[tuple[str, float]]]:
    """Predict every text, `BATCH_ROWS` at a time; rows are independent, so
    sharding cannot change results.

    With `others`, every model predicts every text from one featurizer pass
    per batch for all of them, and the result is one list per model,
    `model`'s first.
    """
    models = (model, *others)
    out: list[list[tuple[str, float]]] = [[] for _ in models]
    for start in range(0, len(texts), BATCH_ROWS):
        features = _feature_matrices(texts[start : start + BATCH_ROWS], [m.spec for m in models])
        for m, (cols, x), pairs in zip(models, features, out):
            probs = _probabilities(m, cols, x)
            best = np.argmax(probs, axis=1)  # first max wins: earliest language breaks ties
            confidence = probs[np.arange(len(best)), best].tolist()
            pairs += zip(map(m.languages.__getitem__, best.tolist()), confidence)
    return out if others else out[0]


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[true][predicted] over an evaluation set."""

    languages: tuple[str, ...]
    counts: np.ndarray  # [n, n] int64

    def __post_init__(self) -> None:
        n = len(self.languages)
        if self.counts.shape != (n, n):
            raise ValueError("counts must be square over the language list")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    def index(self, lang: str) -> int:
        try:
            return self.languages.index(lang)
        except ValueError:
            raise UnknownLanguage(lang) from None

    def precision(self, lang: str) -> float:
        i = self.index(lang)
        denom = self.counts[:, i].sum()
        return float(self.counts[i, i] / denom) if denom else 0.0

    def recall(self, lang: str) -> float:
        i = self.index(lang)
        denom = self.counts[i].sum()
        return float(self.counts[i, i] / denom) if denom else 0.0

    def pairwise_fnr(self, lang: str, other: str) -> float:
        """Fraction of `lang` examples mis-predicted as `other`."""
        i, j = self.index(lang), self.index(other)
        denom = self.counts[i].sum()
        return float(self.counts[i, j] / denom) if denom else 0.0

    def fdr(self, distractor: str, lang: str) -> float:
        """Examples of `distractor` mis-predicted as `lang`, over true `lang` examples."""
        d, l = self.index(distractor), self.index(lang)
        denom = self.counts[l].sum()
        return float(self.counts[d, l] / denom) if denom else 0.0

    def to_dict(self) -> dict:
        return {"languages": list(self.languages), "counts": self.counts.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "ConfusionMatrix":
        return cls(tuple(obj["languages"]), np.asarray(obj["counts"], dtype=np.int64))


def evaluate(model: LangIdModel, eval_set: Sequence[tuple[str, str]]) -> ConfusionMatrix:
    """Tally counts[true][predicted] over the eval set."""
    model_langs = set(model.languages)
    for _, lang in eval_set:
        if lang not in model_langs:
            raise UnknownLanguage(lang)
    index = {lang: i for i, lang in enumerate(model.languages)}
    counts = np.zeros((len(model.languages),) * 2, dtype=np.int64)
    predictions = predict_batch(model, [text for text, _ in eval_set])
    for (_, true_lang), (pred_lang, _) in zip(eval_set, predictions):
        counts[index[true_lang], index[pred_lang]] += 1
    return ConfusionMatrix(model.languages, counts)


@dataclass(frozen=True)
class PareThresholds:
    min_precision: float = 0.33
    max_confusion: float = 0.50
    min_examples: int = 2000

    def __post_init__(self) -> None:
        for name in ("min_precision", "max_confusion"):
            value = getattr(self, name)
            require(name, value, 0 <= value <= 1, "a value in [0, 1]")
        require("min_examples", self.min_examples, self.min_examples >= 0, "at least 0")


@dataclass(frozen=True)
class PareEntry:
    lang: str
    precision: float
    max_confusion: float
    n_train: int
    dropped: bool
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class ParingReport:
    entries: dict[str, PareEntry]

    @property
    def dropped(self) -> list[str]:
        return [lang for lang, e in self.entries.items() if e.dropped]

    def to_dict(self) -> dict:
        return {
            lang: {
                "precision": e.precision,
                "max_confusion": e.max_confusion,
                "n_train": e.n_train,
                "dropped": e.dropped,
                "reasons": list(e.reasons),
            }
            for lang, e in self.entries.items()
        }


_PARE_REASONS = ("low_precision", "high_confusion", "too_few_examples")


def pare_languages(
    cm: ConfusionMatrix,
    train_sizes: dict[str, int],
    thresholds: Optional[PareThresholds] = None,
) -> ParingReport:
    """Flag languages whose LangID quality or data volume is too poor to crawl.

    Confusion with another language d is max(pairwise FNR toward d, FDR of d),
    and a language is flagged when the worst such value exceeds the threshold.
    """
    thr = thresholds or PareThresholds()
    missing = [lang for lang in cm.languages if lang not in train_sizes]
    if missing:
        raise UnknownLanguage(f"no train size for: {', '.join(missing)}")
    counts = cm.counts
    row_sums, col_sums = counts.sum(axis=1), counts.sum(axis=0)
    # pairwise_fnr(l, d) and fdr(d, l) share the denominator row_sums[l], so
    # the worst of them is the worst of max(C[l, d], C[d, l]) over that sum
    pair = np.maximum(counts, counts.T)
    np.fill_diagonal(pair, 0)
    worst = pair.max(axis=1, initial=0)
    n = len(cm.languages)
    precision = np.divide(counts.diagonal(), col_sums, out=np.zeros(n), where=col_sums != 0)
    max_confusion = np.divide(worst, row_sums, out=np.zeros(n), where=row_sums != 0)
    n_train = [train_sizes[lang] for lang in cm.languages]
    flags = zip(
        (precision < thr.min_precision).tolist(),
        (max_confusion > thr.max_confusion).tolist(),
        (np.asarray(n_train) < thr.min_examples).tolist(),
    )
    entries: dict[str, PareEntry] = {}
    for lang, p, c, size, hits in zip(cm.languages, precision.tolist(), max_confusion.tolist(), n_train, flags):
        reasons = tuple(reason for reason, hit in zip(_PARE_REASONS, hits) if hit)
        entries[lang] = PareEntry(
            lang=lang, precision=p, max_confusion=c, n_train=size, dropped=bool(reasons), reasons=reasons
        )
    return ParingReport(entries)


def save_model(model: LangIdModel, path: str | Path) -> None:
    """Versioned flat binary: header, language list, stored-column count,
    u64 LE bucket ids, f32 LE weights, f32 LE bias.

    The file is written beside `path` and then moved over it, never rewritten
    in place: a model loaded from `path` maps the old file, and reading a
    mapped page that a truncation removed kills the process with SIGBUS. A
    save that fails leaves `path` as it was.
    """
    path = Path(path)
    spec = model.spec
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(struct.pack("<I", MODEL_VERSION))
            fh.write(struct.pack("<I", len(spec.ngram_orders)))
            for n in spec.ngram_orders:
                fh.write(struct.pack("<I", n))
            fh.write(struct.pack("<Q", spec.n_buckets))
            fh.write(struct.pack("<q", spec.hash_seed))
            fh.write(struct.pack("<I", len(model.languages)))
            for lang in model.languages:
                raw = lang.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
            fh.write(struct.pack("<Q", len(model.buckets)))
            fh.write(np.ascontiguousarray(model.buckets, dtype="<u8").tobytes())
            fh.write(np.ascontiguousarray(model.weights, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(model.bias, dtype="<f4").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only still there if the save failed


_ID_SLICE = 1 << 16  # stored bucket ids compared per step of `_check_bucket_ids`


def _check_bucket_ids(ids: np.ndarray, n_buckets: int) -> None:
    """Stored bucket ids must rise strictly and stay below `n_buckets`.

    The slices overlap by one id, so every neighbouring pair is compared and
    the temporaries stay small however many columns the model stores.
    """
    for start in range(0, len(ids), _ID_SLICE):
        part = ids[start : start + _ID_SLICE + 1]
        if not (part[1:] > part[:-1]).all():
            raise ModelFormatError("stored bucket ids are not strictly increasing")
    if len(ids) and ids[-1] >= n_buckets:
        raise ModelFormatError(f"stored bucket id {ids[-1]} is not below n_buckets {n_buckets}")


def load_model(path: str | Path) -> LangIdModel:
    """Read a model written by `save_model`. No header field sizes a read
    beyond what the file holds; any malformed header or bucket id is a
    ModelFormatError.

    The bucket ids, weights and bias are a read-only memory map of the file,
    not a copy: loading reads the stored columns once, to check the ids and
    that the weights are finite, and scoring pages in only the columns a
    batch touches. Only ids that do not start on an 8-byte boundary (which
    the language names' lengths decide) are copied, once, into an aligned
    read-only array.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            buf = fh.read(n)
            if len(buf) != n:
                raise ModelFormatError("truncated model file")
            return buf

        if read(4) != MODEL_MAGIC:
            raise ModelFormatError("bad magic; not a LangID model file")
        (version,) = struct.unpack("<I", read(4))
        if version != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {version}")
        (n_orders,) = struct.unpack("<I", read(4))
        orders = tuple(struct.unpack("<I", read(4))[0] for _ in range(n_orders))
        (n_buckets,) = struct.unpack("<Q", read(8))
        (hash_seed,) = struct.unpack("<q", read(8))
        try:
            spec = FeatureSpec(ngram_orders=orders, n_buckets=n_buckets, hash_seed=hash_seed)
        except ValueError as exc:
            raise ModelFormatError(f"bad feature spec in header: {exc}") from exc
        (n_langs,) = struct.unpack("<I", read(4))
        languages = []
        for _ in range(n_langs):
            (length,) = struct.unpack("<H", read(2))
            try:
                languages.append(read(length).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ModelFormatError(f"language name is not UTF-8: {exc}") from exc
        (n_stored,) = struct.unpack("<Q", read(8))
        if n_stored > n_buckets:
            raise ModelFormatError(f"header claims {n_stored} stored columns of {n_buckets} buckets")
        offset = fh.tell()
        payload, remaining = 8 * n_stored + 4 * n_langs * (n_stored + 1), file_size - offset
        if payload > remaining:
            raise ModelFormatError(f"truncated model file: header claims {payload} payload bytes, {remaining} remain")
        if payload < remaining:
            raise ModelFormatError("trailing bytes after model payload")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    # the arrays keep the map open; no offset need be a multiple of the item size
    buckets = np.frombuffer(mapped, dtype="<u8", count=n_stored, offset=offset)
    if not buckets.flags.aligned:
        # np.searchsorted would copy unaligned ids on every batch; copy them once
        buckets = buckets.copy()
        buckets.flags.writeable = False
    _check_bucket_ids(buckets, n_buckets)
    offset += 8 * n_stored
    weights = np.frombuffer(mapped, dtype="<f4", count=n_langs * n_stored, offset=offset).reshape(n_langs, n_stored)
    bias = np.frombuffer(mapped, dtype="<f4", count=n_langs, offset=offset + 4 * weights.size)
    try:
        return LangIdModel(spec=spec, languages=tuple(languages), buckets=buckets, weights=weights, bias=bias)
    except ValueError as exc:  # a repeated language, a weight that is not finite
        raise ModelFormatError(f"{path}: {exc}") from exc
