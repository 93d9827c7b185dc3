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
from typing import Optional, Protocol, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateData, ModelFormatError, UnknownLanguage, require

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
    (n_buckets - 1)`; this is the one row of `_feature_matrix([text], spec)`.
    """
    cols, x = _feature_matrix([text], spec)
    return dict(zip(cols[x.indices].tolist(), x.data.tolist()))


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


# zlib's CRC-32 step table: from a zero register, byte i leaves _CRC_TABLE[i]
# (zlib.crc32 complements the register on entry and on exit)
_CRC_TABLE = np.array([~zlib.crc32(bytes([i]), 0xFFFFFFFF) & 0xFFFFFFFF for i in range(256)], dtype=np.uint32)


def _crc_step(reg: np.ndarray, byte: np.ndarray) -> None:
    """Feed one byte into each CRC-32 register, in place."""
    low = reg.astype(np.uint8)
    low ^= byte
    reg >>= 8
    reg ^= _CRC_TABLE[low]


def _ngram_keys(
    texts: Sequence[str], lens: np.ndarray, n_keys: int, spec: FeatureSpec, row_bits: int, key_type: type
) -> np.ndarray:
    """`bucket << row_bits | row` of each of the `n_keys` n-grams of the batch.

    Every character starts a span. Step n extends each span's CRC-32 register
    by the UTF-8 bytes of its n-th character, after dropping the spans that
    would run past the end of their text, so no n-gram crosses two texts.
    """
    raw = np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8)
    idx = np.int32 if raw.size < (1 << 31) else np.int64
    # per span: the byte offset of its next character, its register, the
    # characters left in its text from its start, and its row
    pos = np.flatnonzero((raw & 0xC0) != 0x80).astype(idx)
    reg = np.full(pos.size, ~spec.hash_seed & 0xFFFFFFFF, dtype=np.uint32)
    room = np.repeat(np.cumsum(lens).astype(idx), lens) - np.arange(pos.size, dtype=idx)
    row = np.repeat(np.arange(len(lens), dtype=key_type), lens)
    keys = np.empty(n_keys, dtype=key_type)
    filled = 0
    for n in range(1, spec.ngram_orders[-1] + 1):
        if n > 1:
            live = room >= n
            pos = pos[live]
            reg = reg[live]
            room = room[live]
            row = row[live]
            if not pos.size:
                break
        lead = raw[pos]
        _crc_step(reg, lead)
        pos += 1
        more = np.flatnonzero(lead >= 0xC0)  # characters with a 2nd byte
        for longer in (0xE0, 0xF0, 0xF8):  # leads of characters with a 3rd, 4th, 5th byte
            if not more.size:
                break
            at = pos[more]
            part = reg[more]
            _crc_step(part, raw[at])
            reg[more] = part
            pos[more] = at + 1
            more = more[lead[more] >= longer]
        if n in spec.ngram_orders:
            bucket = ~reg  # zlib.crc32's final complement
            bucket &= spec.n_buckets - 1
            out = keys[filled : filled + pos.size]
            np.left_shift(bucket, row_bits, out=out, dtype=key_type)
            out |= row
            filled += pos.size
    return keys


def _runs(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in `a` starts."""
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return np.flatnonzero(first)


def _feature_matrix(texts: Sequence[str], spec: FeatureSpec) -> tuple[np.ndarray, sp.csr_matrix]:
    """The sorted buckets the batch touches, and `extract_features` of every
    text over them as the rows of one CSR matrix, each row in bucket order.

    The whole batch is hashed in one numpy pass (`_ngram_keys`) into
    bucket-major keys, one per n-gram, then counted by one sort: each run of
    equal keys is one (bucket, row) entry, and each run of equal buckets among
    the entries is one column. So no array is `n_buckets` wide, and a product
    with the touched weight columns adds the same terms in the same order as
    one with the whole matrix. Each text's n-gram total is exact, so each
    value is count / total, as the per-n-gram definition gives it, to the
    last bit.
    """
    lens = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    totals = sum(np.maximum(lens - (n - 1), 0) for n in spec.ngram_orders)  # n-grams per text
    n_keys = int(totals.sum())
    row_bits = (len(texts) - 1).bit_length()
    # 32-bit keys while they fit: a 256-text batch up to 2^24 buckets
    fits = spec.n_buckets.bit_length() - 1 + row_bits <= 32
    keys = _ngram_keys(texts, lens, n_keys, spec, row_bits, np.uint32 if fits else np.uint64)
    keys.sort()
    # drop each array once used: the batch's peak memory is the key array
    # and what is built beside it
    at = _runs(keys)
    keys = keys[at]
    counts = np.diff(at, append=n_keys)
    del at
    rows = keys & ((1 << row_bits) - 1)
    keys >>= row_bits
    colptr = _runs(keys)
    cols = keys[colptr].astype(np.int64)
    del keys
    data = counts / totals[rows]
    del counts
    # a column-major matrix of the entries, turned row-major by scipy's
    # counting pass, which keeps each row's entries in column order
    x = sp.csc_matrix((data, rows, np.append(colptr, len(rows))), shape=(len(texts), len(cols)))
    return cols, x.tocsr()


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

    cols, x = _feature_matrix([text for text, _ in examples], spec)
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


def _probabilities(model: LangIdModel, texts: Sequence[str]) -> np.ndarray:
    """Softmax over the languages for each text, from the weight columns its batch touches.

    A touched bucket that the model does not store weighs 0.0, so the batch's
    block holds the very values a dense matrix would give it.
    """
    cols, x = _feature_matrix(texts, model.spec)
    wanted = cols.astype(model.buckets.dtype, copy=False)
    at = np.searchsorted(model.buckets, wanted)
    stored = at < len(model.buckets)
    stored[stored] = model.buckets[at[stored]] == wanted[stored]
    block = np.zeros((len(model.languages), len(cols)))
    block[:, stored] = model.weights[:, at[stored]]
    return _softmax(x @ block.T + model.bias.astype(np.float64))


def predict_batch(model: LangIdModel, texts: Sequence[str]) -> list[tuple[str, float]]:
    """Predict every text, `BATCH_ROWS` at a time; rows are independent, so
    sharding cannot change results."""
    out: list[tuple[str, float]] = []
    for start in range(0, len(texts), BATCH_ROWS):
        probs = _probabilities(model, texts[start : start + BATCH_ROWS])
        best = np.argmax(probs, axis=1)  # first max wins: earliest language breaks ties
        out += [(model.languages[i], float(probs[row, i])) for row, i in enumerate(best)]
    return out


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
    entries: dict[str, PareEntry] = {}
    for i, lang in enumerate(cm.languages):
        precision = float(counts[i, i] / col_sums[i]) if col_sums[i] else 0.0
        max_confusion = float(worst[i] / row_sums[i]) if row_sums[i] else 0.0
        n_train = train_sizes[lang]
        reasons = []
        if precision < thr.min_precision:
            reasons.append("low_precision")
        if max_confusion > thr.max_confusion:
            reasons.append("high_confusion")
        if n_train < thr.min_examples:
            reasons.append("too_few_examples")
        entries[lang] = PareEntry(
            lang=lang,
            precision=precision,
            max_confusion=max_confusion,
            n_train=n_train,
            dropped=bool(reasons),
            reasons=tuple(reasons),
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
