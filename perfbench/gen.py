"""Seeded synthetic inputs for the benchmark.

The benchmark generates its own inputs rather than importing the test
helpers, so an edit to a test cannot silently change a workload. Every
function here depends only on its arguments: the same seed gives the same
bytes.

Mining inputs come from six synthetic languages with disjoint 8-letter
alphabets. Each language has a Zipf-weighted vocabulary of 60 words, a set of
12 four-letter "template" words (the web's function words: frequent in
training text and on the open web, so a TF-IIF list leaves them out), and one
negative-rule token. The generator labels every crawl sentence: its language
for clean text, or ``junk``, ``spam`` or ``negative`` for planted text that a
correct pipeline must drop.

Clustering inputs are a confusion matrix over several hundred languages
grouped in families of mixed size.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHABETS = {
    "aa": "abcdefgh",
    "bb": "ijklmnop",
    "cc": "qrstuvwx",
    "dd": "αβγδεζηθ",
    "ee": "абвгдежз",
    "en": "ικλμνξοπ",
}
LANGS = tuple(sorted(ALPHABETS))
SPAM_LANG = "bb"  # template spam is planted here only, so its TF-IIF gate opens
RULE_LANGS = ("aa", "dd")  # each gets one negative-rule token
TEMPLATE_SHARE = 0.3  # share of clean sentences with one template word in them
WEB_COUNT = 10**6  # open-web frequency of every template word


class Lang:
    """One synthetic language: vocabulary, template words, rule token."""

    def __init__(self, name: str, seed: int):
        rng = random.Random(f"{name}:{seed}")
        self.alphabet = ALPHABETS[name]
        vocab: set[str] = set()
        while len(vocab) < 60:
            vocab.add(self._word(rng, 3, 7))
        self.vocab = sorted(vocab)
        self.weights = [1.0 / (i + 1) for i in range(len(self.vocab))]
        template: set[str] = set()
        while len(template) < 12:
            word = self._word(rng, 4, 4)
            if word not in vocab:
                template.add(word)
        self.template = sorted(template)
        self.rule_token = self._word(rng, 9, 9)

    def _word(self, rng: random.Random, lo: int, hi: int) -> str:
        return "".join(rng.choice(self.alphabet) for _ in range(rng.randint(lo, hi)))

    def words(self, rng: random.Random, n: int) -> list[str]:
        """A clean sentence's n words: Zipf vocabulary, sometimes a template word."""
        words = rng.choices(self.vocab, weights=self.weights, k=n)
        if rng.random() < TEMPLATE_SHARE:
            words[rng.randrange(len(words))] = rng.choice(self.template)
        return words

    def unique_token(self, counter: int) -> str:
        """Eight base-8 digits in this alphabet: longer than any vocabulary
        word, so it makes a sentence distinct without clashing with one."""
        digits = []
        for _ in range(8):
            digits.append(self.alphabet[counter % 8])
            counter //= 8
        return "".join(digits)

    def junk(self, rng: random.Random) -> str:
        """In-alphabet but off every wordlist."""
        return " ".join(self._word(rng, 4, 8) for _ in range(rng.randint(6, 10)))

    def spam(self, rng: random.Random) -> str:
        """Template words only: passes a frequency wordlist, fails TF-IIF."""
        return " ".join(rng.choices(self.template, k=rng.randint(6, 10)))


def make_langs(seed: int) -> dict[str, Lang]:
    return {name: Lang(name, seed) for name in LANGS}


def labeled(langs: dict[str, Lang], per_lang: int, rng: random.Random) -> list[tuple[str, str]]:
    """(text, lang) pairs of clean sentences, as LangID training or eval data."""
    return [
        (" ".join(langs[name].words(rng, rng.randint(5, 11))), name)
        for name in LANGS
        for _ in range(per_lang)
    ]


def web_counts(langs: dict[str, Lang], per_lang: int, rng: random.Random) -> dict[str, int]:
    """Open-web token frequencies: clean text, plus template words that are
    everywhere on the web."""
    counts: dict[str, int] = {}
    for text, _ in labeled(langs, per_lang, rng):
        for tok in text.split():
            counts[tok] = counts.get(tok, 0) + 1
    for lang in langs.values():
        for tok in lang.template:
            counts[tok] = WEB_COUNT
    return counts


@dataclass(frozen=True)
class CrawlShape:
    """How a crawl is made up. Shares are per crawl sentence."""

    n_docs: int
    sentences: tuple[int, int]  # per document, inclusive
    words: tuple[int, int]  # per clean sentence, before its unique token
    pollution: float = 0.10  # clean sentence from another language
    boilerplate: float = 0.0  # exact repeat of one of 4 per-language lines
    junk: float = 0.0
    spam: float = 0.0  # in SPAM_LANG documents only
    negative: float = 0.0  # of clean RULE_LANGS sentences, which get the rule token
    messy_space: float = 0.05  # raw text with extra whitespace


def write_crawl(
    langs: dict[str, Lang], shape: CrawlShape, seed: int, path: Path
) -> tuple[dict[str, str], int]:
    """Write the crawl as JSONL; return {normalised sentence: label} and the
    number of crawl sentences."""
    rng = random.Random(seed)
    # The crawl's layout (document sizes, what kind of sentence goes where,
    # sentence lengths) does not depend on the seed, so every seed gives the
    # same amount of each kind of work and only the words change.
    layout = random.Random(repr(shape))
    boiler = {name: [" ".join(lang.words(rng, 8)) for _ in range(4)] for name, lang in langs.items()}
    counters = {name: 0 for name in langs}
    labels: dict[str, str] = {}
    n_sentences = 0
    with open(path, "w", encoding="utf-8") as fh:
        for d in range(shape.n_docs):
            primary = LANGS[d % len(LANGS)]
            lang = langs[primary]
            sentences = []
            for _ in range(layout.randint(*shape.sentences)):
                r = layout.random()
                if r < shape.boilerplate:
                    text, label = rng.choice(boiler[primary]), primary
                elif (r := r - shape.boilerplate) < shape.junk:
                    text, label = lang.junk(rng), "junk"
                elif (r := r - shape.junk) < shape.spam and primary == SPAM_LANG:
                    text, label = lang.spam(rng), "spam"
                else:
                    use = primary
                    if layout.random() < shape.pollution:
                        use = layout.choice([n for n in LANGS if n != primary])
                    words = langs[use].words(rng, layout.randint(*shape.words))
                    words.append(langs[use].unique_token(counters[use]))
                    counters[use] += 1
                    label = use
                    if use in RULE_LANGS and layout.random() < shape.negative:
                        words.insert(rng.randrange(len(words)), langs[use].rule_token)
                        label = "negative"
                    text = " ".join(words)
                labels[text] = label
                if layout.random() < shape.messy_space:
                    text = " " + text.replace(" ", "  ", 1) + "\t"
                sentences.append(text)
            n_sentences += len(sentences)
            if d % 2:
                obj = {"id": f"doc{d:05d}", "text": "\n".join(sentences)}
            else:
                obj = {"id": f"doc{d:05d}", "sentences": sentences}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return labels, n_sentences


@dataclass(frozen=True)
class MatrixShape:
    """A confusion matrix over families of confusable languages."""

    n_langs: int
    family_sizes: tuple[int, ...]  # taken in turn; 1 is a singleton


def confusion_matrix(shape: MatrixShape, seed: int) -> tuple[list[str], np.ndarray, list[int], dict[str, int]]:
    """Return (languages, counts, family of each language, train sizes).

    A family is split into dialect groups of at most three languages that
    confuse each other strongly (more than a fifth of a row each), so
    clustering recovers the groups, not whole large families, whatever the
    seed. The rest of a row's errors go thinly to the rest of the family and
    a few strangers. Row totals are distinct primes and in-family counts are
    distinct and non-zero, so no two in-family confusion rates are equal and
    no linkage distance below 1 ties with another.
    """
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    while sum(sizes) < shape.n_langs:
        sizes.append(min(shape.family_sizes[len(sizes) % len(shape.family_sizes)], shape.n_langs - sum(sizes)))
    n = shape.n_langs
    order = [int(i) for i in rng.permutation(n)]  # families interleave in label order
    families = [0] * n
    groups: list[list[int]] = []
    start = 0
    for fam, size in enumerate(sizes):
        members = order[start : start + size]
        start += size
        for i in members:
            families[i] = fam
        groups.extend(members[k : k + 3] for k in range(0, size, 3))
    group_of = {i: g for g, members in enumerate(groups) for i in members}
    langs = [f"l{i:04d}" for i in range(n)]
    totals = rng.choice(_primes(4000, 40000), size=n, replace=False)
    counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        close = [j for j in groups[group_of[i]] if j != i]
        kin = [j for j in range(n) if families[j] == families[i] and j != i and j not in close]
        keep = rng.uniform(0.2, 0.45) if close else rng.uniform(0.6, 0.98)
        row = np.zeros(n)
        if close:
            row[close] = rng.dirichlet(np.full(len(close), 8.0)) * (1 - keep) * 0.85
        if kin:
            row[kin] = rng.dirichlet(np.full(len(kin), 2.0)) * (1 - keep) * (0.1 if close else 0.3)
        strangers = rng.choice(n, size=3, replace=False)
        strangers = strangers[strangers != i]
        row[strangers] += rng.uniform(0.0, 0.01, size=len(strangers))
        row[i] = 0
        off = np.floor(row * totals[i]).astype(np.int64)
        seen: set[int] = set()
        for j in close + kin:
            c = max(1, int(off[j]))
            while c in seen:
                c += 1
            seen.add(c)
            off[j] = c
        counts[i] = off
        counts[i, i] = int(totals[i]) - int(off.sum())
    train_sizes = {lang: int(rng.integers(500, 20000)) for lang in langs}
    return langs, counts, families, train_sizes


def _primes(lo: int, hi: int) -> np.ndarray:
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve[lo:])[0] + lo
