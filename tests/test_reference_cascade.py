"""`run_pipeline` against the plain reference in `reference_cascade.py`.

The crawls are small and drawn by hypothesis: a few documents over a small
pool of sentences, so sentences repeat within and across documents and
document votes often tie; sentences in four disjoint alphabets with
case-folded, punctuated, numeric and token-less words; rule tokens; and
random stage toggles, thresholds and TF-IIF gates, with and without a
decluster model of its own. The LangID models are unigram indicators, one
weight per letter of a language's alphabet, so each sentence's language is
decided by a wide margin or by an exact tie.
"""

import json
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from monomine.clustering import ClusterMap
from monomine.errors import EmptyCorpus
from monomine.filters import IifTable, WordList
from monomine.langid import FeatureSpec, LangIdModel, save_model
from monomine.pipeline import PipelineConfig, run_pipeline

from reference_cascade import reference_run

ALPHABETS = {"aa": "abcde", "bb": "fghij", "cc": "klmno", "dd": "pqrst"}
LANGS = tuple(ALPHABETS)
GROUPS = [["aa", "bb"], ["cc"], ["dd"]]
NEUTRAL = " 0123456789.,!-()ABCDEFGHIJKLMNOPQRST"
# the annotation model's language for each alphabet, and the decluster model's:
# it swaps `aa` and `bb`, and sends `cc` out of its cluster
DECLUSTER = {"aa": "bb", "bb": "aa", "cc": "aa", "dd": "dd"}
VOCAB = {lang: [a[0] + a[1], a[2] + a[3] + a[0], a[4] * 2, a[1] + a[3] + a[4], a[0] * 3, a[2] + a[4]] for lang, a in ALPHABETS.items()}
RULE_TOKEN = {lang: a[3] * 4 for lang, a in ALPHABETS.items()}


def _spec() -> FeatureSpec:
    """A unigram spec under which no two characters in use share a bucket."""
    chars = "".join(ALPHABETS.values()) + NEUTRAL
    for seed in range(1000):
        spec = FeatureSpec(ngram_orders=(1,), n_buckets=1 << 10, hash_seed=seed)
        if len({zlib.crc32(c.encode(), seed) & 1023 for c in chars}) == len(chars):
            return spec
    raise AssertionError("no collision-free hash seed")


def _indicator_model(spec: FeatureSpec, languages: tuple[str, ...], owner: dict[str, str]) -> LangIdModel:
    """Weight 1.0 for each letter of an alphabet under the language `owner`
    maps it to; every other bucket weighs 0.0."""
    cols = {}
    for alphabet_lang, alphabet in ALPHABETS.items():
        for c in alphabet:
            cols[zlib.crc32(c.encode(), spec.hash_seed) & (spec.n_buckets - 1)] = languages.index(owner[alphabet_lang])
    buckets = np.array(sorted(cols), np.int64)
    weights = np.zeros((len(languages), len(buckets)), np.float32)
    for k, b in enumerate(buckets.tolist()):
        weights[cols[b], k] = 1.0
    return LangIdModel(spec, languages, buckets, weights, np.zeros(len(languages), np.float32))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The fixed inputs: both models, the cluster map and the wordlists."""
    root = tmp_path_factory.mktemp("reference")
    spec = _spec()
    save_model(_indicator_model(spec, LANGS, {lang: lang for lang in LANGS}), root / "langid.bin")
    save_model(_indicator_model(spec, ("aa", "bb", "dd"), DECLUSTER), root / "decluster.bin")
    ClusterMap.from_groups(GROUPS).save_json(root / "clusters.json")
    (root / "wordlists").mkdir()
    for lang, words in VOCAB.items():
        WordList(lang, "frequency", tuple((w, float(10 - i)) for i, w in enumerate(words[:4]))).save_tsv(
            root / "wordlists" / f"{lang}.txt"
        )
    return root


@st.composite
def words(draw, lang):
    word = draw(st.sampled_from(VOCAB[lang] + [RULE_TOKEN[lang]] * 2))
    return draw(st.sampled_from([word, word, word.upper(), word.capitalize(), f"{word},", f"({word})", "123"]))


@st.composite
def sentences(draw):
    lang = draw(st.sampled_from(LANGS))
    tokenless = st.sampled_from(["--", "-- !!"])  # a sentence with no token, but a language
    return draw(st.sampled_from([" ", "  "])).join(draw(st.lists(words(lang) | tokenless, min_size=1, max_size=5)))


@st.composite
def runs(draw):
    pool = draw(st.lists(sentences(), min_size=1, max_size=8))
    docs = draw(st.lists(st.lists(st.sampled_from(pool), max_size=6), min_size=1, max_size=5))
    gold = draw(st.dictionaries(st.sampled_from(LANGS), st.lists(sentences(), max_size=4)))
    iif = draw(st.dictionaries(st.sampled_from(sorted({w for ws in VOCAB.values() for w in ws})), st.integers(1, 50), min_size=1))
    rules = [
        {"lang": lang, "rule": draw(st.sampled_from(["token", "substring"])), "case_sensitive": draw(st.booleans()),
         "pattern": draw(st.sampled_from([RULE_TOKEN[lang], RULE_TOKEN[lang].upper(), VOCAB[lang][0]]))}
        for lang in draw(st.lists(st.sampled_from(LANGS), min_size=1, max_size=4))
    ]
    fractions = st.sampled_from([0.0, 0.2, 0.5, 1.0])
    stages = {
        name: {"enabled": draw(st.booleans())}
        for name in ("doc_consistency", "wordlist", "decluster", "tfiif", "negative", "dedup")
    }
    stages["wordlist"].update(dir="wordlists", threshold=draw(fractions))
    stages["decluster"]["model"] = draw(st.sampled_from([None, "decluster.bin"]))
    stages["tfiif"].update(
        iif="iif.tsv",
        gold_dir="gold",
        threshold=draw(fractions),
        tau=draw(st.integers(1, 8)),
        rho=draw(st.sampled_from([1.0, 2.0])),
        rrr_threshold=draw(st.sampled_from([0.0, 1.0])),
        min_crawl_removed=draw(st.sampled_from([0.0, 0.2])),
        min_recall=draw(st.sampled_from([0.0, 0.8])),
    )
    stages["negative"]["rules"] = "rules.json"
    return docs, gold, iif, draw(st.integers(1, 6)), rules, stages, draw(st.booleans())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=runs())
def test_pipeline_equals_the_reference(inputs, drawn):
    docs, gold, iif, kappa, rules, stages, dedup_global = drawn
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with open(tmp / "crawl.jsonl", "w", encoding="utf-8") as fh:
            for i, doc in enumerate(docs):
                fh.write(json.dumps({"id": f"d{i}", "sentences": doc}) + "\n")
        (tmp / "gold").mkdir()
        for lang, lines in gold.items():
            (tmp / "gold" / f"{lang}.txt").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        IifTable.from_counts(iif, kappa=kappa).save(tmp / "iif.tsv")
        (tmp / "rules.json").write_text(json.dumps(rules), encoding="utf-8")
        for name in ("langid.bin", "decluster.bin", "clusters.json", "wordlists"):
            (tmp / name).symlink_to(inputs / name)
        raw = {
            "input": "crawl.jsonl",
            "output_dir": "out",
            "model": "langid.bin",
            "clusters": "clusters.json",
            "dedup_global": dedup_global,
            "stages": stages,
        }
        config = PipelineConfig.from_dict(raw, base_dir=tmp)
        try:
            want = reference_run(config)
        except EmptyCorpus:
            # a gated language whose sentences hold no token has no TF-IIF list
            with pytest.raises(EmptyCorpus):
                run_pipeline(config)
            return
        result = run_pipeline(config)
    assert {lang: list(c.sentences) for lang, c in result.corpora.items()} == want.corpora
    got = {m.stage: {label: e["dropped_by_reason"] for label, e in m.per_language.items()} for m in result.manifests}
    assert got == want.drops
