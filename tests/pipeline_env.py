"""Builds a complete on-disk pipeline environment from synthetic languages:
crawl, trained model, cluster map, wordlists, IIF table, gold corpora, rules.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from monomine.clustering import agglomerative_cluster, fnr_distance_matrix, resplit
from monomine.corpus import MonoCorpus, write_corpus
from monomine.filters import IifTable, build_frequency_wordlist, tokenize
from monomine.langid import FeatureSpec, LangIdModel, TrainConfig, evaluate, save_model, train

import synth


@dataclass
class PipelineEnv:
    root: Path
    config_path: Path
    crawl_path: Path
    langs: dict
    truth: dict[str, str]  # sentence text -> generator language
    crawl_counts: Counter = field(default_factory=Counter)

    def config_dict(self) -> dict:
        with open(self.config_path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)


def build_env(
    root: Path,
    lang_names=("aa", "bb", "cc", "dd", "ee", "en"),
    n_docs: int = 200,
    train_per_lang: int = 300,
    gold_per_lang: int = 60,
    pollution: float = 0.1,
    seed: int = 0,
    n_buckets: int = 1 << 16,
    epochs: int = 60,
    plant_negative: bool = False,
    workers: int = 1,
    model: Optional[LangIdModel] = None,
) -> PipelineEnv:
    """`model`, if given, is saved as the environment's LangID model in place
    of one trained here; `n_buckets` and `epochs` then go unused."""
    root.mkdir(parents=True, exist_ok=True)
    langs = synth.make_langs(lang_names, seed=seed)
    rng = random.Random(seed + 100)

    train_set = synth.labeled_examples(langs, train_per_lang, seed + 1)
    gold_set = synth.labeled_examples(langs, gold_per_lang, seed + 2)

    if model is None:
        model = train(train_set, FeatureSpec(n_buckets=n_buckets), TrainConfig(epochs=epochs, learning_rate=20.0))
    save_model(model, root / "langid.bin")

    cm = evaluate(model, gold_set)
    dist = fnr_distance_matrix(cm)
    cmap = agglomerative_cluster(dist, cm.languages, distance_threshold=0.8)
    cmap = resplit(cmap, dist, cm.languages, max_size=20)
    cmap.save_json(root / "clusters.json")

    # crawl with cross-language pollution; a unique in-alphabet suffix token
    # makes every sentence distinct so generator labels are unambiguous
    truth: dict[str, str] = {}
    counters = {name: 0 for name in lang_names}
    crawl_path = root / "crawl.jsonl"
    with open(crawl_path, "w", encoding="utf-8") as fh:
        for d in range(n_docs):
            primary = lang_names[d % len(lang_names)]
            sentences = []
            for _ in range(rng.randint(8, 20)):
                if rng.random() < pollution:
                    use = rng.choice([n for n in lang_names if n != primary])
                else:
                    use = primary
                text = langs[use].sentence(rng) + " " + langs[use].unique_token(counters[use])
                counters[use] += 1
                if plant_negative and use == "aa" and rng.random() < 0.02:
                    text += " kasino"
                sentences.append(text)
                truth[text] = use
            fh.write(json.dumps({"id": f"doc{d:05d}", "sentences": sentences}) + "\n")

    wl_dir = root / "wordlists"
    wl_dir.mkdir(exist_ok=True)
    gold_dir = root / "gold"
    gold_dir.mkdir(exist_ok=True)
    for name in lang_names:
        train_corpus = MonoCorpus.from_sentences(name, [t for t, l in train_set if l == name])
        build_frequency_wordlist(train_corpus, top=800).save_tsv(wl_dir / f"{name}.txt")
        write_corpus(
            MonoCorpus.from_sentences(name, [t for t, l in gold_set if l == name]),
            gold_dir / f"{name}.txt",
        )

    internet = Counter()
    for text in truth:
        internet.update(tokenize(text))
    IifTable.from_counts(internet, kappa=300).save(root / "iif.tsv")

    rules = [{"lang": "aa", "rule": "token", "pattern": "kasino"}] if plant_negative else []
    with open(root / "rules.json", "w", encoding="utf-8") as fh:
        json.dump(rules, fh)

    config = {
        "input": "crawl.jsonl",
        "output_dir": "out",
        "model": "langid.bin",
        "clusters": "clusters.json",
        "workers": workers,
        "min_sentences": 25000,
        "stages": {
            "wordlist": {"dir": "wordlists", "threshold": 0.2},
            "tfiif": {"iif": "iif.tsv", "gold_dir": "gold"},
            "negative": {"rules": "rules.json"},
        },
    }
    config_path = root / "pipeline.yaml"
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh)

    return PipelineEnv(
        root=root,
        config_path=config_path,
        crawl_path=crawl_path,
        langs=langs,
        truth=truth,
        crawl_counts=Counter(truth.values()),
    )


def corpus_quality(env: PipelineEnv, lang: str, sentences) -> tuple[float, float]:
    """(precision, recall) of an output corpus against generator labels."""
    if not sentences:
        return 0.0, 0.0
    labels = [env.truth[s] for s in sentences]
    correct = sum(1 for l in labels if l == lang)
    precision = correct / len(labels)
    recall = correct / env.crawl_counts[lang]
    return precision, recall
