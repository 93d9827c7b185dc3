"""The mining workloads: set-up, the timed pipeline run, and its output checks.

Set-up builds everything `run_pipeline` reads with the program's own
functions: crawl, LangID model(s), cluster map, wordlists, IIF table, gold
corpora and negative rules. The checks recompute what they need from the
generator's labels and never use the program's helpers.
"""

from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import yaml

import gen
from monomine import clustering, corpus, filters, langid
from monomine.langid import FeatureSpec, TrainConfig
from monomine.pipeline import PipelineConfig, run_pipeline
from spans import STAGE_CALLS

TRAIN = TrainConfig(epochs=40, learning_rate=20.0)
DECLUSTER_SPEC = FeatureSpec(ngram_orders=(1, 2, 3), n_buckets=1 << 15, hash_seed=1)
MIN_PRECISION = 0.95
MIN_RECALL = 0.70
# A TF-IIF list shorter than the crawl's distinct words: clean words and the
# sentences' unique tokens fill it, and template words, frequent on the open
# web, fall off it.
TAU = 100
GOLD_PER_LANG = 60
WEB_PER_LANG = 200  # clean sentences per language behind the open-web counts


@dataclass(frozen=True)
class Mining:
    """One mining workload: crawl shape, models and pipeline settings."""

    crawl: gen.CrawlShape
    spec: FeatureSpec
    separate_decluster_model: bool
    workers: int
    train_per_lang: int = 300
    planted: bool = False  # expect wordlist, TF-IIF and dedup drops
    setup_repeats: int = 1  # set-ups per set-up sample


def setup(w: Mining, seed: int, root: Path) -> dict:
    """Write every pipeline input under `root`; return the run's facts."""
    root.mkdir(parents=True, exist_ok=True)
    langs = gen.make_langs(seed)
    rng = random.Random(seed)
    train_set = gen.labeled(langs, w.train_per_lang, rng)
    gold_set = gen.labeled(langs, GOLD_PER_LANG, rng)

    model = langid.train(train_set, w.spec, TRAIN)
    langid.save_model(model, root / "langid.bin")
    cm = langid.evaluate(model, gold_set)
    dist = clustering.fnr_distance_matrix(cm)
    cmap = clustering.agglomerative_cluster(dist, cm.languages, distance_threshold=0.8)
    clustering.resplit(cmap, dist, cm.languages, max_size=20).save_json(root / "clusters.json")
    decluster_model = None
    if w.separate_decluster_model:
        second = langid.train(gen.labeled(langs, w.train_per_lang, rng), DECLUSTER_SPEC, TRAIN)
        langid.save_model(second, root / "decluster.bin")
        decluster_model = "decluster.bin"

    labels, n_sentences = gen.write_crawl(langs, w.crawl, seed + 1, root / "crawl.jsonl")

    for sub in ("wordlists", "gold"):
        (root / sub).mkdir(exist_ok=True)
    for name in gen.LANGS:
        train_corpus = corpus.MonoCorpus.from_sentences(name, [t for t, l in train_set if l == name])
        filters.build_frequency_wordlist(train_corpus, top=800).save_tsv(root / "wordlists" / f"{name}.txt")
        gold = corpus.MonoCorpus.from_sentences(name, [t for t, l in gold_set if l == name])
        corpus.write_corpus(gold, root / "gold" / f"{name}.txt")
    filters.IifTable.from_counts(gen.web_counts(langs, WEB_PER_LANG, rng), kappa=300).save(root / "iif.tsv")
    rules = [{"lang": name, "rule": "token", "pattern": langs[name].rule_token} for name in gen.RULE_LANGS]
    with open(root / "rules.json", "w", encoding="utf-8") as fh:
        json.dump(rules, fh)
    config = {
        "input": "crawl.jsonl",
        "output_dir": "out",
        "model": "langid.bin",
        "clusters": "clusters.json",
        "workers": w.workers,
        "stages": {
            "wordlist": {"dir": "wordlists", "threshold": 0.2},
            "decluster": {"model": decluster_model},
            "tfiif": {"iif": "iif.tsv", "gold_dir": "gold", "tau": TAU},
            "negative": {"rules": "rules.json"},
        },
    }
    with open(root / "pipeline.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh)
    with open(root / "labels.json", "w", encoding="utf-8") as fh:
        json.dump(labels, fh, ensure_ascii=False)
    return {"items": n_sentences}


def run(root: Path, out_dir: Path) -> None:
    """The timed work: one pipeline run into a fresh output directory."""
    if out_dir.exists():
        raise FileExistsError(f"{out_dir} exists; every run needs a fresh directory")
    config = PipelineConfig.from_yaml(root / "pipeline.yaml")
    config.output_dir = str(out_dir.resolve())
    run_pipeline(config)


def _normalise(text: str) -> str:
    return unicodedata.normalize("NFC", " ".join(text.split()))


def read_outputs(out_dir: Path) -> tuple[dict[str, list[str]], dict]:
    """({lang: corpus lines}, manifests) of one run."""
    with open(out_dir / "manifests.json", encoding="utf-8") as fh:
        manifests = json.load(fh)
    corpora = {}
    for path in sorted(out_dir.glob("*.txt")):
        with open(path, encoding="utf-8") as fh:
            corpora[path.stem] = fh.read().split("\n")[:-1]
    return corpora, manifests


@dataclass(frozen=True)
class Truth:
    """What the checks compare a run's outputs with."""

    labels: dict[str, str]  # normalised crawl sentence -> generator label
    crawl: frozenset[str]  # the crawl's sentences, normalised here
    rules: list[dict]
    planted: bool


def truth(w: Mining, root: Path) -> Truth:
    with open(root / "labels.json", encoding="utf-8") as fh:
        labels = json.load(fh)
    crawl = set()
    with open(root / "crawl.jsonl", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            texts = obj["sentences"] if "sentences" in obj else obj["text"].split("\n")
            crawl.update(_normalise(t) for t in texts)
    with open(root / "rules.json", encoding="utf-8") as fh:
        rules = json.load(fh)
    return Truth(labels, frozenset(crawl), rules, w.planted)


def check(corpora: dict[str, list[str]], manifests: dict, truth: Truth) -> tuple[list[str], dict[str, float]]:
    """Return (failed checks, {"precision", "recall"}) for one run's outputs.

    Precision is the lowest share, over languages, of an output corpus that
    the generator labelled with that language; recall is the lowest share of
    a language's distinct clean crawl sentences that reach its output.
    """
    errors: list[str] = []
    labels = truth.labels
    clean: dict[str, set[str]] = {}
    for text, label in labels.items():
        clean.setdefault(label, set()).add(text)
    precisions, recalls = [], []
    for lang in gen.LANGS:
        lines = corpora.get(lang)
        if not lines:
            errors.append(f"{lang}: no output corpus")
            continue
        unknown = [s for s in lines if s not in truth.crawl]
        if unknown:
            errors.append(f"{lang}: {len(unknown)} lines not in the normalised crawl, e.g. {unknown[0]!r}")
        if len(set(lines)) != len(lines):
            errors.append(f"{lang}: {len(lines) - len(set(lines))} duplicate lines")
        precision = sum(labels.get(s) == lang for s in lines) / len(lines)
        recall = len(clean[lang] & set(lines)) / len(clean[lang])
        if precision < MIN_PRECISION:
            errors.append(f"{lang}: precision {precision:.4f} < {MIN_PRECISION}")
        if recall < MIN_RECALL:
            errors.append(f"{lang}: recall {recall:.4f} < {MIN_RECALL}")
        precisions.append(precision)
        recalls.append(recall)
    extra = sorted(set(corpora) - set(gen.LANGS))
    if extra:
        errors.append(f"unexpected output corpora: {extra}")
    for rule in truth.rules:
        hits = [s for s in corpora.get(rule["lang"], []) if rule["pattern"].casefold() in s.casefold().split()]
        if hits:
            errors.append(f"{rule['lang']}: {len(hits)} lines carry rule token {rule['pattern']!r}")

    stages = {m["stage"]: m for m in manifests["stages"]}
    if list(stages) != list(STAGE_CALLS):
        errors.append(f"manifest stages {list(stages)} != {list(STAGE_CALLS)}")
    for name, stage in stages.items():
        for label, entry in stage["per_language"].items():
            if entry["out"] > entry["in"]:
                errors.append(f"{name}/{label}: out {entry['out']} > in {entry['in']}")
    dedup = stages.get("dedup", {}).get("per_language", {})
    for lang, lines in corpora.items():
        if dedup.get(lang, {}).get("out") != len(lines):
            errors.append(f"{lang}: {len(lines)} lines but dedup out {dedup.get(lang, {}).get('out')}")
    if truth.planted:
        for name in ("wordlist", "tfiif", "dedup"):
            dropped = sum(e["in"] - e["out"] for e in stages.get(name, {}).get("per_language", {}).values())
            if dropped <= 0:
                errors.append(f"{name} dropped no sentence")
    quality = {"precision": min(precisions, default=0.0), "recall": min(recalls, default=0.0)}
    return errors, quality

