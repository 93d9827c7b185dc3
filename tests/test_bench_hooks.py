"""The benchmark in `perfbench/` traces the program by module attribute name.

These checks make a rename of a traced function, or a change to the stage
table, fail here rather than only when the benchmark runs. They read
`perfbench/spans.py` and change nothing in it.
"""

import importlib
import shutil
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from monomine import filters, langid, pipeline
from monomine.clustering import ClusterMap
from monomine.corpus import load_documents
from monomine.langid import load_model, save_model
from monomine.pipeline import ANNOTATE_CHUNK, PipelineConfig, run_pipeline

from pipeline_env import build_env
from test_golden import DECLUSTER_MODEL_PATH, load_golden_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_attribute_is_callable(spans):
    for module_name, attr, span_name in spans.TRACED:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span_name})"


def test_stage_calls_follow_the_stage_table(spans):
    assert list(spans.STAGE_CALLS) == [name for name, *_ in pipeline.STAGES]


def _zero_model():
    spec = langid.FeatureSpec(n_buckets=1 << 10)
    return langid.LangIdModel(spec, ("aa", "bb"), np.arange(0), np.zeros((2, 0), np.float32), np.zeros(2, np.float32))


# Prediction and training featurize a batch in one `_feature_matrices` call,
# with each text once: a path that featurized a text again, or somewhere
# else, would add cost that no per-layer metric of the featurizer shows.
@pytest.mark.parametrize("batch_size", [None, 2], ids=["full-batch", "mini-batch"])
def test_each_text_is_featurized_once(monkeypatch, batch_size):
    calls = []
    real = langid._feature_matrices

    def counting(texts, specs):
        calls.append((list(texts), list(specs)))
        return real(texts, specs)

    monkeypatch.setattr(langid, "_feature_matrices", counting)
    texts = ["abc", "", "abc", "ijk lmn"]
    model = _zero_model()
    langid.predict_batch(model, texts)
    assert calls == [(texts, [model.spec])]
    calls.clear()
    spec = langid.FeatureSpec(n_buckets=1 << 10)
    labeled = [("abc", "aa"), ("", "aa"), ("ijk", "bb"), ("abc", "bb")]
    langid.train(labeled, spec, langid.TrainConfig(epochs=3, batch_size=batch_size))
    assert len(calls) == 1
    assert Counter(calls[0][0]) == Counter(text for text, _ in labeled) and calls[0][1] == [spec]


def test_batch_predictions_reach_the_traced_function(monkeypatch):
    seen = []
    real = langid.predict_batch

    def recording(model, texts):
        seen.append(list(texts))
        return real(model, texts)

    monkeypatch.setattr(langid, "predict_batch", recording)
    model = _zero_model()
    model.predict_batch(["a"])
    filters.annotate_document(["b", "c"], model, ClusterMap.from_groups([["aa", "bb"]]))
    assert seen == [["a"], ["b", "c"]]


@pytest.fixture(scope="module")
def small_env(tmp_path_factory):
    return build_env(
        tmp_path_factory.mktemp("hooks"), n_docs=60, train_per_lang=150, gold_per_lang=40, plant_negative=True
    )


# A run tokenizes each distinct crawl and gold sentence once, through the
# traced `filters.tokenize`, also a gold sentence that the crawl holds too,
# and with no decluster model of its own predicts each distinct crawl sentence
# once, in annotate, where every batch is one traced
# `filters.annotate_document` call on a chunk of the crawl's distinct
# sentences, in the order they first occur. Every traced call that gives a
# stage its peak RSS is still made.
def test_each_sentence_is_tokenized_and_predicted_once(monkeypatch, spans, small_env, tmp_path):
    tokenized, predicted, called = Counter(), Counter(), Counter()
    batches, annotated = [], []
    real_tokenize, real_predict = filters.tokenize, langid.predict_batch

    def counting(text):
        tokenized[text] += 1
        return real_tokenize(text)

    def recording(model, texts):
        predicted.update(texts)
        batches.append(list(texts))
        return real_predict(model, texts)

    def count_calls(name, real):
        def wrapper(*args, **kwargs):
            called[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(filters, "tokenize", counting)
    monkeypatch.setattr(langid, "predict_batch", recording)
    stage_calls = {name for names in spans.STAGE_CALLS.values() for name in names}
    for module_name, attr, name in spans.TRACED:
        if name in stage_calls:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, count_calls(name, getattr(module, attr)))
    real_annotate = filters.annotate_document

    def annotating(texts, *args):
        annotated.append(list(texts))
        return real_annotate(texts, *args)

    monkeypatch.setattr(filters, "annotate_document", annotating)
    raw = small_env.config_dict()
    raw["output_dir"] = str(tmp_path / "out")
    # a gate every language passes, so that the TF-IIF filter runs too
    raw["stages"]["tfiif"].update(rrr_threshold=0.0, min_crawl_removed=0.0, min_recall=0.0)
    # one gold sentence is a crawl sentence of the first document, whose language is "aa"
    shared = next(s.text for s in next(load_documents(small_env.crawl_path)).sentences if small_env.truth[s.text] == "aa")
    shutil.copytree(small_env.root / "gold", tmp_path / "gold")
    with open(tmp_path / "gold" / "aa.txt", "a", encoding="utf-8") as fh:
        fh.write(shared + "\n")
    raw["stages"]["tfiif"]["gold_dir"] = str(tmp_path / "gold")
    # the first document again at the end, its sentences repeated
    crawl_path = tmp_path / "crawl.jsonl"
    lines = small_env.crawl_path.read_text(encoding="utf-8").splitlines(keepends=True)
    crawl_path.write_text("".join(lines) + lines[0].replace('"doc00000"', '"again"'), encoding="utf-8")
    raw["input"] = str(crawl_path)
    config = PipelineConfig.from_dict(raw, base_dir=small_env.root)
    assert config.decluster.model is None
    result = run_pipeline(config)

    assert tokenized and max(tokenized.values()) == 1
    gold = {line for path in (tmp_path / "gold").glob("*.txt") for line in path.read_text().splitlines()}
    outputs = {s for corpus in result.corpora.values() for s in corpus.sentences}
    assert shared in gold and shared in result.corpora["aa"].sentences
    assert gold | outputs <= set(tokenized)
    crawl = [s.text for doc in load_documents(crawl_path) for s in doc.sentences]
    assert len(set(crawl)) < len(crawl)
    assert predicted == Counter(set(crawl))
    assert [t for b in batches for t in b] == list(dict.fromkeys(crawl))
    assert batches == annotated
    assert [len(b) for b in batches[:-1]] == [ANNOTATE_CHUNK] * (len(batches) - 1)
    assert 0 < len(batches[-1]) <= ANNOTATE_CHUNK
    assert set(called) == stage_calls
    tfiif = next(m for m in result.manifests if m.stage == "tfiif")
    assert {e["decision"] for e in tfiif.per_language.values()} == {"filtered"}


# With a decluster model of its own, each annotate chunk of distinct crawl
# sentences is featurized once for both models, in one traced `langid.predict_batch` call made inside the
# chunk's `filters.annotate_document`, and no LangID call follows the chunks:
# decluster routes on what annotate predicted.
def test_each_chunk_is_featurized_once_for_both_models(monkeypatch, small_env, tmp_path):
    events = []
    real_features, real_predict = langid._feature_matrices, langid.predict_batch
    real_annotate = filters.annotate_document

    def featurizing(texts, specs):
        events.append(("featurize", list(texts), list(specs)))
        return real_features(texts, specs)

    def predicting(model, texts, *others):
        events.append(("predict", list(texts), [model.spec] + [m.spec for m in others]))
        return real_predict(model, texts, *others)

    def annotating(texts, *args):
        events.append(("annotate", list(texts), None))
        return real_annotate(texts, *args)

    monkeypatch.setattr(langid, "_feature_matrices", featurizing)
    monkeypatch.setattr(langid, "predict_batch", predicting)
    monkeypatch.setattr(filters, "annotate_document", annotating)
    save_model(load_golden_model(DECLUSTER_MODEL_PATH), tmp_path / "decluster.bin")
    raw = small_env.config_dict()
    raw["output_dir"] = str(tmp_path / "out")
    raw["stages"]["decluster"] = {"model": str(tmp_path / "decluster.bin")}
    config = PipelineConfig.from_dict(raw, base_dir=small_env.root)
    run_pipeline(config)

    specs = [load_model(config.resolve(path)).spec for path in (config.model, config.decluster.model)]
    assert specs[0] != specs[1]
    chunks = [texts for kind, texts, _ in events if kind == "annotate"]
    crawl = [s.text for doc in load_documents(small_env.crawl_path) for s in doc.sentences]
    assert [t for chunk in chunks for t in chunk] == list(dict.fromkeys(crawl))
    assert [len(c) for c in chunks[:-1]] == [ANNOTATE_CHUNK] * (len(chunks) - 1)
    steps = (("annotate", None), ("predict", specs), ("featurize", specs))
    assert events == [(kind, chunk, arg) for chunk in chunks for kind, arg in steps]
