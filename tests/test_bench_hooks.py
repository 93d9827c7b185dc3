"""The benchmark in `perfbench/` traces the program by module attribute name.

These checks make a rename of a traced function, or a change to the stage
table, fail here rather than only when the benchmark runs. They read
`perfbench/spans.py` and change nothing in it.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from monomine import filters, langid, pipeline

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
    return langid.LangIdModel(spec, ("aa", "bb"), np.zeros((2, spec.n_buckets), np.float32), np.zeros(2, np.float32))


# Prediction and training featurize a batch in one `_feature_matrix` call,
# with each text once: a path that featurized a text again, or somewhere
# else, would add cost that no per-layer metric of the featurizer shows.
@pytest.mark.parametrize("batch_size", [None, 2], ids=["full-batch", "mini-batch"])
def test_each_text_is_featurized_once(monkeypatch, batch_size):
    calls = []
    real = langid._feature_matrix

    def counting(texts, spec):
        calls.append(list(texts))
        return real(texts, spec)

    monkeypatch.setattr(langid, "_feature_matrix", counting)
    texts = ["abc", "", "abc", "ijk lmn"]
    langid.predict_batch(_zero_model(), texts)
    assert calls == [texts]
    calls.clear()
    labeled = [("abc", "aa"), ("", "aa"), ("ijk", "bb"), ("abc", "bb")]
    langid.train(labeled, langid.FeatureSpec(n_buckets=1 << 10), langid.TrainConfig(epochs=3, batch_size=batch_size))
    assert len(calls) == 1
    assert Counter(calls[0]) == Counter(text for text, _ in labeled)


def test_batch_predictions_reach_the_traced_function(monkeypatch):
    seen = []
    real = langid.predict_batch

    def recording(model, texts):
        seen.append(list(texts))
        return real(model, texts)

    monkeypatch.setattr(langid, "predict_batch", recording)
    model = _zero_model()
    model.predict_batch(["a"])
    filters.predict_many(model, ["b", "c"])
    langid.predict(model, "d")
    assert seen == [["a"], ["b", "c"], ["d"]]
