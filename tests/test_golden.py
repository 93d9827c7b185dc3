"""Byte-identity gate: the pipeline's output for fixed inputs, as sha256 digests.

The LangID models' weights are checked in (`golden/model.npz`, and
`golden/decluster_model.npz` for one decluster config), so the gate does not
depend on how training rounds its floats. Crawl, wordlists, IIF
table and gold corpora come from `build_env(plant_negative=True)`. Each config
below runs the pipeline once; the digest of each output corpus, and of
`manifests.json` with its timings and config hashes taken out, must equal
`golden/digests.json`, and so must the default config's at other annotate
chunk sizes. A change that means to alter the output rewrites the
digests with `python tests/test_golden.py`; `--model` also retrains and
rewrites the models first.
"""

import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from monomine.langid import FeatureSpec, LangIdModel, TrainConfig, load_model, save_model, train
from monomine import pipeline
from monomine.pipeline import _SECTIONS, PipelineConfig, run_pipeline

import synth
from pipeline_env import build_env

GOLDEN = Path(__file__).resolve().parent / "golden"
MODEL_PATH = GOLDEN / "model.npz"
DECLUSTER_MODEL_PATH = GOLDEN / "decluster_model.npz"
DIGESTS_PATH = GOLDEN / "digests.json"


def _stage_off(stage):
    def edit(raw):
        raw["stages"].setdefault(stage, {})["enabled"] = False
    return edit


def _set(key, value):
    def edit(raw):
        raw[key] = value
    return edit


def _own_decluster_model(raw):
    # the annotation model under a second path: decluster predicts again
    # rather than reusing annotate's predictions
    raw["stages"]["decluster"] = {"model": "decluster.bin"}


def _decluster_model_without_en(raw):
    # a model of another spec that has no `en`: it sends every `en` sentence
    # out of its cluster, so this config tells which model decluster routes on
    raw["stages"]["decluster"] = {"model": "decluster_without_en.bin"}


def _tfiif_gate_open(raw, **options):
    raw["stages"]["tfiif"].update(rrr_threshold=0.0, min_crawl_removed=0.0, min_recall=0.0, **options)


def _wordlist_threshold(raw):
    # every crawl sentence has k of k + 1 tokens in its wordlist, k from 5 to
    # 11, so this drops k < 7 and keeps k = 7 only if 7 / 8 >= 0.875 holds
    raw["stages"]["wordlist"]["threshold"] = 0.875


# config name -> its edit of the environment's config
CONFIGS = {
    "default": lambda raw: None,
    **{f"{name}_off": _stage_off(name) for name in _SECTIONS},
    "dedup_global": _set("dedup_global", True),
    **{f"workers_{n}": _set("workers", n) for n in (1, 2, 8)},
    "decluster_model": _own_decluster_model,
    "decluster_model_without_en": _decluster_model_without_en,
    "tfiif_gate_open": _tfiif_gate_open,
    # a 41-token list cuts through tied scores in four languages, and dozens
    # of sentences have exactly half their tokens in it
    "tfiif_short_list": lambda raw: _tfiif_gate_open(raw, tau=41, threshold=0.5),
    "wordlist_7_of_8": _wordlist_threshold,
}


def save_golden_model(model: LangIdModel, path: Path) -> None:
    spec = model.spec
    np.savez_compressed(
        path,
        ngram_orders=np.array(spec.ngram_orders),
        n_buckets=np.array(spec.n_buckets),
        hash_seed=np.array(spec.hash_seed),
        languages=np.array(model.languages),
        buckets=np.asarray(model.buckets),
        weights=np.asarray(model.weights),
        bias=np.asarray(model.bias),
    )


def load_golden_model(path: Path = MODEL_PATH) -> LangIdModel:
    with np.load(path) as z:
        spec = FeatureSpec(tuple(z["ngram_orders"].tolist()), int(z["n_buckets"]), int(z["hash_seed"]))
        return LangIdModel(spec, tuple(z["languages"].tolist()), z["buckets"], z["weights"], z["bias"])


def save_golden_decluster_model_renamed(path: Path, old: str, new: str) -> None:
    """Save the golden decluster model with its language `old` renamed `new`."""
    model = load_golden_model(DECLUSTER_MODEL_PATH)
    languages = tuple(new if lang == old else lang for lang in model.languages)
    save_model(dataclasses.replace(model, languages=languages), path)


def train_decluster_model() -> LangIdModel:
    """The model of `decluster_model_without_en`: trained as `build_env`
    trains the annotation model, on the same examples less those of `en`,
    with other n-gram orders, bucket count and hash seed."""
    examples = [(text, lang) for text, lang in synth.labeled_examples(synth.make_langs(), 300, 1) if lang != "en"]
    spec = FeatureSpec(ngram_orders=(1, 2, 3), n_buckets=1 << 15, hash_seed=1)
    return train(examples, spec, TrainConfig(epochs=60, learning_rate=20.0))


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each output corpus, and of the manifest less what differs between equal runs."""
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.txt"))}
    manifest = json.loads((out_dir / "manifests.json").read_text(encoding="utf-8"))
    for stage in manifest["stages"]:
        for key in ("wall_time", "cpu_time", "config_hash"):
            del stage[key]
    del manifest["summary"]["config_hash"]
    canon = json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False)
    digests["manifests.json"] = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return digests


def build_golden_env(root: Path):
    env = build_env(root, plant_negative=True, model=load_golden_model())
    shutil.copyfile(root / "langid.bin", root / "decluster.bin")
    save_model(load_golden_model(DECLUSTER_MODEL_PATH), root / "decluster_without_en.bin")
    return env


def run_config(env, name: str, out_dir: Path) -> dict[str, str]:
    raw = env.config_dict()
    raw["output_dir"] = str(out_dir)
    CONFIGS[name](raw)
    run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
    return output_digests(out_dir)


@pytest.fixture(scope="module")
def golden_env(tmp_path_factory):
    return build_golden_env(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def test_every_config_has_digests(expected):
    assert sorted(expected) == sorted(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_output_matches_golden_digests(golden_env, expected, name, tmp_path):
    assert run_config(golden_env, name, tmp_path / "out") == expected[name]


@pytest.mark.parametrize("chunk", [7, 1000])
def test_annotate_chunk_size_changes_nothing(golden_env, expected, chunk, tmp_path, monkeypatch):
    # 7 splits most documents across chunks; 1000 holds many documents in one
    monkeypatch.setattr(pipeline, "ANNOTATE_CHUNK", chunk)
    assert run_config(golden_env, "default", tmp_path / "out") == expected["default"]


def _rewrite(retrain: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if retrain:
            build_env(root / "train", plant_negative=True)
            save_golden_model(load_model(root / "train" / "langid.bin"), MODEL_PATH)
            save_golden_model(train_decluster_model(), DECLUSTER_MODEL_PATH)
        env = build_golden_env(root / "env")
        digests = {name: run_config(env, name, root / name) for name in CONFIGS}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _rewrite(retrain="--model" in sys.argv[1:])
