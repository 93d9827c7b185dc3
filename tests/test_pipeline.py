import copy
import itertools
import json
import math
import re
import time
from collections import Counter
from pathlib import Path
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from monomine import corpus as corpus_mod
from monomine import filters, langid, pipeline
from monomine.clustering import ClusterMap
from monomine.corpus import Document, SentenceRecord, load_documents, read_corpus
from monomine.errors import ConfigError, ParseError
from monomine.langid import load_model
from monomine.pipeline import (
    ANNOTATE_CHUNK,
    PipelineConfig,
    _annotate_all,
    render_report_text,
    report,
    run_pipeline,
)

from pipeline_env import build_env, corpus_quality
from test_golden import save_golden_decluster_model_renamed


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return build_env(
        tmp_path_factory.mktemp("pipe"),
        n_docs=180,
        train_per_lang=200,
        gold_per_lang=50,
        plant_negative=True,
    )


@pytest.fixture(scope="module")
def first_run(env):
    config = PipelineConfig.from_yaml(env.config_path)
    result = run_pipeline(config)
    return config, result


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.txt"))}


class TestConfig:
    def test_from_yaml(self, env):
        config = PipelineConfig.from_yaml(env.config_path)
        assert config.wordlist.dir == "wordlists"
        assert config.tfiif.rho == 2.0
        assert config.min_sentences == 25000

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"input": "x"})

    def test_unknown_stage_rejected(self):
        raw = {"input": "a", "output_dir": "b", "model": "c", "clusters": "d",
               "stages": {"mystery": {}}}
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)

    def test_bad_stage_option_rejected(self):
        raw = {"input": "a", "output_dir": "b", "model": "c", "clusters": "d",
               "stages": {"wordlist": {"nope": 1}}}
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)

    REQUIRED = {"input": "a", "output_dir": "b", "model": "c", "clusters": "d"}

    @pytest.mark.parametrize(
        "edit, where",
        [
            ({"strict": "false"}, "strict: expected bool"),
            ({"stages": {"dedup": {"enabled": "no"}}}, "stages.dedup.enabled: expected bool"),
            ({"workers": 2.9}, "workers: expected int"),
            ({"workers": True}, "workers: expected int"),
            ({"workers": []}, "workers: expected int"),
            ({"input": 5}, "input: expected str"),
            ({"dedup_globl": True}, "'dedup_globl'"),
            ({"wordlist": {"threshold": 0.5}}, "wordlist: expected WordlistStageConfig"),
            ({"stages": {"wordlist": {"threshold": "0.2"}}}, "stages.wordlist.threshold: expected float"),
            ({"stages": {"tfiif": {"tau": 1.5}}}, "stages.tfiif.tau: expected int"),
            ({"stages": {"tfiif": {"kappa": 300}}}, "stages.tfiif: "),
            ({"stages": {"wordlist": ["dir"]}}, "stages.wordlist: "),
            ({"stages": ["wordlist"]}, "stages: expected a mapping"),
            ({"stages": {"wordlist": {"threshold": math.nan}}}, "stages.wordlist.threshold: expected a value in [0, 1]"),
            ({"stages": {"tfiif": {"threshold": 1.5}}}, "stages.tfiif.threshold: expected a value in [0, 1]"),
            ({"stages": {"tfiif": {"min_crawl_removed": -0.1}}}, "stages.tfiif.min_crawl_removed: expected"),
            ({"stages": {"tfiif": {"min_recall": 1.5}}}, "stages.tfiif.min_recall: expected a value in [0, 1]"),
            ({"stages": {"tfiif": {"tau": -5}}}, "stages.tfiif.tau: expected at least 1"),
            ({"stages": {"tfiif": {"rho": math.inf}}}, "stages.tfiif.rho: expected a finite value above 0"),
            ({"stages": {"tfiif": {"rho": 0}}}, "stages.tfiif.rho: expected a finite value above 0"),
            ({"stages": {"tfiif": {"rrr_threshold": math.nan}}}, "stages.tfiif.rrr_threshold: expected a finite"),
            ({"min_sentences": -1}, "min_sentences: expected at least 0"),
            ({"stages": {"tfiif": {"tau": 0}}}, "stages.tfiif.tau: expected at least 1, got 0"),
        ],
        ids=[
            "string-bool", "string-enabled", "float-workers", "bool-workers", "list-workers",
            "int-input", "unknown-key", "section-at-top", "string-threshold", "float-tau", "kappa",
            "list-section", "list-stages", "nan-threshold", "tfiif-threshold", "crawl-removed",
            "recall-above-1", "negative-tau", "infinite-rho", "zero-rho", "nan-rrr", "negative-min-sentences",
            "zero-tau",
        ],
    )
    def test_bad_value_names_its_key(self, edit, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            PipelineConfig.from_dict({**self.REQUIRED, **edit})

    def test_hash_stable_and_worker_independent(self, env):
        a = PipelineConfig.from_yaml(env.config_path)
        b = PipelineConfig.from_yaml(env.config_path)
        assert a.config_hash() == b.config_hash()
        b.workers = 8
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_config(self, env):
        a = PipelineConfig.from_yaml(env.config_path)
        b = PipelineConfig.from_yaml(env.config_path)
        b.wordlist.threshold = 0.3
        assert a.config_hash() != b.config_hash()


# A valid config with every section: each value in it is one that the guard
# below may swap for a value of any YAML type.
VALID_CONFIG = {
    "input": "crawl.jsonl",
    "output_dir": "out",
    "model": "langid.bin",
    "clusters": "clusters.json",
    "workers": 2,
    "strict": False,
    "min_sentences": 10,
    "dedup_global": True,
    "stages": {
        "doc_consistency": {"enabled": True},
        "wordlist": {"dir": "wordlists", "threshold": 0.2},
        "decluster": {"model": None},
        "tfiif": {"iif": "iif.tsv", "gold_dir": "gold", "threshold": 0.5, "tau": 40, "rho": 2.0,
                  "rrr_threshold": 1, "min_crawl_removed": 0.2, "min_recall": 0.8},
        "negative": {"rules": "rules.json"},
        "dedup": {"enabled": False},
    },
}
YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _paths(raw: dict, path: tuple = ()) -> Iterator[tuple]:
    """The key path of every value in `raw`, nested mappings included."""
    for key, value in raw.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _paths(value, path + (key,))


def _at(raw: dict, path: tuple):
    for key in path:
        raw = raw[key]
    return raw


VALUE_PATHS = list(_paths(VALID_CONFIG))
MAPPING_PATHS = [()] + [path for path in VALUE_PATHS if isinstance(_at(VALID_CONFIG, path), dict)]


@settings(max_examples=300, deadline=None)
@given(
    where=st.one_of(
        st.sampled_from(VALUE_PATHS).map(lambda path: (path[:-1], path[-1])),  # a value swapped
        st.tuples(st.sampled_from(MAPPING_PATHS), st.text(max_size=12)),  # a key added
    ),
    value=YAML_VALUES,
)
def test_mutated_config_is_read_as_given_or_rejected(where, value):
    """A valid config with one value swapped for a value of any YAML type, or
    one key added, is either a `PipelineConfig` that holds every value as the
    mapping gives it, or a `ConfigError`."""
    raw = copy.deepcopy(VALID_CONFIG)
    parent, key = where
    _at(raw, parent)[key] = value
    try:
        config = PipelineConfig.from_dict(raw)
    except ConfigError:
        return
    for key, value in raw.items():
        if key != "stages":
            assert getattr(config, key) is value, key
    for name, body in (raw["stages"] or {}).items():
        for key, value in (body or {}).items():
            assert getattr(getattr(config, name), key) is value, (name, key)


class TestRunPipeline:
    def test_corpora_written_per_language(self, env, first_run):
        config, result = first_run
        out_dir = env.root / "out"
        for lang in env.langs:
            assert (out_dir / f"{lang}.txt").exists()
            assert lang in result.summary["languages"]

    def test_quality_against_generator_labels(self, env, first_run):
        _, result = first_run
        for lang in env.langs:
            precision, recall = corpus_quality(env, lang, result.corpora[lang].sentences)
            assert precision >= 0.95, f"{lang}: precision {precision}"
            assert recall >= 0.70, f"{lang}: recall {recall}"

    def test_negative_rule_applied(self, env, first_run):
        _, result = first_run
        assert not any("kasino" in s for s in result.corpora["aa"].sentences)
        negative = next(m for m in result.manifests if m.stage == "negative")
        assert negative.per_language["aa"]["dropped_by_reason"].get("token:kasino", 0) > 0

    def test_funnel_monotone(self, env, first_run):
        _, result = first_run
        for lang, entry in result.summary["languages"].items():
            counts = list(entry["stage_counts"].values())
            assert all(b <= a for a, b in zip(counts, counts[1:])), lang

    def test_below_threshold_flagged(self, env, first_run):
        _, result = first_run
        for entry in result.summary["languages"].values():
            assert entry["below_training_threshold"] is (
                entry["n_sentences"] < 25000
            )

    def test_manifests_cover_all_stages(self, env, first_run):
        _, result = first_run
        stages = [m.stage for m in result.manifests]
        assert stages == [
            "ingest", "annotate", "doc_consistency", "wordlist",
            "decluster", "tfiif", "negative", "dedup",
        ]

    def test_stage_costs_recorded(self, first_run):
        _, result = first_run
        for m in result.manifests:
            entry = m.to_dict()
            assert entry["wall_time"] >= 0 and entry["cpu_time"] >= 0, m.stage

    def test_tfiif_decisions_recorded(self, env, first_run):
        _, result = first_run
        tfiif = next(m for m in result.manifests if m.stage == "tfiif")
        for lang in env.langs:
            assert "decision" in tfiif.per_language[lang]

    def test_rerun_is_byte_identical(self, env, first_run):
        config, _ = first_run
        before = output_bytes(env.root / "out")
        run_pipeline(config)
        assert output_bytes(env.root / "out") == before

    def test_worker_count_does_not_change_bytes(self, env, first_run):
        config, _ = first_run
        baseline = output_bytes(env.root / "out")
        config8 = PipelineConfig.from_yaml(env.config_path)
        config8.workers = 4
        config8.output_dir = "out-w4"
        run_pipeline(config8)
        assert output_bytes(env.root / "out-w4") == baseline


class TestOutputDirectory:
    def test_rerun_leaves_only_its_own_corpora(self, env, tmp_path):
        out = tmp_path / "out"
        raw = env.config_dict()
        raw["output_dir"] = str(out)
        run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
        assert (out / "en.txt").exists()
        # rerun on the crawl without its en-majority documents
        crawl = tmp_path / "no-en.jsonl"
        with open(env.crawl_path, encoding="utf-8") as src, open(crawl, "w", encoding="utf-8") as dst:
            for line in src:
                votes = Counter(env.truth[s] for s in json.loads(line)["sentences"])
                if votes.most_common(1)[0][0] != "en":
                    dst.write(line)
        raw["input"] = str(crawl)
        (out / "notes.md").write_text("not a corpus")
        run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
        with open(out / "manifests.json", encoding="utf-8") as fh:
            languages = json.load(fh)["summary"]["languages"]
        assert "en" not in languages
        assert {p.stem for p in out.glob("*.txt")} == set(languages)
        assert sorted(p.name for p in out.iterdir() if p.suffix != ".txt") == ["manifests.json", "notes.md"]


class TestCompositionOracle:
    def test_matches_manual_stage_chain(self, env, first_run):
        config, result = first_run
        model = load_model(env.root / "langid.bin")
        clusters = ClusterMap.load_json(env.root / "clusters.json")
        docs = [
            filters.annotate_document(d, model, clusters)
            for d in load_documents(env.crawl_path)
        ]
        cluster_corpora, _ = filters.filter_doc_consistency(docs)
        filtered = {}
        for cid, corpus in cluster_corpora.items():
            lists = {
                lang: filters.WordList.load_tsv(env.root / "wordlists" / f"{lang}.txt", lang, "frequency")
                for lang in clusters.members[cid]
            }
            filtered[cid], _ = filters.filter_wordlist(corpus, lists, 0.2)
        survivors = [s for corpus in filtered.values() for s in corpus.sentences]
        predicted = dict(zip(survivors, (lang for lang, _ in model.predict_batch(survivors))))
        corpora, _ = filters.decluster(filtered, predicted, clusters)
        iif = filters.IifTable.load(env.root / "iif.tsv")
        final, gates = {}, {}
        rules = filters.load_negative_rules(env.root / "rules.json")
        for lang, corpus in corpora.items():
            if corpus.sentences:
                wl = filters.build_tfiif_wordlist(corpus, iif, 1000)
                gold = read_corpus(env.root / "gold" / f"{lang}.txt", lang)
                gate = gates[lang] = filters.rrr_gate(
                    filters.survival_fraction(gold, wl, 0.2),
                    filters.survival_fraction(corpus, wl, 0.2),
                    rho=2.0,
                    rrr_threshold=1.0,
                    lang=lang,
                )
                if gate.apply_filter:
                    corpus, _ = filters.filter_tfiif(corpus, wl, 0.2)
            corpus, _ = filters.negative_filter(corpus, [r for r in rules if r.lang == lang])
            corpus, _ = corpus_mod.dedup(corpus)
            final[lang] = corpus
        for lang in env.langs:
            assert result.corpora[lang].sentences == final[lang].sentences, lang
        # the run's gate reads the crawl's survival off its one filter pass;
        # it must see the very floats the separate definition gives
        tfiif = next(m for m in result.manifests if m.stage == "tfiif")
        assert {lang: e["rrr"] for lang, e in tfiif.per_language.items() if "rrr" in e} == {
            lang: gate.to_dict() for lang, gate in gates.items()
        }


class TestAnnotateChunks:
    # chunk boundaries fall inside documents, on their edges, and between
    # empty ones
    SIZES = (0, 1, 255, 0, 256, 257, 600, 0)

    @pytest.fixture(scope="class")
    def annotator(self, env):
        return load_model(env.root / "langid.bin"), ClusterMap.load_json(env.root / "clusters.json")

    @staticmethod
    def documents(env, sizes):
        records = itertools.cycle(s for doc in load_documents(env.crawl_path) for s in doc.sentences)
        return [
            Document(f"d{i}", tuple(itertools.islice(records, n)), url=f"https://example.org/{i}")
            for i, n in enumerate(sizes)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunking_changes_nothing(self, env, annotator, monkeypatch, workers):
        model, clusters = annotator
        docs = self.documents(env, self.SIZES)
        want = [filters.annotate_document(d, model, clusters) for d in docs]
        batches = []
        real = langid.predict_batch

        def recording(model, texts):
            batches.append(len(texts))
            return real(model, texts)

        monkeypatch.setattr(langid, "predict_batch", recording)
        assert list(_annotate_all(docs, model, clusters, workers)) == want
        full, rest = divmod(sum(self.SIZES), ANNOTATE_CHUNK)
        assert sorted(batches) == sorted([ANNOTATE_CHUNK] * full + [rest])

    def test_documents_are_read_as_chunks_need_them(self, env, annotator):
        model, clusters = annotator
        docs = self.documents(env, [10] * 100)
        for workers in (1, 2):
            read = []

            def stream():
                for doc in docs:
                    read.append(doc.id)
                    yield doc

            annotated = _annotate_all(stream(), model, clusters, workers=workers)
            assert next(annotated).id == "d0"
            # one chunk in flight a worker: with one, the first chunk ends
            # inside the 26th document; with two, the second inside the 52nd
            assert len(read) == -(-workers * ANNOTATE_CHUNK // 10), workers
            assert [d.id for d in annotated] == [d.id for d in docs[1:]]

    class Numbered:
        """Predicts from a sentence's text, its number in the crawl, and
        sleeps over every other chunk of `chunk` sentences, so that chunks
        in flight finish out of order."""

        languages = ("aa", "bb")

        def __init__(self, chunk: int, delay: float):
            self.chunk, self.delay = chunk, delay
            self.batches: list[int] = []

        def predict_batch(self, texts):
            self.batches.append(len(texts))
            if texts and int(texts[0]) // self.chunk % 2 == 0:
                time.sleep(self.delay)
            return [("aa" if int(t) % 3 else "bb", int(t) / 1000) for t in texts]

    class Swapped(Numbered):
        """`Numbered` with its two languages swapped: a decluster predictor
        that disagrees with annotation on every sentence."""

        def predict_batch(self, texts):
            return [("bb" if lang == "aa" else "aa", c) for lang, c in super().predict_batch(texts)]

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 20) | st.just(0), max_size=12),
        chunk=st.integers(1, 9),
        workers=st.integers(1, 3),
    )
    def test_stream_equals_annotating_each_document(self, sizes, chunk, workers):
        numbers = itertools.count()
        docs = [
            Document(f"d{i}", tuple(SentenceRecord(str(next(numbers))) for _ in range(n)), url=f"u{i}")
            for i, n in enumerate(sizes)
        ]
        texts = [s.text for d in docs for s in d.sentences]
        clusters = ClusterMap.from_groups([["aa"], ["bb"]])
        want = [filters.annotate_document(d, self.Numbered(chunk, 0.0), clusters) for d in docs]
        full, rest = divmod(sum(sizes), chunk)
        for decluster in (None, self.Swapped(chunk, 0.001)):
            predictor, predicted = self.Numbered(chunk, 0.001), {}
            with mock.patch.object(pipeline, "ANNOTATE_CHUNK", chunk):
                assert list(_annotate_all(iter(docs), predictor, clusters, workers, decluster, predicted)) == want
            # decluster routes on the decluster predictor's languages, else on annotate's
            routing = (self.Swapped if decluster else self.Numbered)(chunk, 0.0)
            assert predicted == {text: lang for text, (lang, _) in zip(texts, routing.predict_batch(texts))}
            assert sorted(predictor.batches, reverse=True) == [chunk] * full + ([rest] if rest else [])
            if decluster:
                assert sorted(decluster.batches) == sorted(predictor.batches)

    def test_own_decluster_model_predicts_every_crawl_sentence(self, env, first_run, monkeypatch, tmp_path):
        runs = []

        class Recording(pipeline._Run):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        monkeypatch.setattr(pipeline, "_Run", Recording)
        raw = env.config_dict()
        raw["output_dir"] = str(tmp_path / "out")
        raw["stages"]["decluster"] = {"model": "langid.bin"}  # the annotation model, loaded again
        run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
        crawl = [s.text for doc in load_documents(env.crawl_path) for s in doc.sentences]
        model = load_model(env.root / "langid.bin")
        assert len(runs) == 1
        assert runs[0].predicted == {text: lang for text, (lang, _) in zip(crawl, model.predict_batch(crawl))}
        config, _ = first_run
        assert output_bytes(tmp_path / "out") == output_bytes(config.resolve(config.output_dir))


LANGS = st.sampled_from(["aa", "bb", "cc", "dd"])
TOGGLED_STAGES = ("doc_consistency", "wordlist", "decluster", "tfiif", "negative", "dedup")


@pytest.fixture(scope="module")
def without(env):
    """The env's run with one stage disabled; each stage's run is made once."""
    runs = {}

    def run(stage: str):
        if stage not in runs:
            config = PipelineConfig.from_yaml(env.config_path)
            getattr(config, stage).enabled = False
            config.output_dir = f"out-{stage}0"
            runs[stage] = run_pipeline(config)
        return runs[stage]

    return run


class TestDisabledStages:
    def test_disabled_filter_stage_drops_nothing(self, env, first_run, without):
        result = without("negative")
        manifest = next(m for m in result.manifests if m.stage == "negative")
        for entry in manifest.per_language.values():
            assert entry["in"] == entry["out"]
        assert any("kasino" in s for s in result.corpora["aa"].sentences)

    def test_disabled_wordlist_keeps_counts(self, env, without):
        result = without("wordlist")
        manifest = next(m for m in result.manifests if m.stage == "wordlist")
        for entry in manifest.per_language.values():
            assert entry["in"] == entry["out"]

    def test_disabled_doc_consistency_keeps_everything(self, env, without):
        result = without("doc_consistency")
        manifest = next(m for m in result.manifests if m.stage == "doc_consistency")
        total_out = sum(e["out"] for e in manifest.per_language.values())
        ingest = next(m for m in result.manifests if m.stage == "ingest")
        assert total_out == ingest.per_language["*"]["sentences"]

    @pytest.mark.parametrize("stage", TOGGLED_STAGES)
    def test_disabled_stage_passes_everything_on(self, without, stage):
        result = without(stage)
        manifest = next(m for m in result.manifests if m.stage == stage)
        assert manifest.per_language
        for entry in manifest.per_language.values():
            assert entry["in"] == entry["out"]
        for m in result.manifests:
            for entry in m.per_language.values():
                assert {"stage", "in", "out", "dropped_by_reason"} <= set(entry), m.stage
                assert entry["stage"] == m.stage

    def test_disabled_decluster_routes_everything(self, without):
        result = without("decluster")
        totals = {m.stage: sum(e["out"] for e in m.per_language.values()) for m in result.manifests}
        assert totals["decluster"] == totals["wordlist"]

    # A disabled doc-consistency or decluster stage still regroups the
    # sentences, but drops none: its entries are those of a disabled filter
    # stage. Documents are drawn as their sentences' annotated languages, and
    # decluster's reading of a sentence may fall outside its cluster.
    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(st.lists(LANGS, max_size=6), max_size=8), data=st.data())
    def test_disabled_regrouping_stages_drop_nothing(self, docs, data):
        clusters = ClusterMap.from_groups([["aa", "bb"], ["cc"], ["dd"]])
        docs = [
            Document(f"d{k}", tuple(
                SentenceRecord(f"d{k}s{i}", lang, clusters.cluster_of(lang), 0.9) for i, lang in enumerate(langs)
            ))
            for k, langs in enumerate(docs)
        ]
        annotated = {s.text: s.predicted_cluster for doc in docs for s in doc.sentences}
        texts = sorted(annotated)
        config = PipelineConfig("crawl.jsonl", "out", "langid.bin", "clusters.json")
        config.doc_consistency.enabled = config.decluster.enabled = False
        run = pipeline._Run(config, clusters=clusters, predicted={text: data.draw(LANGS) for text in texts})

        cluster_corpora, entries = pipeline._doc_consistency(run, docs)
        assert sorted(s for c in cluster_corpora.values() for s in c.sentences) == texts
        assert all(annotated[s] == cid for cid, c in cluster_corpora.items() for s in c.sentences)
        assert list(entries.items()) == list(pipeline._pass_through("doc_consistency", cluster_corpora).items())

        corpora, entries = pipeline._decluster(run, cluster_corpora)
        assert sorted(s for c in corpora.values() for s in c.sentences) == texts
        assert all(run.predicted[s] == lang for lang, c in corpora.items() for s in c.sentences)
        assert list(entries.items()) == list(pipeline._pass_through("decluster", corpora).items())

    def test_model_language_missing_from_clusters(self, env, tmp_path):
        # a cluster map that does not cover the model's languages is a config error
        partial = tmp_path / "partial.json"
        partial.write_text('{"aa": 0}')
        raw = env.config_dict()
        raw["clusters"] = str(partial)
        raw["output_dir"] = str(tmp_path / "out")
        config = PipelineConfig.from_dict(raw, base_dir=env.root)
        with pytest.raises(ConfigError):
            run_pipeline(config)

    def test_decluster_model_language_missing_from_clusters(self, env, tmp_path):
        # routing on a language the map lacks would drop all its sentences as out_of_cluster
        save_golden_decluster_model_renamed(tmp_path / "zz.bin", "ee", "zz")
        raw = env.config_dict()
        raw["output_dir"] = str(tmp_path / "out")
        raw["stages"]["decluster"] = {"model": str(tmp_path / "zz.bin")}
        with pytest.raises(ConfigError, match="^decluster model languages missing from cluster map: zz$"):
            run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
        assert not list((tmp_path / "out").iterdir())

    def test_empty_crawl(self, tmp_path, env):
        crawl = tmp_path / "empty.jsonl"
        crawl.write_text("")
        raw = env.config_dict()
        raw["input"] = str(crawl)
        raw["output_dir"] = str(tmp_path / "out")
        config = PipelineConfig.from_dict(raw, base_dir=env.root)
        result = run_pipeline(config)
        assert result.corpora == {}
        assert [m.stage for m in result.manifests][0] == "ingest"
        assert (tmp_path / "out" / "manifests.json").exists()


class TestReport:
    def test_report_aggregates_manifests(self, env, first_run):
        rep = report(env.root / "out" / "manifests.json")
        assert "funnel" in rep and "totals" in rep
        # totals equal sums of per-language outs
        with open(env.root / "out" / "manifests.json") as fh:
            data = json.load(fh)
        for stage in data["stages"]:
            expected = sum(e.get("out", 0) for e in stage["per_language"].values())
            assert rep["totals"][stage["stage"]] == expected

    def test_funnel_matches_summary(self, env, first_run):
        _, result = first_run
        rep = report(env.root / "out" / "manifests.json")
        for lang, entry in result.summary["languages"].items():
            assert rep["funnel"][lang]["dedup"] == entry["n_sentences"]

    def test_text_rendering(self, env, first_run):
        rep = report(env.root / "out" / "manifests.json")
        text = render_report_text(rep)
        assert text.startswith("language\t")
        assert "totals:" in text
        for lang in env.langs:
            assert f"\n{lang}\t" in text


class TestMalformedFiles:
    def test_bad_bytes_are_malformed_lines(self, env, first_run, tmp_path):
        crawl = tmp_path / "crawl.jsonl"
        lines = env.crawl_path.read_bytes().splitlines(keepends=True)
        lines.insert(3, b'{"id": "bad-bytes", "sentences": ["caf\xff"]}\n')
        lines.insert(9, b'{"id": "bad-escape", "sentences": ["a \\ud800 b"]}\n')
        crawl.write_bytes(b"".join(lines))
        raw = env.config_dict()
        raw["input"] = str(crawl)
        raw["output_dir"] = str(tmp_path / "out")
        result = run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
        ingest = next(m for m in result.manifests if m.stage == "ingest")
        assert ingest.per_language["*"]["dropped_by_reason"] == {"malformed": 2}
        config, _ = first_run
        assert output_bytes(tmp_path / "out") == output_bytes(config.resolve(config.output_dir))
        raw["strict"] = True
        with pytest.raises(ParseError, match=re.escape(f"{crawl}, line 4: not UTF-8")):
            run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("input: [a\nmodel: b\n", 2, "bad YAML: expected ',' or ']'"),
            ("a: 1\n  b: 2\n", 2, "bad YAML: mapping values"),
        ],
        ids=["unclosed-list", "bad-indent"],
    )
    def test_bad_yaml_names_the_path_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "pipeline.yaml"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}, line {line}: {message}")):
            PipelineConfig.from_yaml(path)

    def test_yaml_not_utf8(self, tmp_path):
        path = tmp_path / "pipeline.yaml"
        path.write_bytes(b"input: crawl.jsonl\nmodel: m\xe9.bin\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}, line 2: not UTF-8")):
            PipelineConfig.from_yaml(path)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            '{"stages": [}',
            "[]",
            '{"stages": 1}',
            '{"summary": {}}',
            '{"stages": [1]}',
            '{"stages": [{"stage": "ingest"}]}',
            '{"stages": [{"stage": "ingest", "per_language": {"aa": {"out": 1.5}}}]}',
            '{"stages": [], "summary": {"languages": []}}',
        ],
        ids=["empty", "bad-json", "list", "stages-not-a-list", "no-stages", "stage-not-an-object",
             "no-per-language", "float-out", "languages-not-an-object"],
    )
    def test_report_of_a_bad_manifest_names_its_path(self, tmp_path, text):
        path = tmp_path / "manifests.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}"):
            report(path)

    def assert_previous_manifest_stops_the_run(self, env, tmp_path, monkeypatch, text, message):
        """A run into a directory holding the manifest `text` raises ParseError
        `message` before any stage runs, and leaves that manifest in place."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifests.json").write_text(text)
        raw = env.config_dict()
        raw["output_dir"] = str(out)
        ingested = []
        monkeypatch.setattr(pipeline, "load_documents", lambda path, **_: ingested.append(path) or iter(()))
        with pytest.raises(ParseError, match=re.escape(f"{out / 'manifests.json'}{message}")):
            run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
        assert ingested == []
        assert (out / "manifests.json").read_text() == text

    def test_corrupt_previous_manifest_stops_the_run(self, env, tmp_path, monkeypatch):
        message = ", line 1: bad JSON"
        self.assert_previous_manifest_stops_the_run(env, tmp_path, monkeypatch, '{"stages": [', message)

    @pytest.mark.parametrize(
        "text", ['{"stages": []}', '{"summary": {"languages": []}}'], ids=["no-summary", "languages-not-an-object"]
    )
    def test_previous_manifest_of_a_bad_shape_stops_the_run(self, env, tmp_path, monkeypatch, text):
        message = ": expected a {language: ...} object under summary.languages"
        self.assert_previous_manifest_stops_the_run(env, tmp_path, monkeypatch, text, message)


class TestIngestManifest:
    def test_lenient_counts_in_manifest(self, env, tmp_path):
        crawl = tmp_path / "messy.jsonl"
        crawl.write_text('{"id":"d1","sentences":["ok"]}\nnot json\n')
        raw = env.config_dict()
        raw["input"] = str(crawl)
        raw["output_dir"] = str(tmp_path / "out")
        config = PipelineConfig.from_dict(raw, base_dir=env.root)
        result = run_pipeline(config)
        ingest = next(m for m in result.manifests if m.stage == "ingest")
        assert ingest.per_language["*"]["dropped_by_reason"] == {"malformed": 1}
        assert "duplicate_ids" not in ingest.per_language["*"]

    def test_duplicate_ids_counted_in_manifest(self, env, tmp_path):
        crawl = tmp_path / "dup.jsonl"
        crawl.write_text('{"id":"d1","sentences":["ok"]}\n{"id":"d1","sentences":["again"]}\n')
        raw = env.config_dict()
        raw["input"] = str(crawl)
        raw["output_dir"] = str(tmp_path / "out")
        result = run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
        ingest = next(m for m in result.manifests if m.stage == "ingest")
        assert ingest.per_language["*"]["duplicate_ids"] == 1
        assert ingest.per_language["*"]["out"] == 2  # counted, not dropped
        raw["strict"] = True
        with pytest.raises(ParseError, match="line 2: duplicate document id 'd1'"):
            run_pipeline(PipelineConfig.from_dict(raw, base_dir=env.root))
