"""Pipeline orchestration: run the full mining cascade from a config file.

Stage order (the `STAGES` table): ingest -> annotate -> doc-consistency ->
wordlist -> decluster -> tfiif (gated per language) -> negative -> dedup.
Every stage leaves a manifest with per-language in/out counts and drop
reasons; disabling a stage means no sentence is dropped by it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, get_type_hints

import yaml

from . import corpus as corpus_mod
from . import filters, langid
from .clustering import ClusterMap
from .corpus import Document, IngestReport, MonoCorpus, SentenceRecord, load_documents
from .errors import ConfigError, MissingWordlist, ParseError, check_fields, read_json, read_lines, require, utf8
from .filters import StageReport, WordList
from .langid import BATCH_ROWS, LangIdModel, Predictor, load_model

T = TypeVar("T")
R = TypeVar("R")


def _checked(check: Callable[..., None], *args: Any) -> None:
    """Run a range check (`errors.require` or one that `filters` makes of its
    options); its ValueError, which names the option and so the field, is a
    ConfigError."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class StageToggle:
    enabled: bool = True

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)


@dataclass
class WordlistStageConfig(StageToggle):
    dir: Optional[str] = None
    threshold: float = 0.2

    def __post_init__(self) -> None:
        super().__post_init__()
        _checked(filters.check_fraction, "threshold", self.threshold)


@dataclass
class DeclusterStageConfig(StageToggle):
    model: Optional[str] = None  # None: reuse the annotation model


@dataclass
class TfiifStageConfig(StageToggle):
    iif: Optional[str] = None
    gold_dir: Optional[str] = None
    threshold: float = 0.2
    tau: int = 1000
    rho: float = 2.0
    rrr_threshold: float = 1.0
    min_crawl_removed: float = 0.2
    min_recall: float = 0.8

    def __post_init__(self) -> None:
        super().__post_init__()
        _checked(filters.check_fraction, "threshold", self.threshold)
        _checked(require, "tau", self.tau, self.tau >= 1, "at least 1")
        _checked(filters.check_rrr_options, self.rho, self.rrr_threshold, self.min_crawl_removed, self.min_recall)


@dataclass
class NegativeStageConfig(StageToggle):
    rules: Optional[str] = None


@dataclass
class PipelineConfig:
    """The config file's schema; a `StageToggle` field is a `stages:` section."""

    input: str
    output_dir: str
    model: str
    clusters: str
    workers: int = 1
    strict: bool = False
    min_sentences: int = 25000
    dedup_global: bool = False
    doc_consistency: StageToggle = field(default_factory=StageToggle)
    wordlist: WordlistStageConfig = field(default_factory=WordlistStageConfig)
    decluster: DeclusterStageConfig = field(default_factory=DeclusterStageConfig)
    tfiif: TfiifStageConfig = field(default_factory=TfiifStageConfig)
    negative: NegativeStageConfig = field(default_factory=NegativeStageConfig)
    dedup: StageToggle = field(default_factory=StageToggle)
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        _checked(require, "min_sentences", self.min_sentences, self.min_sentences >= 0, "at least 0")

    @classmethod
    def from_dict(cls, raw: dict, base_dir: str | Path = ".") -> "PipelineConfig":
        """The config that the mapping `raw` states. A missing or unknown
        key, or a value its field does not admit, raises ConfigError with
        the key's path, such as `stages.wordlist.threshold`."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a mapping")
        top = dict(raw)
        stages = top.pop("stages", None)
        stages = {} if stages is None else stages
        if not isinstance(stages, dict):
            raise ConfigError(f"stages: expected a mapping, got {type(stages).__name__}")
        sections = {}
        for name, body in stages.items():
            path = f"stages.{name}"
            if name not in _SECTIONS:
                raise ConfigError(f"{path}: no such stage")
            try:
                sections[name] = _SECTIONS[name](**({} if body is None else body))
            except TypeError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            except ConfigError as exc:
                raise ConfigError(f"{path}.{exc}") from exc
        try:
            return cls(**top, **sections, base_dir=Path(base_dir))
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_yaml(cls, path: str | Path) -> "PipelineConfig":
        """The config in the YAML file at `path`; bad bytes or bad YAML raise
        ParseError with the path and line."""
        path = Path(path)
        text = "\n".join(utf8(line_no, line, path) for line_no, line in read_lines(path))
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            problem = getattr(exc, "problem", None) or str(exc)
            raise ParseError(None if mark is None else mark.line + 1, f"bad YAML: {problem}", path) from exc
        return cls.from_dict(raw or {}, base_dir=path.parent)

    def resolve(self, p: str) -> Path:
        q = Path(p)
        return q if q.is_absolute() else self.base_dir / q

    def to_canonical_dict(self) -> dict:
        canon = asdict(self)
        del canon["workers"], canon["base_dir"]
        canon["stages"] = {name: canon.pop(name) for name in _SECTIONS}
        return canon

    def config_hash(self) -> str:
        # Worker count is excluded: it must not affect outputs, so two runs
        # differing only in workers share a hash.
        canon = json.dumps(self.to_canonical_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# name -> class of each `stages:` section
_SECTIONS = {
    name: hint
    for name, hint in get_type_hints(PipelineConfig).items()
    if isinstance(hint, type) and issubclass(hint, StageToggle)
}


@dataclass
class StageManifest:
    stage: str
    per_language: dict[str, dict]
    wall_time: float
    cpu_time: float  # process CPU seconds, worker threads included
    config_hash: str

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "per_language": self.per_language,
            "wall_time": self.wall_time,
            "cpu_time": self.cpu_time,
            "config_hash": self.config_hash,
        }


@dataclass
class PipelineResult:
    manifests: list[StageManifest]
    corpora: dict[str, MonoCorpus]
    summary: dict

    def to_dict(self) -> dict:
        return {
            "stages": [m.to_dict() for m in self.manifests],
            "summary": self.summary,
        }


@dataclass
class _Run:
    """What a stage needs besides its corpora: the config, and what the
    annotate stage loaded and predicted for the stages after it. `predicted`
    holds the language decluster routes each crawl text to: the decluster
    model's prediction if one is configured, else annotate's own."""

    config: PipelineConfig
    clusters: Optional[ClusterMap] = None
    predicted: dict[str, str] = field(default_factory=dict)


class _WithDecluster:
    """One annotate chunk's predictor: it predicts with the annotation
    predictor and, in the same call, keeps each text's language under the
    decluster predictor. Two LangID models featurize each batch once for both."""

    def __init__(self, predictor: Predictor, decluster: Predictor):
        self.predictor, self.decluster = predictor, decluster
        self.languages = predictor.languages
        self.decluster_langs: list[str] = []

    def predict_batch(self, texts: Sequence[str]) -> list[tuple[str, float]]:
        if isinstance(self.predictor, LangIdModel) and isinstance(self.decluster, LangIdModel):
            pairs, other = langid.predict_batch(self.predictor, texts, self.decluster)
        else:
            pairs, other = self.predictor.predict_batch(texts), self.decluster.predict_batch(texts)
        self.decluster_langs = [lang for lang, _ in other]
        return pairs


# Sentences per annotate batch: as many as one LangID scoring call takes.
# Chunks run across document boundaries, so a LangID call's fixed cost is paid
# per chunk however the crawl is split into documents.
ANNOTATE_CHUNK = BATCH_ROWS


def _in_order(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[R]:
    """`map(fn, items)` with up to `workers` calls in flight, each item taken
    on the calling thread only when a call needs it. One worker maps on the
    calling thread, which measured faster than handing items to a pool thread."""
    if workers == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight: deque[Future] = deque()
        for item in items:
            in_flight.append(pool.submit(fn, item))
            if len(in_flight) == workers:
                yield in_flight.popleft().result()
        for future in in_flight:
            yield future.result()


def _annotate_all(
    docs: Iterable[Document],
    predictor: Predictor,
    clusters: ClusterMap,
    workers: int,
    decluster: Optional[Predictor] = None,
    predicted: Optional[dict[str, str]] = None,
) -> Iterator[Document]:
    """Each document annotated, in input order: the crawl's sentence records
    are one stream, annotated in chunks of `ANNOTATE_CHUNK`, and each
    document takes its own count of annotated records back off it. Rows are
    predicted independently, so the chunking changes no prediction, and
    `_in_order` keeps the chunks in order, so the worker count changes
    nothing either.

    `predicted`, if given, gets each text's language for decluster as its
    chunk comes out: the `decluster` predictor's, predicted in the same
    chunk, or the annotation's without one."""
    docs, again = itertools.tee(docs)
    records = itertools.chain.from_iterable(doc.sentences for doc in docs)
    chunks = iter(lambda: tuple(itertools.islice(records, ANNOTATE_CHUNK)), ())

    def annotate(chunk: tuple[SentenceRecord, ...]) -> tuple[tuple[SentenceRecord, ...], list[str]]:
        doc = Document("chunk", chunk)
        if decluster is None:
            sentences = filters.annotate_document(doc, predictor, clusters).sentences
            return sentences, [s.predicted_lang for s in sentences]
        both = _WithDecluster(predictor, decluster)
        return filters.annotate_document(doc, both, clusters).sentences, both.decluster_langs

    def annotated_records() -> Iterator[SentenceRecord]:
        for sentences, langs in _in_order(annotate, chunks, workers):
            if predicted is not None:
                predicted.update(zip((s.text for s in sentences), langs))
            yield from sentences

    annotated = annotated_records()
    for doc in again:
        yield Document(doc.id, tuple(itertools.islice(annotated, len(doc.sentences))), url=doc.url)


def _load_wordlists_for(langs: list[str], directory: Path) -> dict[str, WordList]:
    lists = {}
    for lang in langs:
        path = directory / f"{lang}.txt"
        if not path.exists():
            raise MissingWordlist(f"no wordlist for cluster language {lang!r} at {path}")
        lists[lang] = WordList.load_tsv(path, lang, "frequency")
    return lists


def _entries(reports: Mapping[str, StageReport]) -> dict[str, dict]:
    """A stage's manifest entries, in the order of its reports."""
    return {label: rep.to_dict() for label, rep in reports.items()}


def _pass_through(stage: str, corpora: dict) -> dict[str, dict]:
    """Entries of a disabled filter stage: it dropped nothing."""
    return _entries(
        {c.lang: StageReport(stage, len(c.sentences), len(c.sentences)) for _, c in sorted(corpora.items())}
    )


def _ingest(run: _Run, _: None) -> tuple[list[Document], dict[str, dict]]:
    config = run.config
    ingest = IngestReport()
    docs = list(load_documents(config.resolve(config.input), strict=config.strict, report=ingest))
    rep = StageReport("ingest", ingest.lines, ingest.documents)
    if ingest.skipped:
        rep.dropped_by_reason["malformed"] = ingest.skipped
    entry = {**rep.to_dict(), "sentences": sum(len(d.sentences) for d in docs)}
    if ingest.duplicate_ids:  # only when non-zero: a clean crawl's entry keeps its shape
        entry["duplicate_ids"] = ingest.duplicate_ids
    return docs, {"*": entry}


def _check_languages(model: Predictor, clusters: ClusterMap, what: str) -> None:
    """ConfigError naming each of the model's languages the cluster map
    lacks: a sentence predicted as one could reach no cluster."""
    missing = [lang for lang in model.languages if lang not in clusters.assignment]
    if missing:
        raise ConfigError(f"{what} languages missing from cluster map: {', '.join(missing)}")


def _annotate(run: _Run, docs: list[Document]) -> tuple[list[Document], dict[str, dict]]:
    config = run.config
    model = load_model(config.resolve(config.model))
    run.clusters = ClusterMap.load_json(config.resolve(config.clusters))
    _check_languages(model, run.clusters, "model")
    decluster_model = None
    if config.decluster.model:
        decluster_model = load_model(config.resolve(config.decluster.model))
        _check_languages(decluster_model, run.clusters, "decluster model")
    # rows are predicted independently, so a text's language is the same in
    # any chunk, and a repeated text keeps it
    run.predicted = {}
    docs = list(_annotate_all(docs, model, run.clusters, config.workers, decluster_model, run.predicted))
    n_sentences = sum(len(d.sentences) for d in docs)
    return docs, {"*": StageReport("annotate", n_sentences, n_sentences).to_dict()}


def _doc_consistency(run: _Run, docs: list[Document]) -> tuple[dict, dict[str, dict]]:
    """Disabled, the stage still groups the sentences by cluster: a
    one-sentence document always agrees with itself, so every sentence goes
    to its own predicted cluster."""
    if not run.config.doc_consistency.enabled:
        docs = (Document(doc.id, (record,)) for doc in docs for record in doc.sentences)
    cluster_corpora, reports = filters.filter_doc_consistency(docs)
    return cluster_corpora, _entries(reports)


def _wordlist(run: _Run, cluster_corpora: dict[int, MonoCorpus]) -> tuple[dict, dict[str, dict]]:
    config = run.config
    if not config.wordlist.dir:
        raise ConfigError("wordlist stage enabled but no wordlist dir configured")
    wl_dir = config.resolve(config.wordlist.dir)
    filtered, reports = {}, {}
    for cid, corpus in sorted(cluster_corpora.items()):
        lists = _load_wordlists_for(list(run.clusters.members.get(cid, ())), wl_dir)
        filtered[cid], reports[corpus.lang] = filters.filter_wordlist(corpus, lists, config.wordlist.threshold)
    return filtered, _entries(reports)


def _decluster(run: _Run, cluster_corpora: dict[int, MonoCorpus]) -> tuple[dict, dict[str, dict]]:
    """Each sentence to the language annotate predicted for decluster,
    dropping those outside their cluster; disabled, the stage routes with no
    cluster map and drops nothing."""
    clusters = run.clusters if run.config.decluster.enabled else None
    corpora, reports = filters.decluster(cluster_corpora, run.predicted, clusters)
    return corpora, _entries(reports)


def _tfiif(run: _Run, corpora: dict[str, MonoCorpus]) -> tuple[dict, dict[str, dict]]:
    """TF-IIF, applied to a language only where its RRR gate says so. The
    filter runs once on the crawl: its survival fraction feeds the gate, and
    its survivors are kept only if the gate opens."""
    config, cfg = run.config, run.config.tfiif
    if not cfg.iif:
        raise ConfigError("tfiif stage enabled but no iif table configured")
    iif = filters.IifTable.load(config.resolve(cfg.iif))
    gold_dir = config.resolve(cfg.gold_dir) if cfg.gold_dir else None
    filtered, entries = {}, {}
    for lang, corpus in sorted(corpora.items()):
        rep = StageReport("tfiif", len(corpus.sentences), len(corpus.sentences))
        kept = corpus.sentences
        gold_path = gold_dir / f"{lang}.txt" if gold_dir else None
        if not corpus.sentences:
            extras: dict[str, Any] = {"decision": "skipped:empty_corpus"}
        elif gold_path is None or not gold_path.exists():
            extras = {"decision": "skipped:no_gold_corpus"}
        else:
            wordlist = filters.build_tfiif_wordlist(corpus, iif, cfg.tau)
            gold = corpus_mod.read_corpus(gold_path, lang, corpus.table)
            survivors, survived = filters.filter_tfiif(corpus, wordlist, cfg.threshold)
            gate = filters.rrr_gate(
                r_gold=filters.survival_fraction(gold, wordlist, cfg.threshold),
                r_crawl=survived.n_out / survived.n_in,
                rho=cfg.rho,
                rrr_threshold=cfg.rrr_threshold,
                min_crawl_removed=cfg.min_crawl_removed,
                min_recall=cfg.min_recall,
                lang=lang,
            )
            extras = {"rrr": gate.to_dict(), "decision": "filtered" if gate.apply_filter else "skipped:gate"}
            if gate.apply_filter:
                kept, rep = survivors.sentences, survived
        filtered[lang] = corpus.advanced("tfiif", kept)
        entries[lang] = {**rep.to_dict(), **extras}
    return filtered, entries


def _negative(run: _Run, corpora: dict[str, MonoCorpus]) -> tuple[dict, dict[str, dict]]:
    config = run.config
    rules_by_lang: dict[str, list[filters.NegativeFilterRule]] = {}
    if config.negative.rules:
        for rule in filters.load_negative_rules(config.resolve(config.negative.rules)):
            rules_by_lang.setdefault(rule.lang, []).append(rule)
    filtered, reports = {}, {}
    for lang, corpus in sorted(corpora.items()):
        filtered[lang], reports[lang] = filters.negative_filter(corpus, rules_by_lang.get(lang, []))
    return filtered, _entries(reports)


def _dedup(run: _Run, corpora: dict[str, MonoCorpus]) -> tuple[dict, dict[str, dict]]:
    scope = "global" if run.config.dedup_global else "per-language"
    corpora, reports = corpus_mod.dedup_corpora(corpora, scope)
    entries = {}
    for lang, dr in sorted(reports.items()):
        rep = StageReport("dedup", dr.before, dr.after)
        if dr.before != dr.after:
            rep.dropped_by_reason["duplicate"] = dr.before - dr.after
        entries[lang] = {**rep.to_dict(), "factor": dr.factor}
    return corpora, entries


# The cascade in run order: (name, the stage, whether it regroups the
# corpora). A stage's config section is the `PipelineConfig` field of its
# name; ingest and annotate have none and always run. A disabled stage drops
# nothing: a filter stage is skipped and passes its corpora on untouched,
# while the two stages that regroup the corpora always run, read their own
# `enabled` flag and still route every sentence.
STAGES = (
    ("ingest", _ingest, False),
    ("annotate", _annotate, False),
    ("doc_consistency", _doc_consistency, True),
    ("wordlist", _wordlist, False),
    ("decluster", _decluster, True),
    ("tfiif", _tfiif, False),
    ("negative", _negative, False),
    ("dedup", _dedup, False),
)


def _previous_languages(out_dir: Path) -> set[str]:
    """The languages of the manifest a previous run left in `out_dir`. It is
    read before the first stage, so a corrupt one stops the run at once."""
    manifest = out_dir / "manifests.json"
    if not manifest.exists():
        return set()
    summary = read_json(manifest, dict, "a manifests object").get("summary")
    languages = summary.get("languages") if isinstance(summary, dict) else None
    if not isinstance(languages, dict):
        raise ParseError(None, "expected a {language: ...} object under summary.languages", manifest)
    return set(languages)


def _clear_previous_run(out_dir: Path, previous: set[str], langs: set[str]) -> None:
    """Delete the last run's manifest and those of its corpora (`previous`)
    this run will not overwrite, so the directory holds one run's output only."""
    (out_dir / "manifests.json").unlink(missing_ok=True)
    for lang in previous - langs:
        (out_dir / f"{lang}.txt").unlink(missing_ok=True)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run every enabled stage and write per-language corpora + manifests."""
    cfg_hash = config.config_hash()
    out_dir = config.resolve(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    previous = _previous_languages(out_dir)
    run = _Run(config)
    manifests: list[StageManifest] = []
    corpora: Any = None  # the documents, until doc-consistency groups them
    for name, stage, regroups in STAGES:
        t0, c0 = time.perf_counter(), time.process_time()
        if name not in _SECTIONS or regroups or getattr(config, name).enabled:
            corpora, per_language = stage(run, corpora)
        else:
            per_language = _pass_through(name, corpora)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        manifests.append(StageManifest(name, per_language, wall, cpu, cfg_hash))

    # write corpora + summary; the manifest goes last, so a complete one
    # always describes the corpora beside it
    _clear_previous_run(out_dir, previous, set(corpora))
    summary: dict = {"config_hash": cfg_hash, "languages": {}}
    for lang in sorted(corpora):
        corpus = corpora[lang]
        corpus.check_funnel()
        corpus_mod.write_corpus(corpus, out_dir / f"{lang}.txt")
        stats = corpus_mod.corpus_stats(corpus)
        summary["languages"][lang] = {
            "n_sentences": stats.n_sentences,
            "stats": stats.to_dict(),
            "stage_counts": dict(corpus.stage_counts),
            "below_training_threshold": stats.n_sentences < config.min_sentences,
        }
    result = PipelineResult(manifests, corpora, summary)
    tmp = out_dir / "manifests.json.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, out_dir / "manifests.json")
    return result


def report(manifests_path: str | Path) -> dict:
    """Aggregate written manifests into a per-language funnel summary."""
    data = read_json(manifests_path, dict, "a manifests object")
    stages, summary = data.get("stages"), data.get("summary", {})

    def bad(what: str) -> ParseError:
        return ParseError(None, f"expected {what}", manifests_path)

    if not isinstance(stages, list):
        raise bad(f"a list of stages under 'stages', got {stages!r}")
    funnel: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for stage in stages:
        if not isinstance(stage, dict) or not isinstance(stage.get("stage"), str):
            raise bad(f"a {{stage, per_language}} object, got {stage!r}")
        name, per_language = stage["stage"], stage.get("per_language")
        if not isinstance(per_language, dict):
            raise bad(f"a per_language object in stage {name!r}")
        for label, entry in per_language.items():
            if not isinstance(entry, dict) or type(entry.get("out")) is not int:
                raise bad(f"an integer 'out' for {label!r} in stage {name!r}, got {entry!r}")
            funnel.setdefault(label, {})[name] = entry["out"]
        totals[name] = sum(entry["out"] for entry in per_language.values())
    rows = summary.get("languages", {}) if isinstance(summary, dict) else None
    if not isinstance(rows, dict) or not all(isinstance(row, dict) for row in rows.values()):
        raise bad("a {language: object} map under summary.languages")
    return {"funnel": {k: funnel[k] for k in sorted(funnel)}, "totals": totals, "summary": summary}


def render_report_text(rep: dict) -> str:
    """Human-readable funnel table."""
    lines = []
    summary = rep.get("summary", {})
    lang_rows = summary.get("languages", {})
    stage_names = [name for name, *_ in STAGES if name in rep.get("totals", {})]
    header = ["language"] + stage_names + ["below_threshold"]
    lines.append("\t".join(header))
    for label in sorted(rep["funnel"]):
        row = [label]
        for stage in stage_names:
            row.append(str(rep["funnel"][label].get(stage, "-")))
        flag = lang_rows.get(label, {}).get("below_training_threshold")
        row.append("" if flag is None else str(flag).lower())
        lines.append("\t".join(row))
    lines.append("")
    lines.append("totals:\t" + "\t".join(f"{s}={rep['totals'][s]}" for s in stage_names))
    return "\n".join(lines) + "\n"
