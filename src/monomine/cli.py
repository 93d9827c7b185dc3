"""Command-line interface: every operation as a subcommand, plus the pipeline.

Reports go to stdout as JSON; --pretty renders them as indented text. Exit
codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shlex
import subprocess
import sys
from pathlib import Path

from . import anomaly as anomaly_mod
from . import clustering, filters, metrics, pipeline
from . import corpus as corpus_mod
from . import langid
from .errors import MiningError, ParseError, TranslatorError, read_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; we reserve 2 for data errors.

    `partners` maps an option to the option it cannot go without, both as
    their destination names; a missing partner is a usage error."""

    def __init__(self, *args, partners: dict[str, str] | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.partners = partners or {}

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for option, partner in self.partners.items():
            if getattr(namespace, option) is not None and getattr(namespace, partner) is None:
                self.error(f"--{option} needs --{partner}".replace("_", "-"))
        return namespace, extras

    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _to_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_to_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(_to_text(v, indent) if isinstance(v, (dict, list)) else f"{pad}- {v}" for v in obj)
    return f"{pad}{obj}"


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(_to_text(obj))
    else:
        print(json.dumps(obj, ensure_ascii=False))


def _read_labeled(path: str) -> list[tuple[str, str]]:
    """TSV lines of lang<TAB>text -> (text, lang) pairs."""
    return [(text, lang) for lang, text in filters.read_tsv_pairs(path, str)]


class CommandTranslator:
    """External translator: one `CMD SOURCE TARGET` process per batch, which
    reads one text per stdin line and writes one translation per stdout line.
    A non-zero exit or any other number of lines is a TranslatorError."""

    def __init__(self, command: str):
        self.argv = shlex.split(command)

    def translate_batch(self, texts: list[str], source: str, target: str) -> list[str]:
        if not texts:
            return []
        proc = subprocess.run(
            self.argv + [source, target],
            input="".join(text + "\n" for text in texts).encode("utf-8"),
            capture_output=True,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            raise TranslatorError(stderr or f"translator exited {proc.returncode}")
        # bytes, split at "\n" only: a text-mode pipe would also split inside a
        # text at "\r", and str.splitlines at U+2028, U+0085 or "\x0c" as well
        lines = proc.stdout.decode("utf-8").removesuffix("\n").split("\n")
        if len(lines) != len(texts):
            raise TranslatorError(f"translator: expected {len(texts)} lines, got {len(lines)}")
        return lines


# --- subcommand implementations -------------------------------------------

def cmd_ingest(args) -> dict:
    report = corpus_mod.IngestReport()
    docs = list(corpus_mod.load_documents(args.input, strict=args.strict, report=report))
    if args.output:
        corpus_mod.write_annotated(docs, args.output)
    return report.to_dict()


def cmd_train_langid(args) -> dict:
    labeled = _read_labeled(args.train)
    spec = langid.FeatureSpec(
        ngram_orders=tuple(int(n) for n in args.orders.split(",")),
        n_buckets=args.buckets,
        hash_seed=args.seed,
    )
    hyper = langid.TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    losses: list[float] = []
    model = langid.train(labeled, spec, hyper, loss_history=losses)
    langid.save_model(model, args.output)
    return {
        "languages": list(model.languages),
        "n_examples": len(labeled),
        "first_loss": losses[0] if losses else None,
        "last_loss": losses[-1] if losses else None,
        "model": args.output,
    }


def cmd_eval_langid(args) -> dict:
    model = langid.load_model(args.model)
    eval_set = _read_labeled(args.eval)
    cm = langid.evaluate(model, eval_set)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(cm.to_dict(), fh)
            fh.write("\n")
    correct = int(cm.counts.trace())
    return {
        "n_examples": len(eval_set),
        "accuracy": correct / max(len(eval_set), 1),
        "confusion": cm.to_dict(),
    }


def _load_confusion(path: str) -> langid.ConfusionMatrix:
    """A confusion matrix as `eval-langid --output` writes it; any other
    JSON raises ParseError with the path."""
    obj = read_json(path, dict, "a {languages, counts} object")
    try:
        return langid.ConfusionMatrix.from_dict(obj)
    except KeyError as exc:
        raise ParseError(None, f"missing key {exc}", path) from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(None, str(exc), path) from exc


def cmd_pare(args) -> dict:
    cm = _load_confusion(args.confusion)
    sizes = read_json(args.train_sizes, dict, "a {lang: count} object")
    for lang, size in sizes.items():
        if type(size) is not int:  # nor a bool, nor a float to truncate
            raise ParseError(None, f"train size of {lang!r} must be an integer, got {size!r}", args.train_sizes)
    thresholds = langid.PareThresholds(
        min_precision=args.min_precision,
        max_confusion=args.max_confusion,
        min_examples=args.min_examples,
    )
    return langid.pare_languages(cm, sizes, thresholds).to_dict()


def cmd_cluster(args) -> dict:
    cm = _load_confusion(args.confusion)
    dist = clustering.fnr_distance_matrix(cm)
    cluster_map = clustering.agglomerative_cluster(
        dist,
        cm.languages,
        n_clusters=args.n_clusters,
        distance_threshold=None if args.n_clusters is not None else args.distance_threshold,
    )
    cluster_map = clustering.resplit(cluster_map, dist, cm.languages, max_size=args.max_size)
    if args.singletons:
        cluster_map = clustering.add_singletons(cluster_map, args.singletons.split(","))
    cluster_map.save_json(args.output)
    if args.tsv:
        cluster_map.save_tsv(args.tsv)
    sizes = sorted((len(m) for m in cluster_map.members.values()), reverse=True)
    return {"n_clusters": len(cluster_map.members), "largest": sizes[0] if sizes else 0, "output": args.output}


def cmd_annotate(args) -> dict:
    model = langid.load_model(args.model)
    clusters = clustering.ClusterMap.load_json(args.clusters)
    report = corpus_mod.IngestReport()
    docs = corpus_mod.load_documents(args.input, strict=args.strict, report=report)
    annotated = pipeline._annotate_all(docs, model, clusters, workers=1)
    corpus_mod.write_annotated(annotated, args.output)
    return {"documents": report.documents, "skipped": report.skipped, "output": args.output}


def cmd_filter_doc_consistency(args) -> dict:
    corpora, reports = filters.filter_doc_consistency(corpus_mod.read_annotated(args.input))
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for cid, corpus in corpora.items():
        corpus_mod.write_corpus(corpus, out_dir / f"cluster-{cid}.txt")
    return pipeline._entries(reports)


def cmd_filter_wordlist(args) -> dict:
    corpus = corpus_mod.read_corpus(args.corpus, args.label)
    langs = args.langs.split(",")
    lists = {
        lang: filters.WordList.load_tsv(Path(args.lists) / f"{lang}.txt", lang, "frequency")
        for lang in langs
    }
    filtered, report = filters.filter_wordlist(corpus, lists, args.threshold)
    corpus_mod.write_corpus(filtered, args.output)
    return report.to_dict()


def cmd_filter_decluster(args) -> dict:
    model = langid.load_model(args.model)
    clusters = clustering.ClusterMap.load_json(args.clusters)
    pipeline._check_languages(model, clusters, "decluster model")
    cluster_corpora = {}
    for path in sorted(Path(args.input_dir).glob("cluster-*.txt")):
        cid = int(path.stem.split("-", 1)[1])
        cluster_corpora[cid] = corpus_mod.read_corpus(path, f"cluster:{cid}")
    sentences = list(dict.fromkeys(s for corpus in cluster_corpora.values() for s in corpus.sentences))
    predicted = dict(zip(sentences, (lang for lang, _ in model.predict_batch(sentences))))
    corpora, reports = filters.decluster(cluster_corpora, predicted, clusters)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for lang, corpus in corpora.items():
        corpus_mod.write_corpus(corpus, out_dir / f"{lang}.txt")
    return pipeline._entries(reports)


def cmd_filter_tfiif(args) -> dict:
    corpus = corpus_mod.read_corpus(args.corpus, args.lang)
    wordlist = filters.WordList.load_tsv(args.list, args.lang, "tfiif")
    filtered, report = filters.filter_tfiif(corpus, wordlist, args.threshold)
    corpus_mod.write_corpus(filtered, args.output)
    return report.to_dict()


def cmd_filter_negative(args) -> dict:
    corpus = corpus_mod.read_corpus(args.corpus, args.lang)
    rules = [r for r in filters.load_negative_rules(args.rules) if r.lang == args.lang]
    filtered, report = filters.negative_filter(corpus, rules)
    corpus_mod.write_corpus(filtered, args.output)
    return report.to_dict()


def cmd_build_wordlist(args) -> dict:
    corpus = corpus_mod.read_corpus(args.corpus, args.lang)
    wordlist = filters.build_frequency_wordlist(corpus, top=args.top)
    wordlist.save_tsv(args.output)
    return {"lang": args.lang, "entries": len(wordlist.entries), "output": args.output}


def cmd_build_iif(args) -> dict:
    corpus = corpus_mod.read_corpus(args.corpus, "internet")
    table = filters.IifTable.from_counts(filters.token_counts(corpus), kappa=args.kappa)
    table.save(args.output)
    return {"tokens": len(table.freqs), "kappa": table.kappa, "alpha": table.alpha}


def cmd_build_tfiif_list(args) -> dict:
    corpus = corpus_mod.read_corpus(args.corpus, args.lang)
    iif = filters.IifTable.load(args.iif)
    wordlist = filters.build_tfiif_wordlist(corpus, iif, tau=args.tau)
    wordlist.save_tsv(args.output)
    return {"lang": args.lang, "entries": len(wordlist.entries), "output": args.output}


def cmd_build_bins(args) -> dict:
    ranking = [token for token in corpus_mod.read_corpus(args.ranking, "").sentences if token]
    boundaries = tuple(int(b) for b in args.boundaries.split(","))
    bins = metrics.build_bins(ranking, boundaries)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump({"ranked_tokens": list(bins.ranked_tokens), "boundaries": list(bins.boundaries)}, fh)
        fh.write("\n")
    return {"n_bins": bins.n_bins, "output": args.output}


def cmd_rrr(args) -> dict:
    report = filters.rrr_gate(
        r_gold=args.r_gold,
        r_crawl=args.r_crawl,
        rho=args.rho,
        rrr_threshold=args.threshold,
        min_crawl_removed=args.min_crawl_removed,
        min_recall=args.min_recall,
        lang=args.lang,
    )
    return report.to_dict()


def cmd_anomaly(args) -> dict | str:
    if args.corpus_dir:
        reports = []
        for path in sorted(Path(args.corpus_dir).glob("*.txt")):
            lang = path.stem
            ref_path = Path(args.reference_dir) / path.name
            if not ref_path.exists():
                continue
            corpus = corpus_mod.read_corpus(path, lang)
            reference = corpus_mod.read_corpus(ref_path, lang)
            reports.append(anomaly_mod.anomaly_report(corpus, reference, n=args.top_n))
        if args.tsv:
            return anomaly_mod.reports_to_tsv(reports)
        return {"reports": [r.to_dict() for r in reports]}
    corpus = corpus_mod.read_corpus(args.corpus, args.lang)
    reference = corpus_mod.read_corpus(args.reference, args.lang)
    return anomaly_mod.anomaly_report(corpus, reference, n=args.top_n).to_dict()


def cmd_dedup(args) -> dict:
    if args.input_dir:
        corpora = {
            path.stem: corpus_mod.read_corpus(path, path.stem)
            for path in sorted(Path(args.input_dir).glob("*.txt"))
        }
        deduped, reports = corpus_mod.dedup_corpora(corpora, args.scope)
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for lang, corpus in deduped.items():
            corpus_mod.write_corpus(corpus, out_dir / f"{lang}.txt")
        return {lang: rep.to_dict() for lang, rep in sorted(reports.items())}
    corpus = corpus_mod.read_corpus(args.input, args.lang)
    deduped, report = corpus_mod.dedup(corpus)
    corpus_mod.write_corpus(deduped, args.output)
    return report.to_dict()


def cmd_stats(args) -> dict:
    corpus = corpus_mod.read_corpus(args.corpus, args.lang)
    return corpus_mod.corpus_stats(corpus).to_dict()


def cmd_audit_score(args) -> dict:
    labels = metrics.AuditLabels(cc=args.cc, cb=args.cb, ca=args.ca, wd=args.wd)
    return {"score": metrics.audit_score(labels)}


def cmd_chrf(args) -> dict:
    hyps = corpus_mod.read_corpus(args.hyp, "").sentences
    refs = corpus_mod.read_corpus(args.ref, "").sentences
    return {"chrf": metrics.corpus_chrf(hyps, refs), "n_segments": len(hyps)}


def cmd_hitrate(args) -> dict:
    hyps = corpus_mod.read_corpus(args.hyp, "").sentences
    refs = corpus_mod.read_corpus(args.ref, "").sentences
    raw = read_json(args.bins, dict, "a {ranked_tokens, boundaries} object")
    tokens, boundaries = raw.get("ranked_tokens"), raw.get("boundaries")
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise ParseError(None, "'ranked_tokens' must be a list of strings", args.bins)
    if not (isinstance(boundaries, list) and all(type(b) is int for b in boundaries)):
        raise ParseError(None, "'boundaries' must be a list of integers", args.bins)
    bins = metrics.build_bins(tokens, boundaries)
    out = []
    for i in range(bins.n_bins):
        score = metrics.hit_rate(hyps, refs, bins.bin_tokens(i))
        out.append(
            {"bin": i, "ranks": [bins.boundaries[i], bins.boundaries[i + 1]], "hit_rate": score}
        )
    return {"bins": out}


def cmd_rtt(args) -> dict:
    sources = corpus_mod.read_corpus(args.src, "").sentences
    model = langid.load_model(args.model)
    translator = CommandTranslator(args.translator_cmd)
    result = metrics.rtt_langid_chrf(sources, args.lang, translator, model, mode=args.mode)
    return result.to_dict()


def cmd_pipeline_run(args) -> dict:
    config = pipeline.PipelineConfig.from_yaml(args.config)
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)
    result = pipeline.run_pipeline(config)
    return result.summary


def cmd_pipeline_report(args) -> dict | str:
    rep = pipeline.report(args.manifests)
    if args.pretty:
        return pipeline.render_report_text(rep)
    return rep


# --- parser wiring ----------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="monomine", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="render reports as text, not JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a JSONL crawl")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="write normalized documents here")
    p.add_argument("--strict", action="store_true", help="abort on the first malformed line")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train-langid", help="train the n-gram classifier from lang<TAB>text lines")
    p.add_argument("--train", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--orders", default="1,2,3,4")
    p.add_argument("--buckets", type=int, default=1 << 20)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=10.0)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_langid)

    p = sub.add_parser("eval-langid", help="confusion matrix over an eval set")
    p.add_argument("--model", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--output", help="write the confusion matrix JSON here")
    p.set_defaults(func=cmd_eval_langid)

    p = sub.add_parser("pare", help="flag languages failing the paring thresholds")
    p.add_argument("--confusion", required=True)
    p.add_argument("--train-sizes", required=True, help="JSON file of lang -> example count")
    p.add_argument("--min-precision", type=float, default=0.33)
    p.add_argument("--max-confusion", type=float, default=0.50)
    p.add_argument("--min-examples", type=int, default=2000)
    p.set_defaults(func=cmd_pare)

    p = sub.add_parser("cluster", help="cluster languages by confusability")
    p.add_argument("--confusion", required=True)
    p.add_argument("--n-clusters", type=int, default=None)
    p.add_argument("--distance-threshold", type=float, default=0.8)
    p.add_argument("--max-size", type=int, default=20)
    p.add_argument("--singletons", help="comma-separated languages forced into their own clusters")
    p.add_argument("--output", required=True)
    p.add_argument("--tsv", help="also write lang<TAB>cluster_id here")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("annotate", help="attach language/cluster predictions to every sentence")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--clusters", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("filter", help="run one filter stage")
    fsub = p.add_subparsers(dest="filter_stage", required=True)

    q = fsub.add_parser("doc-consistency")
    q.add_argument("--input", required=True, help="annotated JSONL")
    q.add_argument("--output-dir", required=True)
    q.set_defaults(func=cmd_filter_doc_consistency)

    q = fsub.add_parser("wordlist")
    q.add_argument("--corpus", required=True)
    q.add_argument("--label", default="cluster")
    q.add_argument("--langs", required=True, help="comma-separated cluster languages")
    q.add_argument("--lists", required=True, help="directory of <lang>.txt wordlists")
    q.add_argument("--threshold", type=float, default=0.2)
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_filter_wordlist)

    q = fsub.add_parser("decluster")
    q.add_argument("--input-dir", required=True, help="directory of cluster-<id>.txt corpora")
    q.add_argument("--model", required=True)
    q.add_argument("--clusters", required=True)
    q.add_argument("--output-dir", required=True)
    q.set_defaults(func=cmd_filter_decluster)

    q = fsub.add_parser("tfiif")
    q.add_argument("--corpus", required=True)
    q.add_argument("--lang", required=True)
    q.add_argument("--list", required=True)
    q.add_argument("--threshold", type=float, default=0.2)
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_filter_tfiif)

    q = fsub.add_parser("negative")
    q.add_argument("--corpus", required=True)
    q.add_argument("--lang", required=True)
    q.add_argument("--rules", required=True)
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_filter_negative)

    p = sub.add_parser("build", help="build wordlists, IIF tables, bins")
    bsub = p.add_subparsers(dest="build_what", required=True)

    q = bsub.add_parser("wordlist")
    q.add_argument("--corpus", required=True)
    q.add_argument("--lang", required=True)
    q.add_argument("--top", type=int, default=800)
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_build_wordlist)

    q = bsub.add_parser("iif")
    q.add_argument("--corpus", required=True, help="open-web proxy corpus, one sentence per line")
    q.add_argument("--kappa", type=int, default=80000)
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_build_iif)

    q = bsub.add_parser("tfiif-list")
    q.add_argument("--corpus", required=True)
    q.add_argument("--lang", required=True)
    q.add_argument("--iif", required=True)
    q.add_argument("--tau", type=int, default=1000)
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_build_tfiif_list)

    q = bsub.add_parser("bins")
    q.add_argument("--ranking", required=True, help="one token per line, most frequent first")
    q.add_argument("--boundaries", default=",".join(str(b) for b in metrics.DEFAULT_BIN_BOUNDARIES))
    q.add_argument("--output", required=True)
    q.set_defaults(func=cmd_build_bins)

    p = sub.add_parser("rrr", help="decide whether TF-IIF filtering should apply")
    p.add_argument("--r-gold", type=float, required=True)
    p.add_argument("--r-crawl", type=float, required=True)
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--min-crawl-removed", type=float, default=0.2)
    p.add_argument("--min-recall", type=float, default=0.8)
    p.add_argument("--lang", default="")
    p.set_defaults(func=cmd_rrr)

    p = sub.add_parser(
        "anomaly",
        help="token-distribution anomaly score(s)",
        partners={"corpus": "reference", "corpus_dir": "reference_dir", "tsv": "corpus_dir"},
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--corpus")
    mode.add_argument("--corpus-dir", help="batch mode: directory of <lang>.txt corpora")
    p.add_argument("--reference")
    p.add_argument("--reference-dir", help="batch mode: directory of <lang>.txt references")
    p.add_argument("--lang", default="")
    p.add_argument("--top-n", type=int, default=40)
    # None when absent, so that the partner check sees it only when given
    p.add_argument("--tsv", action="store_true", default=None, help="batch mode: emit the ranking TSV")
    p.set_defaults(func=cmd_anomaly)

    p = sub.add_parser(
        "dedup", help="drop exact duplicate sentences", partners={"input": "output", "input_dir": "output_dir"}
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--input")
    mode.add_argument("--input-dir")
    p.add_argument("--output")
    p.add_argument("--output-dir")
    p.add_argument("--lang", default="")
    p.add_argument("--scope", choices=["per-language", "global"], default="per-language")
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("stats", help="sentence/token/char counts for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lang", default="")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("audit-score", help="weighted usable-data estimate from audit labels")
    p.add_argument("--cc", type=float, required=True)
    p.add_argument("--cb", type=float, default=0.0)
    p.add_argument("--ca", type=float, default=0.0)
    p.add_argument("--wd", type=float, default=0.0)
    p.set_defaults(func=cmd_audit_score)

    p = sub.add_parser("chrf", help="corpus ChrF of hypothesis lines vs reference lines")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_chrf)

    p = sub.add_parser("hitrate", help="frequency-bin token hit-rates")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--bins", required=True, help="JSON from `build bins`")
    p.set_defaults(func=cmd_hitrate)

    p = sub.add_parser("rtt", help="round-trip-translation ChrF with a LangID check")
    p.add_argument("--src", required=True, help="English source sentences, one per line")
    p.add_argument("--lang", required=True)
    p.add_argument("--mode", choices=["loose", "strict"], default="loose")
    p.add_argument("--translator-cmd", required=True, help="run per batch as CMD SRC TGT, N lines in/out")
    p.add_argument("--model", required=True, help="LangID model for the intermediate check")
    p.set_defaults(func=cmd_rtt)

    p = sub.add_parser("pipeline", help="run or summarize the full mining pipeline")
    psub = p.add_subparsers(dest="pipeline_cmd", required=True)

    q = psub.add_parser("run")
    q.add_argument("--config", required=True)
    q.add_argument("--workers", type=int, default=None, help="override the configured worker count")
    q.set_defaults(func=cmd_pipeline_run)

    q = psub.add_parser("report")
    q.add_argument("--manifests", required=True)
    q.set_defaults(func=cmd_pipeline_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except (MiningError, OSError, ValueError, KeyError) as exc:
        print(f"monomine: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        _emit(result, args.pretty)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
