"""A slow, plain reference for the mining cascade: one sentence at a time.

`reference_run(config)` reads what `run_pipeline` reads and applies each
stage as README defines it: annotate (LangID from the n-gram definition and
the model's weights), doc-consistency votes per document (ties go to the
smallest cluster id), the wordlist fraction, decluster routing, the TF-IIF
list and its RRR gate, negative rules and first-occurrence dedup. It takes
only data classes, error types and file readers from `monomine`, never a
stage's code, so comparing the two checks the cascade against a second,
independent implementation.
"""

from __future__ import annotations

import unicodedata
import zlib
from collections import Counter
from dataclasses import dataclass

from monomine.clustering import ClusterMap
from monomine.corpus import load_documents, read_corpus
from monomine.errors import EmptyCorpus
from monomine.filters import IifTable, WordList, load_negative_rules
from monomine.langid import LangIdModel, load_model
from monomine.pipeline import PipelineConfig


@dataclass
class Reference:
    corpora: dict[str, list[str]]  # language -> its output sentences
    drops: dict[str, dict[str, dict[str, int]]]  # stage -> label -> dropped_by_reason


def tokens(text: str, fold: bool = True) -> list[str]:
    """Whitespace split, edge punctuation stripped, case-folded if `fold`."""
    out = []
    for tok in text.split():
        start, end = 0, len(tok)
        while start < end and unicodedata.category(tok[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(tok[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            out.append(tok[start:end].casefold() if fold else tok[start:end])
    return out


def predict(model: LangIdModel, text: str) -> str:
    """The language with the highest score, the first one on a tie. A score
    is the bias plus each bucket's n-gram share times its weight, the
    buckets taken in ascending order."""
    spec = model.spec
    counts: Counter = Counter()
    for n in spec.ngram_orders:
        for i in range(len(text) - n + 1):
            counts[zlib.crc32(text[i : i + n].encode("utf-8"), spec.hash_seed) & (spec.n_buckets - 1)] += 1
    total = sum(counts.values())
    column = {int(b): k for k, b in enumerate(model.buckets)}
    best, best_score = None, None
    for row, lang in enumerate(model.languages):
        score = 0.0
        for bucket in sorted(counts):
            if bucket in column:
                score += counts[bucket] / total * float(model.weights[row, column[bucket]])
        score += float(model.bias[row])
        if best_score is None or score > best_score:
            best, best_score = lang, score
    return best


def in_list_fraction(sentence: str, token_set: frozenset[str]) -> float | None:
    """The share of the sentence's tokens in the set; None if it has none."""
    toks = tokens(sentence)
    return sum(t in token_set for t in toks) / len(toks) if toks else None


def keep_by_fraction(sentences: list[str], token_sets: list[frozenset[str]], threshold: float):
    """(kept sentences, drops) of a fraction filter."""
    kept, drops = [], Counter()
    for s in sentences:
        fractions = [in_list_fraction(s, ts) for ts in token_sets]
        if fractions and fractions[0] is None:
            drops["empty_tokens"] += 1
        elif any(f >= threshold for f in fractions):
            kept.append(s)
        else:
            drops["below_threshold"] += 1
    return kept, dict(drops)


def tfiif_list(sentences: list[str], iif: IifTable, tau: int) -> frozenset[str]:
    counts = Counter(t for s in sentences for t in tokens(s))
    if not counts:
        raise EmptyCorpus("no tokens")
    scored = sorted(((-c / max(float(iif.freqs.get(t, 0)), iif.alpha), t) for t, c in counts.items()))
    return frozenset(t for _, t in scored[:tau])


def gate_opens(r_gold: float, r_crawl: float, cfg) -> bool:
    rrr = r_gold**cfg.rho / r_crawl if r_crawl > 0 else float("inf")
    return rrr > cfg.rrr_threshold and r_crawl <= 1.0 - cfg.min_crawl_removed and r_gold >= cfg.min_recall


def rule_matches(rule, sentence: str) -> bool:
    if rule.rule == "substring":
        if rule.case_sensitive:
            return rule.pattern in sentence
        return rule.pattern.casefold() in sentence.casefold()
    if rule.case_sensitive:
        return rule.pattern in tokens(sentence, fold=False)
    return rule.pattern.casefold() in tokens(sentence)


def reference_run(config: PipelineConfig) -> Reference:
    """The corpora and per-stage drops that the config's run should give."""
    drops: dict[str, dict[str, dict[str, int]]] = {}
    docs = [[s.text for s in doc.sentences] for doc in load_documents(config.resolve(config.input), strict=config.strict)]
    drops["ingest"] = {"*": {}}

    # annotate: every sentence's language, cluster and decluster language
    model = load_model(config.resolve(config.model))
    clusters = ClusterMap.load_json(config.resolve(config.clusters))
    second = load_model(config.resolve(config.decluster.model)) if config.decluster.model else model
    lang_of, route_of = {}, {}
    for texts in docs:
        for s in texts:
            lang_of[s] = predict(model, s)
            route_of[s] = predict(second, s)
    drops["annotate"] = {"*": {}}

    # doc-consistency: each document's majority cluster keeps its sentences
    if not config.doc_consistency.enabled:
        docs = [[s] for texts in docs for s in texts]
    kept: dict[int, list[str]] = {}
    mismatch: Counter = Counter()
    for texts in docs:
        if not texts:
            continue
        votes = Counter(clusters.assignment[lang_of[s]] for s in texts)
        top = max(votes.values())
        winner = min(cid for cid, n in votes.items() if n == top)
        kept.setdefault(winner, [])
        for s in texts:
            cid = clusters.assignment[lang_of[s]]
            if cid == winner:
                kept[winner].append(s)
            else:
                mismatch[cid] += 1
    drops["doc_consistency"] = {
        f"cluster:{cid}": {"cluster_mismatch": mismatch[cid]} if mismatch[cid] else {}
        for cid in sorted(set(kept) | set(mismatch))
    }
    by_cluster = {cid: kept[cid] for cid in sorted(kept)}

    # wordlist: in-list share for some member of the cluster
    drops["wordlist"] = {}
    for cid, sentences in by_cluster.items():
        label = f"cluster:{cid}"
        if config.wordlist.enabled:
            lists = [
                WordList.load_tsv(config.resolve(config.wordlist.dir) / f"{lang}.txt", lang, "frequency").tokens
                for lang in sorted(clusters.members[cid])
            ]
            by_cluster[cid], drops["wordlist"][label] = keep_by_fraction(sentences, lists, config.wordlist.threshold)
        else:
            drops["wordlist"][label] = {}

    # decluster: each sentence to its routing language, inside its cluster
    routed: dict[str, list[str]] = {}
    out_of_cluster: Counter = Counter()
    for cid, sentences in by_cluster.items():
        members = set(clusters.members[cid]) if config.decluster.enabled else None
        for lang in members or ():
            routed.setdefault(lang, [])
        for s in sentences:
            if members is None or route_of[s] in members:
                routed.setdefault(route_of[s], []).append(s)
            else:
                out_of_cluster[f"cluster:{cid}"] += 1
    corpora = {lang: routed[lang] for lang in sorted(routed)}
    drops["decluster"] = {label: {} for label in corpora}
    drops["decluster"].update({label: {"out_of_cluster": n} for label, n in out_of_cluster.items()})
    drops["decluster"] = dict(sorted(drops["decluster"].items()))

    # tfiif: filter a language only where its RRR gate opens
    drops["tfiif"] = {}
    cfg = config.tfiif
    for lang, sentences in corpora.items():
        drops["tfiif"][lang] = {}
        gold_path = config.resolve(cfg.gold_dir) / f"{lang}.txt" if cfg.gold_dir else None
        if not cfg.enabled or not sentences or gold_path is None or not gold_path.exists():
            continue
        token_set = tfiif_list(sentences, IifTable.load(config.resolve(cfg.iif)), cfg.tau)
        gold = list(read_corpus(gold_path, lang).sentences)
        survivors, crawl_drops = keep_by_fraction(sentences, [token_set], cfg.threshold)
        r_gold = len(keep_by_fraction(gold, [token_set], cfg.threshold)[0]) / len(gold) if gold else 1.0
        if gate_opens(r_gold, len(survivors) / len(sentences), cfg):
            corpora[lang], drops["tfiif"][lang] = survivors, crawl_drops

    # negative: the first matching rule of the language drops a sentence
    drops["negative"] = {}
    rules = load_negative_rules(config.resolve(config.negative.rules)) if config.negative.rules else []
    for lang, sentences in corpora.items():
        hits: Counter = Counter()
        if config.negative.enabled:
            ours = [r for r in rules if r.lang == lang]
            kept_here = []
            for s in sentences:
                hit = next((r for r in ours if rule_matches(r, s)), None)
                if hit is None:
                    kept_here.append(s)
                else:
                    hits[f"{hit.rule}:{hit.pattern}"] += 1
            corpora[lang] = kept_here
        drops["negative"][lang] = dict(sorted(hits.items()))

    # dedup: the first occurrence of each sentence stays
    drops["dedup"] = {}
    seen: set[str] = set()
    for lang, sentences in corpora.items():
        if config.dedup.enabled:
            if not config.dedup_global:
                seen = set()
            kept_here = []
            for s in sentences:
                if s not in seen:
                    seen.add(s)
                    kept_here.append(s)
            n_dropped = len(sentences) - len(kept_here)
            corpora[lang] = kept_here
            drops["dedup"][lang] = {"duplicate": n_dropped} if n_dropped else {}
        else:
            drops["dedup"][lang] = {}
    return Reference(corpora, drops)
