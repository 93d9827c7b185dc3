"""Spans around the program's public functions, taken from outside it.

`Tracer.install` swaps each listed module attribute for a wrapper that
records a span (name, start, end, parent) in memory. The program calls these
functions through their module's globals, so the wrappers see every call,
including those made on worker threads. Nothing in the program changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import resource
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# (module, attribute, span name). Spans of the stage functions in STAGE_CALLS
# also note the process's CPU time at start and end, and its peak RSS at end.
TRACED = (
    ("monomine.pipeline", "load_documents", "corpus.load_documents"),
    ("monomine.pipeline", "load_model", "langid.load_model"),
    ("monomine.langid", "train", "langid.train"),
    ("monomine.langid", "predict_batch", "langid.predict_batch"),
    ("monomine.langid", "extract_features", "langid.extract_features"),
    ("monomine.langid", "pare_languages", "langid.pare_languages"),
    ("monomine.filters", "tokenize", "filters.tokenize"),
    ("monomine.filters", "annotate_document", "filters.annotate_document"),
    ("monomine.filters", "filter_doc_consistency", "filters.filter_doc_consistency"),
    ("monomine.filters", "filter_wordlist", "filters.filter_wordlist"),
    ("monomine.filters", "decluster", "filters.decluster"),
    ("monomine.filters", "build_tfiif_wordlist", "filters.build_tfiif_wordlist"),
    ("monomine.filters", "survival_fraction", "filters.survival_fraction"),
    ("monomine.filters", "filter_tfiif", "filters.filter_tfiif"),
    ("monomine.filters", "negative_filter", "filters.negative_filter"),
    ("monomine.corpus", "dedup_corpora", "corpus.dedup_corpora"),
    ("monomine.corpus", "write_corpus", "corpus.write_corpus"),
    ("monomine.corpus", "corpus_stats", "corpus.corpus_stats"),
    ("monomine.clustering", "fnr_distance_matrix", "clustering.fnr_distance_matrix"),
    ("monomine.clustering", "agglomerative_cluster", "clustering.agglomerative_cluster"),
    ("monomine.clustering", "resplit", "clustering.resplit"),
)

# pipeline stage, in the program's order -> the traced calls made inside it
STAGE_CALLS = {
    "ingest": ("corpus.load_documents",),
    "annotate": ("filters.annotate_document",),
    "doc_consistency": ("filters.filter_doc_consistency",),
    "wordlist": ("filters.filter_wordlist",),
    "decluster": ("filters.decluster",),
    "tfiif": ("filters.build_tfiif_wordlist", "filters.survival_fraction", "filters.filter_tfiif"),
    "negative": ("filters.negative_filter",),
    "dedup": ("corpus.dedup_corpora",),
}
_STAGE_SPANS = frozenset(n for names in STAGE_CALLS.values() for n in names)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    items: int = 0  # texts passed to predict_batch
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    peak_rss_kb: int = 0  # process peak RSS when the span ended


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root: Optional[int] = None  # outermost open span of the main thread
        self._local = threading.local()
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                with self.span(name):
                    yield from fn(*args, **kwargs)
            return gen_wrapper

        counts_items = name == "langid.predict_batch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as open_span:
                if counts_items:
                    open_span.items = len(args[1])
                return fn(*args, **kwargs)
        return wrapper

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in self.spans], fh)


class _Open:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.items = 0
        self.stage = name in _STAGE_SPANS

    def __enter__(self) -> "_Open":
        tracer = self.tracer
        self.id = next(tracer._ids)
        stack = tracer._stack()
        # a worker thread's first call hangs under the main thread's root span
        self.parent = stack[-1] if stack else tracer.root
        if tracer.root is None and threading.current_thread() is threading.main_thread():
            tracer.root = self.id
        stack.append(self.id)
        self.cpu_start = time.process_time() if self.stage else 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        span = Span(self.id, self.name, self.start, end, self.parent, self.items)
        if self.stage:
            span.cpu_start = self.cpu_start
            span.cpu_end = time.process_time()
            span.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.tracer._stack().pop()
        if self.tracer.root == self.id:
            self.tracer.root = None
        self.tracer.spans.append(span)
