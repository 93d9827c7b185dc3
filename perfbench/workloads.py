"""The benchmark's workloads, at full size and at the toy size its test uses.

Why each exists, in short (README.md has the long form):

- mine-short-docs: many page-sized documents and the default 2^20-bucket
  model, reused for decluster, on one worker. Per-call LangID cost and the
  second prediction pass show here.
- mine-long-docs: few long documents, a 2^16-bucket model and a separate
  decluster model, on one worker, with planted boilerplate, junk, template
  spam and negative-rule tokens. Per-sentence work in every stage shows here;
  per-call costs are amortised.
- cluster-many-langs: a 250-language confusion matrix. The O(n^3) pair scans
  of clustering and paring show only here.
"""

from __future__ import annotations

import gen
import langclusters
import mining
from monomine.langid import FeatureSpec

SHORT_DOCS = gen.CrawlShape(n_docs=45, sentences=(8, 20), words=(5, 11))
LONG_DOCS = gen.CrawlShape(
    n_docs=12,
    sentences=(200, 330),
    words=(12, 24),
    boilerplate=0.05,
    junk=0.05,
    spam=0.35,
    negative=0.03,
)

WORKLOADS = {
    "mine-short-docs": mining.Mining(SHORT_DOCS, FeatureSpec(), separate_decluster_model=False, workers=1),
    "mine-long-docs": mining.Mining(
        LONG_DOCS,
        FeatureSpec(n_buckets=1 << 16),
        separate_decluster_model=True,
        # Two annotate threads made an operation's wall time exceed its CPU
        # time by 0.1-1.3 s, as the host happened to schedule its two vCPUs;
        # run_s then moved by a quarter between sets of runs.
        workers=1,
        planted=True,
        setup_repeats=2,
    ),
    "cluster-many-langs": langclusters.Clustering(
        gen.MatrixShape(250, family_sizes=(1, 2, 3, 4, 5, 6, 8, 24)), setup_repeats=40
    ),
}

TOY = {
    "mine-short-docs": mining.Mining(
        gen.CrawlShape(n_docs=12, sentences=(8, 20), words=(5, 11)),
        FeatureSpec(n_buckets=1 << 14),
        separate_decluster_model=False,
        workers=1,
        train_per_lang=150,
    ),
    "mine-long-docs": mining.Mining(
        gen.CrawlShape(
            n_docs=6, sentences=(150, 200), words=(12, 24),
            boilerplate=0.05, junk=0.05, spam=0.35, negative=0.03,
        ),
        FeatureSpec(n_buckets=1 << 14),
        separate_decluster_model=True,
        workers=2,  # keeps the tracer's worker-thread path under test
        train_per_lang=150,
        planted=True,
    ),
    "cluster-many-langs": langclusters.Clustering(
        gen.MatrixShape(60, family_sizes=(1, 2, 3, 24)), setup_repeats=1
    ),
}


def module_of(w):
    return mining if isinstance(w, mining.Mining) else langclusters
