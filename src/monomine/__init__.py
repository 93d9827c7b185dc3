"""monomine: mine clean per-language monolingual corpora from web crawls.

The package covers the whole desk-scale workflow: LangID training and
evaluation, confusability clustering, the filtering cascade (document
consistency, wordlists, declustering, gated TF-IIF, negative filters),
deduplication, anomaly detection, corpus statistics, and the evaluation
metrics (ChrF, ScaledChrF, hit-rate, round-trip LangID ChrF, audit score).
"""

from .anomaly import AnomalyReport, TokenDistribution, anomaly_report
from .clustering import ClusterMap, add_singletons, agglomerative_cluster, fnr_distance_matrix, resplit
from .corpus import (
    CorpusStats,
    DedupReport,
    Document,
    IngestReport,
    MonoCorpus,
    SentenceRecord,
    corpus_stats,
    dedup,
    load_documents,
    normalize_sentence,
)
from .filters import (
    IifTable,
    NegativeFilterRule,
    RrrReport,
    WordList,
    annotate_document,
    build_frequency_wordlist,
    build_tfiif_wordlist,
    consistency_histogram,
    consistency_score,
    decluster,
    distractibility,
    document_cluster,
    filter_doc_consistency,
    filter_tfiif,
    filter_wordlist,
    negative_filter,
    rrr_gate,
    tokenize,
)
from .langid import (
    ConfusionMatrix,
    FeatureSpec,
    LangIdModel,
    ParingReport,
    Predictor,
    TrainConfig,
    evaluate,
    extract_features,
    pare_languages,
    train,
)
from .metrics import (
    AuditLabels,
    FrequencyBins,
    RttResult,
    Translator,
    audit_score,
    build_bins,
    chrf,
    corpus_chrf,
    hit_rate,
    rtt_langid_chrf,
    scaled_chrf,
)
from .pipeline import PipelineConfig, PipelineResult, StageManifest, run_pipeline

__version__ = "0.1.0"
