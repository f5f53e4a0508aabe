"""termforge: cluster domain terms by their syntactic co-occurrence context.

The pipeline reads dependency-parsed text (CoNLL-U), extracts
(verb-preposition, role, noun-phrase) couples, builds NP-by-VPC matrices and
dense encodings of them, clusters NPs with spherical K-Means or Affinity
Propagation under cosine dissimilarity, and scores clusterings with
silhouette, Dunn2, purity and adjusted Rand against a gold standard.
"""

__version__ = "0.1.0"

from .clustering import (ApConfig, Clustering, Geometry, KmeansConfig,
                         affinity_propagation, kmeans,
                         pairwise_cosine_dissimilarity)
from .corpus import (ConlluParseError, Corpus, CorpusStats, Sentence, Token,
                     corpus_stats, load_corpus, parse_conllu)
from .embeddings import (EmbeddingTable, SkipgramConfig, np_vectors,
                         train_skipgram)
from .evaluation import (GoldStandard, IndexReport, dunn2, evaluate_clustering,
                         load_gold_standard, purity, silhouette_width)
from .experiment import (PipelineConfig, ReportRow, SweepConfig, SweepResult,
                         derive_seed, run_pipeline, run_sweep, select_k)
from .extraction import (Couple, ExtractionConfig, Role, extract_corpus,
                         extract_couples)
from .matrices import (CooccurrenceMatrix, Representation, Thresholds,
                       apply_frequency_threshold, apply_value_threshold,
                       build_role_matrix, merge_matrices, tfidf_weight)
from .nmf import FactorPair, nmf

__all__ = [
    "__version__",
    "ApConfig", "Clustering", "Geometry", "KmeansConfig", "affinity_propagation",
    "kmeans", "pairwise_cosine_dissimilarity",
    "ConlluParseError", "Corpus", "CorpusStats", "Sentence", "Token",
    "corpus_stats", "load_corpus", "parse_conllu",
    "EmbeddingTable", "SkipgramConfig", "np_vectors", "train_skipgram",
    "GoldStandard", "IndexReport", "dunn2",
    "evaluate_clustering", "load_gold_standard", "purity", "silhouette_width",
    "PipelineConfig", "ReportRow", "SweepConfig",
    "SweepResult", "derive_seed", "run_pipeline", "run_sweep", "select_k",
    "Couple", "ExtractionConfig", "Role",
    "extract_corpus", "extract_couples",
    "CooccurrenceMatrix", "Representation", "Thresholds",
    "apply_frequency_threshold", "apply_value_threshold", "build_role_matrix",
    "merge_matrices", "tfidf_weight",
    "FactorPair", "nmf",
]
