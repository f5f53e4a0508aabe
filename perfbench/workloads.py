"""The benchmark's workloads: corpus shape, pipeline settings, output floors.

The three workloads differ in shape, not only in size, so each stresses a
different layer (see ``why``).  Settings keep the work per run close to
fixed across seeds: the corpus has a fixed sentence count and clause
pattern, and every planted noun passes the sigma1 cut.  On ``wide`` NMF and
AP also run a fixed number of iterations; ``sweep`` and ``skipgram`` keep
the program's stopping rules, so a change to convergence shows there.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from corpusgen import CorpusSpec

COUNT_REPRESENTATIONS = ("NP_VPC", "NP_VPC_tfidf", "NP_VPC_NMF")


@dataclass(frozen=True)
class Workload:
    why: str
    corpus: CorpusSpec
    representations: tuple[str, ...]
    k_min: int
    k_max: int
    repetitions: int
    sigma1: float
    # planted-structure floor on report.csv purity, per clusterer, for the
    # count representations; NP_w2v is near chance and has none
    purity_floor: dict[str, float] = field(default_factory=dict)
    nmf_rank: int = 10
    # NMF and AP run a fixed number of iterations instead of stopping at
    # convergence (see ``child.pipeline_config``)
    fixed_iterations: bool = False


WORKLOADS = {
    "sweep": Workload(
        why="many K-Means cells at moderate n on three count representations: "
            "evaluation and kmeans dominate, loading is small, no skip-gram",
        corpus=CorpusSpec(sentences=5000, concepts=8, nouns_per_concept=35, verbs=100),
        representations=COUNT_REPRESENTATIONS,
        k_min=2, k_max=10, repetitions=3, sigma1=2.0,
        # seeds 1-10: KM 0.75-1.0 (k 6-9 of 8 concepts), AP 1.0
        purity_floor={"KM": 0.45, "AP": 0.8}),
    "skipgram": Workload(
        why="NP_w2v only, long sentences over a large filler vocabulary: "
            "train_skipgram dominates; no-change workload for sweep and ingest work",
        corpus=CorpusSpec(sentences=650, concepts=8, nouns_per_concept=20, verbs=40,
                          filler_lemmas=1000, fillers_per_sentence=4),
        representations=("NP_w2v",),
        k_min=2, k_max=4, repetitions=1, sigma1=1.0),
    "wide": Workload(
        why="large n and a large corpus, few clustering calls: affinity "
            "propagation, NMF, loading and extraction dominate, as does peak memory",
        corpus=CorpusSpec(sentences=10000, concepts=8, nouns_per_concept=70, verbs=200,
                          modifier_rate=0.3, adjectives=2, modifier_nouns=5),
        representations=("NP_VPC", "NP_VPC_NMF"),
        k_min=2, k_max=3, repetitions=1, sigma1=4.0, nmf_rank=20,
        # the iterations AP needs to converge vary by +-15% across seeds,
        # and AP and NMF dominate this workload
        fixed_iterations=True,
        # seeds 1-10: KM 0.378-0.384 (k=3 of 8 concepts caps it at 3/8), AP >= 0.995
        purity_floor={"KM": 0.3, "AP": 0.8}),
}
