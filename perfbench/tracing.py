"""Span recording around termforge's public functions, from outside.

Each entry of ``WRAPPED`` names a module attribute to replace with a timing
wrapper, and the layer metric its inclusive time adds to.  A function is
wrapped under the name its caller looks it up by: ``run_pipeline`` reaches
``kmeans`` through ``termforge.experiment.kmeans``, and
``evaluate_clustering`` reaches ``silhouette_width`` through
``termforge.evaluation.silhouette_width``.  Per-item inner functions such as
``extract_couples`` or ``sgns_loss_and_grads`` are not wrapped: a span per
item would cost more than the work it times.

Spans stay in memory as ``(name, layer, metric, start, end, parent)`` and
counts are read from return values; ``Tracer.dump`` hands both to the
caller at the end of the run.
"""
from __future__ import annotations

import importlib
import time

LAYERS = ("corpus", "extraction", "matrices", "nmf", "embeddings",
          "clustering", "evaluation", "experiment")

# (module, attribute, layer, metric for the inclusive time or None)
WRAPPED = (
    ("termforge.corpus", "load_corpus", "corpus", "corpus.load_s"),
    ("termforge.evaluation", "load_gold_standard", "evaluation", None),
    ("termforge.experiment", "run_pipeline", "experiment", None),
    ("termforge.experiment", "build_representations", "experiment", None),
    ("termforge.experiment", "extract_corpus", "extraction", "extraction.extract_s"),
    ("termforge.experiment", "write_couples_tsv", "extraction", "extraction.write_s"),
    ("termforge.experiment", "build_role_matrix", "matrices", "matrices.build_s"),
    ("termforge.experiment", "merge_matrices", "matrices", "matrices.build_s"),
    ("termforge.experiment", "apply_frequency_threshold", "matrices", "matrices.build_s"),
    ("termforge.experiment", "tfidf_weight", "matrices", "matrices.build_s"),
    ("termforge.experiment", "apply_value_threshold", "matrices", "matrices.build_s"),
    ("termforge.experiment", "representation_from_matrix", "matrices", "matrices.dense_s"),
    ("termforge.experiment", "make_representation", "matrices", "matrices.dense_s"),
    ("termforge.experiment", "save_matrix", "matrices", "matrices.save_s"),
    ("termforge.experiment", "save_representation", "matrices", "matrices.save_s"),
    ("termforge.experiment", "nmf", "nmf", "nmf.fit_s"),
    ("termforge.experiment", "train_skipgram", "embeddings", "embeddings.train_s"),
    ("termforge.experiment", "np_vectors", "embeddings", "embeddings.compose_s"),
    ("termforge.experiment", "save_embeddings", "embeddings", "embeddings.save_s"),
    ("termforge.experiment", "run_sweep", "experiment", "experiment.sweep_s"),
    ("termforge.experiment", "select_k", "experiment", None),
    ("termforge.experiment", "write_curves_csv", "experiment", "experiment.write_s"),
    ("termforge.experiment", "write_repetitions_csv", "experiment", "experiment.write_s"),
    ("termforge.experiment", "write_report_csv", "experiment", "experiment.write_s"),
    ("termforge.experiment", "distinct_row_count", "clustering", "clustering.distinct_s"),
    ("termforge.experiment", "pairwise_cosine_dissimilarity", "clustering",
     "clustering.pairwise_s"),
    ("termforge.experiment", "kmeans", "clustering", "clustering.kmeans_s"),
    ("termforge.experiment", "affinity_propagation", "clustering", "clustering.ap_s"),
    ("termforge.experiment", "save_clustering", "clustering", None),
    ("termforge.experiment", "evaluate_clustering", "evaluation", "evaluation.evaluate_s"),
    ("termforge.evaluation", "silhouette_width", "evaluation", "evaluation.silhouette_s"),
    ("termforge.evaluation", "dunn2", "evaluation", "evaluation.dunn2_s"),
)


# wrapped functions that run_pipeline calls only when one of these
# representations is requested; it calls every other one on every run
ONLY_FOR = {
    "representation_from_matrix": ("NP_VPC", "NP_VPC_tfidf"),
    "make_representation": ("NP_VPC_NMF",),
    "nmf": ("NP_VPC_NMF",),
    "train_skipgram": ("NP_w2v",),
    "np_vectors": ("NP_w2v",),
    "save_embeddings": ("NP_w2v",),
}


def expected_calls(representations: tuple[str, ...]) -> set[str]:
    """The wrapped attributes a traced run with these representations must
    reach; it must reach no other."""
    return {attr for _, attr, _, _ in WRAPPED
            if attr not in ONLY_FOR or set(ONLY_FOR[attr]) & set(representations)}


class TraceError(RuntimeError):
    """The instrumentation no longer matches the program."""


def _count_corpus(tracer, result, args):
    tracer.counts["corpus.sentences"] += sum(len(sents) for _, sents in result.documents)
    tracer.counts["corpus.tokens"] += sum(len(s) for s in result.sentences())


def _count_couples(tracer, result, args):
    tracer.counts["extraction.couples"] += len(result)


def _count_counts_matrix(tracer, result, args):
    rows, cols = result.shape
    tracer.counts.update({"matrices.rows": rows, "matrices.cols": cols,
                          "matrices.nnz": int(result.values.nnz)})


def _count_nmf(tracer, result, args):
    tracer.counts["nmf.iterations"] += result.iterations_run


def _keep_skipgram(tracer, result, args):
    # pairs are counted after the run (see Tracer.dump), off the clock
    tracer.skipgram_runs.append((args[0], args[1], result))


def _count_kmeans(tracer, result, args):
    tracer.counts["clustering.kmeans_cells"] += 1
    tracer.counts["clustering.kmeans_iterations"] += len(result.objective_history) - 1
    tracer.counts["clustering.kmeans_unconverged"] += not result.converged


def _count_ap(tracer, result, args):
    counts = tracer.counts
    counts["clustering.ap_calls"] += 1
    counts["clustering.ap_unconverged"] += not result.converged
    counts["clustering.ap_max_n"] = max(counts["clustering.ap_max_n"],
                                        len(args[0].row_labels))


def _count_evaluate(tracer, result, args):
    tracer.counts["evaluation.calls"] += 1


# attribute -> hook reading counts from the wrapped call's return value
COUNTERS = {
    "load_corpus": _count_corpus,
    "extract_corpus": _count_couples,
    "apply_frequency_threshold": _count_counts_matrix,
    "nmf": _count_nmf,
    "train_skipgram": _keep_skipgram,
    "kmeans": _count_kmeans,
    "affinity_propagation": _count_ap,
    "evaluate_clustering": _count_evaluate,
}

COUNT_NAMES = ("corpus.sentences", "corpus.tokens", "extraction.couples",
               "matrices.rows", "matrices.cols", "matrices.nnz",
               "nmf.iterations", "embeddings.pairs",
               "clustering.kmeans_cells", "clustering.kmeans_iterations",
               "clustering.kmeans_unconverged", "clustering.ap_calls",
               "clustering.ap_unconverged", "clustering.ap_max_n",
               "evaluation.calls")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.skipgram_runs: list[tuple] = []

    def wrap(self, fn, name: str, layer: str, metric: str | None):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, layer, metric, start, end, parent)
            if counter is not None:
                counter(self, result, args)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every ``WRAPPED`` attribute; a missing one is an error,
        so a refactor cannot silently drop a layer from the trace."""
        for module_name, attr, layer, metric in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceError(f"{module_name}.{attr} is gone; update perfbench/tracing.py")
            setattr(module, attr, self.wrap(fn, attr, layer, metric))

    def dump(self) -> dict:
        from termforge.embeddings import iter_window_pairs
        counts = dict(self.counts)
        for corpus, config, table in self.skipgram_runs:
            per_epoch = 0
            for sentence in corpus.sentences():
                n = sum(1 for t in sentence.tokens if t.lemma in table.vocab)
                if n >= 2:
                    per_epoch += sum(1 for _ in iter_window_pairs(n, config.window))
            counts["embeddings.pairs"] += per_epoch * config.epochs
        return {"spans": self.spans, "counts": counts}


def summarize(spans: list, counts: dict, pipeline_s: float, cpu_s: float) -> dict:
    """Per-layer metrics of one traced run: inclusive times per metric,
    self time and share of ``pipeline_s`` per layer, and ratios with their
    bases."""
    out = dict.fromkeys({m for *_, m in WRAPPED if m is not None}, 0.0)
    child_time = [0.0] * len(spans)
    for name, layer, metric, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    out["experiment.sweep_self_s"] = 0.0
    out["experiment.pipeline_self_s"] = 0.0
    for i, (name, layer, metric, start, end, parent) in enumerate(spans):
        own = end - start - child_time[i]
        out[f"{layer}.self_s"] += own
        if metric is not None:
            out[metric] += end - start
        if name == "run_sweep":
            out["experiment.sweep_self_s"] += own
        elif name == "run_pipeline":
            out["experiment.pipeline_self_s"] += own
    for layer in LAYERS:
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / pipeline_s
    out.update(counts)
    out["experiment.cpu_s"] = cpu_s

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        # 0 for a layer the workload never calls; a nonzero numerator over
        # a zero base means a count no longer reads the program's values
        if not den:
            if num:
                raise TraceError(f"ratio {num} / 0; update perfbench/tracing.py")
            return 0.0
        return scale * num / den

    out["corpus.tokens_per_s"] = ratio(counts["corpus.tokens"], out["corpus.load_s"])
    out["nmf.ms_per_iter"] = ratio(out["nmf.fit_s"], counts["nmf.iterations"], 1e3)
    out["embeddings.us_per_pair"] = ratio(out["embeddings.train_s"],
                                          counts["embeddings.pairs"], 1e6)
    out["clustering.kmeans_ms_per_cell"] = ratio(
        out["clustering.kmeans_s"], counts["clustering.kmeans_cells"], 1e3)
    out["evaluation.ms_per_call"] = ratio(out["evaluation.evaluate_s"],
                                          counts["evaluation.calls"], 1e3)
    return out
