"""One pipeline run in a fresh process: ``python3 child.py JOB.json``.

``PERFBENCH_SRC`` names the source tree to import termforge from.  The job
file names the workload, the seed, the corpus, the gold TSV, the output
directory and whether to trace.  The run writes one JSON result to
``job["result"]``: the monotonic time at which termforge was imported and
ready, pipeline wall and CPU seconds, peak RSS, library versions and, when
traced, the spans and counts.  Exit code 3 means the trace instrumentation
no longer matches the program.

``python3 child.py --setup-only`` only imports termforge, which writes the
bytecode caches.
"""
import os
import sys
import time


def pipeline_config(experiment, clustering, workload, seed: int):
    """The workload's ``PipelineConfig``: NMF stops after at most 100
    iterations, skip-gram trains one epoch of 32-dimensional vectors."""
    fixed = {}
    if workload.fixed_iterations:
        # NMF runs exactly 100 iterations, AP exactly 120: the convergence
        # window never fills, so the manifest warns that AP hit max_iter
        fixed = {"nmf_tol": 0.0,
                 "ap": clustering.ApConfig(max_iter=120, convergence_window=120)}
    return experiment.PipelineConfig(
        sweep=experiment.SweepConfig(
            k_min=workload.k_min, k_max=workload.k_max,
            repetitions=workload.repetitions, master_seed=seed,
            sigma1=workload.sigma1, representations=workload.representations),
        nmf_rank=workload.nmf_rank, nmf_max_iter=100, w2v_dim=32, w2v_epochs=1,
        **fixed)


def main() -> int:
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    sys.path.insert(0, src)
    from termforge import clustering, corpus, evaluation, experiment
    ready = time.monotonic()
    if not os.path.realpath(corpus.__file__).startswith(src + os.sep):
        print(f"termforge imported from {corpus.__file__}, not from {src}", file=sys.stderr)
        return 2
    if sys.argv[1] == "--setup-only":
        return 0

    import json
    import platform
    import resource

    import numpy
    import scipy

    from tracing import TraceError, Tracer
    from workloads import WORKLOADS

    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    config = pipeline_config(experiment, clustering, WORKLOADS[job["workload"]],
                             job["seed"])

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        try:
            tracer.install()
        except TraceError as exc:
            print(exc, file=sys.stderr)
            return 3

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    # module attribute lookups, so the traced run sees the wrappers
    loaded = corpus.load_corpus(job["corpus"])
    gold = evaluation.load_gold_standard(job["gold"])
    experiment.run_pipeline(loaded, gold, config, job["out"])
    pipeline_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {
        "ready": ready,
        "pipeline_s": pipeline_s,
        "cpu_s": cpu_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result.update(tracer.dump())
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
