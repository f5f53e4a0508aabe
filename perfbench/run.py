"""termforge pipeline benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Generates the workload's corpus and gold TSV from the seed, then runs the
whole pipeline (``load_corpus``, ``load_gold_standard``, ``run_pipeline``) in
fresh child processes, one at a time, until ``--seconds`` have passed.  Every
run's outputs are checked; a run fails if it raises or its check fails.

``--trace 0`` reports the end-to-end metrics of untraced runs (medians).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (medians), the tracing overhead, and the error
rate; it exits non-zero without a result if a wrapped function is gone, if
one the workload should reach records no span, or if one it should never
reach records one.  Metric names and units come from ``BENCHMARK.json``.
The last line of output is the JSON result.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import corpusgen
import tracing
from workloads import COUNT_REPRESENTATIONS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_RUNS = 4              # two traced runs, so a count mismatch can show
CHILD_TIMEOUT_S = 150
# one BLAS thread: on a 2-vCPU machine, two OpenBLAS threads cost 1.5-1.9x
# the CPU seconds on sweep for no wall-time gain
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot measure this tree; no result is printed."""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "termforge").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_outputs(out: Path, workload) -> list[str]:
    """Problems with one run's report; empty when it passes."""
    if not (out / "manifest.json").is_file():
        return ["manifest.json missing"]
    with open(out / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    keys = sorted((r["clusterer"], r["representation"]) for r in rows)
    expected = sorted((c, rep) for c in ("AP", "KM") for rep in workload.representations)
    if keys != expected:
        problems.append(f"report rows {keys}, expected {expected}")
    ranges = {"purity": (0.0, 1.0), "ari": (-1.0, 1.0), "silhouette": (-1.0, 1.0),
              "dunn2": (0.0, float("inf"))}
    for row in rows:
        where = f"{row['clusterer']} {row['representation']}"
        for column, (lo, hi) in ranges.items():
            try:
                value = float(row[column])
            except ValueError:
                problems.append(f"{where}: {column} is {row[column]!r}")
                continue
            if not lo <= value <= hi:
                problems.append(f"{where}: {column} {value} outside [{lo}, {hi}]")
        floor = workload.purity_floor.get(row["clusterer"])
        if (floor is not None and row["representation"] in COUNT_REPRESENTATIONS
                and row["purity"] != "NA" and float(row["purity"]) < floor):
            problems.append(f"{where}: purity {row['purity']} below floor {floor}")
    return problems


def spawn_child(arg: str) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run child.py to completion; returns the monotonic spawn time and the
    finished process, or None when it timed out (and was killed)."""
    env = dict(os.environ, PERFBENCH_SRC=str(SRC), **BLAS_ENV)
    env.pop("TERMFORGE_THREADS", None)     # the program default
    spawned = time.monotonic()
    try:
        done = subprocess.run([sys.executable, str(BENCH / "child.py"), arg], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return spawned, None
    return spawned, done


def warm_up() -> None:
    """Import termforge once in a child, off the clock, so that the bytecode
    caches a fresh tree lacks do not count toward the first ``setup_s``."""
    _, done = spawn_child("--setup-only")
    if done is None or done.returncode != 0:
        raise BenchError(f"import-only child failed: {done and done.stderr.strip()}")


def run_child(work: Path, index: int, job: dict, traced: bool, workload) -> dict:
    out = work / f"out{index}"
    job = dict(job, out=str(out), trace=traced, result=str(work / f"result{index}.json"))
    job_path = work / f"job{index}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    spawned, done = spawn_child(str(job_path))
    run = {"traced": traced, "problems": []}
    if done is None:
        run["problems"].append(f"no result within {CHILD_TIMEOUT_S} s")
        return run
    if done.returncode == 3:
        raise BenchError(f"traced run: {done.stderr.strip()}")
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        run["problems"].append(f"exit {done.returncode}: {' | '.join(tail)}")
        return run
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    run.update(setup_s=result["ready"] - spawned, pipeline_s=result["pipeline_s"],
               cpu_s=result["cpu_s"], peak_rss_mb=result["peak_rss_kib"] / 1024,
               versions=result["versions"])
    run["problems"] += check_outputs(out, workload)
    run["digest"] = artifact_digest(out)
    if traced:
        check_reach({span[0] for span in result["spans"]}, workload)
        run["counts"] = result["counts"]
        run["layers"] = tracing.summarize(result["spans"], result["counts"],
                                          result["pipeline_s"], result["cpu_s"])
    shutil.rmtree(out)
    return run


def check_reach(called: set[str], workload) -> None:
    """A refactor that stops calling a wrapped function through its wrapped
    name would read as that function taking no time."""
    expected = tracing.expected_calls(workload.representations)
    if expected - called:
        raise BenchError(f"wrapped functions recorded no span: {sorted(expected - called)}; "
                         "update perfbench/tracing.py")
    if called - expected:
        raise BenchError(f"wrapped functions this workload should never reach recorded "
                         f"spans: {sorted(called - expected)}")


def median(runs: list[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "termforge" / "__init__.py").is_file():
        raise BenchError(f"no termforge source tree at {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stats = corpusgen.generate(workload.corpus, args.seed, work / "corpus.conllu",
                                   work / "gold.tsv")
        job = {"workload": args.workload, "seed": args.seed,
               "corpus": str(work / "corpus.conllu"), "gold": str(work / "gold.tsv")}
        runs: list[dict] = []
        warm_up()
        deadline = time.monotonic() + args.seconds
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            began = time.monotonic()
            runs.append(run_child(work, len(runs), job, traced, workload))
            runs[-1]["wall_s"] = time.monotonic() - began
            # start another run only if it should end before the deadline
            if (len(runs) >= MIN_RUNS
                    and time.monotonic() + median(runs, "wall_s") > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {workload.why}")
    print("corpus: " + json.dumps(asdict(stats)))
    for i, run in enumerate(runs):
        kind = "traced" if run["traced"] else "untraced"
        if "pipeline_s" in run:
            print(f"run {i} {kind}: pipeline {run['pipeline_s']:.4f} s, setup "
                  f"{run['setup_s']:.4f} s, peak {run['peak_rss_mb']:.1f} MiB, "
                  f"cpu {run['cpu_s']:.4f} s, digest {run['digest'][:16]}")
        for problem in run["problems"]:
            print(f"run {i} {kind}: FAIL {problem}")

    failed = sum(1 for run in runs if run["problems"])
    # runs that failed only their output check still measured the pipeline
    done = [run for run in runs if "pipeline_s" in run]
    untraced = [run for run in done if not run["traced"]]
    traced = [run for run in done if run["traced"]]
    if not untraced or (args.trace and not traced):
        raise BenchError("no run completed, nothing to measure")
    problems = []
    digests = {run["digest"] for run in done}
    if len(digests) > 1:
        problems.append(f"artifact digests differ across runs: {sorted(digests)}")
    environment = {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_env": BLAS_ENV,
        "TERMFORGE_THREADS": "unset in the child (program default, serial)",
        **untraced[0]["versions"],
        "commit": git_commit(), "source_sha256": source_digest(),
    }
    print("environment: " + json.dumps(environment))
    print(f"artifact digest: {sorted(digests)[0]} ({len(done)} runs)")

    metrics = {"pipeline_s": median(untraced, "pipeline_s"),
               "setup_s": median(done, "setup_s"),
               "peak_rss_mb": median(untraced, "peak_rss_mb"),
               "error_rate": failed / len(runs)}
    if args.trace:
        counts = {json.dumps(run["counts"], sort_keys=True) for run in traced}
        if len(counts) > 1:
            problems.append(f"counts differ between traced runs: {sorted(counts)}")
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(run["layers"][name] for run in traced)
        metrics["trace.overhead_s"] = median(traced, "pipeline_s") - metrics["pipeline_s"]
        print("counts: " + json.dumps(traced[0]["counts"], sort_keys=True))

    for problem in problems:
        print(f"FAIL {problem}")
    correct = failed == 0 and not problems
    print(f"check: {'PASS' if correct else 'FAIL'}, error_rate {failed}/{len(runs)}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in declared}
    for name, entry in reported.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
