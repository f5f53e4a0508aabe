"""The traced benchmark (``perfbench/tracing.py``) times termforge by
replacing module attributes with wrappers, so a stage that stops calling a
function through the attribute the tracer wraps drops out of the trace.
This runs the benchmark's call sequence on the mini corpus under its tracer
and checks that exactly the expected wrapped functions are reached."""
import importlib
import importlib.util
from pathlib import Path

import termforge.corpus
import termforge.evaluation
import termforge.experiment
from termforge.experiment import PipelineConfig, SweepConfig
from termforge.matrices import REPRESENTATIONS

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pipeline_reaches_exactly_the_expected_functions(
        tmp_path, monkeypatch, mini_corpus_path, mini_gold_path):
    tracing = load_tracing()
    for module_name, attr, _, _ in tracing.WRAPPED:
        # setting an attribute to itself makes monkeypatch restore it afterwards
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    tracer.install()

    corpus = termforge.corpus.load_corpus(mini_corpus_path)
    gold = termforge.evaluation.load_gold_standard(mini_gold_path)
    sweep = SweepConfig(k_min=2, k_max=4, repetitions=1, master_seed=7,
                        sigma1=2.0, sigma2=0.5, representations=REPRESENTATIONS)
    config = PipelineConfig(sweep=sweep, nmf_rank=5, nmf_max_iter=50,
                            w2v_dim=8, w2v_epochs=1)
    termforge.experiment.run_pipeline(corpus, gold, config, tmp_path / "run")

    assert {span[0] for span in tracer.spans} == tracing.expected_calls(REPRESENTATIONS)
