"""The benchmark under perfbench/ patches and reads program attributes by
name; a rename that would stop it fails here first.  Of the benchmark's
code, only module imports and run.machine_facts() execute here."""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import prepare_toy
from fact2question import training
from fact2question.autodiff import Tape

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracing = _import("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.TARGETS if not hasattr(owner, attr)]
    assert missing == []


def test_machine_facts_returns():
    facts = _import("run").machine_facts()
    assert facts["src_lines"] > 0


def test_train_step_differentiates_each_example_once(monkeypatch):
    # perfbench's traced qgen check counts the target tokens that
    # training.sequence_log_likelihood sees (its second argument) and
    # divides the training.backprop spans by them; both must run once per
    # example of a step
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=5, hidden=8, d_enc=4, d_dec=4, seed=0)
    seen_tokens, tapes = [], []
    log_likelihood, backprop = training.sequence_log_likelihood, training.backprop

    def counting_log_likelihood(*args):
        seen_tokens.append(list(args[1]))
        return log_likelihood(*args)

    def counting_backprop(tape, loss):
        tapes.append(tape)
        return backprop(tape, loss)

    monkeypatch.setattr(training, "sequence_log_likelihood", counting_log_likelihood)
    monkeypatch.setattr(training, "backprop", counting_backprop)
    config = training.TrainConfig(batch_size=4, max_steps=1, seed=3)
    training.train(prepared, prepared, params, config, input_vocab, output_vocab,
                   score_fn=lambda p: 0.0)
    order = np.random.default_rng(config.seed).permutation(len(prepared))
    assert seen_tokens == [list(prepared[i][1].tokens) for i in order[:4]]
    assert len(tapes) == 4
    assert all(isinstance(tape, Tape) for tape in tapes)
