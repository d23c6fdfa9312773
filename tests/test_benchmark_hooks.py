"""The benchmark under perfbench/ patches and reads program attributes by
name; a rename that would stop it fails here first.  Of the benchmark's
code, only module imports and run.machine_facts() execute here."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from conftest import prepare_toy
from fact2question import decoding, kernels, metrics, training, transe
from fact2question.data import Fact
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


def test_beam_steps_each_live_row_once_through_module_attributes(monkeypatch):
    # perfbench's decoding.beam.self_s_per_fact subtracts the
    # kernels.decode_step and decoding.log_softmax_values spans from
    # beam_indices, and kernels.decode_step.calls_per_fact counts the
    # first: beam_indices must reach both through those attributes, once
    # per live row per step (at width 1, once per greedy step)
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=5, hidden=8, d_enc=4, d_dec=4, seed=0)
    session = decoding.GenerationSession(params, input_vocab, output_vocab, max_len=6)
    calls = {"decode_step": 0, "log_softmax_values": 0}
    decode_step, log_softmax_values = kernels.decode_step, decoding.log_softmax_values

    def counting_decode_step(*args):
        calls["decode_step"] += 1
        return decode_step(*args)

    def counting_log_softmax_values(logits):
        calls["log_softmax_values"] += 1
        return log_softmax_values(logits)

    monkeypatch.setattr(kernels, "decode_step", counting_decode_step)
    monkeypatch.setattr(decoding, "log_softmax_values", counting_log_softmax_values)
    fact = prepared[0][1].fact
    session.greedy_indices(fact)
    greedy_steps = calls["decode_step"]
    for width in (1, 3, 5):
        calls.update(decode_step=0, log_softmax_values=0)
        session.beam_indices(fact, width)
        assert calls["decode_step"] == calls["log_softmax_values"] > 0
        if width == 1:
            assert calls["decode_step"] == greedy_steps


def test_evaluate_corpus_reaches_metrics_through_module_attributes(monkeypatch):
    # perfbench's metrics.emb_greedy.s_per_pair is evaluate_corpus's self
    # time less the metrics.sentence_precisions, metrics.meteor_lite and
    # metrics.bleu spans, and porter.stem.calls counts metrics.stem: each
    # call of evaluate_corpus must reach them through those attributes,
    # with no cache carried over from an earlier call
    calls = dict.fromkeys(("sentence_precisions", "meteor_lite", "bleu", "stem"), 0)
    for name in calls:
        original = getattr(metrics, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(metrics, name, counting)
    store = metrics.WordVectorStore({"who": np.array([1.0, 0.0]),
                                     "walked": np.array([0.6, 0.8])})
    cands = [["who", "walked", "?"], ["who", "ran", "?"], ["walked"]]
    refs = [["who", "walking", "?"], ["who", "ran", "?"], ["who"]]
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        metrics.evaluate_corpus(cands, refs, store)
        assert calls["sentence_precisions"] == calls["meteor_lite"] == len(cands)
        assert calls["bleu"] == 1
        # "walked" and "walking" pair only at the stem stage
        assert calls["stem"] >= 1


def test_train_transe_reaches_the_epoch_kernel_once_per_epoch(monkeypatch):
    # perfbench's kernels.transe_epoch.s_per_triple divides the
    # kernels.transe_epoch spans by len(args[5]), and transe.last_epoch_hinge
    # records each call's return value: train_transe must reach the kernel
    # through that attribute once per epoch, with one visit per triple, and
    # get back a finite float
    calls = []
    transe_epoch = kernels.transe_epoch

    def counting_transe_epoch(*args):
        loss = transe_epoch(*args)
        calls.append((len(args[5]), loss))
        return loss

    monkeypatch.setattr(kernels, "transe_epoch", counting_transe_epoch)
    triples = [Fact(f"e{i % 5}", f"r{i % 2}", f"e{(3 * i + 1) % 7}") for i in range(9)]
    transe.train_transe(triples, transe.TransEConfig(dim=4, epochs=3, seed=0))
    assert [n for n, _ in calls] == [len(triples)] * 3
    assert all(type(loss) is float and math.isfinite(loss) for _, loss in calls)
