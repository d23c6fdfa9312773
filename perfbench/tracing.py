"""Span tracing from outside the program, and the per-layer metrics.

A traced call is made by replacing the module or class attribute that the
caller looks up (for example kernels.decode_step, which decoding reads at
every step) with a wrapper that records a span.  Nothing under src/
changes, and the wrappers exist only while a Tracer is installed.

A span is [name, start, end, parent, op, thread, stage, info]: parent is
the index of the enclosing span on the same thread (generate_corpus
decodes on pool threads, so each thread keeps its own parent stack), op
names the fact, step, epoch or pair the work belongs to, stage names the
benchmark pass that was running (see begin()), and info holds what the
wrapper read from the call's arguments or result.  Spans stay in memory
until write() is called at the end of the run.

Each per-layer metric reads the spans of the stages that do that layer's
work for the end-to-end metric it explains, so the decoding figures come
from the beam and greedy passes and not from the small validation decodes
inside train().  A span counts 1 / (traced passes of its stage), so a
figure drawn from several stages describes one pass of each, whatever
number of passes the schedule gave them.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import threading
import time
from collections import defaultdict

import fact2question.baseline as baseline
import fact2question.data as data
import fact2question.decoding as decoding
import fact2question.evaluation as evaluation
import fact2question.kernels as kernels
import fact2question.metrics as metrics
import fact2question.model as model
import fact2question.placeholders as placeholders
import fact2question.training as training
import fact2question.transe as transe

NAME, START, END, PARENT, OP, THREAD, STAGE, INFO = range(8)
FAILED = "raised"


class Tracer:
    """Records spans for every call into the wrapped attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.stage: str | None = None
        self.passes: dict[str, int] = defaultdict(int)

    def begin(self, stage: str) -> None:
        """Tag the spans that follow, on every thread, with this stage."""
        self.stage = stage
        self.passes[stage] += 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, op_fn, info_fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        op = op_fn(self, args) if op_fn else None
        if op is None and parent is not None:
            op = self.spans[parent][OP]
        rec = [name, 0.0, 0.0, parent, op, threading.get_ident(), self.stage, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[END] = time.perf_counter()
            rec[INFO] = FAILED
            stack.pop()
            raise
        rec[END] = time.perf_counter()
        stack.pop()
        if info_fn:
            rec[INFO] = info_fn(args, result)
        return result

    def wrap_callable(self, name, fn, op_fn=None, info_fn=None):
        """A traced version of fn (for closures the program hands out)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, op_fn, info_fn, args, kwargs)

        return traced

    def patch(self, owner, attr, name, op_fn=None, info_fn=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(
                self.wrap_callable(name, raw.__func__, op_fn, info_fn)))
        else:
            setattr(owner, attr, self.wrap_callable(name, raw, op_fn, info_fn))
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        for owner, attr, name, op_fn, info_fn in TARGETS:
            self.patch(owner, attr, name, op_fn, info_fn)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON lines, in start order."""
        keys = ("name", "start", "end", "parent", "op", "thread", "stage", "info")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                row = dict(zip(keys, rec))
                row["id"] = i
                if not isinstance(row["info"], (int, float, str, type(None))):
                    row["info"] = repr(row["info"])
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# what each wrapper records
# ---------------------------------------------------------------------------


def _fact_op(index):
    def op(tracer, args):
        fact = args[index]
        return "fact:" + "|".join(fact.atoms())
    return op


def _step_op(tracer, args):
    return f"step:{tracer.counters['adam_step'] + 1}"


def _adam_op(tracer, args):
    tracer.counters["adam_step"] += 1
    return f"step:{tracer.counters['adam_step']}"


def _epoch_op(tracer, args):
    tracer.counters["transe_epoch"] += 1
    return f"epoch:{tracer.counters['transe_epoch']}"


def _pair_op(tracer, args):
    tracer.counters["pair"] += 1
    return f"pair:{tracer.counters['pair']}"


def _beam_info(args, result):
    session = args[0]
    return (sum(1 for h in result if len(h.tokens) == session.max_len), len(result))


def _greedy_info(args, result):
    return (int(len(result) == args[0].max_len), 1)


def _step_weight_bytes(args, result):
    # every weight decode_step reads, by shape: the step weights plus the
    # previous word's embedding row
    return sum(a.nbytes for a in args[6:]) + args[0].nbytes


TARGETS = [
    (decoding.GenerationSession, "__init__", "decoding.session_init", None, None),
    (decoding, "generate_corpus", "decoding.generate_corpus", None,
     lambda a, r: r),
    (decoding.GenerationSession, "beam_indices", "decoding.beam_indices",
     _fact_op(1), _beam_info),
    (decoding.GenerationSession, "greedy_indices", "decoding.greedy_indices",
     _fact_op(1), _greedy_info),
    (decoding.GenerationSession, "to_words", "decoding.to_words", _fact_op(2), None),
    (kernels, "decode_step", "kernels.decode_step", None, _step_weight_bytes),
    (decoding, "log_softmax_values", "decoding.log_softmax_values", None, None),
    (training, "train", "training.train", None, None),
    (training, "sequence_log_likelihood", "model.sequence_log_likelihood",
     _step_op, lambda a, r: len(a[1])),
    (training, "backprop", "autodiff.backprop", _step_op,
     lambda a, r: len(a[0])),
    (training, "clip_gradients", "training.clip_gradients", _step_op,
     lambda a, r: int(r is not a[0])),
    (training, "adam_step", "training.adam_step", _adam_op, None),
    (evaluation, "meteor_lite", "evaluation.meteor_lite", None, None),
    (transe, "train_transe", "transe.train_transe", None, None),
    (kernels, "transe_epoch", "kernels.transe_epoch", _epoch_op,
     lambda a, r: (len(a[5]), r)),
    (transe, "_project_to_unit_ball", "transe.project_to_unit_ball", None, None),
    (metrics, "evaluate_corpus", "metrics.evaluate_corpus", None,
     lambda a, r: (r.oov_count, sum(len(c) + len(f) for c, f in zip(a[0], a[1])),
                   len(a[0]))),
    (metrics, "sentence_precisions", "metrics.sentence_precisions", _pair_op, None),
    (metrics, "meteor_lite", "metrics.meteor_lite", None, None),
    (metrics, "bleu", "metrics.bleu", None, None),
    (metrics, "stem", "porter.stem", None, lambda a, r: a[0]),
    (metrics.WordVectorStore, "load", "metrics.WordVectorStore.load", None, None),
    (placeholders, "placeholderize_corpus", "placeholders.placeholderize_corpus",
     None, lambda a, r: (len(r[0]) + r[1], r[1])),
    (baseline, "build_template_index", "baseline.build_template_index", None, None),
    (baseline, "sample_question", "baseline.sample_question", _fact_op(0), None),
    (data, "load_simplequestions", "data.load_simplequestions", None,
     lambda a, r: len(r)),
    (data, "load_triples", "data.load_triples", None,
     lambda a, r: len(r[0]) + r[1]),
    (data, "build_vocabularies", "data.build_vocabularies", None, None),
    (model, "load_checkpoint", "model.load_checkpoint", None, None),
    (model, "save_checkpoint", "model.save_checkpoint", None, None),
]


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


def _quantile(values, q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


DECODE = ("beam", "greedy")


def layer_metrics(spans: list[list], passes: dict[str, int]
                  ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit), from the spans of
    traced runs; passes counts the traced passes of each stage."""
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(i)
        if rec[PARENT] is not None:
            children[rec[PARENT]].append(i)

    def ids(name, stages, only_ok=True):
        stages = (stages,) if isinstance(stages, str) else stages
        return [i for i in by_name[name] if spans[i][STAGE] in stages
                and not (only_ok and spans[i][INFO] == FAILED)]

    def w(i):
        return 1.0 / passes[spans[i][STAGE]]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def count(name, stages, only_ok=True):
        return sum(w(i) for i in ids(name, stages, only_ok))

    def total(name, stages, only_ok=True):
        return sum(w(i) * dur(i) for i in ids(name, stages, only_ok))

    def mean(name, stages):
        return total(name, stages) / count(name, stages)

    def self_time(i, names):
        return dur(i) - sum(dur(c) for c in children[i] if spans[c][NAME] in names)

    def info_sum(name, stages, k=None):
        return sum(w(i) * (spans[i][INFO] if k is None else spans[i][INFO][k])
                   for i in ids(name, stages))

    out: dict[str, tuple[float, str]] = {}
    beams = ids("decoding.beam_indices", "beam")
    facts = (count("decoding.beam_indices", DECODE)
             + count("decoding.greedy_indices", DECODE))
    out["decoding.beam_indices.s_per_fact"] = (mean("decoding.beam_indices", "beam"), "s")
    out["decoding.beam.self_s_per_fact"] = (sum(
        self_time(i, ("kernels.decode_step", "decoding.log_softmax_values"))
        for i in beams) / len(beams), "s")
    out["decoding.greedy_indices.s_per_fact"] = (
        mean("decoding.greedy_indices", "greedy"), "s")
    out["decoding.to_words.s_per_fact"] = (mean("decoding.to_words", DECODE), "s")
    out["decoding.force_ended_frac"] = (
        (info_sum("decoding.beam_indices", DECODE, 0)
         + info_sum("decoding.greedy_indices", DECODE, 0))
        / (info_sum("decoding.beam_indices", DECODE, 1)
           + info_sum("decoding.greedy_indices", DECODE, 1)), "fraction")
    out["decoding.session_init_s"] = (mean("decoding.session_init", "setup"), "s")
    out["kernels.decode_step.calls_per_fact"] = (
        count("kernels.decode_step", DECODE) / facts, "count")
    out["kernels.decode_step.s_per_call"] = (mean("kernels.decode_step", DECODE), "s")
    out["decoding.weight_bytes_per_fact"] = (
        info_sum("kernels.decode_step", DECODE) / facts, "B-computed")
    out["kernels.transe_epoch.s_per_triple"] = (
        total("kernels.transe_epoch", "transe")
        / info_sum("kernels.transe_epoch", "transe", 0), "s")

    tokens = info_sum("model.sequence_log_likelihood", "qgen")
    out["model.sequence_log_likelihood.s_per_token"] = (
        total("model.sequence_log_likelihood", "qgen") / tokens, "s")
    out["autodiff.backprop.s_per_token"] = (
        total("autodiff.backprop", "qgen") / tokens, "s")
    out["autodiff.tape_nodes_per_token"] = (
        info_sum("autodiff.backprop", "qgen") / tokens, "count")
    step_s, n_validations = _train_steps(spans, ids("training.train", "qgen"), children)
    out["training.step_s.p50"] = (_quantile(step_s, 0.50), "s")
    out["training.step_s.p95"] = (_quantile(step_s, 0.95), "s")
    out["training.clip_gradients.s_per_step"] = (
        mean("training.clip_gradients", "qgen"), "s")
    out["training.adam_step.s_per_step"] = (mean("training.adam_step", "qgen"), "s")
    out["training.clip_rate"] = (info_sum("training.clip_gradients", "qgen")
                                 / count("training.clip_gradients", "qgen"), "fraction")
    out["evaluation.validation_pass_s"] = (
        mean("evaluation.validation_pass", "qgen"), "s")
    out["evaluation.validation_passes"] = (n_validations, "count")
    # the validation side of train(): small greedy decodes and METEOR-lite
    out["evaluation.validation_greedy.s_per_fact"] = (
        mean("decoding.greedy_indices", "qgen"), "s")
    out["evaluation.validation_meteor_lite.s_per_pair"] = (
        mean("evaluation.meteor_lite", "qgen"), "s")

    epoch_s, hinge = _transe_epochs(spans, ids("transe.train_transe", "transe"), children)
    out["transe.epoch_s.p50"] = (_quantile(epoch_s, 0.50), "s")
    out["transe.last_epoch_hinge"] = (hinge, "loss")

    corpora = ids("metrics.evaluate_corpus", "evaluate")
    pairs = info_sum("metrics.evaluate_corpus", "evaluate", 2)
    out["metrics.meteor_lite.s_per_pair"] = (mean("metrics.meteor_lite", "evaluate"), "s")
    out["metrics.sentence_precisions.s_per_pair"] = (
        mean("metrics.sentence_precisions", "evaluate"), "s")
    out["metrics.bleu.s"] = (mean("metrics.bleu", "evaluate"), "s")
    out["metrics.emb_greedy.s_per_pair"] = (sum(
        w(i) * self_time(i, ("metrics.sentence_precisions", "metrics.meteor_lite",
                             "metrics.bleu")) for i in corpora) / pairs, "s")
    out["metrics.oov_frac"] = (info_sum("metrics.evaluate_corpus", "evaluate", 0)
                               / info_sum("metrics.evaluate_corpus", "evaluate", 1),
                               "fraction")
    out["metrics.WordVectorStore.load_s"] = (
        mean("metrics.WordVectorStore.load", "setup"), "s")
    stems = ids("porter.stem", "evaluate")
    out["porter.stem.calls"] = (count("porter.stem", "evaluate")
                                / count("metrics.meteor_lite", "evaluate"), "calls/pair")
    out["porter.stem.s_per_call"] = (mean("porter.stem", "evaluate"), "s")
    # every evaluate pass stems the same words: distinct words over the
    # calls of one pass
    out["porter.stem.distinct_frac"] = (
        len({spans[i][INFO] for i in stems}) / count("porter.stem", "evaluate"),
        "fraction")

    questions = info_sum("placeholders.placeholderize_corpus", "baseline", 0)
    out["placeholders.placeholderize_corpus.s_per_question"] = (
        total("placeholders.placeholderize_corpus", "baseline") / questions, "s")
    out["placeholders.dropped_frac"] = (
        info_sum("placeholders.placeholderize_corpus", "baseline", 1) / questions,
        "fraction")
    out["baseline.build_template_index.s"] = (
        mean("baseline.build_template_index", "baseline"), "s")
    samples = count("baseline.sample_question", "baseline", only_ok=False)
    out["baseline.sample_question.s_per_fact"] = (
        total("baseline.sample_question", "baseline", only_ok=False) / samples, "s")
    out["baseline.unseen_frac"] = (
        (samples - count("baseline.sample_question", "baseline")) / samples, "fraction")
    out["data.load_simplequestions.s_per_line"] = (
        total("data.load_simplequestions", "setup")
        / info_sum("data.load_simplequestions", "setup"), "s")
    out["data.load_triples.s_per_line"] = (
        total("data.load_triples", "setup") / info_sum("data.load_triples", "setup"), "s")
    out["data.build_vocabularies.s"] = (mean("data.build_vocabularies", "setup"), "s")
    out["model.load_checkpoint.s"] = (mean("model.load_checkpoint", "setup"), "s")
    out["model.save_checkpoint.s"] = (mean("model.save_checkpoint", "qgen"), "s")
    return out


def _train_steps(spans, trains, children):
    """Wall time of each update inside train(): from the end of the previous
    update (or validation pass, or the start of train()) to the end of
    this update's adam_step.  Also validation passes per train() call."""
    step_s: list[float] = []
    passes = 0
    for t in trains:
        cursor = spans[t][START]
        for c in sorted(children[t], key=lambda c: spans[c][START]):
            name = spans[c][NAME]
            if name == "evaluation.validation_pass":
                passes += 1
                cursor = spans[c][END]
            elif name == "training.adam_step":
                step_s.append(spans[c][END] - cursor)
                cursor = spans[c][END]
    return step_s, passes / len(trains)


def _transe_epochs(spans, runs, children):
    """Epoch wall times (between consecutive unit-ball projections, which
    close initialisation and every epoch) and the last epoch's hinge."""
    epoch_s: list[float] = []
    hinge = float("nan")
    for t in runs:
        ends = [spans[c][END] for c in sorted(children[t], key=lambda c: spans[c][START])
                if spans[c][NAME] == "transe.project_to_unit_ball"]
        epoch_s += [b - a for a, b in zip(ends, ends[1:])]
        last = [c for c in children[t] if spans[c][NAME] == "kernels.transe_epoch"]
        hinge = spans[max(last, key=lambda c: spans[c][START])][INFO][1]
    return epoch_s, hinge
