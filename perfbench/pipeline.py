"""The pipeline the benchmark drives: set-up, the passes of each stage, checks.

Each stage calls the public functions behind one CLI subcommand, by
module attribute so that a traced run sees every call:

    setup          (all)           loading and building state: vocabularies,
                                   checkpoint, KB, questions, word vectors
    beam, greedy   generate        decoding.generate_corpus (width 5, 1)
    transe         train-transe    transe.train_transe
    qgen           train-qgen      training.train
    baseline       baseline        placeholderize_corpus, build_template_index,
                                   sample_question
    evaluate       evaluate        metrics.evaluate_corpus

A pass does a fixed amount of work on fixed inputs, so its outputs must
be byte-identical from pass to pass; the checks record every violation.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fact2question.baseline as baseline
import fact2question.cli as cli
import fact2question.data as data
import fact2question.decoding as decoding
import fact2question.evaluation as evaluation
import fact2question.metrics as metrics
import fact2question.model as model
import fact2question.placeholders as placeholders
import fact2question.training as training
import fact2question.transe as transe
from fact2question.errors import UnseenRelationshipError

from fixtures import Fixture

# share of --seconds each stage measures, per workload.  Every stage runs
# in every workload, so that every run reports every metric; a share is
# set so that the stage gets enough passes for their median to be
# steady (a beam pass at paper dims takes about 4 s, a qgen pass
# 2.5-3.5 s, most others 0.05-0.3 s), and the workload's named stages get
# more of the run than in the other workloads.
SHARES = {
    "generate": {"setup": .07, "beam": .36, "greedy": .08, "transe": .06,
                 "qgen": .28, "baseline": .08, "evaluate": .07},
    "train": {"setup": .07, "beam": .1, "greedy": .05, "transe": .12, "qgen": .46,
              "baseline": .11, "evaluate": .09},
    "score": {"setup": .06, "beam": .16, "greedy": .07, "transe": .05, "qgen": .26,
              "baseline": .22, "evaluate": .18},
}

MAX_LEN = 13            # SimpleQuestions-like decode cap
BEAM_WIDTH = 5
THRESHOLD = placeholders.DEFAULT_THRESHOLD
TRANSE = dict(dim=50, margin=1.0, learning_rate=0.05)
QGEN_DIMS = dict(word_dim=64, hidden=128)
QGEN = dict(learning_rate=0.01, clip_norm=0.1, patience=5)
# hits@10 comes from one longer TransE training per run, outside the
# measured time; the measured TransE passes are short, so that a run
# holds many of them.
TRANSE_QUALITY_EPOCHS = 20
TRANSE_PASS_EPOCHS = 5
# A qgen pass trains 12 steps of 16 before its one validation, and its
# best validation score is valid_meteor_lite.  After fewer steps the
# decoder repeats words that its references hold, and METEOR-lite's
# alignment search then runs to its node budget on some seeds: with 4
# or 8 steps of 8, validation took 1.9-12 s on seeds 9, 100, 1000 and
# 31337 instead of about 0.05 s, so the rate depended on the seed, not
# on the program.  Over 28 seeds, validation after 12 steps of 16 took
# at most 0.11 s of a 2.3-3.7 s pass.
QGEN_PASS = dict(batch_size=16, max_steps=12, eval_every=12)


@dataclass
class PassResult:
    seconds: float   # the measured span
    work: float      # set-ups, facts, triple-epochs, target tokens or pairs
    ops: int         # facts, epochs, steps or pairs attempted (0 for set-up)
    digest: str      # sha256 of the pass's outputs
    failed: bool = False
    span: tuple[float, float] = (0.0, 0.0)   # perf_counter around the pass
    host: float = float("nan")   # reference loop seconds near the pass (run.HostClock)


@dataclass
class Checks:
    """Collects check violations instead of stopping the run.

    violations: the outputs the CLI subcommands write (corpus lines,
    baseline questions, the written report) and the results of training;
    any of them makes the run incorrect.  api_violations: values the
    Python API returns that its docstrings bound but no written output
    shows; the run prints them and repeat.py fails on them."""

    violations: list[str] = field(default_factory=list)
    api_violations: list[str] = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.violations.append(message)
        return bool(condition)

    def expect_api(self, condition: bool, message: str) -> bool:
        if not condition:
            self.api_violations.append(message)
        return bool(condition)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def _report_scores(path) -> list[float]:
    """Every score a written evaluation report shows: the corpus summary
    and each example's METEOR-lite and Emb. Greedy."""
    scores = []
    for line in _lines(path):
        fields = line.split("\t")
        if line.startswith("#") or fields[0] in ("oov-tokens", "candidate"):
            continue
        if len(fields) == 2:
            scores.append(float(fields[1]))
        else:
            scores += [float(v) for v in fields[-2:] if v]
    return scores


def filtered_hits_at_10(tx: transe.TransEModel, known, heldout) -> float:
    """Share of held-out triples whose object (and, separately, subject)
    ranks in the top 10 among all entities, other known true triples
    removed from the ranking (Bordes et al. 2013, filtered setting)."""
    ent, rel = tx.entities, tx.relationships
    e_index = {e: i for i, e in enumerate(tx.entity_ids)}
    tails: dict[tuple, set[int]] = defaultdict(set)
    heads: dict[tuple, set[int]] = defaultdict(set)
    for f in known:
        tails[(f.subject, f.relationship)].add(e_index[f.object])
        heads[(f.relationship, f.object)].add(e_index[f.subject])
    hits = 0
    for f in heldout:
        s, o = e_index[f.subject], e_index[f.object]
        r = tx.relationship_index(f.relationship)
        for target, dist, others in (
            (o, np.sqrt(np.sum((ent[s] + rel[r] - ent) ** 2, axis=1)),
             tails[(f.subject, f.relationship)]),
            (s, np.sqrt(np.sum((ent + rel[r] - ent[o]) ** 2, axis=1)),
             heads[(f.relationship, f.object)]),
        ):
            better = dist < dist[target]
            better[[i for i in others if i != target]] = False
            hits += int(np.count_nonzero(better) < 10)
    return hits / (2 * len(heldout))


class Pipeline:
    """Set-up state and the passes of one benchmark invocation."""

    def __init__(self, fx: Fixture, seed: int, work: Path, checks: Checks):
        self.fx = fx
        self.seed = seed
        self.work = work
        self.checks = checks
        self.exp = fx.expected
        self.score_wrapper = None   # set by a traced run

    # -- set-up: loading and building state before the first op ----------

    SETUP_STATE = ("input_vocab", "output_vocab", "session", "kb_train", "kb_heldout",
                   "train_raw", "train_pairs", "valid_pairs", "q_out", "q_in",
                   "q_init", "heldout_facts", "store")

    def setup(self, k: int) -> PassResult:
        """Load and build everything the passes read.  The state of an
        earlier set-up is dropped first, outside the timing, so that only
        one copy of the checkpoint is ever held."""
        for name in self.SETUP_STATE:
            self.__dict__.pop(name, None)
        t0 = time.perf_counter()
        self._load()
        seconds = time.perf_counter() - t0
        shapes = [len(getattr(self, name)) for name in
                  ("input_vocab", "output_vocab", "kb_train", "kb_heldout", "train_raw",
                   "train_pairs", "valid_pairs", "q_in", "q_out", "heldout_facts")]
        return PassResult(seconds, 1, 0, _sha(repr(shapes).encode()))

    def _load(self) -> None:
        fx = self.fx
        self.input_vocab = data.Vocabulary.load(fx.input_vocab)
        self.output_vocab = data.Vocabulary.load(fx.output_vocab)
        params, _ = model.load_checkpoint(fx.checkpoint, self.input_vocab,
                                          self.output_vocab)
        self.session = decoding.GenerationSession(
            params, self.input_vocab, self.output_vocab, None, MAX_LEN)

        self.kb_train, _ = data.load_triples(fx.kb_train)
        self.kb_heldout, _ = data.load_triples(fx.kb_heldout)

        self.train_raw = data.load_simplequestions(fx.questions_train)
        valid_raw = data.load_simplequestions(fx.questions_valid)
        self.train_pairs, _ = placeholders.placeholderize_corpus(
            self.train_raw, "sp", None, None, THRESHOLD)
        self.valid_pairs, _ = placeholders.placeholderize_corpus(
            valid_raw, "sp", None, None, THRESHOLD)
        sp = [placeholders.SP_TOKEN]
        _, self.q_out = data.build_vocabularies(
            [ph for _, ph in self.train_pairs], min_count=1, placeholder_tokens=sp)
        self.q_in, _ = data.build_vocabularies(
            [ph for _, ph in self.train_pairs] + [ph for _, ph in self.valid_pairs],
            min_count=1, placeholder_tokens=sp)
        embeddings = transe.TransEModel.load(fx.entity_embeddings,
                                             fx.relationship_embeddings)
        self.q_init = model.QGenParams.init(
            n_in=len(self.q_in), n_out=len(self.q_out), d_enc=embeddings.dim,
            d_dec=QGEN_DIMS["word_dim"], hidden=QGEN_DIMS["hidden"], seed=self.seed,
            input_emb=cli._load_input_table(self.q_in, embeddings))

        self.heldout_facts, _ = data.load_triples(fx.heldout_facts)
        self.store = metrics.WordVectorStore.load(fx.word_vectors)

    # -- passes ------------------------------------------------------------

    def _decode(self, facts_path, width, unknown, name, k) -> PassResult:
        out = self.work / f"{name}-{k}.tsv"
        attempted = len(_lines(facts_path))
        t0 = time.perf_counter()
        written, skipped = decoding.generate_corpus(facts_path, self.session, out, width)
        seconds = time.perf_counter() - t0
        c = self.checks
        ok = c.expect(written + skipped == attempted,
                      f"{name}: written {written} + skipped {skipped} != {attempted}")
        ok &= c.expect(skipped == unknown,
                       f"{name}: skipped {skipped}, seeded unknown atoms {unknown}")
        lines = _lines(out)
        ok &= c.expect(len(lines) == written, f"{name}: {len(lines)} lines != {written}")
        ok &= c.expect(all(len(line.split("\t")) == 4 and line.endswith("?")
                           for line in lines),
                       f"{name}: a line lacks 4 fields or a final '?'")
        return PassResult(seconds, attempted, attempted, _sha(out.read_bytes()),
                          failed=not ok)

    def beam(self, k: int) -> PassResult:
        return self._decode(self.fx.beam_facts, BEAM_WIDTH,
                            self.exp["beam_unknown"], "beam", k)

    def greedy(self, k: int) -> PassResult:
        return self._decode(self.fx.decode_facts, 1,
                            self.exp["decode_unknown"], "greedy", k)

    def _train_transe(self, epochs: int) -> tuple[transe.TransEModel, float]:
        config = transe.TransEConfig(seed=self.seed, epochs=epochs, **TRANSE)
        t0 = time.perf_counter()
        tx = transe.train_transe(self.kb_train, config)
        seconds = time.perf_counter() - t0
        self.checks.expect(
            bool(np.all(np.isfinite(tx.entities)) and np.all(np.isfinite(tx.relationships))),
            "transe: non-finite embeddings")
        return tx, seconds

    def _train_qgen(self, shape: dict, name: str):
        params = copy.deepcopy(self.q_init)
        config = training.TrainConfig(seed=self.seed, **QGEN, **shape)
        # train-qgen forwards no decode cap to validation; the benchmark
        # passes the same scorer with the SimpleQuestions-like cap
        score_fn = evaluation.validation_scorer(self.valid_pairs, self.q_in,
                                                self.q_out, max_len=MAX_LEN)
        if self.score_wrapper:
            score_fn = self.score_wrapper(score_fn)
        t0 = time.perf_counter()
        result = training.train(self.train_pairs, self.valid_pairs, params, config,
                                self.q_in, self.q_out, score_fn=score_fn)
        seconds = time.perf_counter() - t0
        c = self.checks
        ok = c.expect(result.steps == shape["max_steps"],
                      f"qgen: ran {result.steps} steps, not {shape['max_steps']}")
        nll = [float(line.split("\t")[1]) for line in result.log_lines]
        ok &= c.expect(bool(nll) and all(math.isfinite(v) for v in nll),
                       "qgen: non-finite training loss")
        ok &= c.expect(0.0 <= result.best_score <= 100.0,
                       f"qgen: validation score {result.best_score} outside [0, 100]")
        out = self.work / f"{name}.bin"
        model.save_checkpoint(out, result.params, "sp", self.q_in, self.q_out)
        # the wall-seconds column is the only part that may differ
        log = "\n".join(line.rsplit("\t", 1)[0] for line in result.log_lines)
        return result, seconds, ok, _sha(out.read_bytes(), log.encode())

    def transe_hits10(self) -> float:
        """Filtered hits@10 of a TransE model trained once for longer
        than a pass."""
        tx, _ = self._train_transe(TRANSE_QUALITY_EPOCHS)
        return filtered_hits_at_10(tx, self.kb_train + self.kb_heldout, self.kb_heldout)

    def transe(self, k: int) -> PassResult:
        tx, seconds = self._train_transe(TRANSE_PASS_EPOCHS)
        return PassResult(seconds, len(self.kb_train) * TRANSE_PASS_EPOCHS,
                          TRANSE_PASS_EPOCHS,
                          _sha(tx.entities.tobytes(), tx.relationships.tobytes()))

    def target_tokens(self) -> int:
        """Target tokens train() consumes in one pass: its batches are
        consecutive slices of one seeded permutation."""
        n_examples = QGEN_PASS["max_steps"] * QGEN_PASS["batch_size"]
        if n_examples > len(self.train_pairs):
            raise ValueError("qgen steps would span more than one epoch")
        order = np.random.default_rng(self.seed).permutation(len(self.train_pairs))
        return sum(len(self.train_pairs[i][1].tokens) for i in order[:n_examples])

    def qgen(self, k: int) -> PassResult:
        result, seconds, ok, digest = self._train_qgen(QGEN_PASS, f"qgen-{k}")
        # the same in every pass: the digest covers the log and parameters
        self.valid_meteor_lite = result.best_score
        return PassResult(seconds, self.target_tokens(), result.steps, digest,
                          failed=not ok)

    def baseline(self, k: int) -> PassResult:
        out = self.work / f"baseline-{k}.tsv"
        facts = self.heldout_facts
        t0 = time.perf_counter()
        pairs, dropped = placeholders.placeholderize_corpus(
            self.train_raw, "sp", None, None, THRESHOLD)
        index = baseline.build_template_index(ph for _, ph in pairs)
        written = unseen = 0
        with open(out, "w", encoding="utf-8") as fh:
            for i, fact in enumerate(facts):
                try:
                    words = baseline.sample_question(fact, index, seed=self.seed + i)
                except UnseenRelationshipError:
                    unseen += 1
                    continue
                fh.write(f"{fact.subject}\t{fact.relationship}\t{fact.object}\t"
                         f"{' '.join(words)}\n")
                written += 1
        seconds = time.perf_counter() - t0
        c = self.checks
        ok = c.expect(dropped == self.exp["train_dropped"],
                      f"baseline: dropped {dropped}, seeded {self.exp['train_dropped']}")
        ok &= c.expect(unseen == self.exp["heldout_unseen"],
                       f"baseline: unseen {unseen}, seeded {self.exp['heldout_unseen']}")
        ok &= c.expect(written + unseen == len(facts),
                       f"baseline: written {written} + unseen {unseen} != {len(facts)}")
        lines = _lines(out)
        ok &= c.expect(len(lines) == written and all(
            len(line.split("\t")) == 4 and line.endswith("?") for line in lines),
            "baseline: a line lacks 4 fields or a final '?'")
        return PassResult(seconds, len(facts), len(facts), _sha(out.read_bytes()),
                          failed=not ok)

    def prepare_evaluate(self) -> None:
        """Candidates are the baseline's questions; references align with
        them line by line (the fixture drops unseen relationships)."""
        self.candidates_path = self.work / "candidates.txt"
        questions = [line.split("\t")[3] for line in _lines(self.work / "baseline-0.tsv")]
        self.candidates_path.write_text("".join(q + "\n" for q in questions),
                                        encoding="utf-8")
        self.candidates = [data.tokenize(q) for q in questions]
        self.references = [data.tokenize(q) for q in _lines(self.fx.references)]
        self.checks.expect(len(self.candidates) == len(self.references),
                           "evaluate: candidate and reference counts differ")

    def evaluate(self, k: int) -> PassResult:
        out = self.work / f"report-{k}.tsv"
        t0 = time.perf_counter()
        report = metrics.evaluate_corpus(self.candidates, self.references, self.store)
        report.write_tsv(out)
        seconds = time.perf_counter() - t0
        ok = self.checks.expect(all(0.0 <= v <= 100.0 for v in _report_scores(out)),
                                "evaluate: a written report score lies outside [0, 100]")
        # the same bound on the unrounded scores evaluate_corpus returns
        raw = [report.bleu, report.meteor_lite, report.emb_greedy]
        for ex in report.examples:
            raw += [ex.meteor_lite, ex.emb_greedy]
        outside = [v for v in raw if not 0.0 <= v <= 100.0]
        self.checks.expect_api(not outside, f"evaluate: evaluate_corpus returned "
                                            f"{len(outside)} scores outside [0, 100], "
                                            f"largest {max(outside, default=0)!r}")
        ok &= self.checks.expect(0 < report.oov_count,
                                 "evaluate: no OOV token, so the OOV path never ran")
        self.summary = report.summary_lines()
        pairs = len(self.candidates)
        return PassResult(seconds, pairs, pairs, _sha(out.read_bytes()), failed=not ok)

    # -- the CLI must write what the in-process path wrote -------------------

    def cli_checks(self) -> int:
        """Run generate, baseline and evaluate through cli.run on the same
        inputs; returns the number of checks made."""
        fx, w = self.fx, self.work
        runs = [
            ("generate width 5", ["generate", "--facts", fx.beam_facts,
                                  "--width", str(BEAM_WIDTH)], "beam-0.tsv"),
            ("generate width 1", ["generate", "--facts", fx.decode_facts,
                                  "--width", "1"], "greedy-0.tsv"),
            ("baseline", ["baseline", "--train", fx.questions_train,
                          "--facts", fx.heldout_facts, "--threshold", str(THRESHOLD),
                          "--seed", str(self.seed)], "baseline-0.tsv"),
            ("evaluate", ["evaluate", "--candidates", str(self.candidates_path),
                          "--references", fx.references,
                          "--word-vectors", fx.word_vectors], "report-0.tsv"),
        ]
        decode_args = ["--checkpoint", fx.checkpoint, "--input-vocab", fx.input_vocab,
                       "--output-vocab", fx.output_vocab, "--max-len", str(MAX_LEN)]
        for label, argv, ours in runs:
            out = w / f"cli-{ours}"
            flag = "--report" if argv[0] == "evaluate" else "--output"
            argv = argv + [flag, str(out)]
            if argv[0] == "generate":
                argv += decode_args
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.run(argv)
            same = code == 0 and out.read_bytes() == (w / ours).read_bytes()
            if argv[0] == "evaluate":
                same &= stdout.getvalue().splitlines() == self.summary
            self.checks.expect(same, f"cli {label}: exit {code}, output differs "
                                     "from the in-process path")
        return len(runs)
