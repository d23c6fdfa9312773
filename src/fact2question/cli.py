"""Command-line pipelines.

Every subcommand takes --config FILE with flat "key = value" lines;
explicit flags override the file, the file overrides built-in defaults,
and an unknown key, or a value its option's type rejects, is a usage error
naming file:line.  The effective configuration is echoed to
the log so any run can be reproduced.  All randomness derives from
--seed.  Exit codes: 0 success, 1 usage error, 2 data/contract error
(an allocation too large for the machine included).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .autodiff import finite_diff_check
from .baseline import build_template_index, sample_question
from .data import (
    Fact,
    Vocabulary,
    build_vocabularies,
    load_names,
    load_simplequestions,
    load_triples,
    question_line,
    read_facts,
    read_lines,
    read_paired_questions,
    read_vectors,
    replacing_writer,
    unique_facts,
)
from .decoding import (DEFAULT_BEAM_WIDTH, DEFAULT_MAX_LEN, GenerationSession,
                       generate_corpus)
from .errors import Fact2QuestionError, TrainingDivergedError, UnseenRelationshipError
from .evaluation import validation_scorer
from .metrics import WordVectorStore, evaluate_corpus
from .model import QGenParams, load_checkpoint, save_checkpoint, sequence_log_likelihood
from .placeholders import (DEFAULT_THRESHOLD, SP_TOKEN, build_category_map,
                           placeholderize_corpus)
from .training import TrainConfig, train
from .transe import TransEConfig, TransEModel, train_transe

log = logging.getLogger("fact2question")

GRADCHECK_TOLERANCE = 1e-4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@dataclass
class Option:
    key: str
    type: Callable
    default: object
    help: str
    required: bool = False


def _paths(raw: str) -> list[str]:
    return [p for p in (s.strip() for s in raw.split(",")) if p]


COMMON = [Option("seed", int, 0, "seed for every random choice")]


def build_parser() -> _Parser:
    parser = _Parser(prog="fact2question")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, options, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="flat 'key = value' config file")
        for opt in options + COMMON:
            p.add_argument(f"--{opt.key}", type=opt.type, help=opt.help,
                           default=argparse.SUPPRESS)
    return parser


def _read_config_file(path, declared: dict[str, Option]) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in declared:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        kind = declared[key].type
        try:
            values[key] = kind(raw.strip())
        except ValueError:
            raise UsageError(f"{path}:{lineno}: invalid {kind.__name__} value "
                             f"for {key}: {raw.strip()!r}") from None
    return values


def _effective_config(args: argparse.Namespace, options: list[Option]) -> dict:
    declared = {opt.key: opt for opt in options + COMMON}
    merged = {opt.key: opt.default for opt in declared.values()}
    if hasattr(args, "config"):
        merged.update(_read_config_file(args.config, declared))
    for key, value in vars(args).items():
        key = key.replace("_", "-")
        if key in declared:
            merged[key] = value
    for opt in options:
        if opt.required and not merged[opt.key]:
            raise UsageError(f"missing required option --{opt.key}")
    for key in sorted(merged):
        log.info("config %s = %s", key, merged[key])
    return {k.replace("-", "_"): v for k, v in merged.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_train_transe(cfg) -> int:
    triples, duplicates = unique_facts(
        fact for path in _paths(cfg["triples"]) for fact in read_facts(path))
    question_facts = (pair.fact for path in _paths(cfg["questions"])
                      for pair in load_simplequestions(path))
    triples, _ = unique_facts(chain(triples, question_facts))
    if not triples:
        raise UsageError("no triples: pass --triples and/or --questions")
    log.info("training on %d unique triples (%d duplicates dropped)",
             len(triples), duplicates)
    config = TransEConfig(dim=cfg["dim"], margin=cfg["margin"],
                          learning_rate=cfg["learning_rate"],
                          epochs=cfg["epochs"], seed=cfg["seed"])
    model = train_transe(triples, config)
    model.save(cfg["out_entities"], cfg["out_relations"])
    print(f"trained {len(model.entity_ids)} entity and "
          f"{len(model.relationship_ids)} relationship embeddings (dim {model.dim})")
    return 0


def _load_input_table(input_vocab: Vocabulary, transe: TransEModel) -> np.ndarray:
    table = np.zeros((len(input_vocab), transe.dim))
    for i, token in enumerate(input_vocab.tokens()):
        if transe.has_entity(token):
            table[i] = transe.entity_vector(token)
        elif transe.has_relationship(token):
            table[i] = transe.relationship_vector(token)
        # reserved tokens (<unk>) keep zero rows
    return table


def _cmd_train_qgen(cfg) -> int:
    config = TrainConfig(
        learning_rate=cfg["learning_rate"], clip_norm=cfg["clip_norm"],
        batch_size=cfg["batch_size"], patience=cfg["patience"],
        eval_every=cfg["eval_every"], max_steps=cfg["max_steps"], seed=cfg["seed"])
    names = load_names(cfg["names"]) if cfg["names"] else None
    train_raw = load_simplequestions(cfg["train"])
    valid_raw = load_simplequestions(cfg["valid"])

    category_map = None
    if cfg["mode"] == "mp":
        category_map = build_category_map(train_raw)
    train_pairs, dropped_train = placeholderize_corpus(
        train_raw, cfg["mode"], category_map, names, cfg["threshold"])
    valid_pairs, dropped_valid = placeholderize_corpus(
        valid_raw, cfg["mode"], category_map, names, cfg["threshold"])
    log.info("placeholderized %d train (+%d dropped), %d valid (+%d dropped)",
             len(train_pairs), dropped_train, len(valid_pairs), dropped_valid)

    placeholder_tokens = (category_map.placeholder_tokens()
                          if category_map else [SP_TOKEN])
    # output words come from the training split only; the input vocabulary
    # also covers validation atoms (their embeddings are pretrained anyway,
    # and validation decoding must be able to encode its facts)
    _, output_vocab = build_vocabularies(
        [ph for _, ph in train_pairs], min_count=cfg["min_count"],
        placeholder_tokens=placeholder_tokens)
    input_vocab, _ = build_vocabularies(
        [ph for _, ph in train_pairs] + [ph for _, ph in valid_pairs],
        min_count=1, placeholder_tokens=placeholder_tokens)

    transe = TransEModel.load(cfg["entity_embeddings"],
                              cfg["relationship_embeddings"])
    for token in input_vocab.tokens()[1:]:
        if not (transe.has_entity(token) or transe.has_relationship(token)):
            raise Fact2QuestionError(
                f"atom {token!r} has no pretrained embedding; retrain "
                f"embeddings over a triple set covering the questions"
            )
    params = QGenParams.init(
        n_in=len(input_vocab), n_out=len(output_vocab), d_enc=transe.dim,
        d_dec=cfg["word_dim"], hidden=cfg["hidden"], seed=cfg["seed"],
        input_emb=_load_input_table(input_vocab, transe))

    score_fn = validation_scorer(valid_pairs, input_vocab, output_vocab, cfg["max_len"])
    # made only now, so a run rejected above leaves no directory behind
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = train(train_pairs, valid_pairs, params, config,
                       input_vocab, output_vocab, score_fn)
        log_lines = result.log_lines
        best = result.best_score
        params = result.params
    except TrainingDivergedError as exc:
        log.error("training diverged: %s (keeping the best checkpoint)", exc)
        params = exc.checkpoint
        log_lines = exc.log_lines
        best = float("nan")

    if category_map:
        category_map.dump(out_dir / "category_map.tsv")
    input_vocab.dump(out_dir / "input_vocab.tsv")
    output_vocab.dump(out_dir / "output_vocab.tsv")
    save_checkpoint(out_dir / "checkpoint.bin", params, cfg["mode"],
                    input_vocab, output_vocab)
    with replacing_writer(out_dir / "train_log.tsv") as fh:
        fh.write("step\ttrain-nll\tvalid-meteor-lite\twall-seconds\n")
        for line in log_lines:
            fh.write(line + "\n")
    print(f"best validation meteor-lite {best:.4f}; "
          f"artifacts in {out_dir}")
    return 0


def _cmd_generate(cfg) -> int:
    input_vocab = Vocabulary.load(cfg["input_vocab"])
    output_vocab = Vocabulary.load(cfg["output_vocab"])
    params, _ = load_checkpoint(cfg["checkpoint"], input_vocab, output_vocab)
    names = load_names(cfg["names"]) if cfg["names"] else None
    session = GenerationSession(params, input_vocab, output_vocab, names,
                                cfg["max_len"])
    written, skipped = generate_corpus(cfg["facts"], session, cfg["output"],
                                       cfg["width"])
    print(f"wrote {written} questions to {cfg['output']} "
          f"({skipped} facts skipped: unknown atoms)")
    return 0


def _cmd_evaluate(cfg) -> int:
    candidates, references = read_paired_questions(cfg["candidates"],
                                                   cfg["references"])
    store = WordVectorStore.load(cfg["word_vectors"]) if cfg["word_vectors"] else None
    report = evaluate_corpus(candidates, references, store)
    for line in report.summary_lines():
        print(line)
    if cfg["report"]:
        report.write_tsv(cfg["report"])
        log.info("per-example report written to %s", cfg["report"])
    return 0


def _cmd_baseline(cfg) -> int:
    names = load_names(cfg["names"]) if cfg["names"] else None
    train_raw = load_simplequestions(cfg["train"])
    pairs, dropped = placeholderize_corpus(train_raw, "sp", None, names,
                                           cfg["threshold"])
    log.info("template index from %d questions (%d dropped)", len(pairs), dropped)
    index = build_template_index(ph for _, ph in pairs)
    facts, _ = load_triples(cfg["facts"])
    written = 0
    unseen = 0
    with replacing_writer(cfg["output"]) as out:
        for i, fact in enumerate(facts):
            try:
                words = sample_question(fact, index, seed=cfg["seed"] + i,
                                        names=names)
            except UnseenRelationshipError:
                unseen += 1
                continue
            out.write(question_line(fact, words))
            written += 1
    print(f"wrote {written} baseline questions "
          f"({unseen} facts skipped: unseen relationship)")
    return 0


def _cmd_neighbors(cfg) -> int:
    ids, table = read_vectors(cfg["entity_embeddings"])
    model = TransEModel(ids, [], table, np.zeros((0, table.shape[1])))
    for entity, distance in model.nearest_neighbors(cfg["entity"], cfg["k"]):
        print(f"{entity}\t{distance:.6f}")
    return 0


def _cmd_gradcheck(cfg) -> int:
    # fixed small dims; a 5-token question through the full decoder loss,
    # weights drawn at scale 0.4.  Roundoff can still fail a gradient tiny next
    # to the loss (--seed 2: reset_ctx[12], 2.8e-7 against -12.3, at eps 1e-5);
    # that error shrinks at a larger --eps, while a wrong gradient's does not.
    d_enc, d_dec, hidden, n_out = 4, 4, 6, 8
    rng = np.random.default_rng(cfg["seed"])
    input_vocab = Vocabulary(["<unk>", "s0", "r0", "o0"])
    output_vocab = Vocabulary(["<unk>", "<bos>", "?", "w3", "w4", "w5", "w6", "w7"])
    params = QGenParams.init(
        n_in=len(input_vocab), n_out=n_out, d_enc=d_enc, d_dec=d_dec,
        hidden=hidden, seed=cfg["seed"],
        input_emb=rng.normal(size=(len(input_vocab), d_enc)))
    for tensor in params.tensors.values():
        tensor[:] = rng.normal(scale=0.4, size=tensor.shape)
    fact = Fact("s0", "r0", "o0")
    tokens = ["w3", "w4", "w5", "w6", "?"]

    def loss():
        return sequence_log_likelihood(fact, tokens, params, input_vocab,
                                       output_vocab)

    err = finite_diff_check(loss, params.tensors, eps=cfg["eps"])
    print(f"max relative error: {err:.3e} (tolerance {GRADCHECK_TOLERANCE:g})")
    if err <= GRADCHECK_TOLERANCE:
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 2


SUBCOMMANDS: dict[str, tuple[str, list[Option], Callable[[dict], int]]] = {
    "train-transe": (
        "train translation embeddings over triple files",
        [
            Option("triples", str, "", "comma-separated triple TSV paths"),
            Option("questions", str, "", "comma-separated question TSV paths "
                                         "whose facts join the training set"),
            Option("dim", int, TransEConfig.dim, "embedding dimensionality"),
            Option("margin", float, TransEConfig.margin, "ranking margin"),
            Option("learning-rate", float, TransEConfig.learning_rate, "SGD step size"),
            Option("epochs", int, TransEConfig.epochs, "training epochs"),
            Option("out-entities", str, "", "entity embedding output path", True),
            Option("out-relations", str, "", "relationship embedding output path", True),
        ],
        _cmd_train_transe,
    ),
    "train-qgen": (
        "train the question decoder",
        [
            Option("train", str, "", "training question TSV", True),
            Option("valid", str, "", "validation question TSV", True),
            Option("entity-embeddings", str, "", "pretrained entity embeddings", True),
            Option("relationship-embeddings", str, "", "pretrained relationship "
                                                       "embeddings", True),
            Option("mode", str, "sp", "placeholder mode: sp or mp"),
            Option("names", str, "", "optional id -> display-name TSV"),
            Option("min-count", int, 1, "vocabulary frequency cutoff"),
            Option("threshold", float, DEFAULT_THRESHOLD, "subject-span match threshold"),
            Option("word-dim", int, 200, "output word embedding size"),
            Option("hidden", int, 600, "decoder state size"),
            Option("learning-rate", float, TrainConfig.learning_rate, "Adam step size"),
            Option("clip-norm", float, TrainConfig.clip_norm, "global gradient clip"),
            Option("batch-size", int, TrainConfig.batch_size, "examples per update"),
            Option("patience", int, TrainConfig.patience,
                   "evaluations without improvement before stopping"),
            Option("eval-every", int, TrainConfig.eval_every,
                   "updates between evaluations (0 = each epoch)"),
            Option("max-steps", int, TrainConfig.max_steps, "hard update limit (0 = none)"),
            Option("max-len", int, DEFAULT_MAX_LEN,
                   "decode length cap during validation"),
            Option("out-dir", str, "", "directory for checkpoint/vocabularies/log", True),
        ],
        _cmd_train_qgen,
    ),
    "generate": (
        "decode questions for a triple file",
        [
            Option("facts", str, "", "triple TSV to transduce", True),
            Option("checkpoint", str, "", "trained checkpoint path", True),
            Option("input-vocab", str, "", "input vocabulary dump", True),
            Option("output-vocab", str, "", "output vocabulary dump", True),
            Option("names", str, "", "optional id -> display-name TSV"),
            Option("width", int, DEFAULT_BEAM_WIDTH, "beam width (1 = greedy)"),
            Option("max-len", int, DEFAULT_MAX_LEN, "decode length cap"),
            Option("output", str, "", "output TSV path", True),
        ],
        _cmd_generate,
    ),
    "evaluate": (
        "score candidate questions against references",
        [
            Option("candidates", str, "", "one question per line", True),
            Option("references", str, "", "one question per line", True),
            Option("word-vectors", str, "", "pretrained word vectors for Emb. Greedy"),
            Option("report", str, "", "optional per-example TSV output path"),
        ],
        _cmd_evaluate,
    ),
    "baseline": (
        "answer facts with sampled training templates",
        [
            Option("train", str, "", "training question TSV", True),
            Option("facts", str, "", "triple TSV to answer", True),
            Option("names", str, "", "optional id -> display-name TSV"),
            Option("threshold", float, DEFAULT_THRESHOLD, "subject-span match threshold"),
            Option("output", str, "", "output TSV path", True),
        ],
        _cmd_baseline,
    ),
    "neighbors": (
        "print nearest entities in embedding space",
        [
            Option("entity-embeddings", str, "", "entity embedding file", True),
            Option("entity", str, "", "query entity id", True),
            Option("k", int, 5, "neighbor count"),
        ],
        _cmd_neighbors,
    ),
    "gradcheck": (
        "verify decoder gradients against finite differences",
        [
            Option("eps", float, 1e-5, "finite-difference step"),
        ],
        _cmd_gradcheck,
    ),
}


def run(argv) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required "
                             f"(one of: {', '.join(SUBCOMMANDS)})")
        _, options, handler = SUBCOMMANDS[args.command]
        return handler(_effective_config(args, options))
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except (Fact2QuestionError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
