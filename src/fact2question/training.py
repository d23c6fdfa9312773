"""Decoder training: Adam on the token NLL with gradient clipping and
early stopping with patience on the validation question-match score.

train() is one loop over shuffled batches.  Each example's log-likelihood
is one fused tape node (model.sequence_log_likelihood) over the weight
arrays in QGenParams.tensors, differentiated by one backprop() call; the
batch sums the gradients in place in example order and negates them once,
so a seed fixes the run.  The loss is mean NLL per token.  A NumericError
or TrainingDivergedError in any update or validation pass restores the
best checkpoint and raises TrainingDivergedError.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backprop
from .data import QAPair, Vocabulary
from .errors import ContractError, NumericError, TrainingDivergedError
from .evaluation import validation_scorer
from .model import QGenParams, sequence_log_likelihood
from .placeholders import PlaceholderizedQuestion

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def clip_gradients(grads: dict[str, np.ndarray],
                   max_norm: float) -> dict[str, np.ndarray]:
    """Scale the whole gradient set down when its global L2 norm exceeds
    max_norm; otherwise return it unchanged."""
    if max_norm <= 0:
        raise ContractError(f"max_norm must be positive, got {max_norm}")
    sq = 0.0
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError("non-finite gradient")
        sq += float(np.sum(g * g))
    norm = np.sqrt(sq)
    if norm <= max_norm:
        return grads
    factor = max_norm / norm
    return {name: g * factor for name, g in grads.items()}


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    learning_rate: float
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """Standard Adam update with bias correction, in place on the params."""
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(f"gradient shape mismatch for {name}")
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


@dataclass
class TrainConfig:
    learning_rate: float = 0.00025
    clip_norm: float = 0.1
    batch_size: int = 32
    patience: int = 5
    eval_every: int = 0   # updates between evaluations; 0 = once per epoch
    max_steps: int = 0    # update limit; 0 = none
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ContractError(f"learning rate must be >= 0, got {self.learning_rate}")
        if not np.isfinite(self.learning_rate):
            raise ContractError(f"learning rate must be finite, got {self.learning_rate}")
        if not self.clip_norm > 0:
            raise ContractError(f"clip norm must be positive, got {self.clip_norm}")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if self.patience < 1:
            raise ContractError("patience must be >= 1")
        if self.eval_every < 0:
            raise ContractError("eval_every must be >= 0 (0 = once per epoch)")
        if self.max_steps < 0:
            raise ContractError("max_steps must be >= 0 (0 = no limit)")


@dataclass
class TrainResult:
    params: QGenParams
    log_lines: list[str]
    best_score: float
    steps: int


def train(
    train_pairs: list[tuple[QAPair, PlaceholderizedQuestion]],
    valid_pairs: list[tuple[QAPair, PlaceholderizedQuestion]],
    params: QGenParams,
    config: TrainConfig,
    input_vocab: Vocabulary,
    output_vocab: Vocabulary,
    score_fn=None,
) -> TrainResult:
    """Minimize token NLL; keep the checkpoint with the best validation score.

    score_fn(params) -> float scores the validation set (by default
    evaluation.validation_scorer: mean METEOR-lite of greedily decoded
    questions against their references).  A NumericError or
    TrainingDivergedError in any update or validation pass raises
    TrainingDivergedError, with the best checkpoint restored and attached.
    """
    if not train_pairs:
        raise ContractError("train: empty training set")
    if score_fn is None:
        score_fn = validation_scorer(valid_pairs, input_vocab, output_vocab)

    rng = np.random.default_rng(config.seed)
    adam = AdamState(config.learning_rate)
    eval_every = config.eval_every or -(-len(train_pairs) // config.batch_size)

    log_lines: list[str] = []
    best_values = params.copy_values()
    best, since_improvement = -np.inf, 0
    start = time.perf_counter()
    step = 0
    recent_nll: list[float] = []

    def batches():
        while True:
            order = rng.permutation(len(train_pairs))
            for lo in range(0, len(order), config.batch_size):
                yield [train_pairs[i][1] for i in order[lo:lo + config.batch_size]]

    def evaluate() -> None:
        nonlocal best, since_improvement
        score = score_fn(params)
        if score >= best:  # a tie keeps the newer checkpoint but is no improvement
            best_values.update(params.copy_values())
        if score > best:
            best, since_improvement = score, 0
        else:
            since_improvement += 1
        train_nll = float(np.mean(recent_nll)) if recent_nll else float("nan")
        recent_nll.clear()
        wall = time.perf_counter() - start
        log_lines.append(f"{step}\t{train_nll:.6f}\t{score:.4f}\t{wall:.3f}")
        log.info("step %d: train nll/token %.4f, valid score %.4f%s",
                 step, train_nll, score, " *" if since_improvement == 0 else "")

    try:
        for batch in batches():
            summed: dict[str, np.ndarray] = {}
            batch_ll = 0.0
            for ph in batch:
                with Tape() as tape:
                    tape.watch(params.tensors)
                    ll = sequence_log_likelihood(ph.fact, list(ph.tokens), params,
                                                 input_vocab, output_vocab)
                batch_ll += ll.item()
                for name, g in backprop(tape, ll).items():
                    if name in summed:
                        summed[name] += g
                    else:
                        summed[name] = g
            if not np.isfinite(batch_ll):
                raise NumericError("non-finite training loss")
            total_tokens = sum(len(ph.tokens) for ph in batch)
            # the NLL's gradient: negation is exact, so negating the sum
            # equals summing the negated gradients bit for bit
            scaled = {name: g / -total_tokens for name, g in summed.items()}
            adam_step(params.tensors, clip_gradients(scaled, config.clip_norm), adam)
            step += 1
            recent_nll.append(-batch_ll / total_tokens)
            if step % eval_every == 0:
                evaluate()
                if since_improvement >= config.patience:
                    break
            if config.max_steps and step >= config.max_steps:
                break
        if step % eval_every != 0:
            evaluate()
    except (NumericError, TrainingDivergedError) as exc:
        params.load_values(best_values)
        raise TrainingDivergedError(f"training diverged at step {step}: {exc}",
                                    checkpoint=params, log_lines=log_lines,
                                    best_score=best) from exc
    params.load_values(best_values)
    return TrainResult(params=params, log_lines=log_lines, best_score=best, steps=step)
