"""Question decoding: greedy, beam search, and streaming corpus generation.

A fact is encoded once with model.encode, the encoder training uses too;
each token then runs through the numpy kernel kernels.decode_step.
An output sequence is at most max_len tokens ending in '?': up to
max_len - 1 tokens are chosen by the model, and a hypothesis that never
emits '?' gets one appended (unscored).  Scores are length-unnormalized
sums of chosen token log-probabilities.  generate_corpus decodes one fact
at a time on one thread; the BLAS threads inside numpy are its only
parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import kernels
from .autodiff import log_softmax_values
from .data import (BOS, QMARK, Fact, Vocabulary, question_line, read_facts,
                   replacing_writer)
from .errors import ContractError, UnknownIdError
from .model import QGenParams, encode
from .placeholders import restore, subject_text

DEFAULT_MAX_LEN = 30
DEFAULT_BEAM_WIDTH = 5


@dataclass
class Hypothesis:
    """A candidate question as output-vocab indices; done once it ends in '?'."""

    tokens: tuple[int, ...]
    log_prob: float


def worker_count() -> int:
    """Always 1, as corpus generation decodes on one thread; kept for
    callers that record the run environment."""
    return 1


class GenerationSession:
    """Read-only decoding state shared across facts."""

    def __init__(self, params: QGenParams, input_vocab: Vocabulary,
                 output_vocab: Vocabulary,
                 names: Mapping[str, str] | None = None,
                 max_len: int = DEFAULT_MAX_LEN):
        if max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {max_len}")
        self.params = params
        self.input_vocab = input_vocab
        self.output_vocab = output_vocab
        self.names = names
        self.max_len = max_len
        t = params.tensors
        self._word_emb = t["word_emb"]
        self._step_weights = tuple(t[name] for name in kernels.STEP_WEIGHTS)
        self._bos = output_vocab.index(BOS)
        self._qmark = output_vocab.index(QMARK)

    def greedy_indices(self, fact: Fact) -> list[int]:
        """Argmax decode as vocabulary indices (ties pick the lowest index)."""
        enc, h = encode(fact, self.params, self.input_vocab)
        w_prev = self._bos
        out: list[int] = []
        for _ in range(self.max_len - 1):
            step = kernels.decode_step(
                self._word_emb[w_prev], h, *enc, *self._step_weights)
            h = step.h
            idx = int(np.argmax(step.logits))
            out.append(idx)
            if idx == self._qmark:
                return out
            w_prev = idx
        out.append(self._qmark)
        return out

    def beam_indices(self, fact: Fact, width: int) -> list[Hypothesis]:
        """Up to `width` finished hypotheses, best (then lexicographically
        smallest) first."""
        if width < 1:
            raise ContractError(f"beam width must be >= 1, got {width}")
        enc, h0 = encode(fact, self.params, self.input_vocab)
        # live beams carry their recurrent state; finished ones do not
        beams: list[tuple[Hypothesis, np.ndarray, int]] = [
            (Hypothesis((), 0.0), h0, self._bos)
        ]
        finished: list[Hypothesis] = []
        for _ in range(self.max_len - 1):
            if not beams:
                break
            candidates: list[tuple[Hypothesis, np.ndarray]] = []
            for hyp, h, w_prev in beams:
                step = kernels.decode_step(
                    self._word_emb[w_prev], h, *enc, *self._step_weights)
                h_new = step.h
                logp = log_softmax_values(step.logits)
                for v in range(logp.shape[0]):
                    candidates.append((
                        Hypothesis(hyp.tokens + (v,), hyp.log_prob + float(logp[v])),
                        h_new,
                    ))
            candidates.sort(key=lambda c: (-c[0].log_prob, c[0].tokens))
            beams = []
            for hyp, h_new in candidates[:width]:
                if hyp.tokens[-1] == self._qmark:
                    finished.append(hyp)
                else:
                    beams.append((hyp, h_new, hyp.tokens[-1]))
        # out of steps: force-terminate survivors with an unscored '?'
        for hyp, _, _ in beams:
            finished.append(Hypothesis(hyp.tokens + (self._qmark,), hyp.log_prob))
        finished.sort(key=lambda hyp: (-hyp.log_prob, hyp.tokens))
        return finished[:width]

    def to_words(self, indices: Iterable[int], fact: Fact) -> list[str]:
        """Map indices to tokens and substitute the subject for placeholders."""
        tokens = [self.output_vocab.token(i) for i in indices]
        return restore(tokens, subject_text(fact, self.names))


def generate_corpus(facts_path, session: GenerationSession, output_path,
                    width: int = DEFAULT_BEAM_WIDTH) -> tuple[int, int]:
    """Stream a triple file through the decoder into a 4-field TSV.

    Facts whose atoms are unknown to the encoder are skipped.  Returns
    (written, skipped).  Output order follows input order.
    """
    if width < 1:
        raise ContractError(f"beam width must be >= 1, got {width}")
    written = 0
    skipped = 0
    with replacing_writer(output_path) as out:
        for fact in read_facts(facts_path):
            try:
                if width == 1:
                    indices = session.greedy_indices(fact)
                else:
                    indices = session.beam_indices(fact, width)[0].tokens
            except UnknownIdError:
                skipped += 1
                continue
            out.write(question_line(fact, session.to_words(indices, fact)))
            written += 1
    return written, skipped
