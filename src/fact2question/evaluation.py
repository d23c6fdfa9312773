"""Validation scoring used for early stopping: greedy-decode each
validation fact, restore its subject, and average METEOR-lite against
the reference question."""

from __future__ import annotations

from .data import Vocabulary
from .decoding import DEFAULT_MAX_LEN, GenerationSession
from .errors import ContractError
from .metrics import meteor_lite
from .model import QGenParams
from .placeholders import restore


def validation_scorer(valid_pairs, input_vocab: Vocabulary,
                      output_vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN):
    """A params -> mean METEOR-lite closure over (QAPair, placeholderized).
    A max_len below 1 is rejected here, before any training step."""
    if max_len < 1:
        raise ContractError(f"max_len must be >= 1, got {max_len}")
    if not valid_pairs:
        return lambda params: 0.0

    references = [list(pair.question_tokens) for pair, _ in valid_pairs]

    def score(params: QGenParams) -> float:
        session = GenerationSession(params, input_vocab, output_vocab,
                                    max_len=max_len)
        total = 0.0
        for (pair, ph), reference in zip(valid_pairs, references):
            indices = session.greedy_indices(ph.fact)
            tokens = [output_vocab.token(i) for i in indices]
            total += meteor_lite(restore(tokens, ph.subject), reference)
        return total / len(valid_pairs)

    return score
