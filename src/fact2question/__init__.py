"""fact2question: turn knowledge-base facts into natural-language questions.

Pipeline pieces: translation embeddings over the fact graph (transe),
subject placeholders (placeholders), an attention-GRU decoder trained by
Adam with clipping and early stopping (model, training), greedy/beam
generation (decoding), a template baseline (baseline), and BLEU /
METEOR-lite / Embedding-Greedy scoring (metrics).
"""

from .autodiff import Tape, backprop, finite_diff_check
from .data import Fact, QAPair, Vocabulary, load_simplequestions, load_triples, tokenize
from .errors import Fact2QuestionError
from .model import QGenParams, sequence_log_likelihood
from .transe import TransEConfig, TransEModel, train_transe

__version__ = "0.1.0"

__all__ = [
    "Fact",
    "Fact2QuestionError",
    "QAPair",
    "QGenParams",
    "Tape",
    "TransEConfig",
    "TransEModel",
    "Vocabulary",
    "backprop",
    "finite_diff_check",
    "load_simplequestions",
    "load_triples",
    "sequence_log_likelihood",
    "tokenize",
    "train_transe",
    "__version__",
]
