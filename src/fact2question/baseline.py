"""Non-parametric template baseline: answer a fact by re-using a random
training question with the same relationship and substituting the subject.

The index maps each relationship id to its placeholderized question token
lists, in training order.  Duplicates are kept, so uniform sampling over
stored questions weights frequent phrasings proportionally, exactly like
sampling a uniform candidate fact from the training set.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .data import Fact
from .errors import UnseenRelationshipError
from .placeholders import PlaceholderizedQuestion, restore, subject_text


def build_template_index(
    placeholderized: Iterable[PlaceholderizedQuestion],
) -> dict[str, list[tuple[str, ...]]]:
    index: dict[str, list[tuple[str, ...]]] = {}
    for ph in placeholderized:
        index.setdefault(ph.fact.relationship, []).append(ph.tokens)
    return index


def sample_question(fact: Fact, index: Mapping[str, list[tuple[str, ...]]],
                    seed: int, names: Mapping[str, str] | None = None) -> list[str]:
    """A uniformly sampled template for the fact's relationship with the
    subject string substituted; deterministic for a fixed seed."""
    templates = index.get(fact.relationship)
    if not templates:
        raise UnseenRelationshipError(
            f"no training questions for relationship {fact.relationship!r}"
        )
    rng = np.random.default_rng(seed)
    template = templates[int(rng.integers(len(templates)))]
    return restore(template, subject_text(fact, names))
