"""Non-parametric template baseline: answer a fact by re-using a random
training question with the same relationship and substituting the subject.

Duplicates are kept in the index, so uniform sampling over stored
questions weights frequent phrasings proportionally, exactly like
sampling a uniform candidate fact from the training set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .data import Fact
from .errors import ContractError, UnseenRelationshipError
from .placeholders import PlaceholderizedQuestion, is_placeholder, restore, subject_text


@dataclass
class TemplateIndex:
    """relationship id -> placeholderized question token lists, in
    training order, duplicates kept."""

    by_relationship: dict[str, list[tuple[str, ...]]]


def build_template_index(
    placeholderized: Iterable[PlaceholderizedQuestion],
) -> TemplateIndex:
    index: dict[str, list[tuple[str, ...]]] = {}
    for ph in placeholderized:
        if sum(1 for t in ph.tokens if is_placeholder(t)) != 1:
            raise ContractError(
                f"template must contain exactly one placeholder: {ph.tokens!r}"
            )
        index.setdefault(ph.fact.relationship, []).append(tuple(ph.tokens))
    return TemplateIndex(index)


def sample_question(fact: Fact, index: TemplateIndex, seed: int,
                    names: Mapping[str, str] | None = None) -> list[str]:
    """A uniformly sampled template for the fact's relationship with the
    subject string substituted; deterministic for a fixed seed."""
    templates = index.by_relationship.get(fact.relationship)
    if not templates:
        raise UnseenRelationshipError(
            f"no training questions for relationship {fact.relationship!r}"
        )
    rng = np.random.default_rng(seed)
    template = templates[int(rng.integers(len(templates)))]
    words, _ = restore(template, subject_text(fact, names))
    return words
