"""Subject-placeholder handling for rare words.

Training questions get the subject span replaced by a placeholder token,
either one generic token (single-placeholder mode, "sp") or one of at
most 60 category tokens derived from the relationship path ("mp").  At
generation time restore() puts the subject string back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Iterable, Mapping

from .data import Fact, QAPair, QMARK, replacing_writer, tokenize_phrase
from .errors import ContractError, NoSubjectSpanError

SP_TOKEN = "<placeholder>"
OTHER_CATEGORY = "other"
MAX_CATEGORIES = 60
DEFAULT_THRESHOLD = 0.5

_PLACEHOLDER_RE = re.compile(r"^<(?:[a-z0-9_]+ )?placeholder>$")
_CATEGORY_SANITIZE_RE = re.compile(r"[^a-z0-9_]+")


def is_placeholder(token: str) -> bool:
    return bool(_PLACEHOLDER_RE.match(token))


def category_token(category: str) -> str:
    return f"<{category} placeholder>"


def subject_text(fact: Fact, names: Mapping[str, str] | None = None) -> str:
    """Display string for the subject: the names map when available,
    otherwise the id with underscores read as spaces."""
    if names is not None and fact.subject in names:
        return names[fact.subject]
    return fact.subject.replace("_", " ")


def find_subject_span(question_tokens, subject_string) -> tuple[int, int, float]:
    """Best contiguous token span matching the subject string.

    The score is the longest-matching-blocks ratio (2 * matched chars /
    total chars) between the space-joined span and the lowercased
    subject.  Ties break by earliest start, then shortest span.  The
    terminal '?' never joins a span.  One matcher indexes the subject once
    for every span, and a span whose cheap upper bounds on the ratio
    (real_quick_ratio, quick_ratio) cannot beat the best score so far is
    skipped, so the result is the exhaustive search's, ties included.
    """
    if not question_tokens or not subject_string.strip():
        raise ContractError("find_subject_span: empty question or subject")
    target = " ".join(tokenize_phrase(subject_string))
    body_len = len(question_tokens)
    if question_tokens[-1] == QMARK:
        body_len -= 1
    max_span = len(target.split()) + 2
    matcher = SequenceMatcher(None, "", target, autojunk=False)
    best = (0, 1, -1.0)
    for start in range(body_len):
        for end in range(start + 1, min(body_len, start + max_span) + 1):
            matcher.set_seq1(" ".join(question_tokens[start:end]))
            if (matcher.real_quick_ratio() <= best[2]
                    or matcher.quick_ratio() <= best[2]):
                continue
            score = matcher.ratio()
            if score > best[2]:
                best = (start, end, score)
    if best[2] < 0:
        raise ContractError("find_subject_span: question has no body tokens")
    return best


@dataclass(frozen=True)
class PlaceholderizedQuestion:
    """A question with its subject span replaced by one placeholder token."""

    fact: Fact
    tokens: tuple[str, ...]
    span: tuple[int, int]
    mode: str
    subject: str
    score: float
    category: str | None = None

    def __post_init__(self):
        n = sum(1 for t in self.tokens if is_placeholder(t))
        if n != 1:
            raise ContractError(f"expected exactly one placeholder token, got {n}")
        if (self.category is not None) != (self.mode == "mp"):
            raise ContractError("category must be set exactly when mode is 'mp'")


@dataclass
class CategoryMap:
    """Total map from relationship id to one of at most 60 categories."""

    by_relationship: dict[str, str]

    def __post_init__(self):
        if len(self.categories()) > MAX_CATEGORIES:
            raise ContractError("more than 60 placeholder categories")

    def lookup(self, relationship: str) -> str:
        return self.by_relationship.get(relationship, OTHER_CATEGORY)

    def categories(self) -> list[str]:
        return sorted(set(self.by_relationship.values()) | {OTHER_CATEGORY})

    def placeholder_tokens(self) -> list[str]:
        return [category_token(c) for c in self.categories()]

    def dump(self, path) -> None:
        with replacing_writer(path) as fh:
            for rel in sorted(self.by_relationship):
                fh.write(f"{rel}\t{self.by_relationship[rel]}\n")


def subject_type_segment(relationship: str) -> str | None:
    """The expected-subject-type segment of a domain/type/property path."""
    parts = relationship.split("/")
    if len(parts) < 3:
        return None
    segment = _CATEGORY_SANITIZE_RE.sub("_", parts[1].lower()).strip("_")
    return segment or None


def build_category_map(training_pairs: Iterable[QAPair]) -> CategoryMap:
    """Bucket relationships by subject type; top 59 types keep their own
    bucket, the rest (and unparsable paths) fall into "other"."""
    pair_list = list(training_pairs)
    if not pair_list:
        raise ContractError("build_category_map: empty corpus")
    type_freq: dict[str, int] = {}
    rel_type: dict[str, str | None] = {}
    for pair in pair_list:
        rel = pair.fact.relationship
        if rel not in rel_type:
            rel_type[rel] = subject_type_segment(rel)
        seg = rel_type[rel]
        if seg is not None:
            type_freq[seg] = type_freq.get(seg, 0) + 1
    kept = set(sorted(type_freq, key=lambda t: (-type_freq[t], t))[:MAX_CATEGORIES - 1])
    mapping = {
        rel: (seg if seg in kept else OTHER_CATEGORY)
        for rel, seg in rel_type.items()
    }
    return CategoryMap(mapping)


def _check_options(mode: str, category_map: CategoryMap | None,
                   threshold: float) -> None:
    if mode not in ("sp", "mp"):
        raise ContractError(f"mode must be 'sp' or 'mp', got {mode!r}")
    if mode == "mp" and category_map is None:
        raise ContractError("mp mode needs a category map")
    if not 0 <= threshold <= 1:
        raise ContractError(f"threshold must be in [0, 1], got {threshold}")


def placeholderize(
    pair: QAPair,
    mode: str = "sp",
    category_map: CategoryMap | None = None,
    names: Mapping[str, str] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> PlaceholderizedQuestion:
    """Replace the subject span of a question with a placeholder token.

    Raises NoSubjectSpanError when the best span scores below threshold;
    callers drop (and count) such pairs.  A threshold outside [0, 1]
    raises ContractError.
    """
    _check_options(mode, category_map, threshold)
    subject = subject_text(pair.fact, names)
    start, end, score = find_subject_span(list(pair.question_tokens), subject)
    if score < threshold:
        raise NoSubjectSpanError(
            f"best span score {score:.3f} below {threshold} for subject "
            f"{subject!r} in {' '.join(pair.question_tokens)!r}"
        )
    category = None
    if mode == "mp":
        category = category_map.lookup(pair.fact.relationship)
        token = category_token(category)
    else:
        token = SP_TOKEN
    tokens = pair.question_tokens[:start] + (token,) + pair.question_tokens[end:]
    return PlaceholderizedQuestion(
        fact=pair.fact, tokens=tokens, span=(start, end), mode=mode,
        subject=subject, score=score, category=category,
    )


def placeholderize_corpus(
    pairs: Iterable[QAPair],
    mode: str = "sp",
    category_map: CategoryMap | None = None,
    names: Mapping[str, str] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[tuple[QAPair, PlaceholderizedQuestion]], int]:
    """Placeholderize every pair, dropping (and counting) failures.  The
    options are checked before the first pair, so also when there is none."""
    _check_options(mode, category_map, threshold)
    kept: list[tuple[QAPair, PlaceholderizedQuestion]] = []
    dropped = 0
    for pair in pairs:
        try:
            kept.append((pair, placeholderize(pair, mode, category_map, names,
                                              threshold)))
        except NoSubjectSpanError:
            dropped += 1
    return kept, dropped


def restore(tokens: Iterable[str], subject_string: str) -> tuple[list[str], bool]:
    """Replace every placeholder token with the tokenized subject string.

    Returns (tokens, found) where found is False when there was nothing
    to replace (the generated question legitimately omitted it).
    """
    subject_tokens = tokenize_phrase(subject_string)
    out: list[str] = []
    found = False
    for tok in tokens:
        if is_placeholder(tok):
            out.extend(subject_tokens)
            found = True
        else:
            out.append(tok)
    return out, found
