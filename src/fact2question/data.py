"""Facts, question-answer pairs, vocabularies, and the TSV loaders.

File conventions:
  * every file is written through replacing_writer: whole or not at all
  * text files are UTF-8 with LF lines, all read through read_lines: a CR
    just before an LF (or at the end of the file) is dropped, so CRLF files
    read as LF ones; any other CR, or a line that is not UTF-8, raises
    ParseError naming file:line
  * tab-separated files: blank lines are skipped, and read_tsv rejects a
    line with the wrong field count
  * question files: 4 fields (subject, relationship, object, question)
  * triple files: 3 fields (subject, relationship, object)
  * question and triple files: an id empty once normalized raises
    ParseError naming file:line
  * name files: 2 fields (id, display name)
  * vocabulary dumps: 3 fields (index, token, count)
  * category maps: 2 fields (relationship, category), written for inspection
  * vector files (embeddings, word vectors): a "<count> <dim>" header,
    then "<id> <v1> ... <vdim>" lines of finite values
  * candidate and reference question files: one question per line, paired
    by line number (read_paired_questions)
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractError, ParseError, UnknownIdError

log = logging.getLogger(__name__)

UNK = "<unk>"
BOS = "<bos>"
QMARK = "?"

_FREEBASE_PREFIX = "www.freebase.com/"
_TOKEN_RE = re.compile(r"[?,.]|'[^\s?,.']*|[^\s?,.']+")


def normalize_id(raw: str) -> str:
    """Strip the freebase URL prefix; MIDs like m/abc become m.abc.

    Relationship paths keep their slashes (category extraction needs the
    domain/type/property structure).
    """
    s = raw.strip()
    if s.startswith(_FREEBASE_PREFIX):
        s = s[len(_FREEBASE_PREFIX):]
    s = s.lstrip("/")
    if s.startswith(("m/", "g/")):
        s = s.replace("/", ".")
    return s


def tokenize_phrase(text: str) -> list[str]:
    """Lowercase and split on whitespace plus the ? ' , . marks."""
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str) -> list[str]:
    """tokenize_phrase plus a guaranteed terminal question mark."""
    tokens = tokenize_phrase(text)
    if not tokens or tokens[-1] != QMARK:
        tokens.append(QMARK)
    return tokens


@dataclass(frozen=True)
class Fact:
    """A (subject, relationship, object) triple of normalized ids."""

    subject: str
    relationship: str
    object: str

    def __post_init__(self):
        if not (self.subject and self.relationship and self.object):
            raise ContractError(f"fact with empty id: {self!r}")

    def atoms(self) -> tuple[str, str, str]:
        return (self.subject, self.relationship, self.object)


@dataclass(frozen=True)
class QAPair:
    """A fact plus its question as lowercase tokens ending in '?'."""

    fact: Fact
    question_tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.question_tokens or self.question_tokens[-1] != QMARK:
            raise ContractError(
                f"question tokens must be non-empty and end with '?': "
                f"{list(self.question_tokens)!r}"
            )


def read_lines(path) -> Iterator[str]:
    """Every line of a UTF-8 text file, without its line ending.

    This is the one place a text file is opened for reading.  Only LF ends
    a line; a CR before it, or at the end of the file, is dropped.  Any
    other CR, or a line that is not UTF-8, raises ParseError naming
    file:line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.removesuffix(b"\n").removesuffix(b"\r")
            if b"\r" in raw:
                raise ParseError(f"{path}:{lineno}: carriage return inside a line")
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}:{lineno}: line is not UTF-8") from None
            yield line


def read_tsv(path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank line of a TSV file.

    A line without exactly n_fields fields raises ParseError naming
    file:line.
    """
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                f"got {len(fields)}"
            )
        yield lineno, fields


def read_paired_questions(candidates, references) -> tuple[list[list[str]],
                                                           list[list[str]]]:
    """Tokenized questions of two one-question-per-line files, paired by
    line number.  A line blank in both files is skipped; a question facing
    a blank line, or no line, in the other file raises ParseError naming
    both file:line places."""
    paths = (candidates, references)
    pairs = ([], [])
    lines = zip_longest(*(read_lines(path) for path in paths), fillvalue="")
    for lineno, texts in enumerate(lines, start=1):
        blank = [not text.strip() for text in texts]
        if blank[0] != blank[1]:
            question, other = paths if blank[1] else paths[::-1]
            raise ParseError(f"{question}:{lineno}: question faces a blank line "
                             f"or no line at {other}:{lineno}")
        if not blank[0]:
            for out, text in zip(pairs, texts):
                out.append(tokenize(text))
    return pairs


def _read_fact(path, lineno: int, fields: Sequence[str]) -> Fact:
    """The fact of a file's id fields; an id empty once normalized raises
    ParseError naming file:line."""
    ids = [normalize_id(field) for field in fields]
    if not all(ids):
        raise ParseError(f"{path}:{lineno}: empty id")
    return Fact(*ids)


def load_simplequestions(path) -> list[QAPair]:
    """Parse a 4-field question file; blank questions are skipped (logged)."""
    pairs: list[QAPair] = []
    skipped = 0
    for lineno, (subject, relationship, object_, question) in read_tsv(path, 4):
        if not question.strip():
            skipped += 1
            continue
        fact = _read_fact(path, lineno, (subject, relationship, object_))
        pairs.append(QAPair(fact, tuple(tokenize(question))))
    if skipped:
        log.warning("%s: skipped %d lines with empty questions", path, skipped)
    return pairs


def question_line(fact: Fact, words: Iterable[str]) -> str:
    """One line of a question file: the fact's ids and the question words."""
    return f"{fact.subject}\t{fact.relationship}\t{fact.object}\t{' '.join(words)}\n"


@contextmanager
def replacing_writer(path, binary: bool = False) -> Iterator[IO]:
    """Write UTF-8 text (bytes if `binary`) to a hidden file beside `path`
    and rename it onto `path` when the with-block exits cleanly; on an error
    remove it.  A failed or killed run never leaves a partial file at `path`,
    and a file already there stays whole until then.  There is no fsync:
    this guards against a crash of the process, not a power loss."""
    path = Path(path)
    tmp_path = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp_path, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as out:
            yield out
        os.replace(tmp_path, path)
    finally:
        tmp_path.unlink(missing_ok=True)


def read_facts(path) -> Iterator[Fact]:
    """Every fact of a 3-field triple file, in file order, repeats included."""
    for lineno, fields in read_tsv(path, 3):
        yield _read_fact(path, lineno, fields)


def unique_facts(facts: Iterable[Fact]) -> tuple[list[Fact], int]:
    """The first occurrence of each fact, in order, and the repeats dropped."""
    unique: dict[Fact, None] = {}
    n = 0
    for n, fact in enumerate(facts, start=1):
        unique[fact] = None
    return list(unique), n - len(unique)


def load_triples(path) -> tuple[list[Fact], int]:
    """Parse a 3-field triple file; returns (deduplicated facts, dup count)."""
    return unique_facts(read_facts(path))


def load_names(path) -> dict[str, str]:
    """Optional id -> display-string map, 2 tab-separated fields per line."""
    return {normalize_id(key): name for _, (key, name) in read_tsv(path, 2)}


def read_vectors(path) -> tuple[list[str], np.ndarray]:
    """Parse a vector file into (ids, table), one table row per id.

    Rows are collected as lines are read, so a header count far beyond
    the file's rows allocates nothing; the count is checked at the end.
    Every value must be finite.
    """
    rows: dict[str, np.ndarray] = {}
    lines = read_lines(path)
    header = next(lines, "").split()
    if len(header) != 2 or not all(h.isdecimal() for h in header):
        raise ParseError(f"{path}:1: expected '<count> <dim>' header")
    count, dim = int(header[0]), int(header[1])
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise ParseError(f"{path}:{lineno}: expected id plus {dim} values")
        if parts[0] in rows:
            raise ParseError(f"{path}:{lineno}: duplicate id {parts[0]!r}")
        try:
            row = np.array([float(v) for v in parts[1:]])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric value") from None
        if not np.isfinite(row).all():
            raise ParseError(f"{path}:{lineno}: non-finite value")
        rows[parts[0]] = row
    if len(rows) != count:
        raise ParseError(f"{path}: header promised {count} rows, found {len(rows)}")
    try:
        return list(rows), np.array(list(rows.values())).reshape(count, dim)
    except ValueError:  # no rows, and a header dim numpy cannot shape
        raise ParseError(f"{path}:1: dim {dim} is too large") from None


def write_vectors(path, ids: Sequence[str], table: np.ndarray) -> None:
    """Write a vector file that read_vectors reads back exactly."""
    with replacing_writer(path) as fh:
        fh.write(f"{len(ids)} {table.shape[1]}\n")
        for eid, row in zip(ids, table):
            fh.write(eid + " " + " ".join(repr(float(v)) for v in row) + "\n")


class Vocabulary:
    """Bijective token <-> index map with reserved tokens at the front."""

    def __init__(self, tokens: Iterable[str], counts: dict[str, int] | None = None):
        self._tokens = list(tokens)
        self._index = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise ContractError("vocabulary tokens must be unique")
        self._counts = dict(counts or {})

    @classmethod
    def build(cls, counts: Counter, reserved: Iterable[str],
              min_count: int = 1) -> "Vocabulary":
        reserved = list(reserved)
        body = sorted(
            tok for tok, n in counts.items()
            if n >= min_count and tok not in reserved
        )
        return cls(reserved + body, counts=dict(counts))

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def index(self, token: str) -> int:
        """Strict lookup; unknown tokens raise."""
        try:
            return self._index[token]
        except KeyError:
            raise UnknownIdError(f"token not in vocabulary: {token!r}") from None

    def index_or_unk(self, token: str) -> int:
        return self._index.get(token, self._index[UNK])

    def token(self, i: int) -> str:
        if not 0 <= i < len(self._tokens):
            raise UnknownIdError(f"index {i} out of vocabulary range")
        return self._tokens[i]

    def content_hash(self) -> str:
        """sha256 over the index->token map (counts excluded)."""
        body = "\n".join(f"{i}\t{tok}" for i, tok in enumerate(self._tokens))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def dump(self, path) -> None:
        with replacing_writer(path) as fh:
            for i, tok in enumerate(self._tokens):
                fh.write(f"{i}\t{tok}\t{self._counts.get(tok, 0)}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens: list[str] = []
        counts: dict[str, int] = {}
        for lineno, (idx, tok, count) in read_tsv(path, 3):
            try:
                index, n = int(idx), int(count)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: index and count must be integers"
                ) from None
            if index != len(tokens):
                raise ParseError(f"{path}:{lineno}: indices out of order")
            if tok in counts:
                raise ParseError(f"{path}:{lineno}: repeated token {tok!r}")
            tokens.append(tok)
            counts[tok] = n
        return cls(tokens, counts=counts)


def build_vocabularies(
    pairs: Iterable,
    min_count: int = 1,
    placeholder_tokens: Iterable[str] = (),
) -> tuple[Vocabulary, Vocabulary]:
    """Input vocabulary over fact atoms, output vocabulary over question tokens.

    `pairs` may be QAPair objects or anything with .fact and a token list
    under .question_tokens or .tokens (placeholderized questions).  Tokens
    below min_count map to <unk>; placeholder tokens are always kept.
    """
    pairs = list(pairs)
    if not pairs:
        raise ContractError("build_vocabularies: empty corpus")
    atom_counts: Counter = Counter()
    token_counts: Counter = Counter()
    for pair in pairs:
        atom_counts.update(pair.fact.atoms())
        tokens = getattr(pair, "question_tokens", None)
        if tokens is None:
            tokens = pair.tokens
        token_counts.update(tokens)
    input_vocab = Vocabulary.build(atom_counts, reserved=[UNK], min_count=min_count)
    reserved = [UNK, BOS, QMARK] + sorted(set(placeholder_tokens))
    output_vocab = Vocabulary.build(token_counts, reserved=reserved,
                                    min_count=min_count)
    return input_vocab, output_vocab

