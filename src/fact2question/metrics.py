"""Generation metrics: corpus BLEU, METEOR-lite, and Embedding Greedy.

METEOR-lite keeps the original METEOR constants and matching stages
(exact, then Porter stems) but omits the WordNet synonym stage, so its
numbers are not comparable to WordNet-based METEOR scores; reports label
the column accordingly.  BLEU applies add-epsilon smoothing (1e-9) to
zero n-gram counts at corpus level so tiny corpora never hit log(0).

METEOR-lite's chunk count is the fewest over every maximal alignment
when a depth-first search of them visits fewer than 20,000 nodes, and
the leftmost-in-order alignment's otherwise.  The node count follows
from the matching groups' sizes, so it is known before any search runs.

Emb. Greedy computes each pair's cosine matrix once, reading its rows in
one direction and its columns in the other, and each token's norm once
per `evaluate_corpus` call; the scores are unchanged bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .data import read_vectors, replacing_writer
from .errors import ContractError
from .porter import stem

BLEU_EPSILON = 1e-9
BLEU_MAX_N = 4
_ALIGN_BUDGET = 20000


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(candidate: Sequence[str], reference: Sequence[str],
                     n: int) -> tuple[int, int]:
    """Candidate n-grams found in the reference (each clipped to its
    reference count), and the candidate's n-gram total."""
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    return sum(min(v, ref[g]) for g, v in cand.items()), sum(cand.values())


def sentence_precisions(candidate: Sequence[str],
                        reference: Sequence[str]) -> tuple[float, ...]:
    """Per-sentence modified n-gram precisions (0.0 when no n-grams fit);
    report decoration only, the corpus score pools counts instead."""
    out = []
    for n in range(1, BLEU_MAX_N + 1):
        matched, total = _clipped_matches(candidate, reference, n)
        out.append(matched / total if total else 0.0)
    return tuple(out)


def bleu(candidates: Sequence[Sequence[str]],
         references: Sequence[Sequence[str]]) -> float:
    """Corpus BLEU in [0, 100]: geometric mean of pooled modified n-gram
    precisions (uniform weights) times the brevity penalty."""
    if not candidates:
        raise ContractError("bleu: empty corpus")
    if len(candidates) != len(references):
        raise ContractError("bleu: candidate/reference lists differ in length")
    matched = [0] * BLEU_MAX_N
    total = [0] * BLEU_MAX_N
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        if not cand or not ref:
            raise ContractError("bleu: empty sentence")
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, BLEU_MAX_N + 1):
            hits, count = _clipped_matches(cand, ref, n)
            matched[n - 1] += hits
            total[n - 1] += count
    log_sum = 0.0
    for n in range(BLEU_MAX_N):
        if total[n] == 0:
            p = BLEU_EPSILON
        else:
            p = (matched[n] if matched[n] > 0 else BLEU_EPSILON) / total[n]
        log_sum += math.log(p)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum / BLEU_MAX_N)


# ---------------------------------------------------------------------------
# METEOR-lite
# ---------------------------------------------------------------------------


def _stage_groups(cand, ref, cand_free, ref_free, key_fn):
    cmap: dict[str, list[int]] = {}
    rmap: dict[str, list[int]] = {}
    for i in sorted(cand_free):
        cmap.setdefault(key_fn(cand[i]), []).append(i)
    for j in sorted(ref_free):
        rmap.setdefault(key_fn(ref[j]), []).append(j)
    return [(cmap[key], rmap[key], min(len(cmap[key]), len(rmap[key])))
            for key in sorted(cmap) if key in rmap]


def _count_chunks(pairs: list[tuple[int, int]]) -> int:
    if not pairs:
        return 0
    pairs = sorted(pairs)
    chunks = 1
    for (pi, pj), (qi, qj) in zip(pairs, pairs[1:]):
        if not (qi == pi + 1 and qj == pj + 1):
            chunks += 1
    return chunks


def _options(ci, rj, k):
    """Every way a stage group can pair k of its candidate positions with
    k of its reference positions, the in-order pairing first."""
    return [list(zip(csel, rsel))
            for csel in combinations(ci, k) for rsel in permutations(rj, k)]


def _alignments(cand, ref, stages):
    """Every maximal alignment, the leftmost-in-order one first.  Groups
    extend the alignments one at a time, so each prefix is built once for
    every choice of the groups after it."""
    alignments = [[]]
    for key_fn in stages:
        extended = []
        for pairs in alignments:
            cand_free = set(range(len(cand))).difference(i for i, _ in pairs)
            ref_free = set(range(len(ref))).difference(j for _, j in pairs)
            prefixes = [pairs]
            for group in _stage_groups(cand, ref, cand_free, ref_free, key_fn):
                options = _options(*group)
                prefixes = [prefix + option for prefix in prefixes for option in options]
            extended += prefixes
        alignments = extended
    return alignments


def _align(cand: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int]]:
    """Two-stage unigram alignment (exact then stem), maximal in match
    count, with the fewest chunks found as the module docstring says.
    Each stage pairs min(c, r) of a key's c candidate and r reference
    copies whichever positions it picks, so every choice leaves the next
    stage the same group sizes.  Each word is stemmed once per call."""
    stages = (lambda t: t, functools.cache(stem))
    cand_free, ref_free = set(range(len(cand))), set(range(len(ref)))
    in_order: list[tuple[int, int]] = []
    searched = []
    nodes, leaves = 0, 1
    for key_fn in stages:
        groups = _stage_groups(cand, ref, cand_free, ref_free, key_fn)
        if groups:  # a stage without groups here has none under any choice
            searched.append(key_fn)
        for ci, rj, k in groups:
            # a depth-first search visits each of this group's options
            # under every choice made for the groups before it
            leaves *= math.comb(len(ci), k) * math.perm(len(rj), k)
            nodes += leaves
            in_order += zip(ci[:k], rj[:k])
            cand_free.difference_update(ci[:k])
            ref_free.difference_update(rj[:k])
    if leaves == 1 or nodes >= _ALIGN_BUDGET:
        return in_order
    return min(_alignments(cand, ref, searched), key=_count_chunks)


def meteor_lite(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Unigram F-mean (10PR / (R + 9P)) with the cubic fragmentation
    penalty, in [0, 100]; 0 when nothing aligns."""
    if not candidate or not reference:
        raise ContractError("meteor_lite: empty sentence")
    pairs = _align(list(candidate), list(reference))
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(candidate)
    recall = m / len(reference)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    chunks = _count_chunks(pairs)
    penalty = 0.5 * (chunks ** 3) / (m ** 3)
    return 100.0 * f_mean * (1.0 - penalty)


# ---------------------------------------------------------------------------
# Embedding Greedy
# ---------------------------------------------------------------------------


class WordVectorStore:
    """Pretrained word vectors from a "<count> <dim>" header text file.

    Out-of-vocabulary lookups return None (never silent zero vectors);
    the metrics count them.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise ContractError("empty word-vector store")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise ContractError(f"inconsistent vector shapes: {dims}")
        self._vectors = {t: np.asarray(v, dtype=np.float64) for t, v in vectors.items()}
        self.dim = next(iter(dims))[0]

    @classmethod
    def load(cls, path) -> "WordVectorStore":
        tokens, table = read_vectors(path)
        return cls(dict(zip(tokens, table)))

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def get(self, token: str) -> np.ndarray | None:
        return self._vectors.get(token)


def _greedy_mean(lines) -> float:
    """Mean over a sentence's tokens of each one's best cosine with the
    other sentence; an OOV token's line is None and scores 0."""
    sims = []
    for line in lines:
        # starting at 0.0 floors negative best-matches, keeping the
        # score inside [0, 100]
        best = 0.0
        for c in line or ():
            best = max(best, c)
        sims.append(best)
    return sum(sims) / len(sims)


def _embedding_greedy(candidate: Sequence[str], reference: Sequence[str],
                      store: WordVectorStore, norms: dict) -> tuple[float, int]:
    """Emb. Greedy score and the OOV tokens met in both directions, from
    one cosine matrix: rows for the candidate's tokens, columns for the
    reference's.  `norms` keeps the norm of every token met so far."""
    if not candidate or not reference:
        raise ContractError("embedding_greedy: empty sentence")
    for token in (*candidate, *reference):
        if token not in norms and (v := store.get(token)) is not None:
            norms[token] = math.sqrt(float(np.dot(v, v)))
    ref_known = [(store.get(t), norms[t]) for t in reference if t in norms]
    rows = []
    for token in candidate:
        v, na = store.get(token), norms.get(token)
        # rounding can push a vector's cosine with itself just above 1
        rows.append(None if v is None else
                    [0.0 if na == 0.0 or nb == 0.0
                     else min(1.0, float(np.dot(v, w)) / (na * nb))
                     for w, nb in ref_known])
    columns = zip(*(row for row in rows if row is not None))
    cols = [next(columns, ()) if t in norms else None for t in reference]
    score = 100.0 * 0.5 * (_greedy_mean(rows) + _greedy_mean(cols))
    return score, rows.count(None) + cols.count(None)


def embedding_greedy(candidate: Sequence[str], reference: Sequence[str],
                     store: WordVectorStore) -> float:
    """Greedy non-exclusive best-cosine alignment averaged over both
    directions, in [0, 100]; OOV tokens contribute similarity 0."""
    return _embedding_greedy(candidate, reference, store, {})[0]


# ---------------------------------------------------------------------------
# corpus report
# ---------------------------------------------------------------------------

REPORT_NOTES = (
    f"BLEU: corpus-level, n=1..{BLEU_MAX_N} uniform weights, add-epsilon smoothing "
    f"({BLEU_EPSILON:g}) for zero n-gram counts",
    "METEOR-lite: exact + Porter stem matching only; not comparable to "
    "WordNet-based METEOR scores",
    "Emb. Greedy: bidirectional greedy cosine matching; OOV tokens "
    "contribute similarity 0",
)


@dataclass
class ExampleScore:
    candidate: list[str]
    reference: list[str]
    precisions: tuple[float, ...]
    meteor_lite: float
    emb_greedy: float | None


@dataclass
class MetricReport:
    bleu: float
    meteor_lite: float
    emb_greedy: float | None
    examples: list[ExampleScore]
    oov_count: int

    def summary_lines(self) -> list[str]:
        lines = [f"bleu\t{self.bleu:.4f}", f"meteor-lite\t{self.meteor_lite:.4f}"]
        if self.emb_greedy is not None:
            lines.append(f"emb-greedy\t{self.emb_greedy:.4f}")
            lines.append(f"oov-tokens\t{self.oov_count}")
        return lines

    def write_tsv(self, path) -> None:
        with replacing_writer(path) as fh:
            for note in REPORT_NOTES:
                fh.write(f"# {note}\n")
            for line in self.summary_lines():
                fh.write(line + "\n")
            fh.write("candidate\treference\t"
                     + "\t".join(f"p{n}" for n in range(1, BLEU_MAX_N + 1))
                     + "\tmeteor-lite\temb-greedy\n")
            for ex in self.examples:
                emb = "" if ex.emb_greedy is None else f"{ex.emb_greedy:.4f}"
                fh.write("\t".join([
                    " ".join(ex.candidate),
                    " ".join(ex.reference),
                    *(f"{p:.6f}" for p in ex.precisions),
                    f"{ex.meteor_lite:.4f}",
                    emb,
                ]) + "\n")


def evaluate_corpus(candidates: Sequence[Sequence[str]],
                    references: Sequence[Sequence[str]],
                    store: WordVectorStore | None = None) -> MetricReport:
    """All three metrics plus per-example rows; Emb. Greedy only when a
    word-vector store is supplied."""
    if not candidates:
        raise ContractError("evaluate_corpus: empty corpus")
    if len(candidates) != len(references):
        raise ContractError("evaluate_corpus: candidate/reference length mismatch")
    examples: list[ExampleScore] = []
    oov_total = 0
    norms: dict = {}
    for cand, ref in zip(candidates, references):
        emb = None
        if store is not None:
            emb, oov = _embedding_greedy(cand, ref, store, norms)
            oov_total += oov
        examples.append(ExampleScore(
            candidate=list(cand), reference=list(ref),
            precisions=sentence_precisions(cand, ref),
            meteor_lite=meteor_lite(cand, ref),
            emb_greedy=emb,
        ))
    emb_mean = None
    if store is not None:
        emb_mean = sum(ex.emb_greedy for ex in examples) / len(examples)
    return MetricReport(
        bleu=bleu(candidates, references),
        meteor_lite=sum(ex.meteor_lite for ex in examples) / len(examples),
        emb_greedy=emb_mean,
        examples=examples,
        oov_count=oov_total,
    )
