"""Generation metrics: corpus BLEU, METEOR-lite, and Embedding Greedy.

METEOR-lite keeps the original METEOR constants and matching stages
(exact, then Porter stems) but omits the WordNet synonym stage, so its
numbers are not comparable to WordNet-based METEOR scores; reports label
the column accordingly.  BLEU applies add-epsilon smoothing (1e-9) to
zero n-gram counts at corpus level so tiny corpora never hit log(0).
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


def sentence_precisions(candidate: Sequence[str], reference: Sequence[str],
                        max_n: int = 4) -> tuple[float, ...]:
    """Per-sentence modified n-gram precisions (0.0 when no n-grams fit);
    report decoration only, the corpus score pools counts instead."""
    out = []
    for n in range(1, max_n + 1):
        matched, total = _clipped_matches(candidate, reference, n)
        out.append(matched / total if total else 0.0)
    return tuple(out)


def bleu(candidates: Sequence[Sequence[str]], references: Sequence[Sequence[str]],
         max_n: int = 4) -> float:
    """Corpus BLEU in [0, 100]: geometric mean of pooled modified n-gram
    precisions (uniform weights) times the brevity penalty."""
    if not candidates:
        raise ContractError("bleu: empty corpus")
    if len(candidates) != len(references):
        raise ContractError("bleu: candidate/reference lists differ in length")
    matched = [0] * max_n
    total = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        if not cand or not ref:
            raise ContractError("bleu: empty sentence")
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hits, count = _clipped_matches(cand, ref, n)
            matched[n - 1] += hits
            total[n - 1] += count
    log_sum = 0.0
    for n in range(max_n):
        if total[n] == 0:
            p = BLEU_EPSILON
        else:
            p = (matched[n] if matched[n] > 0 else BLEU_EPSILON) / total[n]
        log_sum += math.log(p)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum / max_n)


# ---------------------------------------------------------------------------
# METEOR-lite
# ---------------------------------------------------------------------------


class _BudgetExceeded(Exception):
    pass


def _stage_groups(cand, ref, cand_free, ref_free, key_fn):
    cmap: dict[str, list[int]] = {}
    rmap: dict[str, list[int]] = {}
    for i in sorted(cand_free):
        cmap.setdefault(key_fn(cand[i]), []).append(i)
    for j in sorted(ref_free):
        rmap.setdefault(key_fn(ref[j]), []).append(j)
    groups = []
    for key in sorted(cmap):
        if key in rmap:
            groups.append((cmap[key], rmap[key], min(len(cmap[key]), len(rmap[key]))))
    return groups


def _count_chunks(pairs: list[tuple[int, int]]) -> int:
    if not pairs:
        return 0
    pairs = sorted(pairs)
    chunks = 1
    for (pi, pj), (qi, qj) in zip(pairs, pairs[1:]):
        if not (qi == pi + 1 and qj == pj + 1):
            chunks += 1
    return chunks


def _align(cand: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int]]:
    """Two-stage unigram alignment (exact then stem), maximal in match
    count; among maximal alignments the chunk count is minimized, by
    exhaustive search up to a node budget and leftmost-in-order pairing
    beyond it.  Each word is stemmed once per call: the search revisits
    the same free tokens at every node."""
    stages = (lambda t: t, functools.cache(stem))
    best: list[tuple[int, int] | None] = [None]
    best_chunks = [len(cand) + len(ref) + 1]
    budget = [_ALIGN_BUDGET]

    def dfs_stage(stage_idx, cand_free, ref_free, pairs):
        if stage_idx == len(stages):
            chunks = _count_chunks(pairs)
            if chunks < best_chunks[0]:
                best_chunks[0] = chunks
                best[0] = list(pairs)
            return
        groups = _stage_groups(cand, ref, cand_free, ref_free, stages[stage_idx])
        dfs_group(stage_idx, groups, 0, cand_free, ref_free, pairs)

    def dfs_group(stage_idx, groups, gi, cand_free, ref_free, pairs):
        if gi == len(groups):
            dfs_stage(stage_idx + 1, cand_free, ref_free, pairs)
            return
        ci, rj, k = groups[gi]
        for csel in combinations(ci, k):
            for rsel in combinations(rj, k):
                for rperm in permutations(rsel):
                    budget[0] -= 1
                    if budget[0] <= 0:
                        raise _BudgetExceeded
                    dfs_group(
                        stage_idx, groups, gi + 1,
                        cand_free - set(csel), ref_free - set(rperm),
                        pairs + list(zip(csel, rperm)),
                    )

    try:
        dfs_stage(0, frozenset(range(len(cand))), frozenset(range(len(ref))), [])
        assert best[0] is not None
        return best[0]
    except _BudgetExceeded:
        return _align_in_order(cand, ref, stages)


def _align_in_order(cand, ref, stages) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    cand_free = set(range(len(cand)))
    ref_free = set(range(len(ref)))
    for key_fn in stages:
        for ci, rj, k in _stage_groups(cand, ref, cand_free, ref_free, key_fn):
            for i, j in zip(ci[:k], rj[:k]):
                pairs.append((i, j))
                cand_free.discard(i)
                ref_free.discard(j)
    return pairs


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


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    # rounding can push a vector's cosine with itself just above 1
    return min(1.0, float(np.dot(a, b)) / (na * nb))


def _directional_mean(src, dst, store: WordVectorStore) -> tuple[float, int]:
    """Mean best-match cosine of src's tokens against dst, and how many
    of src's tokens are out of vocabulary."""
    sims = []
    oov = 0
    for token in src:
        v = store.get(token)
        if v is None:
            oov += 1
            sims.append(0.0)
            continue
        # starting at 0.0 floors negative best-matches, keeping the
        # score inside [0, 100]
        best = 0.0
        for other in dst:
            w = store.get(other)
            if w is not None:
                best = max(best, _cosine(v, w))
        sims.append(best)
    return sum(sims) / len(sims), oov


def _embedding_greedy(candidate: Sequence[str], reference: Sequence[str],
                      store: WordVectorStore) -> tuple[float, int]:
    """Emb. Greedy score and the OOV tokens met in both directions."""
    if not candidate or not reference:
        raise ContractError("embedding_greedy: empty sentence")
    forward, oov_forward = _directional_mean(candidate, reference, store)
    backward, oov_backward = _directional_mean(reference, candidate, store)
    return 100.0 * 0.5 * (forward + backward), oov_forward + oov_backward


def embedding_greedy(candidate: Sequence[str], reference: Sequence[str],
                     store: WordVectorStore) -> float:
    """Greedy non-exclusive best-cosine alignment averaged over both
    directions, in [0, 100]; OOV tokens contribute similarity 0."""
    return _embedding_greedy(candidate, reference, store)[0]


# ---------------------------------------------------------------------------
# corpus report
# ---------------------------------------------------------------------------

REPORT_NOTES = (
    "BLEU: corpus-level, n=1..4 uniform weights, add-epsilon smoothing "
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
                     + "\t".join(f"p{n}" for n in range(1, 5))
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
    for cand, ref in zip(candidates, references):
        emb = None
        if store is not None:
            emb, oov = _embedding_greedy(cand, ref, store)
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
