"""METEOR-lite's alignment against a depth-first search oracle.

`_reference_align` is the earlier form of `metrics._align`: a depth-first
search over every maximal alignment that counts its nodes and, at the
20,000th, gives up for the leftmost-in-order alignment.  The program
decides the size of that search before running it; the scores must not
change.
"""

import functools
from itertools import combinations, permutations

import numpy as np
import pytest

from fact2question import metrics
from fact2question.metrics import meteor_lite
from fact2question.porter import stem

BUDGET = 20000


class _BudgetExceeded(Exception):
    pass


def _reference_groups(cand, ref, cand_free, ref_free, key_fn):
    cmap, rmap = {}, {}
    for i in sorted(cand_free):
        cmap.setdefault(key_fn(cand[i]), []).append(i)
    for j in sorted(ref_free):
        rmap.setdefault(key_fn(ref[j]), []).append(j)
    groups = []
    for key in sorted(cmap):
        if key in rmap:
            groups.append((cmap[key], rmap[key], min(len(cmap[key]), len(rmap[key]))))
    return groups


def _reference_chunks(pairs):
    if not pairs:
        return 0
    pairs = sorted(pairs)
    chunks = 1
    for (pi, pj), (qi, qj) in zip(pairs, pairs[1:]):
        if not (qi == pi + 1 and qj == pj + 1):
            chunks += 1
    return chunks


def _reference_align(cand, ref):
    stages = (lambda t: t, functools.cache(stem))
    best = [None]
    best_chunks = [len(cand) + len(ref) + 1]
    budget = [BUDGET]

    def dfs_stage(stage_idx, cand_free, ref_free, pairs):
        if stage_idx == len(stages):
            chunks = _reference_chunks(pairs)
            if chunks < best_chunks[0]:
                best_chunks[0] = chunks
                best[0] = list(pairs)
            return
        groups = _reference_groups(cand, ref, cand_free, ref_free, stages[stage_idx])
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
        return best[0]
    except _BudgetExceeded:
        pairs = []
        cand_free = set(range(len(cand)))
        ref_free = set(range(len(ref)))
        for key_fn in stages:
            for ci, rj, k in _reference_groups(cand, ref, cand_free, ref_free, key_fn):
                for i, j in zip(ci[:k], rj[:k]):
                    pairs.append((i, j))
                    cand_free.discard(i)
                    ref_free.discard(j)
        return pairs


def _reference_meteor(cand, ref):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_align", _reference_align)
        return meteor_lite(cand, ref)


# repeated words, and inflections that only the stem stage pairs
WORDS = ["walk", "walked", "walking", "walks", "run", "runs", "running",
         "the", "a", "of", "who", "john", "city", "cities"]


def _seeded_pairs(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        vocab = WORDS[:int(rng.integers(11, len(WORDS) + 1))]
        yield ([vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 17))],
               [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 17))])


def _boundary_pair(sizes, seed):
    """Word g appears c times in the candidate and r times in the
    reference for the g-th (c, r), shuffled; one matching group each."""
    cand = [w for w, (c, _) in zip("abcd", sizes) for _ in range(c)]
    ref = [w for w, (_, r) in zip("abcd", sizes) for _ in range(r)]
    rng = np.random.default_rng(seed)
    return ([cand[i] for i in rng.permutation(len(cand))],
            [ref[i] for i in rng.permutation(len(ref))])


# group sizes (cand, ref) whose depth-first search has 19,999, 20,000
# and 20,001 nodes: 7 + 7*56 + 7*56*2 + 7*56*2*24 = 19,999, and so on
BOUNDARY_SIZES = [
    ([(1, 7), (2, 8), (1, 2), (3, 4)], True),
    ([(1, 2), (1, 9), (1, 10), (2, 11)], False),
    ([(1, 1), (2, 5), (1, 9), (2, 11)], False),
]


def _counting_enumeration(monkeypatch):
    entered = []
    enumerate_all = metrics._alignments

    def counted(*args):
        entered.append(args)
        return enumerate_all(*args)

    monkeypatch.setattr(metrics, "_alignments", counted)
    return entered


def test_meteor_matches_the_search_oracle_on_seeded_pairs(monkeypatch):
    entered = _counting_enumeration(monkeypatch)
    pairs = list(_seeded_pairs(2000, seed=11))
    searched = 0
    for cand, ref in pairs:
        before = len(entered)
        assert meteor_lite(cand, ref) == _reference_meteor(cand, ref), (cand, ref)
        searched += len(entered) > before
    # the sample reaches both the in-order answer and the full enumeration
    assert 0 < searched < len(pairs)


@pytest.mark.parametrize("sizes, searched", BOUNDARY_SIZES)
def test_meteor_matches_the_search_oracle_at_the_budget(monkeypatch, sizes, searched):
    entered = _counting_enumeration(monkeypatch)
    for seed in range(3):
        cand, ref = _boundary_pair(sizes, seed)
        assert meteor_lite(cand, ref) == _reference_meteor(cand, ref), (cand, ref)
    assert bool(entered) is searched


@pytest.mark.parametrize("cand, ref, score", [
    ("what is the " + "john smith jr " * 28 + "?",
     "what is the birthplace of john smith jr ?", 39.78988044922111),
    ("a " * 9, "a " * 9, 100.0 * (1.0 - 0.5 / 9 ** 3)),
])
def test_over_budget_pairs_never_enumerate(monkeypatch, cand, ref, score):
    def refuse(*args):
        raise AssertionError("over-budget pair entered the enumeration")

    monkeypatch.setattr(metrics, "_alignments", refuse)
    assert meteor_lite(cand.split(), ref.split()) == score
