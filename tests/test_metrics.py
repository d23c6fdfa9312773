import math

import numpy as np
import pytest

from fact2question import metrics
from fact2question.errors import ContractError, ParseError
from fact2question.metrics import (
    WordVectorStore,
    bleu,
    embedding_greedy,
    evaluate_corpus,
    meteor_lite,
    sentence_precisions,
)


def T(s):
    return s.split()


# ---------------------------------------------------------------------------
# BLEU: frozen hand-computed fixture suite (clipped counts worked out by
# hand, float formula applied with the documented epsilon smoothing)
# ---------------------------------------------------------------------------

BLEU_FIXTURES = [
    # perfect match, 2 pairs -> 100
    ("perfect",
     [T("which forest is fires creek in ?"), T("who made neo contra ?")],
     [T("which forest is fires creek in ?"), T("who made neo contra ?")],
     100.0),
    # the clipped classic: unigram precision 1/4, higher orders smoothed
    ("clipped",
     [T("the the the the")], [T("the cat sat down")],
     8.034284189446515e-06),
    # 5-pair mixed corpus; pooled clipped counts 23/32, 14/27, 7/22, 4/17, BP=1
    ("mixed_five",
     [T("what country is cuveglio located in ?"),
      T("who recorded africa ?"),
      T("where did joe smith die ?"),
      T("what is the name of a place within illinois ?"),
      T("who published neo contra ?")],
     [T("what country is cuveglio in ?"),
      T("who released the recording africa ?"),
      T("where did joe smith die ?"),
      T("what is in illinois ?"),
      T("who is the publisher of neo contra ?")],
     40.87023544404946),
    # short candidate: brevity penalty exp(1 - 9/4)
    ("brevity",
     [T("where is paris ?")], [T("where in france is the city of paris ?")],
     0.0005788873842202406),
    # no trigrams/fourgrams exist at all: those orders fall back to epsilon
    ("short_orders",
     [T("who ?"), T("what ?")], [T("who is it ?"), T("what ?")],
     0.0016128547594605176),
]


@pytest.mark.parametrize("name,cands,refs,expected",
                         BLEU_FIXTURES, ids=[f[0] for f in BLEU_FIXTURES])
def test_bleu_fixture_suite(name, cands, refs, expected):
    assert bleu(cands, refs) == pytest.approx(expected, abs=1e-9)


def test_bleu_modified_unigram_precision_is_clipped():
    precisions = sentence_precisions(T("the the the the"), T("the cat sat down"))
    assert precisions[0] == 0.25


def test_bleu_invariant_to_pair_order():
    cands = [T("who made neo contra ?"), T("where is paris ?")]
    refs = [T("who published neo contra ?"), T("where is the city of paris ?")]
    forward = bleu(cands, refs)
    backward = bleu(cands[::-1], refs[::-1])
    assert forward == pytest.approx(backward, abs=1e-12)


def test_bleu_token_renaming_invariance():
    rename = {"who": "x1", "made": "x2", "neo": "x3", "contra": "x4", "?": "x5",
              "published": "x6"}
    cands = [T("who made neo contra ?")]
    refs = [T("who published neo contra ?")]
    renamed_c = [[rename[t] for t in cands[0]]]
    renamed_r = [[rename[t] for t in refs[0]]]
    assert bleu(cands, refs) == pytest.approx(bleu(renamed_c, renamed_r), abs=1e-12)


def test_bleu_contract_errors():
    with pytest.raises(ContractError):
        bleu([], [])
    with pytest.raises(ContractError):
        bleu([T("a b")], [])
    with pytest.raises(ContractError):
        bleu([[]], [T("a")])


# ---------------------------------------------------------------------------
# METEOR-lite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 5])
def test_meteor_identical_closed_form(m):
    sentence = [f"tok{i}" for i in range(m)]
    assert meteor_lite(sentence, sentence) == 100.0 * (1.0 - 0.5 / m ** 3)


def test_meteor_disjoint_is_zero():
    assert meteor_lite(T("alpha beta"), T("gamma delta")) == 0.0


def test_meteor_single_shared_word_penalty_half():
    # matches=1, chunks=1 -> penalty 0.5; P=R=1/3 -> F=1/3
    score = meteor_lite(T("a b c"), T("a x y"))
    assert score == pytest.approx(100.0 * (1.0 / 3.0) * 0.5, abs=1e-12)


def test_meteor_stem_stage_aligns_inflections():
    score = meteor_lite(T("the cat walked ?"), T("the cat walking ?"))
    # all four unigrams align (walked/walking by stem), one chunk
    assert score == pytest.approx(100.0 * (1.0 - 0.5 / 64.0), abs=1e-12)


def test_meteor_precision_recall_asymmetry():
    # cand "a b" vs ref "a b c d": m=2, chunks=1, P=1, R=1/2
    f_mean = 10.0 * 1.0 * 0.5 / (0.5 + 9.0 * 1.0)
    expected = 100.0 * f_mean * (1.0 - 0.5 * (1 ** 3) / (2 ** 3))
    assert meteor_lite(T("a b"), T("a b c d")) == pytest.approx(expected, abs=1e-12)


def test_meteor_chunk_count_is_minimized_over_tied_alignments():
    # pairing the repeated "a"s in crossing order yields 2 chunks, the
    # naive in-order pairing 3; the score must reflect the minimum
    score = meteor_lite(T("a a b"), T("a b a"))
    expected = 100.0 * (1.0 - 0.5 * (2 ** 3) / (3 ** 3))
    assert score == pytest.approx(expected, abs=1e-12)


def test_meteor_fragmented_alignment_pays_penalty():
    contiguous = meteor_lite(T("a b c"), T("a b c"))
    fragmented = meteor_lite(T("a b c"), T("a x b y c"))
    assert fragmented < contiguous


def test_meteor_empty_rejected():
    with pytest.raises(ContractError):
        meteor_lite([], T("a"))


def test_meteor_renaming_invariance_for_stem_fixed_tokens():
    # renaming within stem-fixed-point tokens permutes nothing that the
    # stem stage could see differently
    cand, ref = T("tok1 tok2 tok3 ?"), T("tok1 tok9 tok3 ?")
    rename = {t: f"x{t}" for t in set(cand) | set(ref)}
    renamed_c = [rename[t] for t in cand]
    renamed_r = [rename[t] for t in ref]
    assert meteor_lite(cand, ref) == pytest.approx(
        meteor_lite(renamed_c, renamed_r), abs=1e-12)


def test_meteor_stems_each_word_once_per_call(monkeypatch):
    # a decoder that repeats a 3-word subject 28 times: far too many
    # alignments to search, and the stem stage still sees each free word
    # through the module's `stem`, which traced runs patch
    cand = T("what is the " + "john smith jr " * 28 + "?")
    ref = T("what is the birthplace of john smith jr ?")
    calls = []
    monkeypatch.setattr(metrics, "stem", lambda w: calls.append(w) or w)
    assert meteor_lite(cand, ref) == 39.78988044922111
    assert len(calls) <= len(cand) + len(ref)
    calls.clear()
    monkeypatch.setattr(metrics, "stem", lambda w: calls.append(w) or w[:4])
    assert meteor_lite(T("the cat walked ?"), T("the cat walking ?")) == \
        100.0 * (1.0 - 0.5 / 64.0)
    assert sorted(calls) == ["walked", "walking"]


def test_meteor_never_exceeds_100():
    rng = np.random.default_rng(0)
    words = ["w%d" % i for i in range(6)]
    for _ in range(200):
        cand = [words[i] for i in rng.integers(0, 6, rng.integers(1, 8))]
        ref = [words[i] for i in rng.integers(0, 6, rng.integers(1, 8))]
        assert 0.0 <= meteor_lite(cand, ref) <= 100.0


# ---------------------------------------------------------------------------
# Embedding Greedy
# ---------------------------------------------------------------------------


def _store():
    rt2 = np.sqrt(2.0) / 2.0
    return WordVectorStore({
        "east": np.array([1.0, 0.0]),
        "north": np.array([0.0, 1.0]),
        "northeast": np.array([rt2, rt2]),
        "west": np.array([-1.0, 0.0]),
        "big": np.array([2.0, 0.0]),
    })


def test_embedding_greedy_identical_sentence_is_100():
    store = _store()
    assert embedding_greedy(T("east north"), T("east north"), store) == \
        pytest.approx(100.0)
    # a vector whose cosine with itself rounds to 1.0000000000000002
    store = WordVectorStore({"a": np.random.default_rng(3).standard_normal(8)})
    score = embedding_greedy(["a"], ["a"], store)
    assert score == pytest.approx(100.0)
    assert score <= 100.0


def test_embedding_greedy_orthogonal_is_zero():
    store = _store()
    assert embedding_greedy(T("east"), T("north"), store) == 0.0


def test_embedding_greedy_known_angles():
    store = _store()
    # forward: east->northeast and north->northeast both cos 45deg;
    # backward: northeast->max(east, north) = cos 45deg
    expected = 100.0 * np.sqrt(2.0) / 2.0
    assert embedding_greedy(T("east north"), T("northeast"), store) == \
        pytest.approx(expected, abs=1e-9)


def test_embedding_greedy_cosine_ignores_magnitude():
    store = _store()
    assert embedding_greedy(T("big"), T("east"), store) == pytest.approx(100.0)


def test_embedding_greedy_negative_best_floors_at_zero():
    store = _store()
    assert embedding_greedy(T("east"), T("west"), store) == 0.0


def test_embedding_greedy_oov_contributes_zero():
    store = _store()
    # forward: unknown->0, east->1 => 0.5; backward: east->1 => mean 0.75
    score = embedding_greedy(T("unknown east"), T("east"), store)
    assert score == pytest.approx(100.0 * 0.75)


def test_embedding_greedy_empty_rejected():
    store = _store()
    with pytest.raises(ContractError):
        embedding_greedy([], T("east"), store)


def test_word_vector_store_load_and_oov(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 3\nalpha 1.0 0.0 0.0\nbeta 0.0 1.0 0.0\n",
                    encoding="utf-8")
    store = WordVectorStore.load(path)
    np.testing.assert_array_equal(store.get("alpha"), [1.0, 0.0, 0.0])
    assert store.get("missing") is None
    np.testing.assert_array_equal(store.get("beta"), [0.0, 1.0, 0.0])


def test_word_vector_store_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("nope\n", encoding="utf-8")
    with pytest.raises(ParseError):
        WordVectorStore.load(bad_header)
    bad_dim = tmp_path / "b.txt"
    bad_dim.write_text("1 3\nalpha 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="b.txt:2"):
        WordVectorStore.load(bad_dim)
    bad_count = tmp_path / "c.txt"
    bad_count.write_text("2 2\nalpha 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        WordVectorStore.load(bad_count)
    huge_count = tmp_path / "d.txt"
    huge_count.write_text("100000000000 1\nalpha 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="promised 100000000000 rows, found 1"):
        WordVectorStore.load(huge_count)
    duplicate = tmp_path / "e.txt"
    duplicate.write_text("2 1\nalpha 1.0\nalpha 2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="e.txt:3: duplicate id 'alpha'"):
        WordVectorStore.load(duplicate)
    not_a_number = tmp_path / "f.txt"
    not_a_number.write_text("1 1\nalpha one\n", encoding="utf-8")
    with pytest.raises(ParseError, match="f.txt:2"):
        WordVectorStore.load(not_a_number)


# ---------------------------------------------------------------------------
# corpus report
# ---------------------------------------------------------------------------


def test_evaluate_corpus_reflexive():
    cands = [T("which forest is fires creek in ?"), T("who made neo contra ?")]
    store = _store()
    report = evaluate_corpus(cands, [list(c) for c in cands], store=None)
    assert report.bleu == pytest.approx(100.0, abs=1e-9)
    expected_meteor = np.mean([100.0 * (1.0 - 0.5 / len(c) ** 3) for c in cands])
    assert report.meteor_lite == pytest.approx(expected_meteor, abs=1e-12)
    assert report.emb_greedy is None


def test_evaluate_corpus_with_store_scores_and_counts_oov():
    store = _store()
    report = evaluate_corpus([T("east mystery")], [T("east mystery")], store)
    assert report.emb_greedy is not None
    assert report.oov_count == 2  # both directions see the unknown token

    cands = [T("east mystery north"), T("big"), T("who east ?")]
    refs = [T("northeast"), T("west unknown unknown"), T("north ?")]
    report = evaluate_corpus(cands, refs, store)
    for ex, c, r in zip(report.examples, cands, refs):
        assert ex.emb_greedy == embedding_greedy(c, r, store)
    # mystery; unknown x2; who, ? and ?
    assert report.oov_count == sum(
        store.get(tok) is None for c, r in zip(cands, refs) for tok in c + r) == 6
    assert report.emb_greedy == pytest.approx(
        np.mean([embedding_greedy(c, r, store) for c, r in zip(cands, refs)]),
        abs=1e-12)


def test_evaluate_corpus_matches_per_metric_oracles():
    cands = [T("who recorded africa ?"), T("where did joe smith die ?"),
             T("what is in illinois ?"), T("who made neo contra ?"),
             T("where is paris ?")]
    refs = [T("who released the recording africa ?"),
            T("where did joe smith die ?"),
            T("what is the name of a place within illinois ?"),
            T("who published neo contra ?"),
            T("where in france is paris ?")]
    report = evaluate_corpus(cands, refs)
    assert report.bleu == pytest.approx(bleu(cands, refs), abs=1e-12)
    assert report.meteor_lite == pytest.approx(
        np.mean([meteor_lite(c, r) for c, r in zip(cands, refs)]), abs=1e-12)
    assert len(report.examples) == 5
    for ex, c, r in zip(report.examples, cands, refs):
        assert ex.precisions == sentence_precisions(c, r)


def _oracle_cosine(a, b):
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(1.0, float(np.dot(a, b)) / (na * nb))


def _oracle_directional_mean(src, dst, store):
    sims = []
    oov = 0
    for token in src:
        v = store.get(token)
        if v is None:
            oov += 1
            sims.append(0.0)
            continue
        best = 0.0
        for other in dst:
            w = store.get(other)
            if w is not None:
                best = max(best, _oracle_cosine(v, w))
        sims.append(best)
    return sum(sims) / len(sims), oov


def _oracle_report(cands, refs, store):
    """evaluate_corpus as it was before each pair's cosines were shared
    between directions: both directions recompute every cosine."""
    examples, oov_total = [], 0
    for c, r in zip(cands, refs):
        forward, oov_forward = _oracle_directional_mean(c, r, store)
        backward, oov_backward = _oracle_directional_mean(r, c, store)
        oov_total += oov_forward + oov_backward
        examples.append(metrics.ExampleScore(
            candidate=list(c), reference=list(r),
            precisions=sentence_precisions(c, r), meteor_lite=meteor_lite(c, r),
            emb_greedy=100.0 * 0.5 * (forward + backward)))
    return metrics.MetricReport(
        bleu=bleu(cands, refs),
        meteor_lite=sum(ex.meteor_lite for ex in examples) / len(examples),
        emb_greedy=sum(ex.emb_greedy for ex in examples) / len(examples),
        examples=examples, oov_count=oov_total)


def _oracle_corpus(seed):
    """A store with a zero vector, a vector pointing opposite another and
    random vectors, and pairs drawn with OOV and repeated tokens,
    identical sentences and one-token sentences."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(12)]
    vectors = {w: rng.standard_normal(6) * rng.uniform(0.1, 10.0) for w in words}
    vectors["zero"] = np.zeros(6)
    vectors["anti"] = -vectors["w0"]
    vocab = list(vectors) + ["oov1", "oov2"]

    def sentence(n):
        return [vocab[i] for i in rng.integers(0, len(vocab), n)]

    cands, refs = [], []
    for _ in range(40):
        c = sentence(int(rng.integers(1, 9)))
        shape = rng.integers(0, 4)
        r = (list(c) if shape == 0 else sentence(1) if shape == 1
             else c[:1] * 3 + sentence(2) if shape == 2 else sentence(int(rng.integers(1, 9))))
        cands.append(c)
        refs.append(r)
    return cands, refs, WordVectorStore(vectors)


@pytest.mark.parametrize("seed", range(8))
def test_evaluate_corpus_matches_the_pairwise_oracle(seed):
    cands, refs, store = _oracle_corpus(seed)
    cands += [T("w1"), T("oov1"), T("zero zero"), T("w3 w3 oov2")]
    refs += [T("w1"), T("oov1 oov2"), T("zero w2"), T("w3 w3 oov2")]
    # the draws reach every case the shared matrix must get right
    flat = [t for s in cands + refs for t in s]
    assert "zero" in flat and "oov1" in flat and "anti" in flat
    assert any(c == r for c, r in zip(cands, refs))
    assert any(len(c) != len(set(c)) for c in cands)
    assert any(len(c) == 1 for c in cands) and any(len(r) == 1 for r in refs)
    # some vector's unrounded cosine with itself is above 1
    assert any(float(np.dot(v, v)) / math.sqrt(float(np.dot(v, v))) ** 2 > 1.0
               for v in map(store.get, flat) if v is not None and v.any())
    report = evaluate_corpus(cands, refs, store)
    oracle = _oracle_report(cands, refs, store)
    assert report.examples == oracle.examples
    assert (report.bleu, report.meteor_lite, report.emb_greedy, report.oov_count) == \
        (oracle.bleu, oracle.meteor_lite, oracle.emb_greedy, oracle.oov_count)
    for c, r, ex in zip(cands, refs, oracle.examples):
        assert embedding_greedy(c, r, store) == ex.emb_greedy


def test_evaluate_corpus_contract_errors():
    with pytest.raises(ContractError):
        evaluate_corpus([], [])
    with pytest.raises(ContractError):
        evaluate_corpus([T("a")], [])


def test_report_tsv_documents_smoothing_and_labels(tmp_path):
    report = evaluate_corpus([T("who made neo contra ?")],
                             [T("who made neo contra ?")], _store())
    path = tmp_path / "report.tsv"
    report.write_tsv(path)
    text = path.read_text(encoding="utf-8")
    assert "METEOR-lite" in text
    assert "add-epsilon" in text
    assert "bleu\t" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(rows) == 4 + 2  # summary lines + column header + 1 example
