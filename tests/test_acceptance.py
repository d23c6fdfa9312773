"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s`).  Tolerances are
pinned here, not configurable."""

import time

import numpy as np
import pytest

from conftest import make_toy_pairs, prepare_toy
from fact2question import kernels
from fact2question.autodiff import finite_diff_check
from fact2question.baseline import build_template_index, sample_question
from fact2question.cli import run
from fact2question.data import Fact, QAPair, Vocabulary, tokenize
from fact2question.decoding import GenerationSession
from fact2question.metrics import bleu, embedding_greedy, meteor_lite, WordVectorStore
from fact2question.model import QGenParams, encode, sequence_log_likelihood
from fact2question.placeholders import (
    is_placeholder,
    placeholderize,
    restore,
    subject_text,
)
from fact2question.training import TrainConfig, train
from test_decoding import _brute_force
from test_metrics import BLEU_FIXTURES


def _report(criterion: int, description: str, ok: bool):
    print(f"ACCEPTANCE {criterion} ({description}): {'PASS' if ok else 'FAIL'}",
          flush=True)
    assert ok, f"acceptance criterion {criterion} failed: {description}"


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    input_vocab = Vocabulary(["<unk>", "s0", "r0", "o0"])
    output_vocab = Vocabulary(["<unk>", "<bos>", "?", "w3", "w4", "w5", "w6",
                               "w7"])
    params = QGenParams.init(n_in=4, n_out=8, d_enc=4, d_dec=4, hidden=6,
                             seed=7, input_emb=rng.normal(size=(4, 4)))
    for tensor in params.tensors.values():
        tensor[:] = rng.normal(scale=0.4, size=tensor.shape)
    fact = Fact("s0", "r0", "o0")
    tokens = ["w3", "w4", "w5", "w6", "?"]

    err = finite_diff_check(
        lambda: sequence_log_likelihood(fact, tokens, params, input_vocab,
                                        output_vocab),
        params.tensors, eps=1e-5)
    elapsed = time.perf_counter() - started
    print(f"  max relative error {err:.3e}, {elapsed:.1f}s")
    _report(1, "gradients vs central finite differences <= 1e-4",
            err <= 1e-4 and elapsed < 60.0)


def test_criterion_2_toy_overfit():
    started = time.perf_counter()
    prepared, input_vocab, output_vocab, params = prepare_toy(
        n_pairs=20, hidden=64, d_enc=8, d_dec=16, seed=0)
    assert len({ph.fact.relationship for _, ph in prepared}) == 5
    config = TrainConfig(learning_rate=0.00025, clip_norm=0.1, batch_size=32,
                         patience=50, eval_every=300, max_steps=1200, seed=0)
    result = train(prepared, prepared, params, config, input_vocab,
                   output_vocab)
    assert result.steps <= 2000

    total_nll = total_tokens = 0.0
    for _, ph in prepared:
        ll = sequence_log_likelihood(ph.fact, list(ph.tokens), result.params,
                                     input_vocab, output_vocab)
        total_nll -= ll.item()
        total_tokens += len(ph.tokens)
    nll_per_token = total_nll / total_tokens

    session = GenerationSession(result.params, input_vocab, output_vocab,
                                max_len=12)
    exact = sum(1 for pair, _ in prepared
                if session.to_words(session.greedy_indices(pair.fact), pair.fact)
                == list(pair.question_tokens))
    elapsed = time.perf_counter() - started
    print(f"  nll/token {nll_per_token:.4f}, reproduced {exact}/20, "
          f"{elapsed:.0f}s")
    _report(2, "toy overfit: nll/token < 0.05 and 20/20 greedy reproduction",
            nll_per_token < 0.05 and exact == 20 and elapsed < 600.0)


def test_criterion_3_transe_toy_graph():
    from fact2question.transe import TransEConfig, train_transe

    started = time.perf_counter()
    triples = [Fact(f"item_{i:02d}", "type/instance",
                    "type_a" if i < 9 else "type_b") for i in range(18)]
    model = train_transe(triples, TransEConfig(dim=16, epochs=200, seed=0,
                                               learning_rate=0.05))

    def cluster(entity):
        if entity in ("type_a", "type_b"):
            return entity
        return "type_a" if int(entity.split("_")[1]) < 9 else "type_b"

    assert len(model.entity_ids) == 20
    in_cluster = sum(
        1 for entity in model.entity_ids
        if cluster(model.nearest_neighbors(entity, 1)[0][0]) == cluster(entity))

    rng = np.random.default_rng(0)
    corrupted = [Fact(f.subject, f.relationship,
                      model.entity_ids[int(rng.integers(20))]) for f in triples]
    true_mean = float(np.mean([model.energy(f) for f in triples]))
    corrupt_mean = float(np.mean([model.energy(f) for f in corrupted]))
    elapsed = time.perf_counter() - started
    print(f"  cluster purity {in_cluster}/20, energies {true_mean:.3f} vs "
          f"{corrupt_mean:.3f}, {elapsed:.1f}s")
    _report(3, "toy graph: 20/20 nearest neighbors in-cluster, energies split",
            in_cluster == 20 and true_mean < corrupt_mean and elapsed < 60.0)


def test_criterion_4_metric_oracles():
    ok = True
    for _, cands, refs, expected in BLEU_FIXTURES:
        ok &= abs(bleu(cands, refs) - expected) <= 1e-9
    for m in (1, 2, 5):
        sentence = [f"tok{i}" for i in range(m)]
        ok &= meteor_lite(sentence, sentence) == 100.0 * (1.0 - 0.5 / m ** 3)
    store = WordVectorStore({"who": np.array([1.0, 2.0]),
                             "made": np.array([-1.0, 0.5]),
                             "it": np.array([0.3, 0.3]),
                             "?": np.array([0.0, 1.0])})
    sentence = ["who", "made", "it", "?"]
    ok &= embedding_greedy(sentence, sentence, store) == pytest.approx(100.0)
    _report(4, "BLEU fixture suite to 1e-9, METEOR-lite closed form, "
               "Emb. Greedy reflexivity", bool(ok))


def test_criterion_5_placeholder_round_trip():
    pair = QAPair(Fact("fires_creek", "location/location/contained_by",
                       "nantahala_national_forest"),
                  tuple(tokenize("Which forest is Fires Creek in?")))
    ph = placeholderize(pair, mode="sp")
    ok = sum(1 for t in ph.tokens if is_placeholder(t)) == 1
    restored = restore(ph.tokens, subject_text(pair.fact))
    ok &= " ".join(restored) == "which forest is fires creek in ?"

    # 500-pair fixture: every perfect-span pair must round-trip exactly
    rng = np.random.default_rng(42)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    checked = 0
    for i in range(500):
        n_subj = int(rng.integers(1, 4))
        subject_tokens = [vocab[int(j)] for j in rng.integers(0, len(vocab),
                                                              n_subj)]
        subject = "_".join(subject_tokens)
        prefix = [vocab[int(j)] for j in rng.integers(0, len(vocab),
                                                      int(rng.integers(1, 4)))]
        suffix = [vocab[int(j)] for j in rng.integers(0, len(vocab),
                                                      int(rng.integers(0, 3)))]
        tokens = tuple(prefix) + tuple(subject_tokens) + tuple(suffix) + ("?",)
        p = QAPair(Fact(subject, "d/t/p", f"obj_{i}"), tokens)
        result = placeholderize(p, mode="sp")
        if result.score == 1.0:
            checked += 1
            restored = restore(result.tokens, subject_text(p.fact))
            ok &= restored == list(tokens)
    print(f"  {checked}/500 fixture pairs had perfect spans; all round-tripped")
    ok &= checked > 0
    _report(5, "placeholder round-trip on the worked example and 500-pair "
               "fixture", bool(ok))


def test_criterion_6_baseline_contract():
    templates = [
        placeholderize(QAPair(Fact("paris", "location/location/contained_by",
                                   "france"),
                              tuple(tokenize("where is paris?")))),
        placeholderize(QAPair(Fact("lyon", "location/location/contained_by",
                                   "france"),
                              tuple(tokenize("what country is lyon located in?")))),
    ]
    index = build_template_index(templates)
    template_tokens = {t for tmpl in index[
        "location/location/contained_by"] for t in tmpl}
    fact = Fact("bayuvi_dupki", "location/location/contained_by", "europe")

    ok = True
    counts = {"where": 0, "what": 0}
    draws = 10_000
    for seed in range(draws):
        words = sample_question(fact, index, seed)
        ok &= "bayuvi dupki" in " ".join(words)
        ok &= all(t in template_tokens for t in words
                  if t not in ("bayuvi", "dupki"))
        counts[words[0]] += 1
    deviation = max(abs(c / draws - 0.5) for c in counts.values())
    print(f"  template frequencies {counts}, max deviation {deviation:.4f}")
    _report(6, "baseline substitution contract and 2% sampling uniformity",
            bool(ok) and deviation <= 0.02)


def test_criterion_7_decoding_equivalence():
    input_vocab = Vocabulary(["<unk>"] + [f"e{i}" for i in range(10)]
                             + [f"r{i}" for i in range(3)])
    output_vocab = Vocabulary(["<unk>", "<bos>", "?", "a", "b"])
    rng = np.random.default_rng(5)
    params = QGenParams.init(n_in=len(input_vocab), n_out=len(output_vocab),
                             d_enc=4, d_dec=4, hidden=5, seed=5,
                             input_emb=rng.normal(size=(len(input_vocab), 4)))
    session = GenerationSession(params, input_vocab, output_vocab, max_len=6)

    ok = True
    for _ in range(100):
        fact = Fact(f"e{rng.integers(10)}", f"r{rng.integers(3)}",
                    f"e{rng.integers(10)}")
        greedy = session.greedy_indices(fact)
        beam1 = session.beam_indices(fact, width=1)
        ok &= len(beam1) == 1 and list(beam1[0].tokens) == greedy

    # exhaustive beam against brute-force enumeration on V=3, max_len=3
    tiny_vocab = Vocabulary(["<unk>", "<bos>", "?"])
    tiny = QGenParams.init(n_in=len(input_vocab), n_out=3, d_enc=4, d_dec=4,
                           hidden=5, seed=11,
                           input_emb=rng.normal(size=(len(input_vocab), 4)))
    tiny_session = GenerationSession(tiny, input_vocab, tiny_vocab, max_len=3)
    fact = Fact("e0", "r0", "e1")
    beam = tiny_session.beam_indices(fact, width=3 ** 3)
    oracle = _brute_force(tiny_session, tiny, tiny_vocab, fact,
                          input_vocab=input_vocab)
    ok &= beam[0].tokens == oracle[0][0]
    ok &= [b.tokens for b in beam] == [seq for seq, _ in oracle[:len(beam)]]
    _report(7, "beam(1) == greedy on 100 facts; exhaustive beam == brute force",
            bool(ok))


def test_criterion_8_attention_invariant():
    input_vocab = Vocabulary(["<unk>", "s", "r", "o"])
    fact = Fact("s", "r", "o")
    ok = True
    rng = np.random.default_rng(0)
    for draw in range(1000):
        params = QGenParams.init(n_in=4, n_out=5, d_enc=3, d_dec=3, hidden=4,
                                 seed=draw,
                                 input_emb=rng.normal(size=(4, 3)))
        for tensor in params.tensors.values():
            tensor[:] = rng.normal(scale=2.0, size=tensor.shape)
        (enc_s, enc_r, enc_o, enc_all), _ = encode(fact, params, input_vocab)
        h_prev = rng.normal(size=4)
        step = kernels.decode_step(
            params.tensors["word_emb"][1], h_prev, enc_s, enc_r, enc_o,
            enc_all, *(params.tensors[name] for name in kernels.STEP_WEIGHTS))
        a = step.alpha
        ok &= bool(np.all((a > 0.0) & (a < 1.0)))
        weighted = a[0] * enc_s + a[1] * enc_r + a[2] * enc_o
        ok &= bool(np.max(np.abs(step.c - weighted)) <= 1e-12)
    _report(8, "1000 draws: attention scalars in (0,1), c is the weighted sum",
            bool(ok))


def test_criterion_9_cli_determinism(tmp_path):
    pairs = make_toy_pairs(12)
    train_path, valid_path = tmp_path / "train.txt", tmp_path / "valid.txt"
    facts_path = tmp_path / "facts.tsv"
    with open(train_path, "w", encoding="utf-8") as fh:
        for p in pairs[:9]:
            fh.write(f"{p.fact.subject}\t{p.fact.relationship}\t"
                     f"{p.fact.object}\t{' '.join(p.question_tokens)}\n")
    with open(valid_path, "w", encoding="utf-8") as fh:
        for p in pairs[9:]:
            fh.write(f"{p.fact.subject}\t{p.fact.relationship}\t"
                     f"{p.fact.object}\t{' '.join(p.question_tokens)}\n")
    with open(facts_path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(f"{p.fact.subject}\t{p.fact.relationship}\t"
                     f"{p.fact.object}\n")

    def pipeline(tag):
        d = tmp_path / tag
        d.mkdir()
        ent, rel = d / "ent.txt", d / "rel.txt"
        assert run(["train-transe", "--questions",
                    f"{train_path},{valid_path}", "--dim", "8", "--epochs",
                    "4", "--seed", "13", "--out-entities", str(ent),
                    "--out-relations", str(rel)]) == 0
        model_dir = d / "model"
        assert run(["train-qgen", "--train", str(train_path), "--valid",
                    str(valid_path), "--entity-embeddings", str(ent),
                    "--relationship-embeddings", str(rel), "--hidden", "10",
                    "--word-dim", "6", "--max-steps", "6", "--eval-every",
                    "100", "--seed", "13", "--out-dir", str(model_dir)]) == 0
        corpus = d / "corpus.tsv"
        assert run(["generate", "--facts", str(facts_path), "--checkpoint",
                    str(model_dir / "checkpoint.bin"), "--input-vocab",
                    str(model_dir / "input_vocab.tsv"), "--output-vocab",
                    str(model_dir / "output_vocab.tsv"), "--width", "2",
                    "--max-len", "8", "--output", str(corpus)]) == 0
        baseline_out = d / "baseline.tsv"
        assert run(["baseline", "--train", str(train_path), "--facts",
                    str(facts_path), "--seed", "13", "--output",
                    str(baseline_out)]) == 0
        report = d / "report.tsv"
        # evaluate needs plain question files; derive them from the corpus
        questions = d / "questions.txt"
        with open(corpus, encoding="utf-8") as fh, \
                open(questions, "w", encoding="utf-8") as out:
            for line in fh:
                out.write(line.rstrip("\n").split("\t")[3] + "\n")
        assert run(["evaluate", "--candidates", str(questions),
                    "--references", str(questions), "--report",
                    str(report)]) == 0
        return {
            "entities": ent.read_bytes(),
            "relations": rel.read_bytes(),
            "checkpoint": (model_dir / "checkpoint.bin").read_bytes(),
            "input_vocab": (model_dir / "input_vocab.tsv").read_bytes(),
            "output_vocab": (model_dir / "output_vocab.tsv").read_bytes(),
            # every column but the last, wall-seconds
            "train_log": [line.rsplit("\t", 1)[0] for line in
                          (model_dir / "train_log.tsv").read_text("utf-8").splitlines()],
            "corpus": corpus.read_bytes(),
            "baseline": baseline_out.read_bytes(),
            "report": report.read_bytes(),
        }

    first = pipeline("run_a")
    second = pipeline("run_b")
    same = {k for k in first if first[k] == second[k]}
    print(f"  byte-identical artifacts: {sorted(same)}")
    _report(9, "identical seeds give byte-identical corpora/reports/checkpoints",
            same == set(first))
